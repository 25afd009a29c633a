//===- perfbench/src/Bench.h - Shared benchmark machinery ------*- C++ -*-===//
///
/// \file
/// What the three workloads share: command-line options, the percentile
/// rule, failure accounting, open-loop due times, the in-memory span
/// trace with its self-time reduction, and the metric report that main()
/// prints. Everything here is the benchmark's own logic; the self-tests
/// in SelfTest.cpp cover it.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "core/Analyzer.h"
#include "support/Common.h"
#include "support/Timer.h"

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace pb {

using tpde::i64;
using tpde::u16;
using tpde::u32;
using tpde::u64;
using tpde::u8;

inline u64 now() { return tpde::nowNs(); }
inline double toUs(u64 Ns) { return static_cast<double>(Ns) / 1e3; }

/// Command-line options. The uir_service rate settings come from
/// BENCHMARK.json (via run.py) so they are fixed per benchmark version,
/// never recalibrated at run time.
struct Options {
  std::string Workload;
  u64 Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  double UirRate = 0;                ///< Nominal arrival rate, jobs/s.
  std::vector<double> UirLadder;     ///< Rates of service.max_rate_jps.
  double UirLimitUs = 0;             ///< p99 latency limit, us.
  std::string TraceOut;              ///< Chrome trace file (traced runs).
};

// --- Statistics -------------------------------------------------------------

/// Nearest-rank quantile: the smallest sample with at least a fraction
/// \p P of the samples at or below it. \p V need not be sorted.
double quantile(std::vector<double> V, double P);
inline double median(std::vector<double> V) {
  return quantile(std::move(V), 0.5);
}

/// exec_ms and throughput_fps are read at this quantile of a run's timed
/// runs of generated code and of its request times: how fast the code runs
/// while the host leaves it alone. On the shared virtual machine the
/// benchmark was made on, the host slows both by 1.4-2x for seconds to
/// minutes at a time, so their times are bimodal and a run's median reads
/// which state the run mostly fell in: over ten runs of the same code, the
/// summed per-module median request time of jit_spec spread 35% between
/// quartiles, its 10th percentile 11%; exec_ms 41% against 12%. Slower
/// code slows every run, this quantile included.
constexpr double QuietQuantile = 0.1;

/// Samples strictly beyond the nearest-rank \p P quantile of \p N samples.
u64 samplesBeyond(u64 N, double P);

/// The percentile rule: a tail percentile may be reported only when at
/// least ten samples lie beyond it.
inline bool tailReportable(u64 N, double P) {
  return samplesBeyond(N, P) >= 10;
}

/// Sample count needed before quantile \p P is reportable.
u64 minSamplesFor(double P);

/// Quantiles per block of consecutive samples: \p Lat is cut into blocks
/// of \p Block samples (a shorter last block joins the one before it).
struct BlockStats {
  std::vector<double> P50, Tail; ///< One entry per block.
};
BlockStats blockQuantiles(const std::vector<double> &Lat, size_t Block,
                          double P);

/// Whether a closed loop that started at \p StartNs goes on: until it has
/// run \p Seconds and holds \p MinSamples samples, but never past three
/// times \p Seconds.
inline bool keepMeasuring(u64 StartNs, double Seconds, u64 Samples,
                          u64 MinSamples) {
  const u64 Elapsed = now() - StartNs, Budget = static_cast<u64>(Seconds * 1e9);
  return (Elapsed < Budget || Samples < MinSamples) && Elapsed < 3 * Budget;
}

// --- Failure accounting -----------------------------------------------------

/// Requests attempted and how they ended. Every request counts in the
/// denominator, including ones the system refused (shed, overloaded,
/// deadline exceeded); refused and wrong requests are both failures.
struct Outcome {
  u64 Attempted = 0;
  u64 Refused = 0; ///< Failed or refused by the system.
  u64 Wrong = 0;   ///< Completed with an output that differs from the oracle.

  void ok() { ++Attempted; }
  void refused() { ++Attempted, ++Refused; }
  void wrong() { ++Attempted, ++Wrong; }
  u64 failed() const { return Refused + Wrong; }
  double errorRate() const {
    return Attempted ? static_cast<double>(failed()) /
                           static_cast<double>(Attempted)
                     : 0.0;
  }
};

// --- Open loop --------------------------------------------------------------

/// Due times of an open-loop arrival process at a fixed rate. Request I is
/// due at Start + I / Rate, whatever happened to earlier requests, so a
/// stall shows up in the latency of every request queued behind it.
struct Schedule {
  u64 StartNs = 0;
  double Rate = 1; ///< Requests per second.

  u64 due(u64 I) const {
    return StartNs + static_cast<u64>(static_cast<double>(I) * 1e9 / Rate);
  }
  /// How late the generator issued request I that it sent at \p SentNs.
  u64 lateness(u64 I, u64 SentNs) const {
    u64 D = due(I);
    return SentNs > D ? SentNs - D : 0;
  }
  /// Latency of request I completing at \p DoneNs, timed from its due time.
  u64 latency(u64 I, u64 DoneNs) const {
    u64 D = due(I);
    return DoneNs > D ? DoneNs - D : 0;
  }
};

// --- Tracing ----------------------------------------------------------------

/// Span names: one per public call the benchmark makes into a module, plus
/// the request root and the replay roots.
enum class SpanName : u16 {
  Request,         ///< One request, end to end.
  TirVerify,       ///< tir::verifyModule
  Compile,         ///< tpde_tir::compileModuleX64
  CompileX64,      ///< ParallelModuleCompiler::compile (x64)
  CompileA64,      ///< ParallelModuleCompilerA64::compile
  ElfX64,          ///< asmx::writeElfObject (x64)
  ElfA64,          ///< asmx::writeElfObject (a64)
  Map,             ///< asmx::JITMapper::map
  Submit,          ///< UirCompileService::submit
  Wait,            ///< submit() returned until the result completed
  Exec,            ///< call into generated code (the oracle check)
  Replay,          ///< root of an out-of-request replay
  Prepare,         ///< TirAdapter/UirAdapter::switchFunc over a module
  Analyze,         ///< core::Analyzer::analyze over a module
  UirVerify,       ///< uir::verifyModule
  UirFingerprint,  ///< uir::fingerprintModule
  UirCompile,      ///< uir::compileTpdeUir
  Count
};
const char *spanName(SpanName N);

struct Span {
  u64 Start = 0, End = 0;
  u32 Req = 0;
  u32 Parent = ~0u; ///< Slot of the parent span; ~0u for a root.
  SpanName Name = SpanName::Request;
};

/// Spans recorded into a buffer allocated once, up front. Slots are taken
/// with one atomic increment, so the generator and checker threads of the
/// open loop can both record; a full buffer drops further spans and counts
/// them. Nothing is written out until the run ends.
class Trace {
public:
  static constexpr u32 NoSlot = ~0u;

  explicit Trace(u32 Capacity) : Buf(Capacity) {}

  /// Recording switch for begin() and Scope: the traced run alternates
  /// traced and untraced blocks of requests to measure the tracing
  /// overhead. add() records whatever the switch says; its caller decides.
  void enable(bool On) { Enabled.store(On, std::memory_order_relaxed); }
  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }

  u32 begin(SpanName N, u32 Req, u32 Parent = NoSlot) {
    return enabled() ? add(N, Req, Parent, now(), 0) : NoSlot;
  }
  void end(u32 Slot) {
    if (Slot != NoSlot)
      Buf[Slot].End = now();
  }
  void endAt(u32 Slot, u64 EndNs) {
    if (Slot != NoSlot)
      Buf[Slot].End = EndNs;
  }
  u32 add(SpanName N, u32 Req, u32 Parent, u64 Start, u64 End) {
    u32 S = Next.fetch_add(1, std::memory_order_relaxed);
    if (S >= Buf.size()) {
      Dropped.fetch_add(1, std::memory_order_relaxed);
      return NoSlot;
    }
    Buf[S] = Span{Start, End, Req, Parent, N};
    return S;
  }

  /// Recorded spans; call only after every recording thread has stopped.
  std::vector<Span> spans() const;
  u64 dropped() const { return Dropped.load(); }

private:
  std::vector<Span> Buf;
  std::atomic<u32> Next{0};
  std::atomic<u64> Dropped{0};
  std::atomic<bool> Enabled{false};
};

/// RAII span around one call; a no-op when \p T is null or disabled.
class Scope {
public:
  Scope(Trace *T, SpanName N, u32 Req, u32 Parent = Trace::NoSlot)
      : T(T), Slot(T ? T->begin(N, Req, Parent) : Trace::NoSlot) {}
  ~Scope() {
    if (T)
      T->end(Slot);
  }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;
  u32 slot() const { return Slot; }

private:
  Trace *T;
  u32 Slot;
};

/// Self time of every span: its duration minus the part of it that its
/// children cover (children clipped to the parent, overlaps counted once).
/// Violations counts spans whose children are not contained in it, or
/// whose children together last longer than it does.
struct SelfTimes {
  std::vector<u64> SelfNs; ///< Indexed like the span vector.
  u64 Violations = 0;
};
SelfTimes computeSelfTimes(const std::vector<Span> &Spans);

/// Per-request totals of self time by span name: Result[Req][Name] in ns,
/// for every request that has a Request root span.
std::map<u32, std::vector<u64>>
selfTimeByRequest(const std::vector<Span> &Spans, const SelfTimes &ST);

/// Writes \p Spans as Chrome trace-event JSON ("X" events, microseconds).
bool writeChromeTrace(const std::vector<Span> &Spans, const std::string &Path);

// --- Report -----------------------------------------------------------------

/// A metric value; main() attaches the unit from its metric tables.
struct Metric {
  std::string Name;
  double Value = 0;
};

/// What a workload run hands back to main().
struct Result {
  bool Correct = true;
  u64 Mismatches = 0;
  Outcome Out;
  std::vector<Metric> Metrics;
  std::vector<std::string> Notes; ///< Human-readable lines (stdout).

  void set(const std::string &Name, double Value) {
    Metrics.push_back({Name, Value});
  }
  void note(std::string Line) { Notes.push_back(std::move(Line)); }
  /// Marks the run wrong and records why.
  void mismatch(std::string Why);
};

/// Peak resident set size of this process, MB.
double peakRssMb();

/// Hardware threads available to this process.
unsigned hostThreads();

/// Median of \p K setups of a workload, each timed on the wall clock.
/// \p Setup must fully rebuild the workload state; the last one is kept.
template <typename Fn> double medianSetupSeconds(unsigned K, Fn &&Setup) {
  std::vector<double> T;
  for (unsigned I = 0; I < K; ++I) {
    u64 T0 = now();
    Setup();
    T.push_back(static_cast<double>(now() - T0) / 1e9);
  }
  return median(T);
}

/// Layer samples collected during a traced run: metric name -> one value
/// per request (or per replayed module).
using LayerSamples = std::map<std::string, std::vector<double>>;

/// Adds, for every request of a traced run, its per-name self time in us
/// under the metric names \p Names maps span names to (unmapped names are
/// skipped), plus the request duration under "bench.request_us". Returns
/// false when a request's spans violate nesting.
bool collectRequestLayers(const Trace &T,
                          const std::map<SpanName, std::string> &Names,
                          LayerSamples &Out, std::string &Why);

/// Sets "<metric>" to the median of each sample vector and, for names in
/// \p Shared, "<share name>" to the layer's share of summed request time.
void reportLayers(const LayerSamples &S,
                  const std::map<std::string, std::string> &Shares,
                  Result &R);

/// Sets share.prepare, share.analyze and share.codegen: the preparation
/// and analysis replays' shares of compile time, and the rest (paper
/// Fig. 6).
void reportPassShares(double Prepare, double Analyze, double Compile,
                      Result &R);

/// Replays the adapter's preparation (switchFunc) and the analyzer over
/// every function of \p M, as bench/fig6 does; returns {prepare ns,
/// analyze ns}. The analysis replay has to switch functions too, so a
/// preparation pass is subtracted from it and the two partition the work.
template <typename AdapterT, typename ModuleT>
std::pair<u64, u64> replayPasses(ModuleT &M) {
  u64 Prepare = 0;
  {
    AdapterT A(M);
    u64 T0 = now();
    for (u32 F = 0; F < A.funcCount(); ++F)
      if (A.funcIsDefinition(F))
        A.switchFunc(F);
    Prepare = now() - T0;
  }
  AdapterT A(M);
  tpde::core::Analyzer<AdapterT> An(A);
  u64 T0 = now();
  for (u32 F = 0; F < A.funcCount(); ++F) {
    if (!A.funcIsDefinition(F))
      continue;
    A.switchFunc(F);
    An.analyze();
  }
  u64 Both = now() - T0;
  return {Prepare, Both > Prepare ? Both - Prepare : 0};
}

/// Workload entry points.
Result runJitSpec(const Options &O);
Result runAotLarge(const Options &O);
Result runUirService(const Options &O);

/// Self-tests of this file's logic; returns the number of failures and
/// prints each one to stderr.
int runSelfTests();

} // namespace pb

#endif // PERFBENCH_BENCH_H
