//===- perfbench/src/UirService.cpp - The uir_service workload ------------===//
///
/// \file
/// The query-service case: one generator thread drives UirCompileService
/// (2 workers) in an open loop at a fixed nominal rate. Most jobs repeat a
/// hot set of single-query modules and are cache reads; a seeded fraction
/// are new modules and are cache writes: compile, publish, and evict under
/// a byte budget smaller than the run's distinct set. A change that speeds
/// up hits but slows publish or eviction therefore shows in the p99.
///
/// Each job is timed from its due time to the later of its completion and
/// the return of submit(), so a generator that falls behind charges its
/// lateness to every job queued behind the stall. A traced run spends half
/// its time on a fixed ladder of rates and reports the highest at which the
/// p99 meets the limit and the backlog does not grow.
///
/// Oracle: a checker thread runs every completed job's query on a seeded
/// uir::Table and compares the sum with uir::evalPlan of the job's plan.
/// A job the service sheds (Overloaded, DeadlineExceeded) is refused; one
/// that fails in any other way is wrong, like a wrong sum.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "asmx/JITMapper.h"
#include "support/AllocCounter.h"
#include "support/Rng.h"
#include "uir/Service.h"
#include "uir/TpdeUir.h"
#include "workloads/Generator.h"

#include <chrono>
#include <thread>

namespace pb {
namespace {

using namespace tpde;

constexpr u32 HotModules = 64;
/// Share of jobs that are new modules. Each one maps code, and a mapping
/// change stops every thread of the process for a TLB shootdown; on a
/// shared virtual machine, whose CPUs the host preempts, at 10% new
/// modules those stops set the p99 (ms instead of 0.2 ms) whatever the
/// service does. At 2% the p99 still falls among new modules.
constexpr u32 MissPct = 2;
constexpr u32 TableRows = 256;
constexpr u32 TableCols = 8;
constexpr unsigned Workers = 2;
/// The cache holds this many single-query modules' worth of mappings: the
/// hot set fits, the run's new modules do not, so they are evicted.
constexpr u64 CacheEntries = 2 * HotModules;
/// Shed a job that has not started compiling this long after its due time.
constexpr u64 DeadlineNs = 100'000'000;
constexpr unsigned SetupRepeats = 9;
constexpr u32 ReplayModules = 256;
/// Share of a traced run spent at the nominal rate (the rest walks the
/// ladder); an untraced run spends all of it there.
constexpr double NominalShare = 0.5;
/// The ladder judges a rung by the p99s of blocks of TailBlock jobs in due
/// order, the fewest jobs a p99 may come from.
const u64 TailBlock = minSamplesFor(0.99);
/// Traced runs alternate traced and untraced blocks of this length.
constexpr u64 TraceBlockNs = 250'000'000;
/// Span buffer of a traced run. Traced blocks trace every job or, when
/// that would not fit, every k-th job.
constexpr u32 TraceSpans = 1u << 17;

using QueryFn = i64 (*)(const i64 *const *, i64);

struct JobRec {
  u64 Due = 0, SubmitStart = 0, SubmitEnd = 0;
  u32 Plan = 0;     ///< Index into State::Plans.
  bool Miss = false;
  u32 RootSlot = Trace::NoSlot;
  service::ResultPtr Res;
};

/// Outcome of one job as the checker saw it.
struct Done {
  enum Kind : u8 { Ok, Refused, Wrong };
  u64 LatNs = 0;  ///< Due time to the later of completion and submit return.
  u64 LateNs = 0; ///< How late the generator called submit().
  u64 WaitNs = 0; ///< submit() return to completion (0 when done inside).
  Kind K = Refused;
  bool Miss = false;
};

struct State {
  std::unique_ptr<uir::Table> Table;
  std::vector<uir::QueryPlan> Plans; ///< Hot plans first, then new ones.
  std::vector<i64> Expected;         ///< evalPlan of each plan.
  std::vector<uir::UModule> Hot;     ///< Compiled hot modules (copied per job).
  std::vector<u8> Kinds;  ///< Per job of the run: 1 = new module.
  std::vector<u32> Picks; ///< Per job: hot index for a cache read.
  std::unique_ptr<uir::UirCompileService> Svc;
  u64 HotTextBytes = 0; ///< .text bytes of the hot set's compiled code.
};

/// Jobs of one phase at a fixed rate for a fixed time.
struct Phase {
  double Rate = 0;
  u64 Jobs = 0;
  u64 FirstJob = 0; ///< Offset into the run-wide job sequence.
};

std::vector<Phase> planPhases(const Options &O) {
  std::vector<Phase> P;
  u64 Next = 0;
  auto Add = [&](double Rate, double Secs) {
    u64 N = std::max<u64>(static_cast<u64>(Rate * Secs), TailBlock);
    P.push_back({Rate, N, Next});
    Next += N;
  };
  Add(O.UirRate, O.Seconds * (O.Trace ? NominalShare : 1.0));
  if (O.Trace)
    for (double R : O.UirLadder)
      Add(R, O.Seconds * (1 - NominalShare) /
                 static_cast<double>(O.UirLadder.size()));
  return P;
}

uir::QueryPlan renamed(uir::QueryPlan P, char Prefix, u32 I) {
  P.Name = std::string(1, Prefix) + std::to_string(I);
  return P;
}

bool setup(State &S, const Options &O, std::string &Err) {
  S.Svc.reset(); // drain the previous setup's service first
  S = State{};
  S.Table = std::make_unique<uir::Table>(TableCols, TableRows, O.Seed + 17);
  // The hot set is the same for every seed (so code_bytes and the cost of a
  // hit compare across seeds); the job sequence, the new modules and the
  // table come from the seed.
  workloads::QueryProfile QP;
  QP.NumCols = TableCols;
  QP.Seed = 3;
  QP.NumQueries = HotModules;
  for (auto &P : workloads::genQueryPlans(QP))
    S.Plans.push_back(renamed(P, 'h', static_cast<u32>(S.Plans.size())));

  // The run's job sequence: kinds and hot picks, drawn from the seed.
  u64 Total = 0;
  for (const Phase &P : planPhases(O))
    Total += P.Jobs;
  Rng R(O.Seed * 0x2545f4914f6cdd1dull + 11);
  S.Kinds.resize(Total);
  S.Picks.resize(Total);
  u32 NewModules = 0;
  for (u64 J = 0; J < Total; ++J) {
    S.Kinds[J] = R.below(100) < MissPct;
    S.Picks[J] = static_cast<u32>(R.below(HotModules));
    NewModules += S.Kinds[J];
  }
  QP.Seed = O.Seed * 0x9e3779b97f4a7c15ull + 4;
  QP.NumQueries = NewModules;
  u32 I = 0;
  for (auto &P : workloads::genQueryPlans(QP))
    S.Plans.push_back(renamed(P, 'm', I++));
  for (const auto &P : S.Plans)
    S.Expected.push_back(uir::evalPlan(P, *S.Table));
  for (u32 H = 0; H < HotModules; ++H)
    uir::compilePlan(S.Hot.emplace_back(), S.Plans[H]);

  // One mapping's size sets the cache budget in entries.
  u64 EntryBytes = 0;
  {
    uir::UModule M = S.Hot[0];
    asmx::Assembler Asm;
    asmx::JITMapper JIT;
    if (!uir::compileTpdeUir(M, Asm) || !JIT.map(Asm)) {
      Err = "sizing compile failed";
      return false;
    }
    EntryBytes = JIT.mappedSize();
  }
  service::ServiceOptions SO;
  SO.NumWorkers = Workers;
  SO.CacheBudgetBytes = CacheEntries * EntryBytes;
  S.Svc = std::make_unique<uir::UirCompileService>(SO);
  // Warm-up: every hot module once, checked; the cache then holds them.
  for (u32 H = 0; H < HotModules; ++H) {
    auto Res = S.Svc->submit(S.Hot[H]);
    Res->wait();
    auto *Q = reinterpret_cast<QueryFn>(Res->address(S.Plans[H].Name));
    if (!Res->ok() || !Q ||
        Q(S.Table->ColPtrs.data(), static_cast<i64>(S.Table->Rows)) !=
            S.Expected[H]) {
      Err = "warm-up of " + S.Plans[H].Name + " failed";
      return false;
    }
    S.HotTextBytes += Res->code()->Asm.text().size();
  }
  return true;
}

/// Single-producer single-consumer hand-off of job records from the
/// generator to the checker.
class Handoff {
public:
  explicit Handoff(u64 N) : Recs(N) {}
  JobRec &slot(u64 I) { return Recs[I]; }
  void publish(u64 N) { Published.store(N, std::memory_order_release); }
  /// Waits until record \p I is published.
  JobRec *take(u64 I) {
    while (Published.load(std::memory_order_acquire) <= I)
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    return &Recs[I];
  }

private:
  std::vector<JobRec> Recs;
  std::atomic<u64> Published{0};
};

struct PhaseResult {
  std::vector<Done> Jobs;
  std::vector<double> ExecUs; ///< Warm run time of each job's query.
  /// The same per hot module: the 64 queries differ in cost, and the mix
  /// of a run's cache reads is seeded.
  std::vector<std::vector<double>> ExecByHot =
      std::vector<std::vector<double>>(HotModules);
  u64 Wrong = 0;
  std::string FirstWrong, FirstRefused;
  u64 TracedJobs = 0;
  std::vector<double> LatTraced, LatUntraced;
  /// Measured length of the phase: from the first due time to the last
  /// completion, so a backlog lengthens it.
  double Seconds = 0;
};

/// Runs one open-loop phase: the calling thread generates, a checker
/// thread waits for and checks every job.
PhaseResult runPhase(State &S, const Phase &Ph, u32 &NextNew, Trace *T) {
  PhaseResult Run;
  Run.Jobs.resize(Ph.Jobs);
  Handoff H(Ph.Jobs);
  const Schedule Sched{now() + 1'000'000, Ph.Rate};
  std::thread Checker([&] {
    const i64 *const *Cols = S.Table->ColPtrs.data();
    const i64 Rows = static_cast<i64>(S.Table->Rows);
    u64 EndNs = Sched.StartNs;
    for (u64 I = 0; I < Ph.Jobs; ++I) {
      JobRec &J = *H.take(I);
      J.Res->wait();
      Done &D = Run.Jobs[I];
      u64 Completed = J.Res->SubmitNs + J.Res->latencyNs();
      u64 End = std::max(Completed, J.SubmitEnd);
      D.LatNs = Sched.latency(I, End);
      D.LateNs = Sched.lateness(I, J.SubmitStart);
      D.WaitNs = Completed > J.SubmitEnd ? Completed - J.SubmitEnd : 0;
      D.Miss = J.Miss;
      const bool Traced = T && J.RootSlot != Trace::NoSlot;
      if (Traced) {
        T->endAt(J.RootSlot, End);
        if (Completed > J.SubmitEnd)
          T->add(SpanName::Wait, static_cast<u32>(I), J.RootSlot, J.SubmitEnd,
                 Completed);
      }
      if (J.Res->ok()) {
        auto *Q =
            reinterpret_cast<QueryFn>(J.Res->address(S.Plans[J.Plan].Name));
        u64 E0 = now();
        i64 Got = Q ? Q(Cols, Rows) : 0;
        u64 E1 = now();
        if (Q) {
          // exec_ms times a warm run, after the checked one.
          volatile i64 Sink = 0;
          u64 W0 = now();
          Sink = Q(Cols, Rows);
          Run.ExecUs.push_back(toUs(now() - W0));
          if (J.Plan < HotModules)
            Run.ExecByHot[J.Plan].push_back(Run.ExecUs.back());
          (void)Sink;
        }
        if (Traced)
          T->add(SpanName::Exec, static_cast<u32>(I), Trace::NoSlot, E0, E1);
        D.K = Q && Got == S.Expected[J.Plan] ? Done::Ok : Done::Wrong;
        if (D.K == Done::Wrong && Run.Wrong++ == 0)
          Run.FirstWrong = S.Plans[J.Plan].Name + " returned " +
                          std::to_string(Got) + ", evalPlan " +
                          std::to_string(S.Expected[J.Plan]);
      } else if (const support::CompileStatus &St = J.Res->status();
                 St.Err == support::CompileErr::Overloaded ||
                 St.Err == support::CompileErr::DeadlineExceeded) {
        // Shedding under load is the service's contract: a refusal.
        if (Run.FirstRefused.empty())
          Run.FirstRefused = S.Plans[J.Plan].Name + " shed: " + St.Message;
      } else {
        // Any other failure (compile, verify, map) is a wrong output.
        D.K = Done::Wrong;
        if (Run.Wrong++ == 0)
          Run.FirstWrong = S.Plans[J.Plan].Name + " failed: " + St.Message;
      }
      EndNs = std::max(EndNs, End);
      J.Res.reset();
    }
    Run.Seconds = static_cast<double>(EndNs - Sched.StartNs) / 1e9;
  });

  u64 BlockStart = Sched.StartNs;
  bool Traced = false;
  // Three spans per traced job, jobs of every other block, and room left
  // for the replays.
  const u64 TraceEvery =
      T ? (3 * Ph.Jobs / 2) / (TraceSpans - 8 * ReplayModules) + 1 : 1;
  for (u64 I = 0; I < Ph.Jobs; ++I) {
    u64 Job = Ph.FirstJob + I;
    JobRec &J = H.slot(I);
    J.Due = Sched.due(I);
    J.Miss = S.Kinds[Job];
    uir::UModule M;
    if (J.Miss) {
      J.Plan = HotModules + NextNew++;
      uir::compilePlan(M, S.Plans[J.Plan]);
    } else {
      J.Plan = S.Picks[Job];
      M = S.Hot[J.Plan];
    }
    // Open loop: wait for the due time, never for an earlier job. The
    // generator spins rather than sleeps between close due times: a sleeping
    // process lets its CPUs idle, and waking an idle CPU costs more than a
    // cache hit does, which would dominate the latency being measured.
    for (u64 Now = now(); Now < J.Due; Now = now()) {
      if (J.Due - Now > 200'000)
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(J.Due - Now - 150'000));
    }
    if (T && J.Due - BlockStart >= TraceBlockNs) {
      BlockStart = J.Due;
      Traced = !Traced;
    }
    service::SubmitOptions SO;
    SO.DeadlineNs = J.Due + DeadlineNs;
    J.SubmitStart = now();
    J.Res = S.Svc->submit(std::move(M), SO);
    J.SubmitEnd = now();
    if (T && Traced && I % TraceEvery == 0) {
      J.RootSlot = T->add(SpanName::Request, static_cast<u32>(I), Trace::NoSlot,
                          J.Due, J.SubmitEnd);
      T->add(SpanName::Submit, static_cast<u32>(I), J.RootSlot, J.SubmitStart,
             J.SubmitEnd);
      ++Run.TracedJobs;
    }
    H.publish(I + 1);
  }
  Checker.join();
  if (T) {
    for (u64 I = 0; I < Ph.Jobs; ++I) {
      const JobRec &J = H.slot(I);
      const Done &D = Run.Jobs[I];
      (J.RootSlot != Trace::NoSlot ? Run.LatTraced : Run.LatUntraced)
          .push_back(toUs(D.LatNs));
    }
  }
  return Run;
}

std::vector<double> latenciesUs(const std::vector<Done> &Jobs) {
  std::vector<double> L;
  L.reserve(Jobs.size());
  for (const Done &D : Jobs)
    L.push_back(toUs(D.LatNs));
  return L;
}

BlockStats blocks(const std::vector<Done> &Jobs) {
  return blockQuantiles(latenciesUs(Jobs), TailBlock, 0.99);
}

/// Replays, on the run's first new modules, each public call a miss makes
/// inside the service: verify, fingerprint, compile, map; plus the
/// adapter-preparation and analysis passes.
void replayMisses(State &S, u32 NewUsed, LayerSamples &L, Trace &T) {
  u32 N = std::min(NewUsed, ReplayModules);
  for (u32 I = 0; I < N; ++I) {
    const uir::QueryPlan &P = S.Plans[HotModules + I];
    uir::UModule M;
    uir::compilePlan(M, P);
    u32 Req = 0x80000000u + I;
    u32 Root = T.add(SpanName::Replay, Req, Trace::NoSlot, now(), 0);
    std::string Err;
    u64 T0 = now();
    bool OK = uir::verifyModule(M, Err);
    u64 T1 = now();
    support::Fp128 Fp = uir::fingerprintModule(M);
    u64 T2 = now();
    asmx::Assembler Asm;
    OK = OK && uir::compileTpdeUir(M, Asm);
    u64 T3 = now();
    asmx::JITMapper JIT;
    OK = OK && JIT.map(Asm);
    u64 T4 = now();
    auto [Prepare, Analyze] = replayPasses<uir::UirAdapter>(M);
    T.add(SpanName::UirVerify, Req, Root, T0, T1);
    T.add(SpanName::UirFingerprint, Req, Root, T1, T2);
    T.add(SpanName::UirCompile, Req, Root, T2, T3);
    T.add(SpanName::Map, Req, Root, T3, T4);
    T.endAt(Root, T4);
    (void)Fp;
    if (!OK)
      continue;
    double Compile = toUs(T3 - T2);
    L["uir.verify_us"].push_back(toUs(T1 - T0));
    L["uir.fingerprint_us"].push_back(toUs(T2 - T1));
    L["uir.compile_us"].push_back(Compile);
    L["asmx.map_us"].push_back(toUs(T4 - T3));
    L["asmx.symbols"].push_back(Asm.symbolCount());
    L["asmx.relocs"].push_back(static_cast<double>(Asm.relocs().size()));
    L["tpde_tir.prepare_us"].push_back(toUs(Prepare));
    L["core.analyze_us"].push_back(toUs(Analyze));
    L["core.codegen_us"].push_back(
        std::max(0.0, Compile - toUs(Prepare) - toUs(Analyze)));
  }
}

/// Walks the rate ladder (Phases[1..]) and returns the highest rate at
/// which every job succeeds, the median block p99 is within the limit, and
/// the backlog does not grow: the typical median latency of the rung's last
/// quarter of blocks exceeds that of its first quarter by less than the
/// limit. Every rung runs, so that a host stall failing one rung does not
/// hide the rungs above it.
double maxRate(State &S, const std::vector<Phase> &Phases, u32 &NextNew,
               double LimitUs, Result &R) {
  double MaxRate = 0;
  for (size_t P = 1; P < Phases.size(); ++P) {
    PhaseResult Run = runPhase(S, Phases[P], NextNew, nullptr);
    if (Run.Wrong)
      R.mismatch("ladder: " + Run.FirstWrong);
    bool AllOk = true;
    for (const Done &D : Run.Jobs)
      AllOk = AllOk && D.K == Done::Ok;
    BlockStats W = blocks(Run.Jobs);
    double P99 = median(W.Tail);
    auto Q = static_cast<std::ptrdiff_t>(std::max<size_t>(1, W.P50.size() / 4));
    bool Growing = median({W.P50.end() - Q, W.P50.end()}) >
                   median({W.P50.begin(), W.P50.begin() + Q}) + LimitUs;
    R.note("ladder " + std::to_string(static_cast<u64>(Phases[P].Rate)) +
           " jobs/s: p99 " + std::to_string(P99) + " us" +
           (AllOk ? "" : ", failures") + (Growing ? ", backlog grows" : ""));
    if (AllOk && !Growing && P99 <= LimitUs)
      MaxRate = std::max(MaxRate, Phases[P].Rate);
  }
  return MaxRate;
}

} // namespace

Result runUirService(const Options &O) {
  Result R;
  State S;
  std::string Err;
  bool SetupOK = true;
  double SetupS = medianSetupSeconds(O.Trace ? 1 : SetupRepeats, [&] {
    SetupOK = SetupOK && setup(S, O, Err);
  });
  if (!SetupOK) {
    R.mismatch("setup: " + Err);
    return R;
  }
  std::vector<Phase> Phases = planPhases(O);
  std::unique_ptr<Trace> T;
  if (O.Trace)
    T = std::make_unique<Trace>(TraceSpans);

  // Nominal phase: the end-to-end metrics, or the traced run.
  u32 NextNew = 0;
  service::ServiceStatsSnapshot Before = S.Svc->stats();
  support::AllocWatch AW;
  PhaseResult Nom = runPhase(S, Phases[0], NextNew, T.get());
  u64 AllocCalls = AW.newCalls(), AllocBytes = AW.newBytes();
  service::ServiceStatsSnapshot After = S.Svc->stats();

  std::vector<double> Lat = latenciesUs(Nom.Jobs), Late, Wait, MissWait,
                      MissLat;
  u64 Good = 0, Misses = 0;
  for (const Done &D : Nom.Jobs) {
    if (D.K == Done::Ok)
      R.Out.ok();
    else if (D.K == Done::Refused)
      R.Out.refused();
    else
      R.Out.wrong();
    Good += D.K == Done::Ok && toUs(D.LatNs) <= O.UirLimitUs;
    Misses += D.Miss;
    Late.push_back(toUs(D.LateNs));
    if (D.WaitNs)
      Wait.push_back(toUs(D.WaitNs));
    if (D.Miss && D.K == Done::Ok) {
      MissWait.push_back(toUs(D.WaitNs));
      MissLat.push_back(toUs(D.LatNs));
    }
  }
  if (Nom.Wrong)
    R.mismatch(Nom.FirstWrong);
  if (!Nom.FirstRefused.empty())
    R.note("first refused job: " + Nom.FirstRefused);
  R.note("uir_service: " + std::to_string(Nom.Jobs.size()) + " jobs at " +
         std::to_string(static_cast<u64>(O.UirRate)) + " jobs/s, " +
         std::to_string(Misses) + " new modules, " +
         std::to_string(After.Evictions - Before.Evictions) + " evictions");

  if (!O.Trace) {
    R.set("setup_s", SetupS);
    R.set("latency_p50_us", median(Lat));
    // The tail is the median latency of a new module. New modules are 2%
    // of jobs and each one is slower than a cache read, so while no host
    // stall delays cache reads this is the p99 of all jobs. A host stall
    // delays every job due while it lasts; on a shared virtual machine that
    // loses 1-4% of its time in stalls of 0.1-10 ms, the p99 of all jobs
    // measures the host (five runs of the same code read 1.5-5.8 ms), and
    // so does a low quantile of 1000-job block p99s, less so.
    const std::vector<double> BlockTails = blocks(Nom.Jobs).Tail;
    R.set("latency_tail_us", median(MissLat));
    // A new module is one function. Its time in the service (queue, batch,
    // compile, map, publish) sets how many a client gets compiled per
    // second; the open loop's job count per second is the schedule's.
    const double MissUs = median(MissWait);
    R.set("throughput_fps", MissUs > 0 ? 1e6 / MissUs : 0.0);
    R.set("goodput_jps", static_cast<double>(Good) / Nom.Seconds);
    R.set("ok_rate", 1.0 - R.Out.errorRate());
    R.set("code_bytes", static_cast<double>(S.HotTextBytes));
    double ExecMs = 0;
    for (const std::vector<double> &V : Nom.ExecByHot)
      ExecMs += quantile(V, QuietQuantile) / 1e3;
    R.set("exec_ms", ExecMs);
    R.set("peak_rss_mb", peakRssMb());
    R.note("latency_tail_us is the median of " +
           std::to_string(MissLat.size()) + " new modules' latencies; p99 of "
           "all jobs " + std::to_string(quantile(Lat, 0.99)) + " us, median "
           "p99 of " + std::to_string(BlockTails.size()) + " blocks of " +
           std::to_string(TailBlock) + " jobs " +
           std::to_string(median(BlockTails)) + " us");
    S.Svc.reset();
    return R;
  }

  LayerSamples L;
  std::string Why;
  if (!collectRequestLayers(*T, {{SpanName::Submit, "service.submit_us"}}, L,
                            Why))
    R.mismatch("trace: " + Why);
  replayMisses(S, NextNew, L, *T);
  R.set("service.max_rate_jps",
        maxRate(S, Phases, NextNew, O.UirLimitUs, R));
  L["service.wait_us"] = Wait;
  L["exec.call_us"] = Nom.ExecUs;
  reportLayers(L, {{"service.submit_us", "service.submit_share"}}, R);
  double SumP = 0, SumA = 0, SumC = 0;
  for (size_t I = 0; I < L["uir.compile_us"].size(); ++I) {
    SumP += L["tpde_tir.prepare_us"][I];
    SumA += L["core.analyze_us"][I];
    SumC += L["uir.compile_us"][I];
  }
  reportPassShares(SumP, SumA, SumC, R);
  const double Served = static_cast<double>(
      (After.Hits - Before.Hits) + (After.Misses - Before.Misses) +
      (After.Coalesced - Before.Coalesced));
  R.set("service.hit_ratio",
        Served > 0 ? static_cast<double>((After.Hits - Before.Hits) +
                                         (After.Coalesced - Before.Coalesced)) /
                         Served
                   : 0);
  R.set("service.queue_wait_p50_us", toUs(After.QueueWaitP50Ns));
  R.set("service.queue_wait_p99_us", toUs(After.QueueWaitP99Ns));
  R.set("service.coalesced",
        static_cast<double>(After.Coalesced - Before.Coalesced));
  R.set("service.evictions",
        static_cast<double>(After.Evictions - Before.Evictions));
  R.set("service.retried", static_cast<double>(After.Retried - Before.Retried));
  R.set("service.shed", static_cast<double>(After.Shed - Before.Shed));
  R.set("support.allocs_per_func",
        static_cast<double>(AllocCalls) / static_cast<double>(Nom.Jobs.size()));
  R.set("support.alloc_bytes_per_func",
        static_cast<double>(AllocBytes) / static_cast<double>(Nom.Jobs.size()));
  R.set("bench.late_p99_us", quantile(Late, 0.99));
  R.set("bench.trace_overhead",
        median(Nom.LatTraced) / median(Nom.LatUntraced));
  R.note("latency p50 traced " + std::to_string(median(Nom.LatTraced)) +
         " us, untraced " + std::to_string(median(Nom.LatUntraced)) + " us");
  std::vector<Span> Spans = T->spans();
  if (!O.TraceOut.empty() && !writeChromeTrace(Spans, O.TraceOut))
    R.note("could not write " + O.TraceOut);
  R.note("traced " + std::to_string(Nom.TracedJobs) + " jobs, " +
         std::to_string(Spans.size()) + " spans (" +
         std::to_string(T->dropped()) + " dropped); chrome trace: " +
         O.TraceOut);
  S.Svc.reset();
  return R;
}

} // namespace pb
