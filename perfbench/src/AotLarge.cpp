//===- perfbench/src/AotLarge.cpp - The aot_large workload ----------------===//
///
/// \file
/// A cross-compiling build in a closed loop with one client. Each request
/// verifies a 10k-function module (12% calls; generated from seed 29, the
/// large module of bench/compile_throughput), compiles it with the
/// build server's ParallelModuleCompiler at one thread per hardware thread
/// for x64 and then for a64, and writes both as ELF objects in memory. It
/// is the only workload where the parallel driver, the stitch, sparse
/// symbols, a64 lowering and ElfWriter carry the load. The two drivers are
/// built in setup and reused by every build, as a build server keeps its
/// pipeline warm; their steady state allocates almost nothing.
///
/// Oracle: every build's two objects must equal, byte for byte, the
/// objects of a 1-thread build made in setup, and main_entry of every x64
/// build runs natively on the seeded inputs and must match tir::Interp.
/// Once per run the a64 build runs on a64::Sim and must match too. The
/// module has no floating point: fptosi of an out-of-range value is
/// target-defined, so x64 and a64 may disagree on it.
///
/// The module is the same for every seed, so that build times and the
/// work main_entry does compare across seeds; the seed draws its inputs.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "a64/Sim.h"
#include "asmx/ElfWriter.h"
#include "support/AllocCounter.h"
#include "support/Rng.h"
#include "tir/Interp.h"
#include "tir/Verifier.h"
#include "tpde_tir/ParallelCompiler.h"
#include "workloads/Generator.h"

#include <cstring>

namespace pb {
namespace {

using namespace tpde;

constexpr u32 NumFuncs = 10000;
constexpr unsigned SetupRepeats = 5;
constexpr u64 ScratchBytes = 576;
/// Timed warm runs of main_entry per build; exec_ms is the QuietQuantile of
/// their per-build minimum. On the shared virtual machine the benchmark was
/// made on, the run time of main_entry is bimodal (about 3.5 ms and 7 ms,
/// the slow mode lasting seconds to minutes), so its median reads the
/// host's mode. A warm run is no faster than the checked one; the minimum
/// of several removes interrupts.
constexpr unsigned WarmRuns = 3;

struct Build {
  asmx::Assembler X64, A64;
  std::vector<u8> ElfX64, ElfA64;
  core::EmitStats StatsX64, StatsA64;
  u64 CompileX64Ns = 0, CompileA64Ns = 0;
};

struct State {
  tir::Module M;
  u32 Funcs = 0;
  std::unique_ptr<tpde_tir::ParallelModuleCompiler> PCX64;
  std::unique_ptr<tpde_tir::ParallelModuleCompilerA64> PCA64;
  Build B; ///< Output of the latest build (assemblers reused).
  std::vector<u8> RefX64, RefA64; ///< Objects of the 1-thread build.
  u64 ArgA = 0, ArgB = 0;         ///< Seeded main_entry inputs.
  u64 RefResult = 0;              ///< tir::Interp's main_entry result...
  std::vector<u8> InitScratch, RefScratch; ///< ...and scratch memory.
};

template <typename CompilerT>
bool compileOne(CompilerT &PC, asmx::Assembler &Out, core::EmitStats &Stats) {
  bool OK = PC.compile(Out);
  Stats = PC.emitStats();
  return OK;
}

/// One build: verify, compile for both targets, write both objects.
template <typename X64T, typename A64T>
bool build(tir::Module &M, X64T &PCX64, A64T &PCA64, Build &B, Trace *T,
           u32 Req) {
  Scope Root(T, SpanName::Request, Req);
  std::string Err;
  {
    Scope Sp(T, SpanName::TirVerify, Req, Root.slot());
    if (!tir::verifyModule(M, Err))
      return false;
  }
  u64 T0 = now();
  {
    Scope Sp(T, SpanName::CompileX64, Req, Root.slot());
    if (!compileOne(PCX64, B.X64, B.StatsX64))
      return false;
  }
  u64 T1 = now();
  {
    Scope Sp(T, SpanName::ElfX64, Req, Root.slot());
    B.ElfX64 = asmx::writeElfObject(B.X64, asmx::ElfMachine::X86_64);
  }
  u64 T2 = now();
  {
    Scope Sp(T, SpanName::CompileA64, Req, Root.slot());
    if (!compileOne(PCA64, B.A64, B.StatsA64))
      return false;
  }
  B.CompileX64Ns = T1 - T0;
  B.CompileA64Ns = now() - T2;
  Scope Sp(T, SpanName::ElfA64, Req, Root.slot());
  B.ElfA64 = asmx::writeElfObject(B.A64, asmx::ElfMachine::AArch64);
  return true;
}

bool setup(State &S, u64 Seed, std::string &Err) {
  // The drivers refer to the module: drop them before replacing it.
  S.PCX64.reset();
  S.PCA64.reset();
  S.M = tir::Module{};
  workloads::Profile P;
  P.Seed = 29;
  P.NumFuncs = NumFuncs;
  P.RegionBudget = 3;
  P.InstsPerBlock = 5;
  P.CallPct = 12;
  P.FloatPct = 0;
  P.SSAForm = true;
  workloads::genModule(S.M, P);
  S.Funcs = static_cast<u32>(S.M.Funcs.size());
  // Reference objects: a 1-thread build.
  {
    tpde_tir::ParallelCompileOptions One;
    One.NumThreads = 1;
    tpde_tir::ParallelModuleCompiler RefX64(S.M, One);
    tpde_tir::ParallelModuleCompilerA64 RefA64(S.M, One);
    Build Ref;
    if (!build(S.M, RefX64, RefA64, Ref, nullptr, 0)) {
      Err = "reference build failed";
      return false;
    }
    S.RefX64 = std::move(Ref.ElfX64);
    S.RefA64 = std::move(Ref.ElfA64);
  }
  // The build server's drivers, warmed up by one build.
  tpde_tir::ParallelCompileOptions Opts;
  Opts.NumThreads = hostThreads();
  S.PCX64 = std::make_unique<tpde_tir::ParallelModuleCompiler>(S.M, Opts);
  S.PCA64 = std::make_unique<tpde_tir::ParallelModuleCompilerA64>(S.M, Opts);
  if (!build(S.M, *S.PCX64, *S.PCA64, S.B, nullptr, 0)) {
    Err = "warm-up build failed";
    return false;
  }
  // Reference output of main_entry on the seeded inputs.
  u32 ScratchG = 0;
  for (u32 G = 0; G < S.M.Globals.size(); ++G)
    if (S.M.Globals[G].Name == "wl_scratch")
      ScratchG = G;
  Rng R(Seed * 0x2545f4914f6cdd1dull + 5);
  S.ArgA = R.next(), S.ArgB = R.next();
  tir::Interp Ip(S.M);
  u8 *Scratch = Ip.globalStorage(ScratchG);
  S.InitScratch.assign(Scratch, Scratch + ScratchBytes);
  auto Out = Ip.run(S.M.findFunc("main_entry"), {{S.ArgA, 0}, {S.ArgB, 0}});
  if (!Out) {
    Err = "interpreter trapped on main_entry";
    return false;
  }
  S.RefResult = Out->Lo;
  S.RefScratch.assign(Scratch, Scratch + ScratchBytes);
  return true;
}

/// Runs main_entry of the x64 build natively (a span in \p T when tracing),
/// then WarmRuns more times from the same initial scratch state; returns
/// the fastest warm run in ns, or 0 with \p Why set when the checked run
/// differs from the interpreter.
u64 runX64(const State &S, const Build &B, Trace *T, u32 Req,
           std::string &Why) {
  asmx::JITMapper JIT;
  if (!JIT.map(B.X64)) {
    Why = "mapping the x64 build failed";
    return 0;
  }
  auto *F = reinterpret_cast<u64 (*)(u64, u64)>(JIT.address("main_entry"));
  auto *Scratch = static_cast<u8 *>(JIT.address("wl_scratch"));
  std::memcpy(Scratch, S.InitScratch.data(), ScratchBytes);
  u64 T0 = now();
  u64 Res = F(S.ArgA, S.ArgB);
  u64 T1 = now();
  if (T && T->enabled())
    T->add(SpanName::Exec, Req, Trace::NoSlot, T0, T1);
  if (Res != S.RefResult ||
      std::memcmp(Scratch, S.RefScratch.data(), ScratchBytes) != 0) {
    Why = "x64 main_entry differs from the interpreter";
    return 0;
  }
  u64 Best = ~0ull;
  for (unsigned K = 0; K < WarmRuns; ++K) {
    std::memcpy(Scratch, S.InitScratch.data(), ScratchBytes);
    u64 W0 = now();
    F(S.ArgA, S.ArgB);
    Best = std::min(Best, now() - W0);
  }
  return std::max<u64>(Best, 1);
}

/// Runs main_entry of the a64 build on the simulator; false (with \p Why)
/// when it differs from the interpreter.
bool runA64(const State &S, const Build &B, std::string &Why) {
  a64::Sim Sim;
  a64::SimModule SM;
  if (!SM.map(B.A64, Sim)) {
    Why = "mapping the a64 build for the simulator failed";
    return false;
  }
  auto *Scratch = reinterpret_cast<u8 *>(SM.address("wl_scratch"));
  std::memcpy(Scratch, S.InitScratch.data(), ScratchBytes);
  u64 Res = Sim.call(SM.address("main_entry"), {S.ArgA, S.ArgB});
  if (Sim.Trapped || Res != S.RefResult ||
      std::memcmp(Scratch, S.RefScratch.data(), ScratchBytes) != 0) {
    Why = "a64 main_entry on the simulator differs from the interpreter";
    return false;
  }
  return true;
}

void addStats(LayerSamples &L, const char *Suffix, const core::EmitStats &St,
              u64 CompileNs) {
  std::string S = Suffix;
  u64 Phases = St.CompileNs + St.ReserveNs + St.PlaceNs + St.StitchNs;
  L["core.shard_compile_us" + S].push_back(toUs(St.CompileNs));
  L["core.reserve_us" + S].push_back(toUs(St.ReserveNs));
  L["core.place_us" + S].push_back(toUs(St.PlaceNs));
  L["core.stitch_us" + S].push_back(toUs(St.StitchNs));
  L["core.driver_wait_us" + S].push_back(
      toUs(CompileNs > Phases ? CompileNs - Phases : 0));
  L["core.stitch_relocs" + S].push_back(static_cast<double>(St.StitchRelocs));
  L["core.placed_bytes" + S].push_back(static_cast<double>(St.PlacedBytes));
}

} // namespace

Result runAotLarge(const Options &O) {
  Result R;
  State S;
  std::string Err;
  bool SetupOK = true;
  double SetupS = medianSetupSeconds(O.Trace ? 1 : SetupRepeats, [&] {
    SetupOK = SetupOK && setup(S, O.Seed, Err);
  });
  if (!SetupOK) {
    R.mismatch("setup: " + Err);
    return R;
  }
  const unsigned Threads = hostThreads();

  std::unique_ptr<Trace> T;
  if (O.Trace)
    T = std::make_unique<Trace>(1u << 16);

  const u64 MinSamples = minSamplesFor(0.9);
  const double FuncsPerBuild = 2.0 * S.Funcs; // both targets
  std::vector<double> Lat, LatTraced, LatUntraced, Allocs, AllocBytes, Exec;
  LayerSamples L;
  const u64 Start = now();
  for (u32 Req = 0; keepMeasuring(Start, O.Seconds, Lat.size(), MinSamples);
       ++Req) {
    bool Traced = T && Req % 2 == 1;
    if (T)
      T->enable(Traced);
    Build &B = S.B;
    support::AllocWatch AW;
    u64 T0 = now();
    bool OK = build(S.M, *S.PCX64, *S.PCA64, B, T.get(), Req);
    u64 Dur = now() - T0;
    if (!OK) {
      R.Out.refused();
      R.mismatch("build refused");
      continue;
    }
    Lat.push_back(toUs(Dur));
    if (T) {
      (Traced ? LatTraced : LatUntraced).push_back(toUs(Dur));
      Allocs.push_back(static_cast<double>(AW.newCalls()) / FuncsPerBuild);
      AllocBytes.push_back(static_cast<double>(AW.newBytes()) / FuncsPerBuild);
      if (Traced) {
        addStats(L, ".x64", B.StatsX64, B.CompileX64Ns);
        addStats(L, ".a64", B.StatsA64, B.CompileA64Ns);
        L["asmx.symbols"].push_back(B.X64.symbolCount());
        L["asmx.relocs"].push_back(static_cast<double>(B.X64.relocs().size()));
      }
    }
    std::string Why = "ELF objects differ from the 1-thread build";
    u64 ExecNs = 0;
    if (B.ElfX64 == S.RefX64 && B.ElfA64 == S.RefA64)
      ExecNs = runX64(S, B, T.get(), Req, Why);
    if (ExecNs) {
      R.Out.ok();
      Exec.push_back(toUs(ExecNs));
    } else {
      R.Out.wrong();
      R.mismatch(Why);
    }
  }
  if (T)
    T->enable(false);

  std::string Why;
  if (!runA64(S, S.B, Why))
    R.mismatch(Why);
  R.note("aot_large: " + std::to_string(Lat.size()) + " builds of " +
         std::to_string(S.Funcs) + " functions for x64 and a64 at " +
         std::to_string(Threads) + " threads");

  if (!O.Trace) {
    // Builds per second at the QuietQuantile build time, as in jit_spec.
    const double Builds = 1e6 / quantile(Lat, QuietQuantile);
    R.set("setup_s", SetupS);
    R.set("latency_p50_us", median(Lat));
    R.set("latency_tail_us", quantile(Lat, 0.9));
    R.set("throughput_fps", FuncsPerBuild * Builds);
    R.set("goodput_jps", (1.0 - R.Out.errorRate()) * Builds);
    R.set("ok_rate", 1.0 - R.Out.errorRate());
    R.set("code_bytes",
          static_cast<double>(S.B.X64.text().size() + S.B.A64.text().size()));
    R.set("exec_ms", quantile(Exec, QuietQuantile) / 1e3);
    R.set("peak_rss_mb", peakRssMb());
    R.note("latency_tail_us is p90 of " + std::to_string(Lat.size()) +
           " samples");
    return R;
  }

  std::string TraceWhy;
  if (!collectRequestLayers(*T,
                            {{SpanName::TirVerify, "tir.verify_us"},
                             {SpanName::ElfX64, "asmx.elf_write_us.x64"},
                             {SpanName::ElfA64, "asmx.elf_write_us.a64"},
                             {SpanName::Exec, "exec.call_us"}},
                            L, TraceWhy))
    R.mismatch("trace: " + TraceWhy);
  L["support.allocs_per_func"] = Allocs;
  L["support.alloc_bytes_per_func"] = AllocBytes;
  std::map<std::string, std::string> Shares = {
      {"tir.verify_us", "tir.verify_share"},
      {"asmx.elf_write_us.x64", "asmx.elf_write_share.x64"},
      {"asmx.elf_write_us.a64", "asmx.elf_write_share.a64"}};
  for (const char *Sfx : {".x64", ".a64"})
    for (const char *Ph : {"shard_compile", "reserve", "place", "stitch",
                           "driver_wait"})
      Shares[std::string("core.") + Ph + "_us" + Sfx] =
          std::string("core.") + Ph + "_share" + Sfx;
  reportLayers(L, Shares, R);
  R.set("bench.trace_overhead", median(LatTraced) / median(LatUntraced));
  std::vector<Span> Spans = T->spans();
  if (!O.TraceOut.empty() && !writeChromeTrace(Spans, O.TraceOut))
    R.note("could not write " + O.TraceOut);
  R.note("traced " + std::to_string(LatTraced.size()) + " builds, " +
         std::to_string(Spans.size()) + " spans; chrome trace: " + O.TraceOut);
  return R;
}

} // namespace pb
