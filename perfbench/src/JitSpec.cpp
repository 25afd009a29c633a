//===- perfbench/src/JitSpec.cpp - The jit_spec workload ------------------===//
///
/// \file
/// The paper's JIT case: one client in a closed loop cycles through the
/// nine SPEC-like profiles in both IR flavours (18 modules of 17-65
/// functions; O0 has stack traffic and no phis, O1 is SSA with phis). One
/// request is module -> tir::verifyModule -> compileModuleX64 ->
/// JITMapper::map, with no cache, so it runs the serial path through tir,
/// tpde_tir, core, x64 and asmx.
///
/// Oracle: after every request the module's checked functions run on their
/// seeded inputs, and each result and the scratch memory it leaves must
/// equal what tir::Interp produced for the same inputs in setup.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "asmx/JITMapper.h"
#include "support/AllocCounter.h"
#include "support/Rng.h"
#include "tir/Interp.h"
#include "tir/Verifier.h"
#include "tpde_tir/TirAdapter.h"
#include "tpde_tir/TirCompilerX64.h"
#include "workloads/Generator.h"

#include <cstring>

namespace pb {
namespace {

using namespace tpde;

/// The interpreter budget a checked call must finish within. main_entry of
/// several profiles (602.gcc in both flavours among them) runs far longer
/// than any budget whatever its inputs, because the generated call graph
/// fans out. The checked functions of a module are therefore the first
/// CheckedCalls ones, in module order, that finish within the budget on
/// their seeded inputs. Run time barely depends on the inputs, so the same
/// functions are checked for every seed and exec_ms compares across seeds.
constexpr u64 InterpStepBudget = 100'000;
constexpr unsigned CheckedCalls = 4;
constexpr unsigned SetupRepeats = 9;
constexpr u64 ScratchBytes = 576;

/// One checked call and the interpreter's answer to it.
struct Call {
  u32 Fn = 0;
  u64 ArgA = 0, ArgB = 0;
  u64 RefResult = 0;
  std::vector<u8> RefScratch;
};

struct Case {
  std::string Name;
  tir::Module M;
  u32 Funcs = 0, ScratchGlobal = 0;
  std::vector<Call> Calls;
  std::vector<u8> InitScratch;
};

struct State {
  std::vector<Case> Cases;
  std::vector<u32> Order; ///< Seeded visiting order of the cycle.
};

u64 mix(u64 Seed, u64 I) {
  return (Seed + 1) * 0x9e3779b97f4a7c15ull ^ (I << 17);
}

/// Picks the checked calls of \p C with seeded inputs, recording the
/// interpreter's results and final scratch memory.
bool drawCalls(Case &C, u64 Seed, u32 Idx) {
  Rng R(mix(Seed, Idx));
  for (u32 Fn = 0; Fn < C.Funcs && C.Calls.size() < CheckedCalls; ++Fn) {
    Call K;
    K.Fn = Fn;
    K.ArgA = R.next(), K.ArgB = R.next();
    tir::Interp Ip(C.M);
    Ip.StepBudget = InterpStepBudget;
    u8 *Scratch = Ip.globalStorage(C.ScratchGlobal);
    C.InitScratch.assign(Scratch, Scratch + ScratchBytes);
    auto Out = Ip.run(Fn, {{K.ArgA, 0}, {K.ArgB, 0}});
    if (!Out)
      continue;
    K.RefResult = Out->Lo;
    K.RefScratch.assign(Scratch, Scratch + ScratchBytes);
    C.Calls.push_back(std::move(K));
  }
  return !C.Calls.empty();
}

/// Runs the checked calls of \p C in \p JIT, each from the initial scratch
/// state; returns false (and says why) when one disagrees with the oracle.
bool check(const Case &C, const asmx::JITMapper &JIT, std::string &Why) {
  auto *Scratch = static_cast<u8 *>(JIT.address("wl_scratch"));
  for (const Call &K : C.Calls) {
    const std::string &Fn = C.M.Funcs[K.Fn].Name;
    auto *F = reinterpret_cast<u64 (*)(u64, u64)>(JIT.address(Fn));
    if (!Scratch || !F) {
      Why = C.Name + ": " + Fn + " or wl_scratch missing from the mapped code";
      return false;
    }
    std::memcpy(Scratch, C.InitScratch.data(), ScratchBytes);
    u64 Res = F(K.ArgA, K.ArgB);
    if (Res != K.RefResult) {
      Why = C.Name + ": " + Fn + " returned " + std::to_string(Res) +
            ", interpreter " + std::to_string(K.RefResult);
      return false;
    }
    if (std::memcmp(Scratch, K.RefScratch.data(), ScratchBytes) != 0) {
      Why = C.Name + ": " + Fn + " left scratch memory unlike the interpreter";
      return false;
    }
  }
  return true;
}

bool setup(State &S, u64 Seed, std::string &Err) {
  S = State{};
  for (bool O0 : {true, false}) {
    for (auto &NP : workloads::specLikeProfiles(O0)) {
      Case &C = S.Cases.emplace_back();
      C.Name = std::string(NP.Name) + (O0 ? "-O0" : "-O1");
      workloads::genModule(C.M, NP.P);
      C.Funcs = static_cast<u32>(C.M.Funcs.size());
      for (u32 G = 0; G < C.M.Globals.size(); ++G)
        if (C.M.Globals[G].Name == "wl_scratch")
          C.ScratchGlobal = G;
      if (!drawCalls(C, Seed, static_cast<u32>(S.Cases.size()))) {
        Err = C.Name + ": no function finished within the step budget";
        return false;
      }
    }
  }
  S.Order.resize(S.Cases.size());
  for (u32 I = 0; I < S.Order.size(); ++I)
    S.Order[I] = I;
  Rng R(mix(Seed, 0xabc));
  for (u32 I = static_cast<u32>(S.Order.size()); I > 1; --I)
    std::swap(S.Order[I - 1], S.Order[R.below(I)]);
  // Warm-up: one request per module, checked.
  for (Case &C : S.Cases) {
    std::string Why;
    asmx::Assembler Asm;
    asmx::JITMapper JIT;
    if (!tpde_tir::compileModuleX64(C.M, Asm, /*Verify=*/true) ||
        !JIT.map(Asm) || !check(C, JIT, Why)) {
      Err = "warm-up failed: " + (Why.empty() ? C.Name : Why);
      return false;
    }
  }
  return true;
}

/// One request: verify, compile, map. Returns false on a refused request.
bool request(Case &C, asmx::Assembler &Asm, asmx::JITMapper &JIT, Trace *T,
             u32 Req) {
  Scope Root(T, SpanName::Request, Req);
  std::string Err;
  {
    Scope S(T, SpanName::TirVerify, Req, Root.slot());
    if (!tir::verifyModule(C.M, Err))
      return false;
  }
  {
    Scope S(T, SpanName::Compile, Req, Root.slot());
    if (!tpde_tir::compileModuleX64(C.M, Asm))
      return false;
  }
  Scope S(T, SpanName::Map, Req, Root.slot());
  return JIT.map(Asm);
}

/// Wall time of one warm pass over the checked calls of \p C in \p JIT,
/// each from the initial scratch state (so it repeats the checked run), in
/// ns: the faster of two passes, so an interrupt does not count.
u64 timePass(const Case &C, const asmx::JITMapper &JIT) {
  auto *Scratch = static_cast<u8 *>(JIT.address("wl_scratch"));
  u64 (*Fns[CheckedCalls])(u64, u64) = {};
  for (size_t I = 0; I < C.Calls.size(); ++I)
    Fns[I] = reinterpret_cast<u64 (*)(u64, u64)>(
        JIT.address(C.M.Funcs[C.Calls[I].Fn].Name));
  volatile u64 Sink = 0;
  u64 Best = ~0ull;
  for (int Pass = 0; Pass < 2; ++Pass) {
    u64 T0 = now();
    for (size_t I = 0; I < C.Calls.size(); ++I) {
      std::memcpy(Scratch, C.InitScratch.data(), ScratchBytes);
      Sink = Sink ^ Fns[I](C.Calls[I].ArgA, C.Calls[I].ArgB);
    }
    Best = std::min(Best, now() - T0);
  }
  return Best;
}

} // namespace

Result runJitSpec(const Options &O) {
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

  std::unique_ptr<Trace> T;
  if (O.Trace)
    T = std::make_unique<Trace>(1u << 19);

  // Measurement loop: whole cycles of the 18 modules, at least enough
  // samples for the p99 and at least O.Seconds of request time. In the
  // traced run, cycles alternate traced / untraced.
  const u64 MinSamples = minSamplesFor(0.99);
  std::vector<double> Lat, LatTraced, LatUntraced;
  std::vector<std::vector<double>> LatByCase(S.Cases.size());
  // exec_ms: per module, warm passes over its checked calls timed right
  // after each request's check, so the samples spread over the whole run
  // and over every code placement the requests produced.
  std::vector<std::vector<double>> ExecByCase(S.Cases.size());
  std::vector<double> AllocsPerFunc, AllocBytesPerFunc, Symbols, Relocs;
  u64 FuncsCompiled = 0;
  const u64 Start = now();
  u32 Req = 0;
  for (u64 Cycle = 0; keepMeasuring(Start, O.Seconds, Lat.size(), MinSamples);
       ++Cycle) {
    bool Traced = T && Cycle % 2 == 1;
    if (T)
      T->enable(Traced);
    for (u32 Idx : S.Order) {
      Case &C = S.Cases[Idx];
      asmx::Assembler Asm;
      asmx::JITMapper JIT;
      support::AllocWatch AW;
      u64 T0 = now();
      bool OK = request(C, Asm, JIT, T.get(), Req);
      u64 Dur = now() - T0;
      if (!OK) {
        R.Out.refused();
        R.mismatch(C.Name + ": request refused");
        ++Req;
        continue;
      }
      if (T) {
        const double Funcs = C.Funcs;
        AllocsPerFunc.push_back(static_cast<double>(AW.newCalls()) / Funcs);
        AllocBytesPerFunc.push_back(static_cast<double>(AW.newBytes()) / Funcs);
        Symbols.push_back(Asm.symbolCount());
        Relocs.push_back(static_cast<double>(Asm.relocs().size()));
        (Traced ? LatTraced : LatUntraced).push_back(toUs(Dur));
      }
      Lat.push_back(toUs(Dur));
      LatByCase[Idx].push_back(toUs(Dur));
      FuncsCompiled += C.Funcs;
      std::string Why;
      bool Good;
      {
        Scope E(T.get(), SpanName::Exec, Req);
        Good = check(C, JIT, Why);
      }
      if (Good) {
        R.Out.ok();
        ExecByCase[Idx].push_back(toUs(timePass(C, JIT)));
      } else {
        R.Out.wrong();
        R.mismatch(Why);
      }
      ++Req;
    }
  }
  if (T)
    T->enable(false);

  R.note("jit_spec: " + std::to_string(Lat.size()) + " requests over " +
         std::to_string(S.Cases.size()) + " modules, " +
         std::to_string(FuncsCompiled) + " functions compiled");

  if (!O.Trace) {
    u64 CodeBytes = 0;
    for (Case &C : S.Cases) {
      asmx::Assembler Asm;
      if (!tpde_tir::compileModuleX64(C.M, Asm))
        R.mismatch(C.Name + ": compile for code_bytes failed");
      CodeBytes += Asm.text().size();
    }
    double ExecMs = 0;
    for (auto &V : ExecByCase)
      ExecMs += quantile(V, QuietQuantile) / 1e3;
    // Throughput and goodput of one cycle over the 18 modules, each at its
    // QuietQuantile request time.
    double CycleS = 0, CycleFuncs = 0;
    for (u32 I = 0; I < S.Cases.size(); ++I) {
      CycleS += quantile(LatByCase[I], QuietQuantile) / 1e6;
      CycleFuncs += S.Cases[I].Funcs;
    }
    const double Cycles = CycleS > 0 ? 1.0 / CycleS : 0.0;
    R.set("setup_s", SetupS);
    R.set("latency_p50_us", median(Lat));
    R.set("latency_tail_us", quantile(Lat, 0.99));
    R.set("throughput_fps", CycleFuncs * Cycles);
    R.set("goodput_jps", (1.0 - R.Out.errorRate()) *
                             static_cast<double>(S.Cases.size()) * Cycles);
    R.set("ok_rate", 1.0 - R.Out.errorRate());
    R.set("code_bytes", static_cast<double>(CodeBytes));
    R.set("exec_ms", ExecMs);
    R.set("peak_rss_mb", peakRssMb());
    R.note("latency_tail_us is p99 of " + std::to_string(Lat.size()) +
           " samples");
    return R;
  }

  // Traced run: per-layer metrics. Replays of the preparation and analysis
  // passes per module (median of three), recorded as replay spans.
  std::vector<std::pair<double, double>> Passes(S.Cases.size());
  T->enable(true);
  for (u32 I = 0; I < S.Cases.size(); ++I) {
    std::vector<double> P, A;
    for (int K = 0; K < 3; ++K) {
      u32 ReplayReq = 0x80000000u + I * 4 + K;
      u64 T0 = now();
      auto [Pn, An] = replayPasses<tpde_tir::TirAdapter>(S.Cases[I].M);
      u32 Root = T->add(SpanName::Replay, ReplayReq, Trace::NoSlot, T0,
                        T0 + Pn + An);
      T->add(SpanName::Prepare, ReplayReq, Root, T0, T0 + Pn);
      T->add(SpanName::Analyze, ReplayReq, Root, T0 + Pn, T0 + Pn + An);
      P.push_back(toUs(Pn));
      A.push_back(toUs(An));
    }
    Passes[I] = {median(P), median(A)};
  }
  T->enable(false);

  LayerSamples L;
  std::string Why;
  if (!collectRequestLayers(*T,
                            {{SpanName::TirVerify, "tir.verify_us"},
                             {SpanName::Compile, "tpde_tir.compile_us"},
                             {SpanName::Map, "asmx.map_us"},
                             {SpanName::Exec, "exec.call_us"}},
                            L, Why))
    R.mismatch("trace: " + Why);
  // Per traced request, split its compile time with the module's replays.
  std::vector<Span> Spans = T->spans();
  SelfTimes ST = computeSelfTimes(Spans);
  double SumP = 0, SumA = 0, SumC = 0;
  for (size_t I = 0; I < Spans.size(); ++I) {
    if (Spans[I].Name != SpanName::Compile)
      continue;
    u32 Idx = S.Order[Spans[I].Req % S.Order.size()];
    double C = toUs(ST.SelfNs[I]);
    auto [P, A] = Passes[Idx];
    L["tpde_tir.prepare_us"].push_back(P);
    L["core.analyze_us"].push_back(A);
    L["core.codegen_us"].push_back(std::max(0.0, C - P - A));
    SumP += P, SumA += A, SumC += C;
  }
  L["support.allocs_per_func"] = AllocsPerFunc;
  L["support.alloc_bytes_per_func"] = AllocBytesPerFunc;
  L["asmx.symbols"] = Symbols;
  L["asmx.relocs"] = Relocs;
  reportLayers(L,
               {{"tir.verify_us", "tir.verify_share"},
                {"tpde_tir.compile_us", "tpde_tir.compile_share"},
                {"asmx.map_us", "asmx.map_share"}},
               R);
  reportPassShares(SumP, SumA, SumC, R);
  R.set("bench.trace_overhead", median(LatTraced) / median(LatUntraced));
  if (!O.TraceOut.empty() && !writeChromeTrace(Spans, O.TraceOut))
    R.note("could not write " + O.TraceOut);
  R.note("traced " + std::to_string(LatTraced.size()) + " requests, " +
         std::to_string(Spans.size()) + " spans (" +
         std::to_string(T->dropped()) + " dropped); chrome trace: " +
         O.TraceOut);
  return R;
}

} // namespace pb
