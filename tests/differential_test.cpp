//===- tests/differential_test.cpp - Interpreter vs TPDE JIT fuzzing -------===//
///
/// Property-based differential testing: random structured TIR programs are
/// executed by the reference interpreter and by TPDE-compiled machine code;
/// results must match bit-for-bit. Memory side effects on the scratch
/// global are compared as well. This is the main correctness oracle for
/// the register allocator and instruction compilers. The AArch64 back-end
/// runs under the same oracle on a64::Sim.
///
//===----------------------------------------------------------------------===//

#include "a64/Sim.h"
#include "asmx/JITMapper.h"
#include "baseline/Baseline.h"
#include "copypatch/CopyPatch.h"
#include "tir/Builder.h"
#include "tir/Interp.h"
#include "tir/Printer.h"
#include "tir/Verifier.h"
#include "tpde_tir/ParallelCompiler.h"
#include "tpde_tir/TirCompilerA64.h"
#include "tpde_tir/TirCompilerX64.h"
#include "workloads/Generator.h"

#include <cstring>
#include <gtest/gtest.h>

using namespace tpde;
using namespace tpde::tir;
using namespace tpde::workloads;

namespace {

struct DiffParam {
  u64 Seed;
  bool SSAForm;
};

class Differential : public ::testing::TestWithParam<DiffParam> {};

enum class Backend {
  Tpde,
  TpdeParallel,
  BaselineO0,
  BaselineO1,
  CopyPatch,
  TpdeA64Sim,
};

bool compileWith(Backend BE, Module &M, asmx::Assembler &Asm) {
  switch (BE) {
  case Backend::Tpde:
    return tpde_tir::compileModuleX64(M, Asm);
  case Backend::TpdeParallel: {
    // Sharded compilation with the merged-module output: one function
    // per shard guarantees every call in the module crosses a shard
    // boundary and is linked through Assembler::mergeFrom().
    tpde_tir::ParallelCompileOptions Opts;
    Opts.NumThreads = 3;
    Opts.FuncsPerShard = 1;
    tpde_tir::ParallelModuleCompiler PC(M, Opts);
    return PC.compile(Asm);
  }
  case Backend::BaselineO0:
    return baseline::compileModule(M, Asm, baseline::OptLevel::O0);
  case Backend::BaselineO1:
    return baseline::compileModule(M, Asm, baseline::OptLevel::O1);
  case Backend::CopyPatch:
    return copypatch::compileModule(M, Asm);
  case Backend::TpdeA64Sim:
    return tpde_tir::compileModuleA64(M, Asm);
  }
  TPDE_UNREACHABLE("bad backend");
}

/// A compiled module mapped for execution: natively through the
/// JITMapper, or on the AArch64 simulator for Backend::TpdeA64Sim.
class Mapped {
public:
  bool map(Backend BE, const asmx::Assembler &Asm) {
    OnSim = BE == Backend::TpdeA64Sim;
    return OnSim ? SimMod.map(Asm, S) : JIT.map(Asm);
  }
  void *address(std::string_view Name) const {
    return OnSim ? reinterpret_cast<void *>(SimMod.address(Name))
                 : JIT.address(Name);
  }
  u64 call(void *Fn, u64 A, u64 B) {
    if (!OnSim)
      return reinterpret_cast<u64 (*)(u64, u64)>(Fn)(A, B);
    u64 R = S.call(reinterpret_cast<u64>(Fn), {A, B});
    EXPECT_FALSE(S.Trapped) << "simulated code trapped";
    return R;
  }

private:
  bool OnSim = false;
  asmx::JITMapper JIT;
  a64::Sim S;
  a64::SimModule SimMod;
};

void runDifferential(const Profile &P, Backend BE = Backend::Tpde) {
  Module M;
  genModule(M, P);
  std::string Err;
  ASSERT_TRUE(verifyModule(M, Err)) << Err;

  asmx::Assembler Asm;
  ASSERT_TRUE(compileWith(BE, M, Asm))
      << "compilation failed, seed " << P.Seed;
  Mapped JIT;
  ASSERT_TRUE(JIT.map(BE, Asm));

  u32 ScratchIdx = 0;
  for (u32 I = 0; I < M.Globals.size(); ++I)
    if (M.Globals[I].Name == "wl_scratch")
      ScratchIdx = I;
  u8 *JitScratch = static_cast<u8 *>(JIT.address("wl_scratch"));
  ASSERT_NE(JitScratch, nullptr);

  u32 Entry = M.findFunc("main_entry");
  ASSERT_NE(Entry, ~0u);
  void *F = JIT.address(M.Funcs[Entry].Name);
  ASSERT_NE(F, nullptr);

  const u64 Inputs[][2] = {
      {0, 0}, {1, 2}, {0xdeadbeef, 123456789}, {~0ull, 0x8000000000000000ull},
  };
  for (auto &In : Inputs) {
    // Fresh interpreter per input so global state starts identical.
    Interp Ip(M);
    u8 *IpScratch = Ip.globalStorage(ScratchIdx);
    std::vector<u8> InitialMem(IpScratch, IpScratch + 576);
    std::memcpy(JitScratch, InitialMem.data(), InitialMem.size());

    auto RefOut = Ip.run(Entry, {{In[0], 0}, {In[1], 0}});
    ASSERT_TRUE(RefOut.has_value()) << "interpreter trapped, seed " << P.Seed;
    u64 JitOut = JIT.call(F, In[0], In[1]);
    EXPECT_EQ(JitOut, RefOut->Lo)
        << "result mismatch, seed " << P.Seed << " inputs " << In[0] << ","
        << In[1];
    EXPECT_EQ(std::memcmp(JitScratch, IpScratch, 576), 0)
        << "memory side effects diverge, seed " << P.Seed;
  }
}

} // namespace

static Profile fuzzProfile(u64 Seed, bool SSAForm) {
  Profile P;
  P.Seed = Seed;
  P.NumFuncs = 4;
  P.RegionBudget = 8;
  P.InstsPerBlock = 6;
  P.MaxLoopDepth = 2;
  P.MemoryPct = 25;
  P.FloatPct = 10;
  P.CallPct = 8;
  P.BranchPct = 30;
  P.I128Pct = 5;
  P.NarrowPct = 15;
  P.SSAForm = SSAForm;
  return P;
}

TEST_P(Differential, TpdeMatchesInterpreter) {
  DiffParam DP = GetParam();
  runDifferential(fuzzProfile(DP.Seed, DP.SSAForm), Backend::Tpde);
}

TEST_P(Differential, TpdeParallelMatchesInterpreter) {
  DiffParam DP = GetParam();
  runDifferential(fuzzProfile(DP.Seed, DP.SSAForm), Backend::TpdeParallel);
}

TEST_P(Differential, BaselineO0MatchesInterpreter) {
  DiffParam DP = GetParam();
  runDifferential(fuzzProfile(DP.Seed, DP.SSAForm), Backend::BaselineO0);
}

TEST_P(Differential, BaselineO1MatchesInterpreter) {
  DiffParam DP = GetParam();
  runDifferential(fuzzProfile(DP.Seed, DP.SSAForm), Backend::BaselineO1);
}

TEST_P(Differential, CopyPatchMatchesInterpreter) {
  DiffParam DP = GetParam();
  runDifferential(fuzzProfile(DP.Seed, DP.SSAForm), Backend::CopyPatch);
}

TEST_P(Differential, TpdeA64SimMatchesInterpreter) {
  DiffParam DP = GetParam();
  // FP-free: the interpreter mimics x86's integer-indefinite result on an
  // overflowing fptosi, while AArch64 saturates (UB at the IR level).
  Profile P = fuzzProfile(DP.Seed, DP.SSAForm);
  P.FloatPct = 0;
  runDifferential(P, Backend::TpdeA64Sim);
}

static std::vector<DiffParam> makeParams() {
  std::vector<DiffParam> Out;
  for (u64 S = 1; S <= 40; ++S) {
    Out.push_back({S, true});
    Out.push_back({S, false});
  }
  return Out;
}

INSTANTIATE_TEST_SUITE_P(Seeds, Differential,
                         ::testing::ValuesIn(makeParams()),
                         [](const ::testing::TestParamInfo<DiffParam> &I) {
                           return std::string(I.param.SSAForm ? "ssa" : "o0") +
                                  "_seed" + std::to_string(I.param.Seed);
                         });

TEST(DifferentialSpec, SpecLikeProfilesCompileAndRun) {
  // The nine benchmark workloads themselves must compile and agree with
  // the interpreter on one input (smaller scale for test time).
  for (bool O0 : {true, false}) {
    for (auto &NP : specLikeProfiles(O0)) {
      Profile P = NP.P;
      P.NumFuncs = 3;
      P.RegionBudget = 6;
      runDifferential(P);
    }
  }
}

/// Shift amounts wrap at the type's bit width on every back-end, as in
/// tir::Interp (amount % bits): i8 `shl 0x81, 20` is 0x10 and an i1 shift
/// never moves its bit. Covers dynamic and constant amounts; the generator
/// emits no narrow shifts, so the fuzzing corpus does not reach these.
TEST(NarrowShift, AmountWrapsAtTypeWidth) {
  const Type Tys[] = {Type::I1, Type::I8, Type::I16};
  const Op Ops[] = {Op::Shl, Op::LShr, Op::AShr};
  const u64 Amts[] = {1, 7, 9, 17, 20, 33};
  const u64 Xs[] = {0x81, 0x8181, 0x7ffe};

  // dyn_<t>_<op>(x, a) = zext(trunc(x) op trunc(a)); cst_<t>_<op>_<k>(x, _)
  // shifts by the constant k (truncated to the type).
  Module M;
  std::vector<std::string> Names;
  std::vector<u64> ConstAmt; // ~0 for a dynamic amount
  auto addFunc = [&](Type Ty, Op O, u64 K) {
    std::string Name = (K == ~0ull ? "dyn_" : "cst_") +
                       std::to_string(static_cast<int>(Ty)) + "_" +
                       std::to_string(static_cast<int>(O)) +
                       (K == ~0ull ? "" : "_" + std::to_string(K));
    FunctionBuilder B(M, Name, Type::I64, {Type::I64, Type::I64});
    B.setInsertPoint(B.addBlock());
    ValRef X = B.cast(Op::Trunc, Ty, B.arg(0));
    u64 TyMask = Ty == Type::I1 ? 1 : (u64(1) << (8 * typeSize(Ty))) - 1;
    ValRef A = K == ~0ull ? B.cast(Op::Trunc, Ty, B.arg(1))
                          : B.constInt(Ty, K & TyMask);
    B.ret(B.cast(Op::Zext, Type::I64, B.binop(O, X, A)));
    B.finish();
    Names.push_back(Name);
    ConstAmt.push_back(K);
  };
  for (Type Ty : Tys)
    for (Op O : Ops) {
      addFunc(Ty, O, ~0ull);
      for (u64 K : Amts)
        addFunc(Ty, O, K);
    }
  std::string Err;
  ASSERT_TRUE(verifyModule(M, Err)) << Err;

  for (Backend BE : {Backend::Tpde, Backend::TpdeParallel, Backend::BaselineO0,
                     Backend::BaselineO1, Backend::CopyPatch,
                     Backend::TpdeA64Sim}) {
    SCOPED_TRACE("backend " + std::to_string(static_cast<int>(BE)));
    asmx::Assembler Asm;
    ASSERT_TRUE(compileWith(BE, M, Asm));
    Mapped JIT;
    ASSERT_TRUE(JIT.map(BE, Asm));
    Interp Ip(M);
    for (u32 FI = 0; FI < Names.size(); ++FI) {
      void *F = JIT.address(Names[FI]);
      ASSERT_NE(F, nullptr) << Names[FI];
      for (u64 X : Xs)
        for (u64 A : Amts) {
          if (ConstAmt[FI] != ~0ull && A != Amts[0])
            break; // the amount argument is unused
          auto Ref = Ip.run(FI, {{X, 0}, {A, 0}});
          ASSERT_TRUE(Ref.has_value());
          EXPECT_EQ(JIT.call(F, X, A), Ref->Lo)
              << Names[FI] << "(" << X << ", " << A << ")";
        }
    }
  }
}
