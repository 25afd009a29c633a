//===- tpde_tir/TirLowering.h - Target-independent TIR lowering -*- C++ -*-===//
///
/// \file
/// The half of TIR lowering that decides rather than emits, written once
/// for every target (paper §5: the framework eases "portability to
/// different architectures"). A CRTP layer between the target mixin and
/// the target's instruction emitters:
///
///   CompilerBase<TirAdapter, Derived, Config>       (core)
///      ^-- x64::CompilerX64 / a64::CompilerA64      (target mixin: ABI)
///             ^-- TirLowering<Derived, Target>      (this file)
///                    ^-- TirCompilerX64 / TirCompilerA64 (emitters)
///
/// It owns the entry points, the module and function hooks, the opcode
/// dispatch, the unsupported-subset rejections, the i128 predicate
/// normalization, and both fusion decisions the paper calls out as
/// critical (§3.4.4/§5.1.2): an integer compare whose single use is the
/// next conditional branch, and a PtrAdd whose single use is the next
/// load/store. DisableFusion is read here for both.
///
/// Derived provides the per-opcode emitters and these hooks, all
/// statically dispatched (docs/ARCHITECTURE.md, "TIR lowering: shared vs
/// per-target"):
///
///   static Cond icmpCond(ICmp)               condition code of a predicate
///   emitSetCC(Cond, Reg)                     flags -> 0/1 in a register
///   emitTestBit0(Reg)                        flags from bit 0 of a bool
///   emitJcc(Cond, Label)                     branch on a condition
///   emitTrap()                               unreachable
///   ptrAddFoldable(PtrAdd, Access) -> bool   addressing-mode legality
///   emitIntCmpFlags(L, R, Pred, Ty) -> ICmp  compare; returns the
///                                            predicate the flags answer
///   emitI128EqFlags(L, R)                    flags for i128 eq/ne
///   emitI128RelFlags(A, B)                   flags for i128 a - b
///
//===----------------------------------------------------------------------===//

#ifndef TPDE_TPDE_TIR_TIRLOWERING_H
#define TPDE_TPDE_TIR_TIRLOWERING_H

// tpde-lint: target-neutral -- shared by every target back-end; target
// headers and names stay out (enforced by scripts/tpde_lint.py).

#include "core/CompilerBase.h"
#include "support/DenseMap.h"
#include "tpde_tir/TirAdapter.h"
#include "tpde_tir/TirGlobals.h"

#include <span>
#include <vector>

namespace tpde::tpde_tir {

template <class Derived, template <core::IRAdapter, class> class TargetCompiler>
class TirLowering : public TargetCompiler<TirAdapter, Derived> {
public:
  using Base = TargetCompiler<TirAdapter, Derived>;
  using VPR = typename Base::ValuePartRef;
  using Base::derived;

  TirLowering(TirAdapter &A, asmx::Assembler &Asm) : Base(A, Asm) {}

  /// Compiles the whole module; returns false on unsupported constructs.
  bool compile() {
    Fused.reserve(this->A.maxValueCount());
    return this->compileModule();
  }

  /// Compiles only functions [Begin, End); other functions and globals
  /// get a declaration only where referenced. Shard entry point used by
  /// the parallel module compiler.
  bool compileRange(u32 Begin, u32 End) {
    Fused.reserve(this->A.maxValueCount());
    return this->compileFunctionRange(Begin, End);
  }

  /// Emits the module-level fragment (defined globals' data) only.
  bool compileGlobals() { return this->compileGlobalsOnly(); }

  // =====================================================================
  // Framework hooks
  // =====================================================================

  /// Per-compile module state: the constant pool and the global-symbol
  /// cache restart with the assembler's symbol table; serial and
  /// globals-only compiles also emit the defined globals' data.
  void beginModule(bool EmitData) {
    FpPool.clear();
    GlobalSyms.prepare(this->A.module());
    if (EmitData)
      defineTirGlobals(this->Asm, this->A.module(), GlobalSyms,
                       this->moduleSymEpoch());
  }

  /// On-demand global symbol (see TirGlobals.h).
  asmx::SymRef globalSym(u32 GI) {
    return GlobalSyms.sym(this->Asm, this->A.module(), GI,
                          this->moduleSymEpoch());
  }

  template <typename Fn> void forEachStackVar(Fn Cb) {
    for (tir::ValRef SV : fn().StackVars) {
      const tir::Value &V = fn().val(SV);
      Cb(V.Aux, static_cast<u32>(V.Aux2));
    }
  }

  void beginFunc(asmx::SymRef Sym) {
    Base::beginFunc(Sym);
    Fused.assign(this->A.valueCount(), 0);
  }

  // =====================================================================
  // Instruction dispatch
  // =====================================================================

  bool compileInst(tir::ValRef I) {
    if (Fused[I])
      return true;
    const tir::Value &V = this->A.val(I);
    Derived &D = *derived();
    switch (V.Opcode) {
    case tir::Op::Add:
    case tir::Op::Sub:
    case tir::Op::And:
    case tir::Op::Or:
    case tir::Op::Xor:
      return D.compileIntAlu(I, V);
    case tir::Op::Mul:
      return D.compileMul(I, V);
    case tir::Op::UDiv:
    case tir::Op::SDiv:
    case tir::Op::URem:
    case tir::Op::SRem:
      if (V.Ty == tir::Type::I128)
        return false; // excluded from the supported subset
      return D.compileDivRem(I, V);
    case tir::Op::Shl:
    case tir::Op::LShr:
    case tir::Op::AShr: {
      const tir::Value &Amt = this->A.val(fn().operand(V, 1));
      bool ConstAmt = Amt.Kind == tir::ValKind::ConstInt;
      u8 Mask = tir::shiftAmountMask(V.Ty);
      u8 ConstBits = ConstAmt ? static_cast<u8>(Amt.Aux & Mask) : 0;
      if (V.Ty != tir::Type::I128)
        return D.compileShift(I, V, ConstAmt, ConstBits, Mask);
      if (!ConstAmt)
        return false; // dynamic i128 shifts are not in the subset
      return D.compileI128ShiftConst(I, V, ConstBits);
    }
    case tir::Op::ICmpOp:
      return compileICmp(I, V);
    case tir::Op::FCmpOp:
      return D.compileFCmp(I, V);
    case tir::Op::FAdd:
    case tir::Op::FSub:
    case tir::Op::FMul:
    case tir::Op::FDiv:
      return D.compileFpAlu(I, V);
    case tir::Op::Neg:
    case tir::Op::Not:
      return D.compileIntUnary(I, V);
    case tir::Op::FNeg:
      return D.compileFNeg(I, V);
    case tir::Op::Zext:
    case tir::Op::Sext:
      return D.compileExt(I, V);
    case tir::Op::Trunc:
      return D.compileTrunc(I, V);
    case tir::Op::FpExt:
    case tir::Op::FpTrunc:
      return D.compileFpConv(I, V);
    case tir::Op::FpToSi:
      return D.compileFpToSi(I, V);
    case tir::Op::SiToFp:
      return D.compileSiToFp(I, V);
    case tir::Op::Bitcast:
      return D.compileBitcast(I, V);
    case tir::Op::Select:
      return D.compileSelect(I, V);
    case tir::Op::Load:
      return D.compileLoad(I, V);
    case tir::Op::Store:
      return D.compileStore(I, V);
    case tir::Op::PtrAdd:
      return tryFusePtrAdd(I, V) || D.compilePtrAdd(I, V);
    case tir::Op::Call: {
      std::span<const tir::ValRef> Args{fn().OperandPool.data() + V.OpBegin,
                                        V.NumOps};
      tir::ValRef Res = I;
      this->genCall(this->funcSym(static_cast<u32>(V.Aux)), Args,
                    V.Ty != tir::Type::Void ? &Res : nullptr);
      return true;
    }
    case tir::Op::Ret: {
      tir::ValRef RV = V.NumOps ? fn().operand(V, 0) : tir::InvalidRef;
      this->emitReturn(V.NumOps ? &RV : nullptr);
      return true;
    }
    case tir::Op::Br:
      this->generateBranch(fn().Blocks[V.Block].Succs[0]);
      return true;
    case tir::Op::CondBr:
      return compileCondBr(V);
    case tir::Op::Unreachable:
      D.emitTrap();
      return true;
    default:
      return false; // unsupported
    }
  }

protected:
  const tir::Function &fn() const { return this->A.func(); }

  /// True if \p V was folded into its single user (the next instruction).
  bool fused(tir::ValRef V) const { return Fused[V]; }

  /// Predicate with swapped operands (a < b == b > a).
  static tir::ICmp swapICmp(tir::ICmp P) {
    using tir::ICmp;
    switch (P) {
    case ICmp::Eq:
    case ICmp::Ne:
      return P;
    case ICmp::Ult:
      return ICmp::Ugt;
    case ICmp::Ule:
      return ICmp::Uge;
    case ICmp::Ugt:
      return ICmp::Ult;
    case ICmp::Uge:
      return ICmp::Ule;
    case ICmp::Slt:
      return ICmp::Sgt;
    case ICmp::Sle:
      return ICmp::Sge;
    case ICmp::Sgt:
      return ICmp::Slt;
    case ICmp::Sge:
      return ICmp::Sle;
    }
    TPDE_UNREACHABLE("bad icmp predicate");
  }

  static bool signedPred(tir::ICmp P) {
    return P == tir::ICmp::Slt || P == tir::ICmp::Sle ||
           P == tir::ICmp::Sgt || P == tir::ICmp::Sge;
  }

  /// Part \p Part of integer constant \p Val as a register holds it:
  /// zero-extended from the part width, i1 reduced to its one bit.
  static u64 constIntBits(const tir::Value &Val, u8 Part) {
    u64 Bits = Part == 0 ? Val.Aux : Val.Aux2;
    u32 W = tir::partSize(Val.Ty, Part);
    if (W < 8)
      Bits &= (u64(1) << (8 * W)) - 1;
    if (Val.Ty == tir::Type::I1)
      Bits &= 1;
    return Bits;
  }

  asmx::SymRef fpConstSym(u64 Bits, u8 Size) {
    return fpPoolConstSym(this->Asm, FpPool, Bits, Size);
  }

  /// Emits the flag-setting compare of integer comparison \p CmpV and
  /// returns the condition that holds iff it is true. Shared by the
  /// set-from-flags path and the fused compare-branch. i128 relational
  /// predicates reduce to {ult, uge, slt, sge} by swapping the operands,
  /// so the target's flag sequence only ever computes a - b.
  auto emitICmpFlags(const tir::Value &CmpV) {
    tir::ValRef LV = fn().operand(CmpV, 0), RV = fn().operand(CmpV, 1);
    tir::ICmp P = static_cast<tir::ICmp>(CmpV.Aux);
    tir::Type OpTy = this->A.val(LV).Ty;
    if (OpTy != tir::Type::I128)
      return Derived::icmpCond(derived()->emitIntCmpFlags(LV, RV, P, OpTy));
    if (P == tir::ICmp::Eq || P == tir::ICmp::Ne) {
      derived()->emitI128EqFlags(LV, RV);
      return Derived::icmpCond(P);
    }
    bool Swap = P == tir::ICmp::Ugt || P == tir::ICmp::Ule ||
                P == tir::ICmp::Sgt || P == tir::ICmp::Sle;
    derived()->emitI128RelFlags(Swap ? RV : LV, Swap ? LV : RV);
    return Derived::icmpCond(Swap ? swapICmp(P) : P);
  }

private:
  /// The instruction right after \p I when \p I may fold into it: fusion
  /// is enabled and \p I has a single use. Null otherwise.
  const tir::Value *fusionCandidate(tir::ValRef I) {
    if (DisableFusion || this->analyzer().liveness(I).RefCount != 1)
      return nullptr;
    tir::ValRef Nxt = this->A.nextInst(I);
    return Nxt == tir::InvalidRef ? nullptr : &this->A.val(Nxt);
  }

  bool compileICmp(tir::ValRef I, const tir::Value &V) {
    // Compare-branch fusion (§5.1.2): if the single user is the condbr
    // immediately following, defer to the branch.
    const tir::Value *NV = fusionCandidate(I);
    if (NV && NV->Opcode == tir::Op::CondBr && fn().operand(*NV, 0) == I) {
      Fused[I] = 1;
      return true;
    }
    auto CC = emitICmpFlags(V);
    VPR Res = this->resultRef(I, 0);
    derived()->emitSetCC(CC, Res.allocReg());
    Res.setModified();
    return true;
  }

  /// Marks a PtrAdd as fused if its single use is the immediately
  /// following load/store (as the address, not the stored value) and the
  /// target can fold the computation into that access.
  bool tryFusePtrAdd(tir::ValRef I, const tir::Value &V) {
    const tir::Value *NV = fusionCandidate(I);
    if (!NV)
      return false;
    bool IsLoad = NV->Opcode == tir::Op::Load && fn().operand(*NV, 0) == I;
    bool IsStore = NV->Opcode == tir::Op::Store &&
                   fn().operand(*NV, 1) == I && fn().operand(*NV, 0) != I;
    if ((!IsLoad && !IsStore) || !derived()->ptrAddFoldable(V, *NV))
      return false;
    Fused[I] = 1;
    return true;
  }

  bool compileCondBr(const tir::Value &V) {
    const tir::Block &B = fn().Blocks[V.Block];
    tir::ValRef CV = fn().operand(V, 0);
    auto CC = Derived::icmpCond(tir::ICmp::Ne);
    if (CV < Fused.size() && Fused[CV]) {
      CC = emitICmpFlags(this->A.val(CV));
    } else {
      VPR Cond = this->valRef(CV, 0);
      derived()->emitTestBit0(Cond.asReg());
    }
    this->generateCondBranch(B.Succs[0], B.Succs[1],
                             [&](asmx::Label L, bool Inv) {
                               derived()->emitJcc(Inv ? invert(CC) : CC, L);
                             });
    return true;
  }

  TirGlobalSyms GlobalSyms;
  support::DenseMap<u64, asmx::SymRef> FpPool;
  std::vector<u8> Fused;
};

} // namespace tpde::tpde_tir

#endif // TPDE_TPDE_TIR_TIRLOWERING_H
