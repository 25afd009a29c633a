//===- uir/Verifier.cpp - Structural validation for UIR ------------------===//

#include "uir/Verifier.h"

#include "support/SmallVector.h"

#include <algorithm>
#include <numeric>
#include <tuple>

using namespace tpde;
using namespace tpde::uir;

namespace {

/// Values whose listed-marks fit the verifier's inline buffer; larger
/// functions spill it to the heap. Service-sized query functions have a
/// few dozen values, so admitting one allocates nothing.
constexpr unsigned InlineValues = 1024;

/// Functions whose name-check indices fit the verifier's inline buffer;
/// larger modules spill it to the heap.
constexpr size_t InlineFuncs = 16;

bool isTerminator(UOp Op) {
  return Op == UOp::Br || Op == UOp::CondBr || Op == UOp::Ret;
}

/// Expected successor count of a terminator.
u32 succCount(UOp Op) {
  switch (Op) {
  case UOp::Br: return 1;
  case UOp::CondBr: return 2;
  case UOp::Ret: return 0;
  default: break;
  }
  return 0;
}

/// Expected operand count per opcode (the Ops[] encoding: ~0u = absent).
u32 operandArity(UOp Op) {
  switch (Op) {
  case UOp::ConstI:
  case UOp::ConstF:
  case UOp::Br:
  case UOp::Phi: // incomings live in InVal/InBlock, not Ops
    return 0;
  case UOp::ColAddr:
  case UOp::I2F:
  case UOp::Load:
  case UOp::CondBr:
  case UOp::Ret:
    return 1;
  default:
    return 2; // all binary arithmetic/compare/memory-index ops
  }
}

class FuncVerifier {
public:
  FuncVerifier(const UFunc &F, std::string &Errors) : F(F), Errors(Errors) {}

  bool run() {
    const u32 NumVals = static_cast<u32>(F.Vals.size());
    const u32 NumBlocks = static_cast<u32>(F.Blocks.size());
    if (NumBlocks == 0)
      return error("function has no blocks");
    if (NumVals < F.NumArgs)
      return error("fewer values than arguments");

    // Pass 1: block lists. Every listed value id must be in range, belong
    // to exactly one list, and carry a matching Block back-reference.
    // Terminators close every block and appear nowhere else; phis live
    // only in the phi lists.
    Listed.assign(NumVals, 0);
    for (u32 B = 0; B < NumBlocks; ++B) {
      const UBlock &Blk = F.Blocks[B];
      for (u32 V : Blk.Phis) {
        if (!checkListed(V, B, "phi"))
          return false;
        if (F.Vals[V].Op != UOp::Phi)
          return error("non-phi value in phi list of block " +
                       std::to_string(B));
      }
      if (Blk.Insts.empty())
        return error("block " + std::to_string(B) + " has no terminator");
      for (u32 I = 0; I < Blk.Insts.size(); ++I) {
        u32 V = Blk.Insts[I];
        if (!checkListed(V, B, "instruction"))
          return false;
        const UInst &Inst = F.Vals[V];
        if (Inst.Op == UOp::Phi)
          return error("phi in instruction list of block " +
                       std::to_string(B));
        bool Last = I + 1 == Blk.Insts.size();
        if (isTerminator(Inst.Op) != Last)
          return error(Last ? "block " + std::to_string(B) +
                                  " does not end in a terminator"
                            : "terminator in the middle of block " +
                                  std::to_string(B));
        if (Last && Blk.Succs.size() != succCount(Inst.Op))
          return error("block " + std::to_string(B) +
                       " successor count does not match its terminator");
      }
      for (u32 S : Blk.Succs)
        if (S >= NumBlocks)
          return error("block " + std::to_string(B) +
                       " has an out-of-range successor");
    }

    // Pass 2: operands. Every referenced id must be in range; the Ops[]
    // presence encoding (~0u = absent) must match the opcode's arity.
    // Values outside the block lists are checked too — constants are
    // legitimately kept off the lists (materialized at use), but any
    // value reachable as an operand must still be self-consistent.
    for (u32 V = 0; V < NumVals; ++V) {
      const UInst &Inst = F.Vals[V];
      if (Inst.Block >= NumBlocks)
        return error("value v" + std::to_string(V) +
                     " has an out-of-range block");
      u32 N = Inst.Ops[0] == ~0u ? 0 : (Inst.Ops[1] == ~0u ? 1 : 2);
      if (V >= F.NumArgs && !Listed[V] && Inst.Op != UOp::ConstI &&
          Inst.Op != UOp::ConstF)
        return error("value v" + std::to_string(V) +
                     " is in no block's instruction or phi list");
      if (V < F.NumArgs)
        continue; // argument placeholders carry no meaningful operands
      if (N != operandArity(Inst.Op))
        return error("value v" + std::to_string(V) +
                     " has wrong operand count for its opcode");
      for (u32 I = 0; I < N; ++I)
        if (Inst.Ops[I] >= NumVals)
          return error("value v" + std::to_string(V) +
                       " references dangling operand v" +
                       std::to_string(Inst.Ops[I]));
      if (Inst.Op == UOp::Phi && !checkPhi(V))
        return false;
    }
    return true;
  }

private:
  bool error(std::string Msg) {
    Errors += "function '" + F.Name + "': " + Msg + "\n";
    return false;
  }

  bool checkListed(u32 V, u32 B, const char *What) {
    const u32 NumVals = static_cast<u32>(F.Vals.size());
    if (V >= NumVals)
      return error("block " + std::to_string(B) +
                   " lists out-of-range value v" + std::to_string(V));
    if (Listed[V])
      return error("value v" + std::to_string(V) +
                   " appears in more than one block list");
    Listed[V] = 1;
    if (F.Vals[V].Block != B)
      return error(std::string(What) + " v" + std::to_string(V) +
                   " has a stale block back-reference");
    return true;
  }

  /// Phi incomings must be in range and agree exactly with the block's
  /// predecessors (each predecessor contributes one incoming).
  bool checkPhi(u32 V) {
    const UInst &Inst = F.Vals[V];
    const u32 NumVals = static_cast<u32>(F.Vals.size());
    const u32 NumBlocks = static_cast<u32>(F.Blocks.size());
    u32 N = Inst.InVal[0] == ~0u ? 0 : (Inst.InVal[1] == ~0u ? 1 : 2);
    if (N == 0)
      return error("phi v" + std::to_string(V) + " has no incomings");
    for (u32 I = 0; I < N; ++I) {
      if (Inst.InBlock[I] >= NumBlocks)
        return error("phi v" + std::to_string(V) +
                     " has an out-of-range incoming block");
      if (Inst.InVal[I] >= NumVals)
        return error("phi v" + std::to_string(V) +
                     " has a dangling incoming value");
    }
    if (N == 2 && Inst.InBlock[0] == Inst.InBlock[1])
      return error("phi v" + std::to_string(V) +
                   " has duplicate incoming blocks");
    // Predecessor agreement: every predecessor of the phi's block must
    // appear among the incomings, and vice versa.
    u32 B = Inst.Block;
    u32 Preds = 0;
    for (u32 P = 0; P < NumBlocks; ++P) {
      for (u32 S : F.Blocks[P].Succs) {
        if (S != B)
          continue;
        ++Preds;
        bool Found = false;
        for (u32 I = 0; I < N; ++I)
          Found |= Inst.InBlock[I] == P;
        if (!Found)
          return error("phi v" + std::to_string(V) +
                       " is missing an incoming for predecessor block " +
                       std::to_string(P));
      }
    }
    if (Preds != N)
      return error("phi v" + std::to_string(V) +
                   " incoming count does not match predecessor count");
    return true;
  }

  const UFunc &F;
  std::string &Errors;
  support::SmallVector<u8, InlineValues> Listed;
};

/// Sets Dup[I] when a function before I has the same name.
void markDuplicateNames(const UModule &M,
                        support::SmallVector<u8, InlineFuncs> &Dup) {
  const size_t N = M.Funcs.size();
  Dup.assign(N, 0);
  // Sorted by (name, index): each run of equal names starts at its first
  // function.
  support::SmallVector<u32, InlineFuncs> Order;
  Order.resize(N);
  std::iota(Order.begin(), Order.end(), 0u);
  std::sort(Order.begin(), Order.end(), [&](u32 A, u32 B) {
    return std::tie(M.Funcs[A].Name, A) < std::tie(M.Funcs[B].Name, B);
  });
  for (size_t K = 1; K < N; ++K)
    Dup[Order[K]] = M.Funcs[Order[K]].Name == M.Funcs[Order[K - 1]].Name;
}

} // namespace

bool tpde::uir::verifyFunction(const UFunc &F, std::string &Errors) {
  return FuncVerifier(F, Errors).run();
}

bool tpde::uir::verifyModule(const UModule &M, std::string &Errors) {
  support::SmallVector<u8, InlineFuncs> Dup;
  markDuplicateNames(M, Dup);
  bool OK = true;
  for (size_t I = 0; I < M.Funcs.size(); ++I) {
    const UFunc &F = M.Funcs[I];
    if (Dup[I]) {
      Errors += "duplicate function name '" + F.Name + "'\n";
      OK = false;
    }
    OK &= verifyFunction(F, Errors);
  }
  return OK;
}
