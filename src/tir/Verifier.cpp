//===- tir/Verifier.cpp - Structural and SSA validation for TIR -----------===//

#include "tir/Verifier.h"

#include <algorithm>
#include <span>
#include <string_view>
#include <unordered_set>

using namespace tpde;
using namespace tpde::tir;

namespace {

/// Computes a reverse post-order over reachable blocks.
std::vector<BlockRef> computeRPO(const Function &F) {
  std::vector<BlockRef> PostOrder;
  std::vector<u8> State(F.Blocks.size(), 0); // 0 new, 1 open, 2 done
  std::vector<std::pair<BlockRef, u32>> Stack;
  Stack.emplace_back(0, 0);
  State[0] = 1;
  while (!Stack.empty()) {
    auto &[B, NextSucc] = Stack.back();
    const auto &Succs = F.Blocks[B].Succs;
    if (NextSucc < Succs.size()) {
      BlockRef S = Succs[NextSucc++];
      if (State[S] == 0) {
        State[S] = 1;
        Stack.emplace_back(S, 0);
      }
      continue;
    }
    State[B] = 2;
    PostOrder.push_back(B);
    Stack.pop_back();
  }
  std::reverse(PostOrder.begin(), PostOrder.end());
  return PostOrder;
}

/// Predecessor lists of every block in one flat array: the predecessors of
/// B are List[Start[B], Start[B + 1]), in block order (with repeats for
/// multi-edges). Two allocations instead of one per block.
struct PredLists {
  std::vector<u32> Start;
  std::vector<BlockRef> List;

  explicit PredLists(const Function &F) : Start(F.Blocks.size() + 1, 0) {
    for (const Block &BB : F.Blocks)
      for (BlockRef S : BB.Succs)
        ++Start[S + 1];
    for (size_t B = 1; B < Start.size(); ++B)
      Start[B] += Start[B - 1];
    List.resize(Start.back());
    std::vector<u32> Fill(Start.begin(), Start.end() - 1);
    for (u32 B = 0; B < F.Blocks.size(); ++B)
      for (BlockRef S : F.Blocks[B].Succs)
        List[Fill[S]++] = B;
  }
  std::span<const BlockRef> of(BlockRef B) const {
    return {List.data() + Start[B], List.data() + Start[B + 1]};
  }
};

/// Cooper-Harvey-Kennedy iterative dominator computation.
std::vector<BlockRef> computeIDom(const Function &F, const PredLists &Preds) {
  std::vector<BlockRef> RPO = computeRPO(F);
  std::vector<u32> RpoNum(F.Blocks.size(), ~0u);
  for (u32 I = 0; I < RPO.size(); ++I)
    RpoNum[RPO[I]] = I;

  std::vector<BlockRef> IDom(F.Blocks.size(), InvalidRef);
  IDom[0] = 0;
  auto intersect = [&](BlockRef A, BlockRef B) {
    while (A != B) {
      while (RpoNum[A] > RpoNum[B])
        A = IDom[A];
      while (RpoNum[B] > RpoNum[A])
        B = IDom[B];
    }
    return A;
  };
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (BlockRef B : RPO) {
      if (B == 0)
        continue;
      BlockRef NewIDom = InvalidRef;
      for (BlockRef P : Preds.of(B)) {
        if (RpoNum[P] == ~0u || IDom[P] == InvalidRef)
          continue; // unreachable or not yet processed
        NewIDom = NewIDom == InvalidRef ? P : intersect(P, NewIDom);
      }
      if (NewIDom != InvalidRef && IDom[B] != NewIDom) {
        IDom[B] = NewIDom;
        Changed = true;
      }
    }
  }
  return IDom;
}

/// The i128 support subset (paper §5: uncommon operations excluded).
bool i128Supported(Op O) {
  switch (O) {
  case Op::Add:
  case Op::Sub:
  case Op::Mul:
  case Op::And:
  case Op::Or:
  case Op::Xor:
  case Op::Shl:
  case Op::LShr:
  case Op::AShr:
  case Op::Zext:
  case Op::Trunc:
  case Op::Select:
  case Op::Load:
  case Op::Phi:
  case Op::Call:
    return true;
  default:
    return false;
  }
}

} // namespace

std::vector<BlockRef> tpde::tir::computeIDom(const Function &F) {
  return ::computeIDom(F, PredLists(F));
}

bool tpde::tir::verifyFunction(const Module &M, const Function &F,
                               std::string &Errors) {
  bool OK = true;
  auto fail = [&](const std::string &Msg) {
    Errors += "function '" + F.Name + "': " + Msg + "\n";
    OK = false;
  };
  if (F.IsDeclaration)
    return true;
  if (F.Blocks.empty()) {
    fail("no blocks");
    return false;
  }

  const u32 NumVals = F.valueCount();
  const u32 NumBlocks = static_cast<u32>(F.Blocks.size());

  // Bounds first: every value id, block id and pool slice that the checks
  // below — and fingerprinting and codegen after them — index with must be
  // in range, so a malformed function is rejected before any indexed
  // read. Unlisted values are covered too: the fingerprint reads every
  // value's operand slice. The per-value rules (i128 subset, call and
  // global targets) share the pass, so Values is walked once.
  for (u32 I = 0; I < NumVals; ++I) {
    const Value &V = F.Values[I];
    if (V.Kind == ValKind::GlobalAddr && V.Aux >= M.Globals.size())
      fail("global address out of range");
    if (V.Kind == ValKind::Inst) {
      if (V.Ty == Type::I128 && !i128Supported(V.Opcode))
        fail("unsupported i128 operation");
      if (V.Opcode == Op::Call) {
        if (V.Aux >= M.Funcs.size())
          fail("call to out-of-range function");
        else if (M.Funcs[V.Aux].ParamTys.size() != V.NumOps)
          fail("call argument count mismatch to '" + M.Funcs[V.Aux].Name +
               "'");
      }
    }
    if (V.NumOps == 0)
      continue;
    const u64 End = static_cast<u64>(V.OpBegin) + V.NumOps;
    const bool IsPhi = V.Opcode == Op::Phi;
    if (End > F.OperandPool.size() ||
        (IsPhi && End > F.PhiBlockPool.size())) {
      fail("value v" + std::to_string(I) +
           " has an operand range outside the operand pool");
      continue;
    }
    if (IsPhi)
      for (u32 O = 0; O < V.NumOps; ++O)
        if (F.PhiBlockPool[V.OpBegin + O] >= NumBlocks)
          fail("phi incoming block out of range");
  }
  // Every pool entry must name a value. The Builder only appends operand
  // slices, so one scan of the pool checks every value's operands; a loop
  // per value would mispredict its exit once per value.
  if (std::any_of(F.OperandPool.begin(), F.OperandPool.end(),
                  [&](ValRef Op) { return Op >= NumVals; }))
    fail("operand index out of range");
  for (u32 B = 0; B < NumBlocks; ++B) {
    const Block &BB = F.Blocks[B];
    for (ValRef V : BB.Phis)
      if (V >= NumVals)
        fail("phi list of block " + std::to_string(B) +
             " names an out-of-range value");
    for (ValRef V : BB.Insts)
      if (V >= NumVals)
        fail("instruction list of block " + std::to_string(B) +
             " names an out-of-range value");
    for (BlockRef S : BB.Succs)
      if (S >= NumBlocks)
        fail("successor out of range");
  }
  if (!OK)
    return false;

  // Structural checks per block.
  for (u32 B = 0; B < NumBlocks; ++B) {
    const Block &BB = F.Blocks[B];
    if (BB.Insts.empty()) {
      fail("block " + std::to_string(B) + " is empty");
      continue;
    }
    for (size_t I = 0; I < BB.Insts.size(); ++I) {
      const Value &V = F.val(BB.Insts[I]);
      if (V.Kind != ValKind::Inst || V.Opcode == Op::Phi)
        fail("non-instruction in instruction list");
      if (V.Block != B)
        fail("instruction block back-reference mismatch");
      bool IsLast = I + 1 == BB.Insts.size();
      if (isTerminator(V.Opcode) != IsLast)
        fail("terminator placement wrong in block " + std::to_string(B));
    }
    const Value &Term = F.val(BB.Insts.back());
    u32 WantSuccs = Term.Opcode == Op::Br       ? 1
                    : Term.Opcode == Op::CondBr ? 2
                                                : 0;
    if (BB.Succs.size() != WantSuccs)
      fail("successor count does not match terminator in block " +
           std::to_string(B));
  }
  if (!OK)
    return false;

  const PredLists Preds(F);

  std::vector<BlockRef> Incoming, Want;
  for (u32 B = 0; B < NumBlocks; ++B) {
    if (F.Blocks[B].Phis.empty())
      continue;
    Want.assign(Preds.of(B).begin(), Preds.of(B).end());
    std::sort(Want.begin(), Want.end());
    Want.erase(std::unique(Want.begin(), Want.end()), Want.end());
    for (ValRef P : F.Blocks[B].Phis) {
      const Value &Phi = F.val(P);
      if (Phi.Opcode != Op::Phi) {
        fail("non-phi in phi list");
        continue;
      }
      if (Phi.Block != B)
        fail("phi block back-reference mismatch");
      // Each predecessor must appear exactly once.
      Incoming.clear();
      for (u32 I = 0; I < Phi.NumOps; ++I)
        Incoming.push_back(F.phiBlock(Phi, I));
      std::sort(Incoming.begin(), Incoming.end());
      if (Incoming != Want)
        fail("phi incoming blocks disagree with predecessors in block " +
             std::to_string(B));
    }
  }

  // SSA dominance: the definition must dominate every use; for phis, the
  // definition must dominate the end of the incoming block.
  std::vector<BlockRef> IDom = ::computeIDom(F, Preds);
  std::vector<u32> InstPos(NumVals, 0);
  for (u32 B = 0; B < NumBlocks; ++B)
    for (u32 I = 0; I < F.Blocks[B].Insts.size(); ++I)
      InstPos[F.Blocks[B].Insts[I]] = I + 1; // phis get 0
  auto dominates = [&](BlockRef A, BlockRef B) {
    // Walk the dominator chain from B up to the entry.
    while (B != 0 && B != A) {
      if (IDom[B] == InvalidRef)
        return false; // unreachable block
      BlockRef Next = IDom[B];
      if (Next == B)
        break;
      B = Next;
    }
    return A == B;
  };
  auto defDominatesUse = [&](ValRef Def, BlockRef UseBlock, u32 UsePos) {
    const Value &DV = F.val(Def);
    if (DV.Kind != ValKind::Inst)
      return true; // args/consts/stack vars dominate everything
    if (DV.Block != UseBlock)
      return dominates(DV.Block, UseBlock);
    u32 DefPos = InstPos[Def];
    return DefPos < UsePos || (DefPos == 0 && UsePos > 0);
  };

  for (u32 B = 0; B < NumBlocks; ++B) {
    const Block &BB = F.Blocks[B];
    for (u32 I = 0; I < BB.Insts.size(); ++I) {
      const Value &V = F.val(BB.Insts[I]);
      for (u32 O = 0; O < V.NumOps; ++O)
        if (!defDominatesUse(F.operand(V, O), B, I + 1))
          fail("use before def in block " + std::to_string(B));
    }
    for (ValRef P : BB.Phis) {
      const Value &Phi = F.val(P);
      if (Phi.Opcode != Op::Phi)
        continue; // reported above; its PhiBlockPool slice is unchecked
      for (u32 I = 0; I < Phi.NumOps; ++I) {
        BlockRef In = F.phiBlock(Phi, I);
        if (!defDominatesUse(F.operand(Phi, I), In,
                             static_cast<u32>(F.Blocks[In].Insts.size() + 2)))
          fail("phi operand does not dominate incoming edge");
      }
    }
  }
  return OK;
}

bool tpde::tir::verifyModule(const Module &M, std::string &Errors) {
  bool OK = true;
  // Module-level: duplicate function names. Two strong definitions of one
  // name would only surface as an assembler error mid-emission; reject
  // them up front. (Declarations may repeat — they collapse to one
  // symbol — and duplicate weak definitions resolve by first-wins.)
  std::unordered_set<std::string_view> Defined;
  for (const Function &F : M.Funcs) {
    if (F.IsDeclaration || F.Link == Linkage::Weak)
      continue;
    if (!Defined.insert(F.Name).second) {
      Errors += "duplicate definition of function '" + F.Name + "'\n";
      OK = false;
    }
  }
  for (const Function &F : M.Funcs)
    OK &= verifyFunction(M, F, Errors);
  return OK;
}
