//===- copypatch/CopyPatch.cpp - Copy-and-patch back-end ------------------===//

#include "copypatch/CopyPatch.h"
#include "support/DenseMap.h"
#include "x64/Encoder.h"

#include <deque>

using namespace tpde;
using namespace tpde::asmx;
using namespace tpde::tir;
using namespace tpde::x64;

namespace {

// 32-bit hole markers scanned for in template bytes. Values are chosen to
// never collide with real encodings emitted by the template builders.
constexpr i32 HoleA = 0x1A2B0004;  // slot of operand 0 (part 0)
constexpr i32 HoleA2 = 0x1A2B1004; // slot of operand 0 (part 1)
constexpr i32 HoleB = 0x1A2B0008;
constexpr i32 HoleB2 = 0x1A2B1008;
constexpr i32 HoleC = 0x1A2B000C;
constexpr i32 HoleR = 0x1A2B0010;
constexpr i32 HoleR2 = 0x1A2B1010;
constexpr i32 HoleC2 = 0x1A2B100C; // slot of operand 2 (part 1)
constexpr i32 HoleImm = 0x1A2B0024;
constexpr u64 HoleImm64 = 0x1A2B00641A2B0064ull;

enum class HoleKind : u8 { A, A2, B, B2, C, C2, R, R2, Imm, Imm64 };

struct Template {
  std::vector<u8> Bytes;
  std::vector<std::pair<u32, HoleKind>> Holes;
};

/// Builds a template by scanning emitted bytes for hole markers.
template <typename Fn> Template buildTemplate(Fn Emit) {
  Assembler A;
  Emitter E(A);
  Emit(E);
  Template T;
  T.Bytes.assign(A.text().Data.begin(), A.text().Data.end());
  static constexpr std::pair<i32, HoleKind> Marks[] = {
      {HoleA, HoleKind::A},   {HoleA2, HoleKind::A2}, {HoleB, HoleKind::B},
      {HoleB2, HoleKind::B2}, {HoleC, HoleKind::C},   {HoleC2, HoleKind::C2},
      {HoleR, HoleKind::R},   {HoleR2, HoleKind::R2}, {HoleImm, HoleKind::Imm}};
  for (u32 I = 0; I + 4 <= T.Bytes.size(); ++I) {
    u32 V = static_cast<u32>(T.Bytes[I]) | (T.Bytes[I + 1] << 8) |
            (T.Bytes[I + 2] << 16) |
            (static_cast<u32>(T.Bytes[I + 3]) << 24);
    if (I + 8 <= T.Bytes.size()) {
      u64 V64 = static_cast<u64>(V) |
                (static_cast<u64>(static_cast<u32>(T.Bytes[I + 4]) |
                                  (T.Bytes[I + 5] << 8) |
                                  (T.Bytes[I + 6] << 16) |
                                  (static_cast<u32>(T.Bytes[I + 7]) << 24))
                 << 32);
      if (V64 == HoleImm64) {
        T.Holes.push_back({I, HoleKind::Imm64});
        I += 7;
        continue;
      }
    }
    for (auto [M, K] : Marks) {
      if (V == static_cast<u32>(M)) {
        T.Holes.push_back({I, K});
        I += 3;
        break;
      }
    }
  }
  return T;
}

Mem mA() { return Mem(RBP, HoleA); }
Mem mA2() { return Mem(RBP, HoleA2); }
Mem mB() { return Mem(RBP, HoleB); }
Mem mB2() { return Mem(RBP, HoleB2); }
Mem mC() { return Mem(RBP, HoleC); }
Mem mC2() { return Mem(RBP, HoleC2); }
Mem mR() { return Mem(RBP, HoleR); }
Mem mR2() { return Mem(RBP, HoleR2); }

u8 opSzOf(u32 W) { return W < 4 ? 4 : static_cast<u8>(W); }

u64 key(Op O, u64 V1 = 0, u64 V2 = 0, u64 V3 = 0) {
  return static_cast<u64>(O) | (V1 << 8) | (V2 << 24) | (V3 << 40);
}

class Compiler {
public:
  Compiler(Module &M, Assembler &Asm) : M(M), Asm(Asm), E(Asm) {}

  bool run() {
    defineGlobals();
    FuncSyms.clear();
    for (const Function &F : M.Funcs) {
      asmx::Linkage L = F.Link == tir::Linkage::Internal
                            ? asmx::Linkage::Internal
                            : asmx::Linkage::External;
      FuncSyms.push_back(Asm.createSymbol(F.Name, L, true));
    }
    for (u32 I = 0; I < M.Funcs.size(); ++I) {
      if (M.Funcs[I].IsDeclaration)
        continue;
      if (!compileFunc(M.Funcs[I], FuncSyms[I]))
        return false;
    }
    return !Asm.hasError();
  }

private:
  Module &M;
  Assembler &Asm;
  Emitter E;
  std::vector<SymRef> FuncSyms;
  std::vector<SymRef> GlobalSyms;
  const Function *F = nullptr;
  std::vector<Label> BlockLabels;
  i32 ShadowBase = 0, StackVarBase = 0;
  /// Template cache keyed by an opcode-specific 64-bit key. Owned by the
  /// compiler instance — a function-local static here would let two
  /// concurrent compilers corrupt each other's templates. Templates live
  /// in a deque so references handed out stay stable across insertions.
  support::DenseMap<u64, u32> TemplateIdx;
  std::deque<Template> TemplateStore;

  template <typename Fn> const Template &getTemplate(u64 Key, Fn Emit) {
    if (u32 *Known = TemplateIdx.find(Key))
      return TemplateStore[*Known];
    TemplateStore.push_back(buildTemplate(Emit));
    TemplateIdx.insert(Key, static_cast<u32>(TemplateStore.size() - 1));
    return TemplateStore.back();
  }

  void defineGlobals() {
    for (const Global &G : M.Globals) {
      asmx::Linkage L = G.Link == tir::Linkage::Internal
                            ? asmx::Linkage::Internal
                            : asmx::Linkage::External;
      SymRef S = Asm.createSymbol(G.Name, L, false);
      GlobalSyms.push_back(S);
      if (!G.Defined)
        continue;
      SecKind K = G.Init.empty() && !G.ReadOnly
                      ? SecKind::BSS
                      : (G.ReadOnly ? SecKind::ROData : SecKind::Data);
      if (K == SecKind::BSS) {
        Section &BSS = Asm.section(K);
        BSS.BssSize = alignTo(BSS.BssSize, G.Align ? G.Align : 1);
        Asm.defineSymbol(S, K, BSS.BssSize, G.Size);
        BSS.BssSize += G.Size;
        continue;
      }
      Section &Sec = Asm.section(K);
      Sec.alignToBoundary(G.Align ? G.Align : 1);
      u64 Off = Sec.size();
      Sec.append(G.Init.data(), G.Init.size());
      if (G.Init.size() < G.Size)
        Sec.appendZeros(G.Size - G.Init.size());
      Asm.defineSymbol(S, K, Off, G.Size);
    }
  }

  i32 slotOf(ValRef V, u32 Part = 0) {
    return -static_cast<i32>(16 * (V + 1)) + static_cast<i32>(8 * Part);
  }
  i32 shadowOf(u32 PhiOrdinal, u32 Part) {
    return ShadowBase - static_cast<i32>(16 * PhiOrdinal) +
           static_cast<i32>(8 * Part);
  }

  /// Copies a template into the text section and patches its holes.
  void inst(const Template &T, i32 A = 0, i32 B = 0, i32 C = 0, i32 R = 0,
            i64 Imm = 0) {
    Section &Text = Asm.text();
    u64 Base = Text.size();
    Text.append(T.Bytes.data(), T.Bytes.size());
    for (auto [Off, K] : T.Holes) {
      switch (K) {
      case HoleKind::A:
        Text.patchLE<i32>(Base + Off, A);
        break;
      case HoleKind::A2:
        Text.patchLE<i32>(Base + Off, A + 8);
        break;
      case HoleKind::B:
        Text.patchLE<i32>(Base + Off, B);
        break;
      case HoleKind::B2:
        Text.patchLE<i32>(Base + Off, B + 8);
        break;
      case HoleKind::C:
        Text.patchLE<i32>(Base + Off, C);
        break;
      case HoleKind::C2:
        Text.patchLE<i32>(Base + Off, C + 8);
        break;
      case HoleKind::R:
        Text.patchLE<i32>(Base + Off, R);
        break;
      case HoleKind::R2:
        Text.patchLE<i32>(Base + Off, R + 8);
        break;
      case HoleKind::Imm:
        Text.patchLE<i32>(Base + Off, static_cast<i32>(Imm));
        break;
      case HoleKind::Imm64:
        Text.patchLE<u64>(Base + Off, static_cast<u64>(Imm));
        break;
      }
    }
  }

  bool compileFunc(const Function &Fn, SymRef Sym) {
    F = &Fn;
    Asm.text().alignToBoundary(16);
    u64 Start = Asm.text().size();
    Asm.defineSymbol(Sym, SecKind::Text, Start, 0);
    Asm.resetLabels();

    // Frame: 16 bytes per value, then phi shadow slots, then stack vars.
    u32 NumPhis = 0;
    for (const Block &B : Fn.Blocks)
      NumPhis += B.Phis.size();
    ShadowBase = -static_cast<i32>(16 * Fn.valueCount()) - 8;
    i32 Off = ShadowBase - static_cast<i32>(16 * NumPhis) - 8;
    StackVarOffs.clear();
    for (ValRef SV : Fn.StackVars) {
      const Value &V = Fn.val(SV);
      u32 Al = V.Aux2 < 8 ? 8 : static_cast<u32>(V.Aux2);
      Off = -static_cast<i32>(alignTo(static_cast<u64>(-Off) + V.Aux, Al));
      StackVarOffs.push_back(Off);
    }
    u32 FrameSize = static_cast<u32>(alignTo(static_cast<u64>(-Off), 16));

    E.push(RBP);
    E.movRR(8, RBP, RSP);
    E.aluRI(AluOp::Sub, 8, RSP, FrameSize);

    // Arguments into their slots.
    u32 GPUsed = 0, FPUsed = 0;
    i32 StackArgOff = 16;
    static constexpr AsmReg GPArg[6] = {RDI, RSI, RDX, RCX, R8, R9};
    for (ValRef AV : Fn.Args) {
      const Value &V = Fn.val(AV);
      u32 Parts = partCount(V.Ty);
      u8 Bank = partBank(V.Ty);
      bool InRegs = Bank == 0 ? GPUsed + Parts <= 6 : FPUsed + Parts <= 8;
      for (u32 P = 0; P < Parts; ++P) {
        if (InRegs && Bank == 0) {
          E.store(8, Mem(RBP, slotOf(AV, P)), GPArg[GPUsed++]);
        } else if (InRegs) {
          E.fpStore(8, Mem(RBP, slotOf(AV, P)), AsmReg(16 + FPUsed++));
        } else {
          E.load(8, RAX, Mem(RBP, StackArgOff));
          StackArgOff += 8;
          E.store(8, Mem(RBP, slotOf(AV, P)), RAX);
        }
      }
    }
    // Constants, globals, and stack-var addresses: initialized once.
    for (u32 VI = 0; VI < Fn.valueCount(); ++VI) {
      const Value &V = Fn.Values[VI];
      switch (V.Kind) {
      case ValKind::ConstInt: {
        E.movRI(RAX, V.Aux);
        E.store(8, Mem(RBP, slotOf(VI, 0)), RAX);
        if (V.Ty == Type::I128) {
          E.movRI(RAX, V.Aux2);
          E.store(8, Mem(RBP, slotOf(VI, 1)), RAX);
        }
        break;
      }
      case ValKind::ConstFP:
        E.movRI(RAX, V.Aux);
        E.store(8, Mem(RBP, slotOf(VI, 0)), RAX);
        break;
      case ValKind::GlobalAddr:
        E.leaSym(RAX, GlobalSyms[V.Aux]);
        E.store(8, Mem(RBP, slotOf(VI, 0)), RAX);
        break;
      case ValKind::StackVar: {
        u32 Idx = 0;
        for (u32 I = 0; I < Fn.StackVars.size(); ++I)
          if (Fn.StackVars[I] == VI)
            Idx = I;
        E.lea(RAX, Mem(RBP, StackVarOffs[Idx]));
        E.store(8, Mem(RBP, slotOf(VI, 0)), RAX);
        break;
      }
      default:
        break;
      }
    }

    BlockLabels.clear();
    for (u32 B = 0; B < Fn.Blocks.size(); ++B)
      BlockLabels.push_back(Asm.makeLabel());
    PhiOrdinal.assign(Fn.valueCount(), ~0u);
    u32 Ord = 0;
    for (const Block &B : Fn.Blocks)
      for (ValRef P : B.Phis)
        PhiOrdinal[P] = Ord++;

    for (u32 B = 0; B < Fn.Blocks.size(); ++B) {
      Asm.bindLabel(BlockLabels[B]);
      for (ValRef I : Fn.Blocks[B].Insts)
        if (!compileInst(I, B))
          return false;
    }
    Asm.setSymbolSize(Sym, Asm.text().size() - Start);
    return true;
  }

  std::vector<i32> StackVarOffs;
  /// Value -> phi shadow-slot ordinal (~0 for non-phis), dense by vreg.
  std::vector<u32> PhiOrdinal;

  /// Copies phi inputs for the edge Pred -> Succ through shadow slots
  /// (two phases, so swaps are safe), then jumps to the target label.
  void emitEdge(u32 Pred, BlockRef Succ) {
    const Block &SB = F->Blocks[Succ];
    for (ValRef Phi : SB.Phis) {
      const Value &PV = F->val(Phi);
      for (u32 In = 0; In < PV.NumOps; ++In) {
        if (F->phiBlock(PV, In) != Pred)
          continue;
        ValRef V = F->operand(PV, In);
        for (u32 P = 0; P < partCount(PV.Ty); ++P) {
          E.load(8, RAX, Mem(RBP, slotOf(V, P)));
          E.store(8, Mem(RBP, shadowOf(PhiOrdinal[Phi], P)), RAX);
        }
      }
    }
    for (ValRef Phi : SB.Phis) {
      const Value &PV = F->val(Phi);
      for (u32 P = 0; P < partCount(PV.Ty); ++P) {
        E.load(8, RAX, Mem(RBP, shadowOf(PhiOrdinal[Phi], P)));
        E.store(8, Mem(RBP, slotOf(Phi, P)), RAX);
      }
    }
    E.jmpLabel(BlockLabels[Succ]);
  }

  bool compileInst(ValRef I, u32 B);
};

bool Compiler::compileInst(ValRef I, u32 B) {
  const Value &V = F->val(I);
  const Function &Fn = *F;
  auto A0 = [&](u32 P = 0) { return slotOf(Fn.operand(V, 0), P); };
  auto A1 = [&](u32 P = 0) { return slotOf(Fn.operand(V, 1), P); };
  auto A2v = [&](u32 P = 0) { return slotOf(Fn.operand(V, 2), P); };
  auto Res = [&](u32 P = 0) { return slotOf(I, P); };
  u32 W = typeSize(V.Ty);

  switch (V.Opcode) {
  case Op::Add:
  case Op::Sub:
  case Op::Mul:
  case Op::And:
  case Op::Or:
  case Op::Xor: {
    if (V.Ty == Type::I128) {
      const Template &T = getTemplate(key(V.Opcode, 128), [&](Emitter &E) {
        E.load(8, RAX, mA());
        E.load(8, RDX, mA2());
        E.load(8, RCX, mB());
        E.load(8, RDI, mB2());
        switch (V.Opcode) {
        case Op::Add:
          E.aluRR(AluOp::Add, 8, RAX, RCX);
          E.aluRR(AluOp::Adc, 8, RDX, RDI);
          break;
        case Op::Sub:
          E.aluRR(AluOp::Sub, 8, RAX, RCX);
          E.aluRR(AluOp::Sbb, 8, RDX, RDI);
          break;
        case Op::Mul: {
          // (a1:a0)*(b1:b0): save a0, widening mul, cross terms.
          E.movRR(8, RSI, RAX);
          E.mulR(8, RCX); // rdx:rax = a0*b0... clobbers rdx (a1)!
          break;
        }
        case Op::And:
          E.aluRR(AluOp::And, 8, RAX, RCX);
          E.aluRR(AluOp::And, 8, RDX, RDI);
          break;
        case Op::Or:
          E.aluRR(AluOp::Or, 8, RAX, RCX);
          E.aluRR(AluOp::Or, 8, RDX, RDI);
          break;
        case Op::Xor:
          E.aluRR(AluOp::Xor, 8, RAX, RCX);
          E.aluRR(AluOp::Xor, 8, RDX, RDI);
          break;
        default:
          break;
        }
        E.store(8, mR(), RAX);
        E.store(8, mR2(), RDX);
      });
      if (V.Opcode == Op::Mul) {
        // Build the multiply as a dedicated template (the generic path
        // above would clobber operands).
        const Template &TM = getTemplate(key(V.Opcode, 129), [&](Emitter &E) {
          E.load(8, RAX, mA());
          E.load(8, RCX, mB());
          E.movRR(8, RSI, RAX);
          E.mulR(8, RCX); // rdx:rax = a0*b0
          E.movRR(8, RDI, RDX);
          E.load(8, RDX, mB2());
          E.imulRR(8, RDX, RSI); // a0*b1
          E.aluRR(AluOp::Add, 8, RDI, RDX);
          E.load(8, RDX, mA2());
          E.imulRR(8, RDX, RCX); // a1*b0
          E.aluRR(AluOp::Add, 8, RDI, RDX);
          E.store(8, mR(), RAX);
          E.store(8, mR2(), RDI);
        });
        inst(TM, A0(), A1(), 0, Res());
        return true;
      }
      inst(T, A0(), A1(), 0, Res());
      return true;
    }
    const Template &T =
        getTemplate(key(V.Opcode, W), [&](Emitter &E) {
          E.load(8, RAX, mA());
          E.load(8, RCX, mB());
          u8 Sz = opSzOf(W);
          switch (V.Opcode) {
          case Op::Add:
            E.aluRR(AluOp::Add, Sz, RAX, RCX);
            break;
          case Op::Sub:
            E.aluRR(AluOp::Sub, Sz, RAX, RCX);
            break;
          case Op::Mul:
            E.imulRR(Sz, RAX, RCX);
            break;
          case Op::And:
            E.aluRR(AluOp::And, Sz, RAX, RCX);
            break;
          case Op::Or:
            E.aluRR(AluOp::Or, Sz, RAX, RCX);
            break;
          case Op::Xor:
            E.aluRR(AluOp::Xor, Sz, RAX, RCX);
            break;
          default:
            break;
          }
          E.store(8, mR(), RAX);
        });
    inst(T, A0(), A1(), 0, Res());
    return true;
  }
  case Op::UDiv:
  case Op::SDiv:
  case Op::URem:
  case Op::SRem: {
    if (V.Ty == Type::I128)
      return false;
    bool Signed = V.Opcode == Op::SDiv || V.Opcode == Op::SRem;
    bool Rem = V.Opcode == Op::URem || V.Opcode == Op::SRem;
    const Template &T = getTemplate(
        key(V.Opcode, W), [&](Emitter &E) {
          if (W < 4) {
            if (Signed) {
              E.load(8, RAX, mA());
              E.movsxRR(static_cast<u8>(W), RAX, RAX);
              E.load(8, RCX, mB());
              E.movsxRR(static_cast<u8>(W), RCX, RCX);
            } else {
              E.load(8, RAX, mA());
              E.movzxRR(static_cast<u8>(W), RAX, RAX);
              E.load(8, RCX, mB());
              E.movzxRR(static_cast<u8>(W), RCX, RCX);
            }
          } else {
            E.load(8, RAX, mA());
            E.load(8, RCX, mB());
          }
          u8 Sz = opSzOf(W);
          if (Signed) {
            E.cwd(Sz);
            E.idivR(Sz, RCX);
          } else {
            E.aluRR(AluOp::Xor, 4, RDX, RDX);
            E.divR(Sz, RCX);
          }
          E.store(8, mR(), Rem ? RDX : RAX);
        });
    inst(T, A0(), A1(), 0, Res());
    return true;
  }
  case Op::Shl:
  case Op::LShr:
  case Op::AShr: {
    if (V.Ty == Type::I128) {
      const Value &Amt = Fn.val(Fn.operand(V, 1));
      if (Amt.Kind != ValKind::ConstInt || (Amt.Aux & 127) != 64)
        return false; // subset: only shifts by exactly 64
      const Template &T = getTemplate(key(V.Opcode, 128), [&](Emitter &E) {
        if (V.Opcode == Op::Shl) {
          E.load(8, RAX, mA());
          E.aluRR(AluOp::Xor, 4, RCX, RCX);
          E.store(8, mR(), RCX);
          E.store(8, mR2(), RAX);
        } else {
          E.load(8, RAX, mA2());
          if (V.Opcode == Op::AShr) {
            E.movRR(8, RCX, RAX);
            E.shiftRI(ShiftOp::Sar, 8, RCX, 63);
          } else {
            E.aluRR(AluOp::Xor, 4, RCX, RCX);
          }
          E.store(8, mR(), RAX);
          E.store(8, mR2(), RCX);
        }
      });
      inst(T, A0(), A1(), 0, Res());
      return true;
    }
    // The amount wraps at the type's bit width (i1 and i8 differ only
    // there); the 32-bit shift of a sub-32-bit value would take it
    // modulo 32.
    u8 Mask = shiftAmountMask(V.Ty);
    const Template &T = getTemplate(key(V.Opcode, W, Mask), [&](Emitter &E) {
      E.load(8, RCX, mB());
      if (W < 4)
        E.aluRI(AluOp::And, 4, RCX, Mask);
      if (W < 4 && V.Opcode != Op::Shl) {
        E.load(8, RAX, mA());
        if (V.Opcode == Op::AShr)
          E.movsxRR(static_cast<u8>(W), RAX, RAX);
        else
          E.movzxRR(static_cast<u8>(W), RAX, RAX);
      } else {
        E.load(8, RAX, mA());
      }
      ShiftOp SO = V.Opcode == Op::Shl    ? ShiftOp::Shl
                   : V.Opcode == Op::LShr ? ShiftOp::Shr
                                          : ShiftOp::Sar;
      E.shiftRC(SO, opSzOf(W), RAX);
      E.store(8, mR(), RAX);
    });
    inst(T, A0(), A1(), 0, Res());
    return true;
  }
  case Op::ICmpOp: {
    const Value &L = Fn.val(Fn.operand(V, 0));
    u32 OW = typeSize(L.Ty);
    ICmp P = static_cast<ICmp>(V.Aux);
    if (L.Ty == Type::I128) {
      const Template &T =
          getTemplate(key(V.Opcode, 128, static_cast<u64>(P)), [&](Emitter &E) {
            E.load(8, RAX, mA());
            E.load(8, RDX, mA2());
            E.load(8, RCX, mB());
            E.load(8, RDI, mB2());
            if (P == ICmp::Eq || P == ICmp::Ne) {
              E.aluRR(AluOp::Xor, 8, RAX, RCX);
              E.aluRR(AluOp::Xor, 8, RDX, RDI);
              E.aluRR(AluOp::Or, 8, RAX, RDX);
              E.setcc(P == ICmp::Eq ? Cond::E : Cond::NE, RAX);
            } else {
              bool Swap = P == ICmp::Ugt || P == ICmp::Ule ||
                          P == ICmp::Sgt || P == ICmp::Sle;
              if (Swap) {
                E.xchgRR(8, RAX, RCX);
                E.xchgRR(8, RDX, RDI);
              }
              E.aluRR(AluOp::Cmp, 8, RAX, RCX);
              E.aluRR(AluOp::Sbb, 8, RDX, RDI);
              Cond CC = (P == ICmp::Ult || P == ICmp::Ugt) ? Cond::B
                        : (P == ICmp::Uge || P == ICmp::Ule)
                            ? Cond::AE
                            : (P == ICmp::Slt || P == ICmp::Sgt) ? Cond::L
                                                                 : Cond::GE;
              E.setcc(CC, RAX);
            }
            E.movzxRR(1, RAX, RAX);
            E.store(8, mR(), RAX);
          });
      inst(T, A0(), A1(), 0, Res());
      return true;
    }
    const Template &T =
        getTemplate(key(V.Opcode, OW, static_cast<u64>(P)), [&](Emitter &E) {
          E.load(8, RAX, mA());
          E.load(8, RCX, mB());
          E.aluRR(AluOp::Cmp, static_cast<u8>(OW), RAX, RCX);
          static constexpr Cond CCs[] = {Cond::E,  Cond::NE, Cond::B,  Cond::BE,
                                     Cond::A,  Cond::AE, Cond::L,  Cond::LE,
                                     Cond::G,  Cond::GE};
          E.setcc(CCs[static_cast<u8>(P)], RAX);
          E.movzxRR(1, RAX, RAX);
          E.store(8, mR(), RAX);
        });
    inst(T, A0(), A1(), 0, Res());
    return true;
  }
  case Op::FCmpOp: {
    const Value &L = Fn.val(Fn.operand(V, 0));
    u8 Sz = L.Ty == Type::F32 ? 4 : 8;
    FCmp P = static_cast<FCmp>(V.Aux);
    bool Swap = P == FCmp::Olt || P == FCmp::Ole;
    const Template &T =
        getTemplate(key(V.Opcode, Sz, static_cast<u64>(P)), [&](Emitter &E) {
          E.fpLoad(Sz, XMM0, Swap ? mB() : mA());
          E.fpLoad(Sz, XMM1, Swap ? mA() : mB());
          E.ucomis(Sz, XMM0, XMM1);
          if (P == FCmp::Oeq || P == FCmp::One) {
            E.setcc(P == FCmp::Oeq ? Cond::E : Cond::NE, RAX);
            E.setcc(Cond::NP, RCX);
            E.aluRR(AluOp::And, 4, RAX, RCX);
          } else {
            E.setcc((P == FCmp::Ogt || P == FCmp::Olt) ? Cond::A : Cond::AE,
                    RAX);
          }
          E.movzxRR(1, RAX, RAX);
          E.store(8, mR(), RAX);
        });
    inst(T, A0(), A1(), 0, Res());
    return true;
  }
  case Op::FAdd:
  case Op::FSub:
  case Op::FMul:
  case Op::FDiv: {
    u8 Sz = V.Ty == Type::F32 ? 4 : 8;
    const Template &T = getTemplate(key(V.Opcode, Sz), [&](Emitter &E) {
      E.fpLoad(Sz, XMM0, mA());
      E.fpLoad(Sz, XMM1, mB());
      FpOp O = V.Opcode == Op::FAdd   ? FpOp::Add
               : V.Opcode == Op::FSub ? FpOp::Sub
               : V.Opcode == Op::FMul ? FpOp::Mul
                                      : FpOp::Div;
      E.fpArith(O, Sz, XMM0, XMM1);
      E.fpStore(8, mR(), XMM0);
    });
    inst(T, A0(), A1(), 0, Res());
    return true;
  }
  case Op::Neg:
  case Op::Not: {
    const Template &T = getTemplate(key(V.Opcode, W), [&](Emitter &E) {
      E.load(8, RAX, mA());
      if (V.Opcode == Op::Neg)
        E.negR(opSzOf(W), RAX);
      else
        E.notR(opSzOf(W), RAX);
      E.store(8, mR(), RAX);
    });
    inst(T, A0(), 0, 0, Res());
    return true;
  }
  case Op::FNeg: {
    u8 Sz = V.Ty == Type::F32 ? 4 : 8;
    const Template &T = getTemplate(key(V.Opcode, Sz), [&](Emitter &E) {
      E.load(8, RAX, mA());
      E.movRI(RCX, Sz == 4 ? 0x80000000ull : 0x8000000000000000ull);
      E.aluRR(AluOp::Xor, 8, RAX, RCX);
      E.store(8, mR(), RAX);
    });
    inst(T, A0(), 0, 0, Res());
    return true;
  }
  case Op::Zext:
  case Op::Sext: {
    const Value &S = Fn.val(Fn.operand(V, 0));
    u32 SW = typeSize(S.Ty);
    bool Sign = V.Opcode == Op::Sext;
    const Template &T =
        getTemplate(key(V.Opcode, SW, W), [&](Emitter &E) {
          E.load(8, RAX, mA());
          if (SW < 8) {
            if (Sign)
              E.movsxRR(static_cast<u8>(SW), RAX, RAX);
            else
              E.movzxRR(static_cast<u8>(SW), RAX, RAX);
          }
          E.store(8, mR(), RAX);
          if (W == 16) {
            if (Sign) {
              E.shiftRI(ShiftOp::Sar, 8, RAX, 63);
              E.store(8, mR2(), RAX);
            } else {
              E.aluRR(AluOp::Xor, 4, RAX, RAX);
              E.store(8, mR2(), RAX);
            }
          }
        });
    inst(T, A0(), 0, 0, Res());
    return true;
  }
  case Op::Trunc: {
    // i1 and i8 share a width but not the template.
    bool ToI1 = V.Ty == Type::I1;
    const Template &T = getTemplate(key(V.Opcode, W, ToI1), [&](Emitter &E) {
      E.load(8, RAX, mA());
      if (ToI1)
        E.aluRI(AluOp::And, 4, RAX, 1);
      E.store(8, mR(), RAX);
    });
    inst(T, A0(), 0, 0, Res());
    return true;
  }
  case Op::FpExt:
  case Op::FpTrunc: {
    const Template &T = getTemplate(key(V.Opcode), [&](Emitter &E) {
      u8 SrcSz = V.Opcode == Op::FpExt ? 4 : 8;
      E.fpLoad(SrcSz, XMM0, mA());
      E.cvtfp2fp(SrcSz, XMM0, XMM0);
      E.fpStore(8, mR(), XMM0);
    });
    inst(T, A0(), 0, 0, Res());
    return true;
  }
  case Op::FpToSi: {
    const Value &S = Fn.val(Fn.operand(V, 0));
    u8 SrcSz = S.Ty == Type::F32 ? 4 : 8;
    const Template &T =
        getTemplate(key(V.Opcode, SrcSz, W), [&](Emitter &E) {
          E.fpLoad(SrcSz, XMM0, mA());
          E.cvtfp2si(SrcSz, W == 8 ? 8 : 4, RAX, XMM0);
          E.store(8, mR(), RAX);
        });
    inst(T, A0(), 0, 0, Res());
    return true;
  }
  case Op::SiToFp: {
    const Value &S = Fn.val(Fn.operand(V, 0));
    u32 SW = typeSize(S.Ty);
    u8 FpSz = V.Ty == Type::F32 ? 4 : 8;
    const Template &T =
        getTemplate(key(V.Opcode, SW, FpSz), [&](Emitter &E) {
          E.load(8, RAX, mA());
          if (SW < 4)
            E.movsxRR(static_cast<u8>(SW), RAX, RAX);
          E.cvtsi2fp(SW >= 8 ? 8 : (SW == 4 ? 4 : 8), FpSz, XMM0, RAX);
          E.fpStore(8, mR(), XMM0);
        });
    inst(T, A0(), 0, 0, Res());
    return true;
  }
  case Op::Bitcast: {
    const Template &T = getTemplate(key(V.Opcode), [&](Emitter &E) {
      E.load(8, RAX, mA());
      E.store(8, mR(), RAX);
    });
    inst(T, A0(), 0, 0, Res());
    return true;
  }
  case Op::Select: {
    u32 Parts = partCount(V.Ty);
    const Template &T =
        getTemplate(key(V.Opcode, Parts), [&](Emitter &E) {
          E.load(8, RAX, mA());
          E.testRI(1, RAX, 1);
          E.load(8, RCX, mB());
          E.load(8, RDX, mC());
          E.cmovcc(Cond::E, 8, RCX, RDX);
          E.store(8, mR(), RCX);
          if (Parts > 1) {
            E.load(8, RCX, mB2());
            E.load(8, RDX, mC2());
            E.cmovcc(Cond::E, 8, RCX, RDX);
            E.store(8, mR2(), RCX);
          }
        });
    // The C+8 hole shares HoleC's patch (patched relative), so patch C
    // manually both times via the hole table (A2-style markers).
    inst(T, A0(), A1(), A2v(), Res());
    return true;
  }
  case Op::Load: {
    if (isFloatType(V.Ty)) {
      u8 Sz = V.Ty == Type::F32 ? 4 : 8;
      const Template &T = getTemplate(key(V.Opcode, 100 + Sz), [&](Emitter &E) {
        E.load(8, RAX, mA());
        E.fpLoad(Sz, XMM0, Mem(RAX, 0));
        E.fpStore(8, mR(), XMM0);
      });
      inst(T, A0(), 0, 0, Res());
      return true;
    }
    u32 Parts = partCount(V.Ty);
    const Template &T =
        getTemplate(key(V.Opcode, W, Parts), [&](Emitter &E) {
          E.load(8, RAX, mA());
          if (Parts > 1) {
            E.load(8, RCX, Mem(RAX, 0));
            E.store(8, mR(), RCX);
            E.load(8, RCX, Mem(RAX, 8));
            E.store(8, mR2(), RCX);
          } else {
            E.loadZext(static_cast<u8>(W), RCX, Mem(RAX, 0));
            E.store(8, mR(), RCX);
          }
        });
    inst(T, A0(), 0, 0, Res());
    return true;
  }
  case Op::Store: {
    const Value &S = Fn.val(Fn.operand(V, 0));
    u32 SW = typeSize(S.Ty);
    if (isFloatType(S.Ty)) {
      u8 Sz = S.Ty == Type::F32 ? 4 : 8;
      const Template &T = getTemplate(key(V.Opcode, 100 + Sz), [&](Emitter &E) {
        E.load(8, RAX, mB());
        E.fpLoad(Sz, XMM0, mA());
        E.fpStore(Sz, Mem(RAX, 0), XMM0);
      });
      inst(T, A0(), A1());
      return true;
    }
    u32 Parts = partCount(S.Ty);
    const Template &T =
        getTemplate(key(V.Opcode, SW, Parts), [&](Emitter &E) {
          E.load(8, RAX, mB());
          E.load(8, RCX, mA());
          E.store(static_cast<u8>(Parts > 1 ? 8 : SW), Mem(RAX, 0), RCX);
          if (Parts > 1) {
            E.load(8, RCX, mA2());
            E.store(8, Mem(RAX, 8), RCX);
          }
        });
    inst(T, A0(), A1());
    return true;
  }
  case Op::PtrAdd: {
    bool HasIdx = V.NumOps > 1;
    if (!isInt32(static_cast<i64>(V.Aux)) ||
        !isInt32(static_cast<i64>(V.Aux2)))
      return false;
    const Template &T =
        getTemplate(key(V.Opcode, HasIdx), [&](Emitter &E) {
          E.load(8, RAX, mA());
          if (HasIdx) {
            E.load(8, RCX, mB());
            E.imulRRI(8, RCX, RCX, HoleImm);
            E.aluRR(AluOp::Add, 8, RAX, RCX);
          }
          // Constant displacement: add a 32-bit immediate hole.
          E.aluRI(AluOp::Add, 8, RAX, HoleImm);
          E.store(8, mR(), RAX);
        });
    // Both Imm holes get the same patch value, but scale and disp differ;
    // patch them in order manually.
    Section &Text = Asm.text();
    u64 Base = Text.size();
    Text.append(T.Bytes.data(), T.Bytes.size());
    u32 ImmSeen = 0;
    for (auto [Off, K] : T.Holes) {
      switch (K) {
      case HoleKind::A:
        Text.patchLE<i32>(Base + Off, A0());
        break;
      case HoleKind::B:
        Text.patchLE<i32>(Base + Off, A1());
        break;
      case HoleKind::R:
        Text.patchLE<i32>(Base + Off, Res());
        break;
      case HoleKind::Imm:
        if (HasIdx && ImmSeen == 0)
          Text.patchLE<i32>(Base + Off, static_cast<i32>(V.Aux));
        else
          Text.patchLE<i32>(Base + Off, static_cast<i32>(V.Aux2));
        ++ImmSeen;
        break;
      default:
        break;
      }
    }
    return true;
  }
  case Op::Call: {
    const Function &Callee = M.Funcs[V.Aux];
    // Register arguments straight from slots.
    static constexpr AsmReg GPArg[6] = {RDI, RSI, RDX, RCX, R8, R9};
    u32 GPUsed = 0, FPUsed = 0;
    u32 StackBytes = 0;
    struct StackArg {
      ValRef V;
      u32 Part;
      u32 Off;
    };
    std::vector<StackArg> StackArgs;
    for (u32 A = 0; A < V.NumOps; ++A) {
      ValRef AV = Fn.operand(V, A);
      const Value &AVal = Fn.val(AV);
      u32 Parts = partCount(AVal.Ty);
      u8 Bank = partBank(AVal.Ty);
      bool InRegs = Bank == 0 ? GPUsed + Parts <= 6 : FPUsed + Parts <= 8;
      for (u32 P = 0; P < Parts; ++P) {
        if (InRegs && Bank == 0)
          E.load(8, GPArg[GPUsed++], Mem(RBP, slotOf(AV, P)));
        else if (InRegs)
          E.fpLoad(8, AsmReg(16 + FPUsed++), Mem(RBP, slotOf(AV, P)));
        else {
          StackArgs.push_back({AV, P, StackBytes});
          StackBytes += 8;
        }
      }
    }
    StackBytes = static_cast<u32>(alignTo(StackBytes, 16));
    if (StackBytes) {
      E.aluRI(AluOp::Sub, 8, RSP, StackBytes);
      for (auto &SA : StackArgs) {
        E.load(8, RAX, Mem(RBP, slotOf(SA.V, SA.Part)));
        E.store(8, Mem(RSP, static_cast<i32>(SA.Off)), RAX);
      }
    }
    E.callSym(FuncSyms[V.Aux]);
    if (StackBytes)
      E.aluRI(AluOp::Add, 8, RSP, StackBytes);
    if (Callee.RetTy != Type::Void) {
      if (isFloatType(Callee.RetTy)) {
        E.fpStore(8, Mem(RBP, Res()), XMM0);
      } else {
        E.store(8, Mem(RBP, Res()), RAX);
        if (partCount(Callee.RetTy) > 1)
          E.store(8, Mem(RBP, Res(1)), RDX);
      }
    }
    return true;
  }
  case Op::Ret: {
    if (V.NumOps) {
      const Value &RV = Fn.val(Fn.operand(V, 0));
      if (isFloatType(RV.Ty)) {
        E.fpLoad(8, XMM0, Mem(RBP, A0()));
      } else {
        E.load(8, RAX, Mem(RBP, A0()));
        if (partCount(RV.Ty) > 1)
          E.load(8, RDX, Mem(RBP, A0(1)));
      }
    }
    Asm.text().appendByte(0xC9); // leave
    E.ret();
    return true;
  }
  case Op::Br:
    emitEdge(B, Fn.Blocks[B].Succs[0]);
    return true;
  case Op::CondBr: {
    BlockRef T = Fn.Blocks[B].Succs[0], Fb = Fn.Blocks[B].Succs[1];
    E.load(8, RAX, Mem(RBP, A0()));
    E.testRI(1, RAX, 1);
    Label TEdge = Asm.makeLabel();
    E.jccLabel(Cond::NE, TEdge);
    emitEdge(B, Fb);
    Asm.bindLabel(TEdge);
    emitEdge(B, T);
    return true;
  }
  case Op::Unreachable:
    E.ud2();
    return true;
  case Op::Phi:
  default:
    return false;
  }
}

} // namespace

bool tpde::copypatch::compileModule(Module &M, Assembler &Asm) {
  Compiler C(M, Asm);
  return C.run();
}
