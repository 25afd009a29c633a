//===- core/RegFile.h - Register state for single-pass codegen --*- C++ -*-===//
///
/// \file
/// Tracks the state of every allocatable machine register during the code
/// generation pass: free/used, the owning (value, part), lock counts (a
/// locked register must not be evicted; cf. paper §3.4.1 "value locking"),
/// and fixed registers (the loop heuristic of §3.4.5). Eviction candidates
/// are chosen in round-robin order, matching the paper.
///
/// Registers are identified by a small integer id; the Config type maps ids
/// to (bank, index) pairs. Bank 0 is general-purpose, bank 1 is FP/vector.
///
//===----------------------------------------------------------------------===//

#ifndef TPDE_CORE_REGFILE_H
#define TPDE_CORE_REGFILE_H

// tpde-lint: target-neutral -- shared by every target back-end; target
// headers and names stay out (enforced by scripts/tpde_lint.py).

// tpde-lint: hot-path -- per-function compile loop; the zero-allocation
// policy (docs/PERF.md) is machine-enforced here by scripts/tpde_lint.py.

#include "support/Common.h"

namespace tpde::core {

/// A machine register handle used throughout the framework core.
struct Reg {
  u8 Id = 0xFF;
  constexpr Reg() = default;
  constexpr explicit Reg(u8 Id) : Id(Id) {}
  constexpr bool isValid() const { return Id != 0xFF; }
  constexpr bool operator==(const Reg &O) const { return Id == O.Id; }
};

/// Register state; template parameter supplies the target's bank layout.
template <typename Config> class RegFile {
public:
  static constexpr u8 NumBanks = Config::NumBanks;
  static constexpr u8 RegsPerBank = Config::RegsPerBank;
  static constexpr unsigned MaxRegs = NumBanks * 32;

  void reset() {
    for (u8 B = 0; B < NumBanks; ++B) {
      Used[B] = 0;
      Fixed[B] = 0;
      Clock[B] = 0;
    }
    for (unsigned I = 0; I < MaxRegs; ++I) {
      LockCnt[I] = 0;
      OwnerVal[I] = ~0u;
      OwnerPart[I] = 0;
    }
  }

  bool isUsed(Reg R) const {
    return Used[Config::bankOf(R.Id)] & bit(R);
  }
  bool isFixed(Reg R) const {
    return Fixed[Config::bankOf(R.Id)] & bit(R);
  }
  bool isLocked(Reg R) const { return LockCnt[R.Id] != 0; }

  u32 usedMask(u8 Bank) const { return Used[Bank]; }

  /// Owning value number (~0u if none) and part of a used register.
  u32 ownerVal(Reg R) const { return OwnerVal[R.Id]; }
  u8 ownerPart(Reg R) const { return OwnerPart[R.Id]; }

  /// Tries to find a free allocatable register in \p Bank (optionally
  /// restricted by \p AllowMask over bank-local indices). Returns an
  /// invalid Reg if none is free.
  Reg findFree(u8 Bank, u32 AllowMask = ~0u) const {
    u32 Free = Config::Allocatable[Bank] & ~Used[Bank] & AllowMask;
    if (!Free)
      return Reg();
    return Reg(Config::regId(Bank, static_cast<u8>(countTrailingZeros(Free))));
  }

  /// Picks an eviction candidate in round-robin order: used, not locked,
  /// not fixed. Returns an invalid Reg if every register is pinned.
  Reg pickEvictionCandidate(u8 Bank, u32 AllowMask = ~0u) {
    u32 Cand = Used[Bank] & ~Fixed[Bank] & Config::Allocatable[Bank] &
               AllowMask;
    if (!Cand)
      return Reg();
    // Exclude locked registers.
    u32 Unlocked = 0;
    for (u32 M = Cand; M;) {
      u8 Idx = static_cast<u8>(countTrailingZeros(M));
      M &= M - 1;
      if (!LockCnt[Config::regId(Bank, Idx)])
        Unlocked |= u32(1) << Idx;
    }
    if (!Unlocked)
      return Reg();
    // Round-robin: first candidate at or after the clock hand.
    u32 AtOrAfter = Unlocked & ~((u32(1) << Clock[Bank]) - 1);
    u8 Idx = static_cast<u8>(
        countTrailingZeros(AtOrAfter ? AtOrAfter : Unlocked));
    Clock[Bank] = (Idx + 1) % RegsPerBank;
    return Reg(Config::regId(Bank, Idx));
  }

  void markUsed(Reg R, u32 Val, u8 Part) {
    assert(!isUsed(R) && "register already in use");
    Used[Config::bankOf(R.Id)] |= bit(R);
    OwnerVal[R.Id] = Val;
    OwnerPart[R.Id] = Part;
  }

  void markFree(Reg R) {
    assert(isUsed(R) && "register not in use");
    assert(!LockCnt[R.Id] && "freeing a locked register");
    Used[Config::bankOf(R.Id)] &= ~bit(R);
    Fixed[Config::bankOf(R.Id)] &= ~bit(R);
    OwnerVal[R.Id] = ~0u;
  }

  void markFixed(Reg R) { Fixed[Config::bankOf(R.Id)] |= bit(R); }

  void lock(Reg R) {
    assert(isUsed(R) && "locking a free register");
    ++LockCnt[R.Id];
  }
  void unlock(Reg R) {
    assert(LockCnt[R.Id] > 0 && "unbalanced unlock");
    --LockCnt[R.Id];
  }

private:
  static u32 bit(Reg R) { return u32(1) << Config::idxOf(R.Id); }

  u32 Used[NumBanks] = {};
  u32 Fixed[NumBanks] = {};
  u8 Clock[NumBanks] = {};
  u8 LockCnt[MaxRegs] = {};
  u32 OwnerVal[MaxRegs] = {};
  u8 OwnerPart[MaxRegs] = {};
};

} // namespace tpde::core

#endif // TPDE_CORE_REGFILE_H
