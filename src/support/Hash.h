//===- support/Hash.h - Content fingerprinting ------------------*- C++ -*-===//
///
/// \file
/// Streaming 128-bit content hashing for the compile service's
/// content-addressed code cache (src/service/, docs/SERVICE.md). The
/// soundness of fingerprint memoization rests on the determinism
/// contract (core/ParallelCompiler.h): compiled output is a pure
/// function of the module, so equal canonical serializations imply
/// byte-identical code. The hash only has to make *accidental*
/// collisions negligible — it is not cryptographic and must not be used
/// against adversarial inputs.
///
/// **Word lanes.** The hasher absorbs 64-bit words, one step per word,
/// into two structurally independent 64-bit lanes: lane A is
/// xor-in / multiply / xor-shift, lane B an xxhash64 round (add the
/// multiplied word, rotate, multiply). Each step spreads every input bit
/// over many state bits (the multiply carries bits upward, the shift or
/// rotate brings the high half back down), and each step is a bijection
/// of the lane state for a fixed word and of the word for a fixed state —
/// so two word streams of equal length that differ in exactly one word
/// always differ in both lanes. A splitmix64 finalizer with the byte
/// length folded in turns the lanes into a 128-bit digest, putting the
/// birthday bound near 2^64 distinct modules. Words instead of bytes are
/// what makes a service cache hit cheap: a query module is a few hundred
/// words, so fingerprinting costs a fraction of a microsecond instead of
/// two multiplies per byte (docs/SERVICE.md, "Cost of a hit").
///
/// Hashing is allocation-free and streaming: callers feed the module's
/// dense arrays in index order, packing each record's fields into whole
/// words (a canonical serialization — see uir::fingerprintModule /
/// tpde_tir::fingerprintModule), and tag variable-length runs with their
/// length so distinct structures cannot collide by concatenation. The
/// digest is a function of the sequence of calls, not only of the bytes
/// fed: equal content must be fed through equal calls.
///
//===----------------------------------------------------------------------===//

#ifndef TPDE_SUPPORT_HASH_H
#define TPDE_SUPPORT_HASH_H

// tpde-lint: hot-path -- fingerprinting sits on every service submit; it
// must stay allocation-free (enforced by scripts/tpde_lint.py).

#include "support/Common.h"

#include <cstring>
#include <span>
#include <string_view>

namespace tpde::support {

/// A 128-bit content fingerprint. Value type; usable as a hash-map key
/// through Fp128Hash.
struct Fp128 {
  u64 Hi = 0;
  u64 Lo = 0;

  bool operator==(const Fp128 &O) const { return Hi == O.Hi && Lo == O.Lo; }
  bool operator!=(const Fp128 &O) const { return !(*this == O); }
};

/// Map-key hash for Fp128: the fingerprint is already uniformly mixed,
/// so folding the halves is enough.
struct Fp128Hash {
  size_t operator()(const Fp128 &F) const {
    return static_cast<size_t>(F.Lo ^ (F.Hi * 0x9e3779b97f4a7c15ull));
  }
};

/// splitmix64 finalizer: full-avalanche mixing of one 64-bit word.
inline u64 avalanche64(u64 X) {
  X ^= X >> 30;
  X *= 0xbf58476d1ce4e5b9ull;
  X ^= X >> 27;
  X *= 0x94d049bb133111ebull;
  X ^= X >> 31;
  return X;
}

/// Streaming two-lane hasher producing an Fp128. Feed content through
/// the typed helpers; call digest() at the end (the hasher stays usable
/// for further updates — digest() is a pure read of the running state).
class Hasher128 {
public:
  /// Mixes one 64-bit word.
  void u64v(u64 W) {
    mix(W);
    Len += 8;
  }

  /// Mixes \p N raw bytes: whole 8-byte words, then the 1-7 byte tail
  /// packed into one word whose top byte holds the tail length (so "ab",
  /// "\0" and "a", "b\0" differ even without length tags).
  void bytes(const void *P, size_t N) {
    const u8 *B = static_cast<const u8 *>(P);
    size_t I = 0;
    for (; I + 8 <= N; I += 8) {
      u64 W;
      std::memcpy(&W, B + I, 8);
      mix(W);
    }
    if (size_t Tail = N - I) {
      u64 W = static_cast<u64>(Tail) << 56;
      for (size_t K = 0; K < Tail; ++K)
        W |= static_cast<u64>(B[I + K]) << (8 * K);
      mix(W);
    }
    Len += N;
  }

  /// Length-prefixed string: "ab" + "c" cannot collide with "a" + "bc".
  void str(std::string_view S) {
    len(S.size());
    bytes(S.data(), S.size());
  }
  /// Length-prefixed run of 32-bit ids (block lists, argument lists).
  void u32s(std::span<const u32> S) {
    len(S.size());
    bytes(S.data(), S.size() * sizeof(u32));
  }
  /// Length tag for a variable-length run the caller is about to feed.
  void len(size_t N) { u64v(static_cast<u64>(N)); }

  /// The 128-bit digest of everything fed so far.
  Fp128 digest() const {
    Fp128 F;
    F.Hi = avalanche64(A ^ (Len * 0xff51afd7ed558ccdull));
    F.Lo = avalanche64(Bl + Len);
    return F;
  }

private:
  static u64 rotl(u64 X, unsigned R) { return (X << R) | (X >> (64 - R)); }

  /// One step of both lanes.
  void mix(u64 W) {
    // Lane A: xor-in, multiply, xor-shift.
    A = (A ^ W) * 0x9e3779b97f4a7c15ull;
    A ^= A >> 32;
    // Lane B: xxhash64 round — structurally independent of lane A so a
    // lane-A collision does not imply a lane-B collision.
    Bl = rotl(Bl + W * 0xc2b2ae3d27d4eb4full, 31) * 0x9e3779b185ebca87ull;
  }

  u64 A = 0xcbf29ce484222325ull;  ///< FNV-1a offset basis.
  u64 Bl = 0x27d4eb2f165667c5ull; ///< xxhash PRIME64_5 seed.
  u64 Len = 0;                    ///< Bytes fed.
};

/// Packs two 32-bit fields into one hasher word.
inline u64 pack32(u32 Lo, u32 Hi) {
  return static_cast<u64>(Lo) | static_cast<u64>(Hi) << 32;
}

} // namespace tpde::support

#endif // TPDE_SUPPORT_HASH_H
