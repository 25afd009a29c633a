//===- workloads/Generator.h - Synthetic TIR program generation -*- C++ -*-===//
///
/// \file
/// Deterministic random generation of structured, always-terminating TIR
/// functions and modules. Two uses:
///
///  1. Differential testing: random programs are run through the reference
///     interpreter and every back-end; results must agree.
///  2. Benchmark workloads: the SPECint 2017 programs of the paper's
///     evaluation (§5.2) are not available offline, so each benchmark is
///     substituted by a deterministic synthetic program whose IR-level
///     profile (function count/size, loop structure, memory traffic, FP
///     share, call density, branchiness) mimics the original's character.
///     Both IR flavors from the paper are supported: "-O0" (locals on the
///     stack, loads/stores everywhere, almost no phis) and "-O1" (values
///     in SSA registers, loop-carried phis).
///
//===----------------------------------------------------------------------===//

#ifndef TPDE_WORKLOADS_GENERATOR_H
#define TPDE_WORKLOADS_GENERATOR_H

#include "support/Rng.h"
#include "tir/Builder.h"
#include "uir/UIR.h"

#include <string>
#include <vector>

namespace tpde::workloads {

/// Tunable shape of one generated function/module.
struct Profile {
  u64 Seed = 1;
  u32 NumFuncs = 10;
  /// Approximate structured-region budget per function (drives block count).
  u32 RegionBudget = 12;
  u32 InstsPerBlock = 8;
  u32 MaxLoopDepth = 2;
  u32 MaxLoopTrip = 6;
  /// Percentages (0-100) steering instruction selection.
  u32 MemoryPct = 25;
  u32 FloatPct = 10;
  u32 CallPct = 5;
  u32 BranchPct = 30;
  u32 I128Pct = 2;
  u32 NarrowPct = 15; ///< i8/i16/i32 operations.
  /// False: "-O0" flavor (stack locals, no phis). True: "-O1" (SSA, phis).
  bool SSAForm = true;
};

/// Generates one function named \p Name in \p M; signature is always
/// i64(i64, i64). Also creates (once per module) a scratch global the
/// memory operations touch. Returns the function index.
u32 genFunction(tir::Module &M, const std::string &Name, Profile P);

/// Generates a whole module: NumFuncs functions f0..fN (each i64(i64,i64))
/// plus a driver "main_entry" calling all of them and folding the results.
void genModule(tir::Module &M, const Profile &P);

/// The nine SPECint-2017-like benchmark profiles used by the paper's
/// figures (5-8). \p O0Flavor selects the unoptimized-IR variant.
struct NamedProfile {
  const char *Name;
  Profile P;
};
std::vector<NamedProfile> specLikeProfiles(bool O0Flavor);

/// Shape of a generated many-query UIR module (the §7 Umbra scenario at
/// scale: a database compiling hundreds to thousands of queries into one
/// module). Deterministic in the seed.
struct QueryProfile {
  u64 Seed = 1;
  u32 NumQueries = 256;
  u32 NumCols = 8;       ///< Table width the predicates/aggregates draw from.
  u32 MaxPreds = 4;      ///< 1..MaxPreds integer predicates per query.
  /// Percentage (0-100) of queries carrying a floating-point predicate
  /// (i2f(col) < k with a rematerialized f64 constant — FP-pool traffic;
  /// the thresholds repeat across queries so cross-shard pool dedup is
  /// exercised, not just per-shard pools).
  u32 FpPredPct = 25;
  i64 KeyRange = 1000;   ///< Integer predicate constants in [0, KeyRange).
};

/// Generates the plans of a query module: names gq0..gqN-1, unique per
/// module. Returned separately so tests/benches can evaluate the
/// interpreted reference per plan.
std::vector<uir::QueryPlan> genQueryPlans(const QueryProfile &P);

/// Compiles every generated plan into \p M (one UIR function per query).
void genQueryModule(uir::UModule &M, const QueryProfile &P);

// --- Adversarial generation (robustness testing) --------------------------

/// One mutation class of deliberately malformed TIR. Each produces a
/// small function that is guaranteed to exhibit exactly that defect, for
/// testing that the verifier pre-pass rejects it before codegen
/// (docs/ROBUSTNESS.md).
enum class MalformKind : u8 {
  DanglingOperand,     ///< Operand index past the value table.
  PhiPredMismatch,     ///< Phi incomings disagree with the block's preds.
  NonDominatingUse,    ///< A use the definition does not dominate.
  BadTerminator,       ///< Instruction after the block terminator.
  DuplicateName,       ///< Two strong definitions of the same name.
  ListIdOutOfRange,    ///< Instruction-list id past the value table.
  OperandsOutsidePool, ///< Operand slice past the operand pool.
  PhiOperandDangling,  ///< Phi operand past the value table.
  UnlistedOutsidePool, ///< Unlisted value whose operand slice is past the pool.
  NonPhiInPhiList,     ///< Non-phi (no phi-block slice) in a phi list.
};
inline constexpr u32 NumMalformKinds = 10;
const char *malformKindName(MalformKind K);

/// Appends function(s) exhibiting exactly the defect \p K to \p M (any
/// existing valid functions are untouched, so a mixed good/bad module can
/// be built). Returns the index of the malformed function.
/// tir::verifyModule must reject the resulting module.
u32 genMalformed(tir::Module &M, MalformKind K);

} // namespace tpde::workloads

#endif // TPDE_WORKLOADS_GENERATOR_H
