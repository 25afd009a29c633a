//===- tpde_tir/Service.h - TIR compile-service binding ---------*- C++ -*-===//
///
/// \file
/// Binds the LLVM-IR stand-in (TIR) x86-64 back-end to the multi-tenant
/// compile service (service/CompileService.h): canonical module
/// fingerprinting for the content-addressed code cache, and batch
/// concatenation with the index remapping TIR needs (Call values name
/// their callee by function index, GlobalAddr values name globals by
/// global index — both are module-relative and shift when modules are
/// concatenated).
///
/// Batching criterion: two jobs share a batch only when their **global
/// sets are identical** (same order, names, and contents). The batch's
/// module-level fragment — merged into every job's output — then equals
/// each job's own solo globals fragment, which is what keeps a batched
/// job's bytes identical to compiling it alone (the cache-identity
/// requirement, tests/service_test.cpp). Jobs with differing globals are
/// simply deferred to their own batch; the common serving case (many
/// queries over one schema's shared scratch globals) batches freely.
///
/// The overload-control layer (tenant quotas, deadlines, transient-fault
/// retry — docs/SERVICE.md "Overload control") is IR-agnostic and needs
/// nothing from this binding: SubmitOptions{Tenant, DeadlineNs} applies
/// to TIR submissions unchanged.
///
//===----------------------------------------------------------------------===//

#ifndef TPDE_TPDE_TIR_SERVICE_H
#define TPDE_TPDE_TIR_SERVICE_H

#include "service/CompileService.h"
#include "tpde_tir/ParallelCompiler.h"

namespace tpde::tpde_tir {

/// Canonical content fingerprint of a TIR module. Covers function
/// signatures, values (with operand-pool and phi-block slices), block
/// structure, and globals (including initializers). Excludes everything
/// codegen does not read: Block::Aux (adapter scratch, mutated by
/// compilation), Block::Name and Function::ValueNames (debug printing
/// only) — so a module fingerprints identically before and after being
/// compiled, and renaming debug values does not fork cache entries.
/// Reads every value's operand slice unchecked: the module must pass
/// tir::verifyModule first (the service runs it at admission unless
/// Options::Verify is off).
support::Fp128 fingerprintModule(const tir::Module &M);

/// Service traits: see service/CompileService.h for the contract.
struct TirX64ServiceTraits {
  using WorkerT = TirParallelWorker<TirCompilerX64>;

  static support::Fp128 fingerprint(const tir::Module &M) {
    return fingerprintModule(M);
  }

  /// Appends \p Job's functions to \p Batch, remapping Call callee
  /// indices by the batch's function base. Transactional: returns false
  /// — with Batch untouched — on a function-name conflict or when the
  /// global sets differ (see the file comment for why that is the
  /// batching criterion).
  static bool appendTo(tir::Module &Batch, const tir::Module &Job);

  static void clearModule(tir::Module &M) {
    M.Funcs.clear();
    M.Globals.clear();
  }

  static bool verify(const tir::Module &M, std::string &Err) {
    return tir::verifyModule(M, Err);
  }

  static constexpr asmx::JITMapper::StubArch Stub =
      asmx::JITMapper::StubArch::X64;
};

/// The TIR/x86-64 compile service: submit tir::Modules, get mapped code
/// handles, memoized by content. See docs/SERVICE.md.
using TirCompileServiceX64 = service::CompileService<TirX64ServiceTraits>;

} // namespace tpde::tpde_tir

#endif // TPDE_TPDE_TIR_SERVICE_H
