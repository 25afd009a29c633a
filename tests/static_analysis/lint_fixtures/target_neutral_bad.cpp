// Known-bad fixture: a file claiming to be shared by every target that
// includes a target header and names a target namespace.
// tpde-lint: target-neutral
// tpde-lint-expect: target-neutral
#include "core/CompilerBase.h"
#include "x64/Encoder.h"

template <class Derived> struct Lowering {
  void trap(Derived &D) { D.E.emit(x64::Cond::NE); }
};
