// Known-good fixture: a target-neutral file reaches the target only
// through statically dispatched hooks. Comments and strings may name
// x64::Cond or "a64/Encoder.h" freely — matching runs on stripped text.
// tpde-lint: target-neutral
#include "core/CompilerBase.h"

const char *Doc = "hooks replace x64:: and a64:: names; see a64/Encoder.h";

template <class Derived> struct Lowering {
  Derived *derived() { return static_cast<Derived *>(this); }
  void trap() { derived()->emitTrap(); }
  auto cond(int P) { return Derived::icmpCond(P); }
};
