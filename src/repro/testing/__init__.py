"""Deterministic testing harnesses shipped with the engine.

* :mod:`repro.testing.faults` -- the seeded fault-injection plan the
  chaos suite and the faulted serving bench drive the resilience layer
  with (DESIGN.md §12); re-exported here.
* :mod:`repro.testing.oracle` -- the naive reference grounder and
  fixpoint the production pipeline is checked against (DESIGN.md §4,
  §5).  Deliberately *not* imported here: nothing in the program
  reaches it; tests and benchmarks import it by name.
"""

from .faults import (
    FAULT_SITES,
    FaultInjector,
    InjectedFault,
    FLUSH_RAISE,
    FLUSH_SLOW,
    HANDLER_STALL,
    MAINTAINER_CRASH,
    PARTIAL_WRITE,
    SOCKET_RESET,
)

__all__ = [
    "FAULT_SITES",
    "FaultInjector",
    "InjectedFault",
    "FLUSH_RAISE",
    "FLUSH_SLOW",
    "HANDLER_STALL",
    "MAINTAINER_CRASH",
    "PARTIAL_WRITE",
    "SOCKET_RESET",
]
