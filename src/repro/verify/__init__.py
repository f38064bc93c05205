"""Small-scope exhaustive protocol verification.

The paper's section 4 derives DeNovoSync from four sufficient conditions
for sequentially consistent synchronization (write propagation, write
atomicity, write serialization, program order).  This package checks them
the brute-force way: enumerate *every* interleaving of small per-core
operation sequences, drive the protocol through each, and verify that
all synchronization accesses observe the latest committed write and that
the structural invariants (single writer, single registered reader,
exclusive-owner uniqueness) hold after every step.

The structural invariants are not defined here: every check — in flight,
at a run's final state, and after each explored step — calls the
protocol's own ``invariant_violations()``, backed by
:mod:`repro.protocols.invariants`.
"""

from repro.verify.checker import (
    CheckFailure,
    Op,
    VerificationReport,
    data_store,
    explore_protocol,
    rmw_inc,
    sync_load,
    sync_store,
)

__all__ = [
    "CheckFailure",
    "Op",
    "VerificationReport",
    "data_store",
    "explore_protocol",
    "rmw_inc",
    "sync_load",
    "sync_store",
]
