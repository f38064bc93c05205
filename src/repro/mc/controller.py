"""The receiving end of the core scheduling hook.

With ``Simulator.controller`` set to a :class:`ScheduleController`, every
:class:`~repro.cpu.core.Core` *gates* before issuing a visible memory
operation (loads, stores, RMWs, self-invalidations, and every individual
spin probe): instead of touching the protocol it calls :meth:`arrive`
with a continuation and goes quiet.  Draining the event queue then
reaches quiescence with every unfinished core either parked here or
asleep on a protocol subscription — at which point the caller picks one
parked core, :meth:`release`\\ s it, and drains again.  Exactly one core
performs protocol work per release, which is what lets the model checker
serialize, attribute, and enumerate interleavings of visible operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable


@dataclass
class GatedOp:
    """One core parked at a decision point: its pending op + continuation."""

    core: object  # repro.cpu.core.Core (untyped to avoid an import cycle)
    op: object  # the ISA operation about to issue
    cont: Callable[[], None]


class ScheduleController:
    """Collects gated cores and releases them one at a time."""

    def __init__(self) -> None:
        self._parked: dict[int, GatedOp] = {}
        #: Total arrivals observed (diagnostic).
        self.arrivals = 0

    def arrive(self, core, op, cont: Callable[[], None]) -> None:
        """Called by a core at a visible-operation boundary."""
        if core.core_id in self._parked:
            raise RuntimeError(
                f"core {core.core_id} gated twice without a release"
            )
        self._parked[core.core_id] = GatedOp(core=core, op=op, cont=cont)
        self.arrivals += 1

    @property
    def parked(self) -> dict[int, GatedOp]:
        """The currently parked cores, keyed by core id (do not mutate)."""
        return self._parked

    def release(self, core_id: int) -> GatedOp:
        """Un-park ``core_id``: grant its one-shot token and reschedule its
        continuation.  The caller must drain the event queue afterwards."""
        gated = self._parked.pop(core_id)
        core = gated.core
        core._release_granted = True
        core.sim.call_after(0, gated.cont)
        return gated
