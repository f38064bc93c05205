"""Structural-invariant audits on the final state of full workload runs.

The exhaustive verifier covers tiny scopes; these tests run *real*
kernels and applications to completion and then audit the protocol's
entire cache/directory/registry state for consistency, through the same
``invariant_violations()`` the in-flight checker and the exhaustive
explorer use.
"""

import pytest

from repro.config import config_16
from repro.harness.runner import run_workload
from repro.protocols import PROTOCOLS
from repro.workloads.base import KernelSpec
from repro.workloads.micro import FalseSharingMicro
from repro.workloads.registry import make_kernel

KERNELS = [
    ("tatas", "counter"),
    ("array", "single Q"),
    ("mcs", "stack"),
    ("nonblocking", "M-S queue"),
    ("nonblocking", "Treiber stack"),
    ("barrier", "central"),
]


@pytest.mark.parametrize("figure,name", KERNELS)
@pytest.mark.parametrize("protocol", list(PROTOCOLS))
class TestKernelFinalState:
    def test_protocol_state_consistent_after_run(self, figure, name, protocol):
        workload = make_kernel(figure, name, spec=KernelSpec(iterations=4, scale=1.0))
        result = run_workload(
            workload, protocol, config_16(), seed=11, keep_protocol=True
        )
        assert result.meta["protocol"].invariant_violations() == []


@pytest.mark.parametrize("protocol", list(PROTOCOLS))
class TestAppAndMicroFinalState:
    def test_app_model_state_consistent(self, protocol):
        from repro.workloads.apps import make_app

        result = run_workload(
            make_app("bodytrack", scale=0.05),
            protocol,
            __import__("repro.config", fromlist=["config_for_cores"]).config_for_cores(16),
            seed=11,
            keep_protocol=True,
        )
        assert result.meta["protocol"].invariant_violations() == []

    def test_false_sharing_micro_state_consistent(self, protocol):
        result = run_workload(
            FalseSharingMicro(rounds=8), protocol, config_16(), seed=11,
            keep_protocol=True,
        )
        assert result.meta["protocol"].invariant_violations() == []


class TestAuditCatchesCorruption:
    def test_denovo_double_registration_detected(self):
        from repro.mem.l1 import DeNovoState
        from repro.protocols.denovosync0 import DeNovoSync0Protocol

        protocol = DeNovoSync0Protocol(config_16())
        protocol.store(0, 100, 1)
        # Corrupt: a second L1 claims Registered without the registry.
        protocol.l1s[1].fill_word(100, 1, DeNovoState.REGISTERED)
        assert any(
            "holds a Registered copy but the registry points at" in f
            for f in protocol.invariant_violations()
        )

    def test_mesi_unknown_holder_detected(self):
        from repro.mem.l1 import MesiState
        from repro.protocols.mesi import MesiProtocol

        protocol = MesiProtocol(config_16())
        protocol.load(0, 100)
        # Corrupt: a copy the directory never granted.
        protocol.l1s[3].insert(protocol.amap.line_of(100), MesiState.SHARED)
        assert any(
            "coexists with copies at cores [3]" in f
            for f in protocol.invariant_violations()
        )

    def test_mesi_copy_without_directory_entry_detected(self):
        from repro.mem.l1 import MesiState
        from repro.protocols.mesi import MesiProtocol

        protocol = MesiProtocol(config_16())
        # Corrupt: a cached copy of a line the directory has never seen.
        protocol.l1s[3].insert(6, MesiState.SHARED)
        assert protocol.invariant_violations() == [
            "line 6: core 3 holds MesiState.SHARED but the directory has "
            "no entry for the line"
        ]
