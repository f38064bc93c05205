"""Exhaustive small-scope verification of all three protocols.

Each scenario enumerates every interleaving of the given per-core
programs and checks the section 4 correctness conditions plus structural
invariants.  These are the strongest correctness tests in the suite.
"""

import pytest

from repro.verify import (
    Op,
    data_store,
    explore_protocol,
    rmw_inc,
    sync_load,
    sync_store,
)

PROTOCOLS = ["MESI", "DeNovoSync0", "DeNovoSync", "DeNovoSyncSig", "MESI-RFO"]

# Two distinct words, each on its own line, inside the address space.
A = 64
B = 160


@pytest.mark.parametrize("protocol", PROTOCOLS)
class TestExhaustiveScenarios:
    def test_message_passing_pattern(self, protocol):
        """Writer publishes two words; reader reads them (all sync)."""
        programs = [
            [sync_store(A, 1), sync_store(B, 2)],
            [sync_load(B), sync_load(A)],
        ]
        report = explore_protocol(protocol, programs)
        assert report.ok, report.failures[:1]
        assert report.interleavings == 6

    def test_concurrent_writers_one_word(self, protocol):
        programs = [
            [sync_store(A, 1), sync_load(A)],
            [sync_store(A, 2), sync_load(A)],
        ]
        report = explore_protocol(protocol, programs)
        assert report.ok, report.failures[:1]

    def test_rmw_storm(self, protocol):
        """Three cores increment one word twice each: every RMW must see
        the latest value (the FAI-ticket linearizability core case)."""
        programs = [[rmw_inc(A), rmw_inc(A)] for _ in range(3)]
        report = explore_protocol(protocol, programs)
        assert report.ok, report.failures[:1]
        assert report.interleavings == 90  # 6! / (2!2!2!)

    def test_mixed_data_and_sync(self, protocol):
        programs = [
            [data_store(A, 5), sync_store(B, 1)],
            [sync_load(B), sync_load(B)],
            [rmw_inc(A)],
        ]
        report = explore_protocol(protocol, programs)
        assert report.ok, report.failures[:1]

    def test_read_sharing_storm(self, protocol):
        """Many sync readers of one word with an interleaved writer —
        the registration ping-pong scenario."""
        programs = [
            [sync_load(A), sync_load(A)],
            [sync_load(A), sync_load(A)],
            [sync_store(A, 7)],
        ]
        report = explore_protocol(protocol, programs)
        assert report.ok, report.failures[:1]

    def test_false_sharing_words(self, protocol):
        """Two words in one cache line, written by different cores."""
        programs = [
            [sync_store(A, 1), sync_load(A + 1)],
            [sync_store(A + 1, 2), sync_load(A)],
        ]
        report = explore_protocol(protocol, programs)
        assert report.ok, report.failures[:1]


class TestCheckerMachinery:
    def test_scope_limit(self):
        programs = [[rmw_inc(A)] * 6 for _ in range(3)]
        with pytest.raises(ValueError, match="scope too large"):
            explore_protocol("MESI", programs, max_interleavings=100)

    def test_unknown_op_kind(self):
        with pytest.raises(ValueError, match="unknown op kind"):
            explore_protocol("MESI", [[Op("teleport", A)]])

    def test_too_many_programs(self):
        with pytest.raises(ValueError, match="more programs than cores"):
            explore_protocol("MESI", [[sync_load(A)]] * 9)

    def test_report_counts(self):
        report = explore_protocol("MESI", [[sync_store(A, 1)], [sync_load(A)]])
        assert report.interleavings == 2
        assert report.operations_checked == 4
        assert report.ok

    def test_detects_injected_violation(self, monkeypatch):
        """A protocol that serves stale sync reads must be caught."""
        from repro.protocols import denovosync0 as ds0mod

        original = ds0mod.DeNovoSync0Protocol.sync_load

        def broken(self, core_id, addr):
            access = original(self, core_id, addr)
            access.value = 999_999  # corrupt the observed value
            return access

        monkeypatch.setattr(ds0mod.DeNovoSync0Protocol, "sync_load", broken)
        report = explore_protocol(
            "DeNovoSync0", [[sync_store(A, 1)], [sync_load(A)]]
        )
        assert not report.ok
        assert "sync load saw" in report.failures[0].message

    def test_detects_injected_structural_violation(self, monkeypatch):
        """A protocol whose values stay right but whose registration
        state goes wrong must be caught too: a sync store that leaves a
        second Registered copy behind breaks single-registered-copy."""
        from repro.mem.l1 import DeNovoState
        from repro.protocols import denovosync0 as ds0mod

        original = ds0mod.DeNovoSync0Protocol.sync_store

        def broken(self, core_id, addr, value, release=False):
            access = original(self, core_id, addr, value, release=release)
            other = (core_id + 1) % len(self.l1s)
            self.l1s[other].fill_word(addr, value, DeNovoState.REGISTERED)
            return access

        monkeypatch.setattr(ds0mod.DeNovoSync0Protocol, "sync_store", broken)
        report = explore_protocol(
            "DeNovoSync0", [[sync_store(A, 1)], [sync_load(A)]]
        )
        assert not report.ok
        failure = report.failures[0]
        assert failure.op == sync_store(A, 1)
        assert "holds a Registered copy but the registry points at" in (
            failure.message
        )
