"""The service workload states its job mix; a live server must serve
exactly that mix, and every served cell is checked against a recording."""

from perfbench import service_mix
from perfbench.common import Tally, load_expected


def test_stated_mix():
    assert service_mix.STATED_MIX == {"run": 1 / 3, "duplicate": 1 / 3, "resubmit": 1 / 3}
    assert service_mix.JOBS_PER_PASS * 3 >= service_mix.MIN_JOBS


def test_jobs_are_submit_target_sweeps():
    from argparse import Namespace

    from repro.harness.cli import _submit_cells

    sweep = service_mix.pool(1)[0]
    specs = _submit_cells(Namespace(
        sweep_family=sweep.family, names=list(sweep.names), protocols=None,
        cores=[16], scale=0.01, seed=sweep.seed,
    ))
    assert [spec for _, spec in sweep.cells()] == specs
    assert len(specs) == 10


def test_pool_is_recorded_and_distinct_from_setup():
    for sim_seed in (1, 2):
        expected = load_expected("service_mix", sim_seed)
        ids = [cid for sweep in service_mix.pool(sim_seed) for cid, _ in sweep.cells()]
        assert len(ids) == len(set(ids)) == len(expected)
        assert set(ids) == set(expected)
        warm = {cid for cid, _ in service_mix.warm_sweep(sim_seed, 0).cells()}
        assert not warm & set(ids)


def test_live_source_shares_match_the_stated_mix():
    server = service_mix.Server("test")
    try:
        tally = Tally()
        gen = service_mix.LoadGenerator(
            service_mix.pool(1), 4, tally, load_expected("service_mix", 1)
        )
        clients = [server.client() for _ in range(service_mix.CLIENTS)]
        gen.run_pass(clients)
    finally:
        server.stop()
    assert tally.failed == 0, tally.failures
    jobs = sum(gen.obs.jobs.values())
    assert jobs == len(gen.obs.job_s) == service_mix.JOBS_PER_PASS
    assert {k: n / jobs for k, n in gen.obs.jobs.items()} == service_mix.STATED_MIX
    cells = sum(gen.obs.sources.values())
    assert gen.obs.sources["run"] / cells == service_mix.STATED_MIX["run"]
    assert gen.obs.sources["cache"] / cells >= service_mix.STATED_MIX["resubmit"]
    assert server.proc.poll() is not None


def test_unrecorded_cell_is_a_failure():
    server = service_mix.Server("test")
    try:
        tally = Tally()
        sweep = service_mix.pool(1)[0]
        gen = service_mix.LoadGenerator([sweep], 4, tally, {})
        clients = [server.client() for _ in range(service_mix.CLIENTS)]
        gen._round("fresh", [sweep] * len(clients), clients)
    finally:
        server.stop()
    cells = 2 * len(sweep.cells())
    assert tally.attempted == cells + 1  # every served cell, plus the round check
    assert tally.failed == cells
    assert all("no recorded summary" in f for f in tally.failures)
