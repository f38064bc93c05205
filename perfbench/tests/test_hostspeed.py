"""The host-speed gauge samples while measured code runs and never counts
its own chunks as measured time."""

import time

from perfbench import hostspeed


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        sum(range(100))


def test_sampling_runs_chunks_inside_the_work_and_stops_the_clock():
    gauge = hostspeed.Gauge()
    start_host = time.perf_counter()
    with gauge.sampling():
        start = gauge.clock()
        _busy(0.5)
        measured = gauge.clock() - start
    host = time.perf_counter() - start_host
    assert gauge.chunks >= 3  # one every PERIOD_S of the 0.5 s
    assert abs(host - measured - gauge.chunk_s) < 0.02
    assert gauge.speed() > 0


def test_timer_is_removed_after_sampling():
    import signal

    previous = signal.getsignal(signal.SIGALRM)
    with hostspeed.Gauge().sampling():
        pass
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_keep_up_holds_the_chunk_share():
    gauge = hostspeed.Gauge()
    gauge.keep_up(0.5)
    assert gauge.chunk_s >= hostspeed.SHARE * 0.5
    assert gauge.chunk_s < hostspeed.SHARE * 0.5 + 0.1
