import asyncio
import time

from perfbench.loadgen import open_loop


def test_latency_counts_from_due_time_and_lateness_is_reported():
    async def send(i):
        if i == 0:
            time.sleep(0.06)  # stalls the loop: later sends go out late
        return i

    outcomes = asyncio.run(open_loop(10, rate=200.0, send=send))
    assert [o.index for o in outcomes] == list(range(10))
    for o in outcomes:
        assert o.latency == o.done - o.due
        assert o.latency >= o.lateness >= 0
    # Requests due during the stall were sent late, and their latency
    # includes that wait although their own service time is ~0.
    late = [o for o in outcomes[1:] if o.due < outcomes[0].due + 0.05]
    assert late
    for o in late:
        assert o.lateness > 0.005
        assert o.latency >= o.lateness


def test_due_times_follow_the_offered_rate():
    async def send(i):
        return None

    outcomes = asyncio.run(open_loop(5, rate=100.0, send=send))
    gaps = [b.due - a.due for a, b in zip(outcomes, outcomes[1:])]
    assert all(abs(g - 0.01) < 1e-9 for g in gaps)


def test_a_failing_request_is_an_outcome_not_a_crash():
    async def send(i):
        if i == 2:
            raise RuntimeError("refused")
        return i

    outcomes = asyncio.run(open_loop(4, rate=500.0, send=send))
    assert isinstance(outcomes[2].error, RuntimeError)
    assert [o.error is None for o in outcomes] == [True, True, False, True]
