"""Edge cases of the DexSpeed engine internals: the same-time FIFO fast
lane, tagged-entry timeout cancellation with heap compaction, the
``run(until)`` boundary (including the fast-lane spill), the inline
resume, and the in-place clock advance of the cpu-only compute path —
each exercised under both knob settings where the knob changes the code
path."""

import pytest

from conftest import make_cluster
from repro.sim import Engine
from repro.sim.engine import SimulationError

KNOBS = [
    pytest.param(dict(fastlane=True, inline=True), id="fast"),
    pytest.param(dict(fastlane=False, inline=False), id="plain"),
]


# ---------------------------------------------------------------------------
# fast lane vs heap: merged dispatch order
# ---------------------------------------------------------------------------


def _same_time_order(**knobs):
    """Interleave heap entries (timeouts) and fast-lane entries (callbacks
    of already-done events) at one instant; return the dispatch order."""
    eng = Engine(**knobs)
    order = []

    def waiter(tag, delay):
        yield eng.timeout(delay)
        order.append(tag)

    def poker(tag):
        done = eng.event()
        done.succeed()           # callbacks of a done event take the
        yield done               # _schedule_now path: the fast lane
        order.append(tag)

    # creation order is the required dispatch order at t=0
    eng.process(waiter("t0", 0.0))
    eng.process(poker("p0"))
    eng.process(waiter("t1", 0.0))
    eng.process(poker("p1"))
    eng.process(waiter("t2", 0.0))
    eng.run()
    return order


def test_fastlane_and_heap_merge_in_seq_order():
    fast = _same_time_order(fastlane=True, inline=False)
    plain = _same_time_order(fastlane=False, inline=False)
    assert fast == plain
    assert sorted(fast) == ["p0", "p1", "t0", "t1", "t2"]


@pytest.mark.parametrize("knobs", KNOBS)
def test_fastlane_does_not_jump_future_heap_entries(knobs):
    """A same-time callback enqueued *during* dispatch at time t must run
    before any strictly later heap entry, but after earlier same-time
    entries already queued."""
    eng = Engine(**knobs)
    order = []

    def trigger():
        evt = eng.event()
        evt.add_callback(lambda e: order.append("cb"))
        yield eng.timeout(1.0)
        evt.succeed()            # enqueues cb at t=1 (fast lane)
        order.append("trigger")

    def late():
        yield eng.timeout(2.0)
        order.append("late")

    eng.process(trigger())
    eng.process(late())
    eng.run()
    assert order == ["trigger", "cb", "late"]
    assert eng.now == 2.0


# ---------------------------------------------------------------------------
# cancellation: tagged entries, compaction, interleavings
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("knobs", KNOBS)
def test_cancelled_timeouts_do_not_advance_clock(knobs):
    eng = Engine(**knobs)

    def body():
        keep = eng.timeout(10.0)
        drop = eng.timeout(500.0)  # a retry deadline that won't be needed
        drop.cancel()
        yield keep

    eng.process(body())
    eng.run()
    assert eng.now == 10.0  # the cancelled 500.0 entry never fired


@pytest.mark.parametrize("knobs", KNOBS)
def test_mass_cancellation_triggers_compaction(knobs):
    """Cancelling most of the queue must shrink it in place (the tagged
    entries are physically dropped once they dominate) and leave the
    survivors' order intact."""
    eng = Engine(**knobs)
    fired = []

    def arm():
        timeouts = [eng.timeout(float(i + 1)) for i in range(200)]
        for i, t in enumerate(timeouts):
            t.add_callback(lambda _e, i=i: fired.append(i))
        yield eng.timeout(0.0)
        for i, t in enumerate(timeouts):
            if i % 10 != 0:      # cancel 180 of 200
                t.cancel()

    eng.process(arm())
    eng.run()
    assert fired == list(range(0, 200, 10))
    assert eng.now == 191.0      # timeout index 190, delay 191.0
    assert eng._cancelled_entries == 0
    assert len(eng._queue) == 0


@pytest.mark.parametrize("knobs", KNOBS)
def test_cancel_after_fire_is_a_noop(knobs):
    eng = Engine(**knobs)

    def body():
        t = eng.timeout(1.0)
        yield t
        t.cancel()               # already fired: must not corrupt anything
        t.cancel()
        yield eng.timeout(1.0)

    eng.process(body())
    eng.run()
    assert eng.now == 2.0


@pytest.mark.parametrize("knobs", KNOBS)
def test_cancelled_then_rearmed_private_timeout(knobs):
    """rearm() after a fire must schedule afresh even when an unrelated
    cancellation storm compacted the heap in between."""
    eng = Engine(**knobs)
    times = []

    def body():
        sleep = eng.timeout(1.0)
        yield sleep
        times.append(eng.now)
        junk = [eng.timeout(50.0 + i) for i in range(100)]
        for t in junk:
            t.cancel()
        yield sleep.rearm(2.0)
        times.append(eng.now)

    eng.process(body())
    eng.run()
    assert times == [1.0, 3.0]


# ---------------------------------------------------------------------------
# run(until) boundaries
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("knobs", KNOBS)
def test_until_is_inclusive(knobs):
    eng = Engine(**knobs)
    fired = []

    def body():
        yield eng.timeout(30.0)
        fired.append(eng.now)
        yield eng.timeout(0.5)
        fired.append(eng.now)

    eng.process(body())
    eng.run(until=30.0)          # the entry AT the boundary fires
    assert fired == [30.0]
    assert eng.now == 30.0
    eng.run()
    assert fired == [30.0, 30.5]


@pytest.mark.parametrize("knobs", KNOBS)
def test_until_with_empty_queue_advances_clock(knobs):
    eng = Engine(**knobs)
    eng.run(until=42.0)
    assert eng.now == 42.0


def test_until_spills_pending_fastlane_to_heap():
    """A second run() with an earlier `until` parks the pending fast-lane
    entries back on the heap (their sortedness invariant must survive the
    clock moving below them) and still dispatches them correctly later."""
    eng = Engine(fastlane=True, inline=True)
    order = []

    def sleeper():
        yield eng.timeout(100.0)
        order.append("sleeper")

    eng.process(sleeper())
    eng.run(until=30.0)
    assert eng.now == 30.0
    # a fresh process's first step is a fast-lane entry at t=30
    def second():
        order.append("second")
        yield eng.timeout(1.0)
        order.append("second-done")

    eng.process(second())
    eng.run(until=10.0)          # below every pending entry: spill + park
    assert order == []
    assert len(eng._fastlane) == 0
    eng.run()
    assert order == ["second", "second-done", "sleeper"]
    assert eng.now == 100.0


# ---------------------------------------------------------------------------
# guards
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("knobs", KNOBS)
def test_max_events_guard_in_both_modes(knobs):
    eng = Engine(**knobs)

    def spinner():
        while True:
            yield eng.timeout(0.0)

    eng.process(spinner())
    with pytest.raises(SimulationError, match="max_events"):
        eng.run(max_events=500)


def test_a_raising_dispatch_is_not_counted():
    eng = Engine()

    def boom(_event):
        raise RuntimeError("callback failed")

    eng.timeout(1.0).add_callback(boom)
    eng.timeout(2.0)
    with pytest.raises(RuntimeError):
        eng.run()
    assert eng.events_dispatched == 0
    assert eng.run() == 2.0
    assert eng.events_dispatched == 1


@pytest.mark.parametrize("knobs", KNOBS)
def test_events_dispatched_accumulates(knobs):
    eng = Engine(**knobs)

    def body():
        for _ in range(5):
            yield eng.timeout(1.0)

    eng.process(body())
    eng.run(until=2.0)
    first = eng.events_dispatched
    assert first > 0
    eng.run()
    assert eng.events_dispatched > first


# ---------------------------------------------------------------------------
# in-place clock advance (Engine._advance via the cpu-only compute path)
# ---------------------------------------------------------------------------

#: observers pinned off so every configuration of the suite reaches the
#: cpu-only compute path (a tracer, a chaos controller or a wait-for hook
#: each close it for their own reasons)
QUIET = dict(sanitize="off", trace="off", lens="off", scope="off", chaos="off")

def _in_mode(monkeypatch, mode):
    """Put the engine in *mode*: "advance" (the default engine),
    "no-advance" (inline resume on but every in-place advance refused:
    the dispatch shape without it, with the same dispatch counts) or
    "inline-off" (DEX_ENGINE_INLINE=0).  Returns a counter of the
    advances taken."""
    taken = [0]
    monkeypatch.delenv("DEX_ENGINE_INLINE", raising=False)
    if mode == "inline-off":
        monkeypatch.setenv("DEX_ENGINE_INLINE", "0")
    original = Engine._advance

    def counted(self, witness, delay):
        if mode == "no-advance":
            return False
        advanced = original(self, witness, delay)
        taken[0] += advanced
        return advanced

    monkeypatch.setattr(Engine, "_advance", counted)
    return taken


def _spinner_cluster(trace, iters):
    """A one-node cluster with a lone thread looping 1 us computes and
    recording the clock after each."""
    cluster = make_cluster(num_nodes=1, **QUIET)
    proc = cluster.create_process()

    def spinner(ctx):
        done = 0
        while done < iters:
            yield from ctx.compute(cpu_us=1.0)
            trace.append(ctx.now)
            done += 1

    proc.spawn_thread(spinner)
    return cluster


def _multi_waiter_run(monkeypatch, mode):
    taken = _in_mode(monkeypatch, mode)
    cluster = make_cluster(num_nodes=1, **QUIET)
    proc = cluster.create_process()
    gate = cluster.engine.event()
    clocks = []

    def waiter(ctx, cpu_us):
        yield from ctx.compute(cpu_us=1.0)   # arms the private sleep
        yield gate
        for _ in range(6):       # the slowest waiter ends alone
            yield from ctx.compute(cpu_us=cpu_us)
            clocks.append((ctx.tid, ctx.now))

    def main(ctx):
        threads = [proc.spawn_thread(waiter, 0.25 * (i + 1)) for i in range(4)]
        yield from ctx.compute(cpu_us=5.0)
        gate.succeed()           # wakes all four in one dispatch
        yield from proc.join_all(threads)

    cluster.simulate(main, proc)
    engine = cluster.engine
    return clocks, engine.now, (engine.events_dispatched, engine._seq), taken[0]


def test_advance_never_moves_the_clock_under_co_woken_waiters(monkeypatch):
    """One succeed() resumes every waiter of an Event in one dispatch; the
    first waiter's compute must not advance the clock before the others
    have resumed at the wake-up instant."""
    clocks, now, counts, taken = _multi_waiter_run(monkeypatch, "advance")
    first = {}
    for tid, clock in clocks:
        first.setdefault(tid, clock)
    # all four resumed at t=5.0, then computed 0.25 / 0.5 / 0.75 / 1.0 us
    assert first == {1: 5.25, 2: 5.5, 3: 5.75, 4: 6.0}
    assert taken > 0             # the path under test was reached
    assert _multi_waiter_run(monkeypatch, "inline-off")[:2] == (clocks, now)
    assert _multi_waiter_run(monkeypatch, "no-advance")[:3] == (
        clocks, now, counts)


def test_advance_waits_for_same_instant_wakeups(monkeypatch):
    """A wake-up the running thread schedules for the current instant sits
    in the fast lane; it must run before the thread's next compute moves
    the clock on."""
    def run(mode):
        taken = _in_mode(monkeypatch, mode)
        cluster = make_cluster(num_nodes=1, **QUIET)
        proc = cluster.create_process()
        ping = cluster.engine.event()
        seen = []

        def sleeper(ctx):
            yield ping
            seen.append(("sleeper", ctx.now))

        def main(ctx):
            proc.spawn_thread(sleeper)
            yield from ctx.compute(cpu_us=1.0)
            yield from ctx.compute(cpu_us=1.0)   # advances in place
            ping.succeed()
            yield from ctx.compute(cpu_us=1.0)   # must sleep
            seen.append(("main", ctx.now))

        cluster.simulate(main, proc)
        engine = cluster.engine
        return seen, (engine.events_dispatched, engine._seq), taken[0]

    seen, counts, taken = run("advance")
    assert seen == [("sleeper", 2.0), ("main", 3.0)]
    assert taken > 0
    assert run("inline-off")[0] == seen
    assert run("no-advance")[:2] == (seen, counts)


def _max_events_run(monkeypatch, mode):
    taken = _in_mode(monkeypatch, mode)
    trace = []
    # bounded, so a budget that never runs out fails instead of hanging
    cluster = _spinner_cluster(trace, iters=10_000)
    with pytest.raises(SimulationError, match="max_events"):
        cluster.engine.run(max_events=500)
    engine = cluster.engine
    return trace, engine.now, (engine.events_dispatched, engine._seq), taken[0]


def test_advance_respects_max_events(monkeypatch):
    trace, now, counts, taken = _max_events_run(monkeypatch, "advance")
    assert taken > 0
    assert counts[0] == 500
    assert _max_events_run(monkeypatch, "no-advance")[:3] == (trace, now, counts)
    _max_events_run(monkeypatch, "inline-off")   # raises there too


@pytest.mark.parametrize("until", [50.0, 50.5])
def test_advance_stops_at_until_and_resumes(monkeypatch, until):
    def run(mode):
        taken = _in_mode(monkeypatch, mode)
        trace = []
        cluster = _spinner_cluster(trace, iters=100)
        engine = cluster.engine
        parked = engine.run(until=until)
        first = list(trace)
        engine.run()
        counts = (engine.events_dispatched, engine._seq)
        return parked, first, trace, engine.now, counts, taken[0]

    parked, first, trace, now, counts, taken = run("advance")
    assert parked == until
    assert first[-1] == 50.0
    assert taken > 0
    assert run("inline-off")[:4] == (parked, first, trace, now)
    assert run("no-advance")[:5] == (parked, first, trace, now, counts)


def test_advance_respects_sampler_deadlines(monkeypatch):
    def run(mode):
        taken = _in_mode(monkeypatch, mode)
        trace = []
        cluster = _spinner_cluster(trace, iters=100)
        engine = cluster.engine
        fired = []
        engine.add_sampler(
            lambda deadline: fired.append((deadline, engine.now, len(trace))),
            7.5,
        )
        engine.run()
        return fired, trace, (engine.events_dispatched, engine._seq), taken[0]

    fired, trace, counts, taken = run("advance")
    assert [deadline for deadline, _, _ in fired] == [7.5 * k for k in range(1, 14)]
    assert taken > 0
    assert run("inline-off")[:2] == (fired, trace)
    assert run("no-advance")[:3] == (fired, trace, counts)


class _WaitCounter:
    def __init__(self):
        self.waits = 0

    def on_process_waiting(self, process, event):
        self.waits += 1


def test_advance_yields_to_waiting_hooks(monkeypatch):
    def run(mode):
        taken = _in_mode(monkeypatch, mode)
        trace = []
        cluster = _spinner_cluster(trace, iters=100)
        hook = _WaitCounter()
        cluster.engine.add_hook(hook)
        cluster.engine.run()
        return hook.waits, trace, taken[0]

    waits, trace, taken = run("advance")
    assert taken == 0            # every compute is a wait the hook sees
    assert run("inline-off")[:2] == (waits, trace)
    assert waits >= 100
