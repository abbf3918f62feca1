"""Unit tests for the discrete-event kernel (events, processes, conditions)."""

import random

import pytest

from repro.simnet.kernel import Simulator
from repro.simnet.primitives import (
    AllOf,
    Event,
    InterruptException,
)


@pytest.fixture
def sim():
    return Simulator()


class TestClock:
    def test_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_custom_start_time(self):
        assert Simulator(start_time=5.0).now == 5.0

    def test_run_until_time_advances_clock(self, sim):
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_run_until_past_raises(self, sim):
        sim.run(until=5.0)
        with pytest.raises(ValueError):
            sim.run(until=1.0)

    def test_timeout_advances_clock_exactly(self, sim):
        sim.timeout(3.5)
        sim.run()
        assert sim.now == 3.5

    def test_peek_empty_queue_is_inf(self, sim):
        assert sim.peek() == float("inf")


class TestEvents:
    def test_event_initially_pending(self, sim):
        ev = sim.event()
        assert not ev.triggered
        assert not ev.processed

    def test_value_before_trigger_raises(self, sim):
        with pytest.raises(RuntimeError):
            sim.event().value

    def test_succeed_carries_value(self, sim):
        ev = sim.event()
        ev.succeed(42)
        assert ev.triggered and ev.ok
        assert ev.value == 42

    def test_double_succeed_raises(self, sim):
        ev = sim.event()
        ev.succeed()
        with pytest.raises(RuntimeError):
            ev.succeed()

    def test_fail_requires_exception(self, sim):
        with pytest.raises(TypeError):
            sim.event().fail("not an exception")

    def test_fail_carries_exception(self, sim):
        ev = sim.event()
        exc = ValueError("boom")
        ev.fail(exc)
        assert ev.triggered and not ev.ok
        assert ev.value is exc

    def test_callback_runs_on_processing(self, sim):
        ev = sim.event()
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        ev.succeed("x")
        assert seen == []  # not yet processed
        sim.run()
        assert seen == ["x"]

    def test_callback_after_processed_runs_immediately(self, sim):
        ev = sim.event()
        ev.succeed(1)
        sim.run()
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        assert seen == [1]

    def test_negative_timeout_raises(self, sim):
        with pytest.raises(ValueError):
            sim.timeout(-1)

    def test_timeout_value(self, sim):
        to = sim.timeout(1.0, value="done")
        sim.run()
        assert to.value == "done"


class TestProcesses:
    def test_process_return_value(self, sim):
        def body():
            yield sim.timeout(2.0)
            return "finished"

        proc = sim.process(body())
        result = sim.run(until=proc)
        assert result == "finished"
        assert sim.now == 2.0

    def test_process_requires_generator(self, sim):
        with pytest.raises(TypeError):
            sim.process(lambda: None)

    def test_process_exception_propagates_to_run(self, sim):
        def body():
            yield sim.timeout(1.0)
            raise RuntimeError("agent crashed")

        proc = sim.process(body())
        with pytest.raises(RuntimeError, match="agent crashed"):
            sim.run(until=proc)

    def test_process_waits_on_event(self, sim):
        ev = sim.event()
        log = []

        def waiter():
            value = yield ev
            log.append((sim.now, value))

        def firer():
            yield sim.timeout(5.0)
            ev.succeed("ping")

        sim.process(waiter())
        sim.process(firer())
        sim.run()
        assert log == [(5.0, "ping")]

    def test_failed_event_raises_in_process(self, sim):
        ev = sim.event()

        def waiter():
            try:
                yield ev
            except ValueError as exc:
                return f"caught {exc}"

        def firer():
            yield sim.timeout(1.0)
            ev.fail(ValueError("nope"))

        proc = sim.process(waiter())
        sim.process(firer())
        assert sim.run(until=proc) == "caught nope"

    def test_yielding_non_event_raises(self, sim):
        def body():
            yield 42

        proc = sim.process(body())
        with pytest.raises(TypeError):
            sim.run(until=proc)

    def test_non_event_yield_fails_the_process_for_its_waiters(self, sim):
        """The TypeError thrown back for a non-event fails the process when
        the generator does not catch it, so a process waiting on it wakes
        with the error instead of hanging, and run() itself does not raise."""

        def body():
            yield 42

        proc = sim.process(body())

        def waiter():
            try:
                yield proc
            except TypeError as exc:
                return str(exc)

        w = sim.process(waiter())
        assert sim.run(until=w) == "process yielded non-event 42"
        assert not proc.is_alive and not proc.ok

    def test_non_event_yield_caught_by_the_generator_continues(self, sim):
        """A generator that catches the TypeError and yields an event waits
        on that event; one that then returns succeeds with its value."""

        def body():
            try:
                yield "not an event"
            except TypeError:
                yield sim.timeout(2.0)
            try:
                yield None
            except TypeError:
                return "recovered"

        proc = sim.process(body())
        assert sim.run(until=proc) == "recovered"
        assert sim.now == 2.0

    def test_foreign_event_yield_fails_the_process_for_its_waiters(self, sim):
        """An event of another simulator is refused the same way: the
        RuntimeError is thrown in and, uncaught, fails the process."""
        other = Simulator()

        def body():
            yield other.timeout(1.0)

        proc = sim.process(body())

        def waiter():
            try:
                yield proc
            except RuntimeError as exc:
                return str(exc)

        w = sim.process(waiter())
        assert sim.run(until=w) == "event belongs to a different simulator"
        assert not proc.is_alive and not proc.ok
        assert other.peek() == 1.0  # the foreign timeout is left alone

    def test_same_time_events_fifo_order(self, sim):
        order = []

        def worker(tag):
            yield sim.timeout(1.0)
            order.append(tag)

        for tag in ("a", "b", "c"):
            sim.process(worker(tag))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_timestamp_fifo(self, sim):
        log = []

        def worker(tag):
            yield sim.timeout(1.0)
            log.append(tag)

        for i in range(9):
            sim.process(worker(i))
        sim.run()
        assert log == list(range(9))
        assert sim.now == 1.0

    def test_nested_yield_from(self, sim):
        def inner():
            yield sim.timeout(1.0)
            return 10

        def outer():
            x = yield from inner()
            yield sim.timeout(1.0)
            return x + 5

        proc = sim.process(outer())
        assert sim.run(until=proc) == 15
        assert sim.now == 2.0

    def test_is_alive_lifecycle(self, sim):
        def body():
            yield sim.timeout(1.0)

        proc = sim.process(body())
        assert proc.is_alive
        sim.run()
        assert not proc.is_alive

    def test_process_is_event_waitable(self, sim):
        def child():
            yield sim.timeout(3.0)
            return "child-done"

        def parent():
            result = yield sim.process(child())
            return result

        proc = sim.process(parent())
        assert sim.run(until=proc) == "child-done"


class TestInterrupts:
    def test_interrupt_delivers_cause(self, sim):
        def sleeper():
            try:
                yield sim.timeout(100.0)
            except InterruptException as exc:
                return f"interrupted: {exc.cause}"

        proc = sim.process(sleeper())

        def interrupter():
            yield sim.timeout(1.0)
            proc.interrupt("wake up")

        sim.process(interrupter())
        assert sim.run(until=proc) == "interrupted: wake up"
        assert sim.now == pytest.approx(1.0)

    def test_interrupt_dead_process_raises(self, sim):
        def body():
            yield sim.timeout(1.0)

        proc = sim.process(body())
        sim.run()
        with pytest.raises(RuntimeError):
            proc.interrupt()

    def test_uncaught_interrupt_fails_process(self, sim):
        def sleeper():
            yield sim.timeout(100.0)

        proc = sim.process(sleeper())

        def interrupter():
            yield sim.timeout(1.0)
            proc.interrupt("bye")

        sim.process(interrupter())
        with pytest.raises(InterruptException):
            sim.run(until=proc)

    def test_original_event_does_not_resume_after_interrupt(self, sim):
        resumed = []

        def sleeper():
            try:
                yield sim.timeout(2.0)
                resumed.append("timeout")
            except InterruptException:
                yield sim.timeout(10.0)
                resumed.append("post-interrupt")

        proc = sim.process(sleeper())

        def interrupter():
            yield sim.timeout(1.0)
            proc.interrupt()

        sim.process(interrupter())
        sim.run()
        assert resumed == ["post-interrupt"]

    def test_priority_events_preempt_fifo(self, sim):
        """Interrupts are priority events: scheduled last at t=5, they
        still dispatch before an ordinary wake-up queued earlier at t=5."""
        log = []
        procs = []

        def sleeper(tag):
            try:
                yield sim.timeout(10.0)
                log.append(("slept", tag))
            except InterruptException:
                log.append(("interrupted", tag))

        def other():
            yield sim.timeout(5.0)
            log.append("other")

        def interrupter():
            yield sim.timeout(5.0)
            for proc in procs:
                proc.interrupt("stop")
            log.append("interrupter-done")

        # Interrupter first, so its t=5 timeout dispatches before "other"'s.
        sim.process(interrupter())
        procs.extend(sim.process(sleeper(i)) for i in range(3))
        sim.process(other())
        sim.run()
        assert log == [
            "interrupter-done",
            ("interrupted", 0),
            ("interrupted", 1),
            ("interrupted", 2),
            "other",
        ]


class TestConditions:
    def test_all_of_collects_values(self, sim):
        t1 = sim.timeout(1.0, value="a")
        t2 = sim.timeout(2.0, value="b")
        cond = sim.all_of([t1, t2])

        def waiter():
            results = yield cond
            return sorted(results.values())

        proc = sim.process(waiter())
        assert sim.run(until=proc) == ["a", "b"]
        assert sim.now == 2.0

    def test_any_of_fires_on_first(self, sim):
        t1 = sim.timeout(1.0, value="fast")
        t2 = sim.timeout(50.0, value="slow")

        def waiter():
            results = yield sim.any_of([t1, t2])
            return list(results.values())

        proc = sim.process(waiter())
        assert sim.run(until=proc) == ["fast"]
        assert sim.now == pytest.approx(1.0)

    def test_all_of_empty_fires_immediately(self, sim):
        cond = sim.all_of([])
        sim.run()
        assert cond.processed and cond.value == {}

    def test_all_of_fails_if_child_fails(self, sim):
        ev = sim.event()
        good = sim.timeout(1.0)
        cond = sim.all_of([good, ev])

        def firer():
            yield sim.timeout(2.0)
            ev.fail(RuntimeError("child died"))

        sim.process(firer())

        def waiter():
            yield cond

        proc = sim.process(waiter())
        with pytest.raises(RuntimeError, match="child died"):
            sim.run(until=proc)

    def test_cross_simulator_event_rejected(self, sim):
        other = Simulator()
        with pytest.raises(RuntimeError):
            AllOf(sim, [Event(other)])


class TestRunSemantics:
    def test_run_until_event_returns_value(self, sim):
        ev = sim.event()

        def firer():
            yield sim.timeout(3.0)
            ev.succeed(99)

        sim.process(firer())
        assert sim.run(until=ev) == 99

    def test_run_until_already_processed_event(self, sim):
        ev = sim.event()
        ev.succeed(7)
        sim.run()
        assert sim.run(until=ev) == 7

    def test_run_until_never_triggered_raises(self, sim):
        ev = sim.event()
        with pytest.raises(RuntimeError):
            sim.run(until=ev)

    def test_events_processed_counter(self, sim):
        for _ in range(5):
            sim.timeout(1.0)
        sim.run()
        assert sim.events_processed == 5

    def test_step_empty_raises(self, sim):
        with pytest.raises(IndexError):
            sim.step()

    def test_step_and_peek_walk_calendar_in_order(self, sim):
        values = []

        def worker(delay):
            yield sim.timeout(delay)
            values.append((sim.now, delay))

        for delay in (3.0, 1.0, 2.0):
            sim.process(worker(delay))
        seen = []
        while sim.peek() != float("inf"):
            seen.append(sim.peek())
            sim.step()
        assert seen == sorted(seen)
        assert values == [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]
        with pytest.raises(IndexError):
            sim.step()

    def test_run_until_deadline_leaves_later_events_pending(self, sim):
        log = []

        def worker():
            while True:
                yield sim.timeout(1.0)
                log.append(sim.now)

        sim.process(worker())
        sim.run(until=3.5)
        assert sim.now == 3.5
        assert log == [1.0, 2.0, 3.0]
        assert sim.peek() == 4.0

    def test_randomized_trace_replays_identically(self):
        """Mini-fuzz: a seeded random workload of nested processes with
        same-time wake-ups replays the identical dispatch trace."""

        def trace():
            sim = Simulator()
            log = []

            def worker(rng, tag, depth):
                for _ in range(rng.randint(1, 4)):
                    yield sim.timeout(rng.choice([0.0, 0.5, 1.0, 1.0, 2.5]))
                    log.append((sim.now, tag))
                    if depth < 2 and rng.random() < 0.4:
                        child = f"{tag}.{len(log)}"
                        sim.process(worker(rng, child, depth + 1))

            master = random.Random(2026)
            for i in range(12):
                rng = random.Random(master.randint(0, 2**31))
                sim.process(worker(rng, f"w{i}", 0))
            sim.run()
            return log

        first = trace()
        assert first == trace()
        assert first == sorted(first, key=lambda entry: entry[0])
        assert len(first) > 20  # the workload actually did something

    def test_deterministic_replay(self):
        def build_and_run():
            sim = Simulator()
            log = []

            def worker(tag, delay):
                yield sim.timeout(delay)
                log.append((sim.now, tag))

            for i, d in enumerate([3.0, 1.0, 2.0, 1.0]):
                sim.process(worker(i, d))
            sim.run()
            return log

        assert build_and_run() == build_and_run()


class TestRunLoopBugfixes:
    """Regression tests for the kernel run-loop bugfix sweep.

    Each of these failed on the pre-fix kernel: the stop sentinel raised
    StopSimulation mid-dispatch (skipping callbacks registered after it),
    run(until=<processed failed event>) returned the exception instead of
    raising it, and bad delays were only caught by the defensive
    "calendar went backwards" check at pop time.
    """

    def test_stop_event_callbacks_drain_before_halt(self, sim):
        """A waiter that subscribes to the stop event *after* run() started
        (so its callback lands behind the stop sentinel) must still be
        resumed when the event fires — the halt is deferred until the
        event's callback list has fully drained."""
        ev = sim.event()
        log = []

        def waiter():
            yield sim.timeout(1.0)  # subscribe to ev mid-run, after the sentinel
            value = yield ev
            log.append(value)

        def firer():
            yield sim.timeout(2.0)
            ev.succeed("late-callback")

        sim.process(waiter())
        sim.process(firer())
        assert sim.run(until=ev) == "late-callback"
        assert log == ["late-callback"]

    def test_plain_callback_after_sentinel_runs_before_halt(self, sim):
        """Same bug, minimal form: a raw callback appended behind the
        sentinel must run exactly once before the halt."""
        ev = sim.event()
        seen = []

        def subscriber():
            yield sim.timeout(1.0)
            ev.add_callback(lambda e: seen.append(e.value))

        def firer():
            yield sim.timeout(2.0)
            ev.succeed(7)

        sim.process(subscriber())
        sim.process(firer())
        sim.run(until=ev)
        assert seen == [7]

    def test_run_until_already_processed_failed_event_raises(self, sim):
        """run(until=event) on an already-processed *failed* event must
        raise its exception — matching the post-loop path — not return
        the exception object as a value."""
        ev = sim.event()
        ev.fail(ValueError("already failed"))
        sim.run()
        assert ev.processed and not ev.ok
        with pytest.raises(ValueError, match="already failed"):
            sim.run(until=ev)

    def test_run_until_failed_event_both_paths_agree(self, sim):
        """The in-loop and already-processed paths raise the same exception."""
        ev = sim.event()

        def firer():
            yield sim.timeout(1.0)
            ev.fail(KeyError("boom"))

        sim.process(firer())
        with pytest.raises(KeyError):
            sim.run(until=ev)
        with pytest.raises(KeyError):
            sim.run(until=ev)  # now already processed: same outcome

    def test_nan_delay_rejected_at_schedule_time(self, sim):
        with pytest.raises(ValueError, match="delay"):
            sim.timeout(float("nan"))

    def test_negative_delay_rejected_by_schedule_event(self, sim):
        ev = sim.event()
        with pytest.raises(ValueError, match="delay"):
            sim._schedule_event(ev, delay=-0.5)

    def test_nan_delay_rejected_by_schedule_event(self, sim):
        ev = sim.event()
        with pytest.raises(ValueError, match="delay"):
            sim._schedule_event(ev, delay=float("nan"))

    def test_valid_delays_still_accepted(self, sim):
        sim.timeout(0.0)
        sim.timeout(5.0)
        sim.run()
        assert sim.now == 5.0


class TestConditionEdgeCases:
    def test_any_of_empty_fires_immediately(self, sim):
        cond = sim.any_of([])
        sim.run()
        assert cond.processed and cond.value == {}

    def test_any_of_failure_propagates(self, sim):
        ev = sim.event()
        cond = sim.any_of([ev, sim.timeout(10.0)])

        def firer():
            yield sim.timeout(1.0)
            ev.fail(ValueError("first child died"))

        sim.process(firer())

        def waiter():
            yield cond

        proc = sim.process(waiter())
        with pytest.raises(ValueError, match="first child died"):
            sim.run(until=proc)

    def test_all_of_with_pre_triggered_children(self, sim):
        done = sim.event()
        done.succeed("early")
        sim.run()
        cond = sim.all_of([done, sim.timeout(1.0, value="late")])

        def waiter():
            results = yield cond
            return sorted(results.values())

        proc = sim.process(waiter())
        assert sim.run(until=proc) == ["early", "late"]

    def test_condition_results_keyed_by_event(self, sim):
        t1 = sim.timeout(1.0, value="a")
        t2 = sim.timeout(2.0, value="b")
        cond = sim.all_of([t1, t2])

        def waiter():
            results = yield cond
            return results

        proc = sim.process(waiter())
        results = sim.run(until=proc)
        assert results[t1] == "a" and results[t2] == "b"

    def test_trigger_mirrors_outcome(self, sim):
        source = sim.event()
        mirror = sim.event()
        source.succeed(5)
        mirror.trigger(source)
        sim.run()
        assert mirror.value == 5

    def test_trigger_pending_source_raises(self, sim):
        source = sim.event()
        mirror = sim.event()
        with pytest.raises(RuntimeError):
            mirror.trigger(source)
