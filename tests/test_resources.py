"""Unit tests for Store / Resource / Mailbox synchronisation primitives."""

import pytest

from repro.simnet.kernel import Simulator
from repro.simnet.resources import Mailbox, Resource, Store


@pytest.fixture
def sim():
    return Simulator()


class TestStore:
    def test_put_then_get(self, sim):
        store = Store(sim)

        def consumer():
            item = yield store.get()
            return item

        store.put("hello")
        proc = sim.process(consumer())
        assert sim.run(until=proc) == "hello"

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)
        log = []

        def consumer():
            item = yield store.get()
            log.append((sim.now, item))

        def producer():
            yield sim.timeout(4.0)
            store.put("late")

        sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert log == [(4.0, "late")]

    def test_fifo_order(self, sim):
        store = Store(sim)
        for i in range(5):
            store.put(i)
        results = []

        def consumer():
            for _ in range(5):
                item = yield store.get()
                results.append(item)

        proc = sim.process(consumer())
        sim.run(until=proc)
        assert results == [0, 1, 2, 3, 4]

    def test_put_event_is_triggered_when_put_returns(self, sim):
        store = Store(sim)
        first = store.put("a")
        assert first.triggered and first.item == "a"
        # A put never waits, however much is buffered.
        assert all(store.put(i).triggered for i in range(100))
        assert len(store) == 101

    def test_no_waiter_queue_until_a_get_waits(self, sim):
        store = Store(sim)
        store.put("a")
        store.get()  # served from the buffer: nothing waits
        assert store._getters is None
        waiting = store.get()
        assert not waiting.triggered
        assert list(store._getters) == [waiting]

    def test_predicate_get_skips_nonmatching(self, sim):
        store = Store(sim)
        store.put({"k": 1})
        store.put({"k": 2})

        def consumer():
            item = yield store.get(lambda x: x["k"] == 2)
            return item

        proc = sim.process(consumer())
        assert sim.run(until=proc) == {"k": 2}
        assert len(store) == 1  # non-matching item remains

    def test_predicate_get_waits_for_match(self, sim):
        store = Store(sim)
        store.put("no")
        got = []

        def consumer():
            item = yield store.get(lambda x: x == "yes")
            got.append((sim.now, item))

        def producer():
            yield sim.timeout(2.0)
            store.put("yes")

        sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert got == [(2.0, "yes")]

    def test_multiple_getters_served_in_order(self, sim):
        store = Store(sim)
        results = []

        def consumer(tag):
            item = yield store.get()
            results.append((tag, item))

        sim.process(consumer("first"))
        sim.process(consumer("second"))

        def producer():
            yield sim.timeout(1.0)
            store.put("x")
            store.put("y")

        sim.process(producer())
        sim.run()
        assert results == [("first", "x"), ("second", "y")]


class TestResource:
    def test_capacity_one_serialises(self, sim):
        res = Resource(sim, capacity=1)
        log = []

        def worker(tag):
            req = res.request()
            yield req
            log.append((f"{tag}-start", sim.now))
            yield sim.timeout(2.0)
            res.release(req)
            log.append((f"{tag}-end", sim.now))

        sim.process(worker("a"))
        sim.process(worker("b"))
        sim.run()
        assert log == [
            ("a-start", 0.0),
            ("a-end", 2.0),
            ("b-start", 2.0),
            ("b-end", 4.0),
        ]

    def test_capacity_two_parallel(self, sim):
        res = Resource(sim, capacity=2)
        ends = []

        def worker():
            req = res.request()
            yield req
            yield sim.timeout(1.0)
            res.release(req)
            ends.append(sim.now)

        for _ in range(2):
            sim.process(worker())
        sim.run()
        assert ends == [1.0, 1.0]

    def test_count_and_queued(self, sim):
        res = Resource(sim, capacity=1)
        r1 = res.request()
        r2 = res.request()
        assert res.count == 1
        assert res.queued == 1
        res.release(r1)
        assert res.count == 1  # r2 promoted
        assert res.queued == 0
        res.release(r2)
        assert res.count == 0

    def test_release_unknown_raises(self, sim):
        res = Resource(sim)
        with pytest.raises(ValueError):
            res.release(sim.event())

    def test_release_queued_request_cancels(self, sim):
        res = Resource(sim, capacity=1)
        r1 = res.request()
        r2 = res.request()
        res.release(r2)  # cancel while queued
        assert res.queued == 0
        assert res.count == 1
        res.release(r1)

    def test_invalid_capacity(self, sim):
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)


class TestMailbox:
    def test_receive_by_subject(self, sim):
        box = Mailbox(sim)

        class Msg:
            def __init__(self, subject):
                self.subject = subject

        box.put(Msg("spam"))
        box.put(Msg("important"))

        def consumer():
            msg = yield box.receive("important")
            return msg.subject

        proc = sim.process(consumer())
        assert sim.run(until=proc) == "important"
        assert len(box) == 1

    def test_receive_any(self, sim):
        box = Mailbox(sim)
        box.put("anything")

        def consumer():
            msg = yield box.receive()
            return msg

        proc = sim.process(consumer())
        assert sim.run(until=proc) == "anything"
