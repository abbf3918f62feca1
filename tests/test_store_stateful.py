"""Stateful property test: the simnet Store behaves as an unbounded FIFO
with predicate gets, against a deque model."""

from collections import deque
from itertools import count

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.simnet.kernel import Simulator
from repro.simnet.resources import Store


def _wants(parity, item) -> bool:
    """A getter's predicate in the model: ``None`` takes anything."""
    return parity is None or item % 2 == parity


class StoreMachine(RuleBasedStateMachine):
    """Puts and gets (plain, or for odd or even items) interleave; after
    every rule the simulator drains and the store must match the model: a
    deque of buffered items and the getters still waiting, in arrival
    order."""

    def __init__(self):
        super().__init__()
        self.sim = Simulator()
        self.store = Store(self.sim)
        self.model: deque = deque()  # items actually buffered
        self.waiting: list = []  # (getter id, parity) still waiting, in order
        self.received: dict = {}
        self.expected: dict = {}
        self.counter = 0
        self.getter_ids = count()

    @rule()
    def put(self):
        value = self.counter
        self.counter += 1
        assert self.store.put(value).triggered  # a put never waits
        # The first waiting getter, in arrival order, that wants it takes it.
        for idx, (getter, parity) in enumerate(self.waiting):
            if _wants(parity, value):
                del self.waiting[idx]
                self.expected[getter] = value
                break
        else:
            self.model.append(value)
        self.sim.run()

    @rule(parity=st.sampled_from([None, 0, 1]))
    def get(self, parity):
        getter = next(self.getter_ids)
        # A getter takes the oldest buffered item it wants, or waits.
        for idx, item in enumerate(self.model):
            if _wants(parity, item):
                del self.model[idx]
                self.expected[getter] = item
                break
        else:
            self.waiting.append((getter, parity))
        predicate = None if parity is None else (lambda item: _wants(parity, item))

        def consumer():
            self.received[getter] = yield self.store.get(predicate)

        self.sim.process(consumer())
        self.sim.run()

    @invariant()
    def buffered_matches_model(self):
        assert list(self.store.items) == list(self.model)

    @invariant()
    def received_in_fifo_order(self):
        assert self.received == self.expected

    @invariant()
    def waiting_getters_match_model(self):
        assert len(self.store._getters or ()) == len(self.waiting)
        # No waiting getter wants anything buffered.
        for get in self.store._getters or ():
            assert not any(
                get.predicate is None or get.predicate(item) for item in self.store.items
            )


TestStoreStateful = StoreMachine.TestCase
TestStoreStateful.settings = settings(
    max_examples=40, stateful_step_count=50, deadline=None
)
