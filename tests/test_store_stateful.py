"""Stateful property test: the simnet Store behaves as a FIFO with
capacity blocking, against a deque model."""

from collections import deque

from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.simnet.kernel import Simulator
from repro.simnet.resources import Store

CAPACITY = 5


class StoreMachine(RuleBasedStateMachine):
    """Puts and gets interleave; after every rule the simulator drains and
    the store must match a deque model with the same capacity semantics."""

    def __init__(self):
        super().__init__()
        self.sim = Simulator()
        self.store = Store(self.sim, capacity=CAPACITY)
        self.model: deque = deque()          # items actually buffered
        self.pending_puts: deque = deque()   # blocked put values, in order
        self.received: list = []
        self.expected: list = []
        self.counter = 0

    def _settle(self):
        self.sim.run()
        # promote blocked puts into the model as space allows (mirrors the
        # store's own dispatch)
        while self.pending_puts and len(self.model) < CAPACITY:
            self.model.append(self.pending_puts.popleft())

    @rule()
    def put(self):
        value = self.counter
        self.counter += 1
        self.store.put(value)
        if len(self.model) < CAPACITY:
            self.model.append(value)
        else:
            self.pending_puts.append(value)
        self._settle()

    @rule()
    def get(self):
        if self.model or self.pending_puts:
            # a consumer will definitely receive the oldest item
            if self.model:
                self.expected.append(self.model.popleft())
            else:
                self.expected.append(self.pending_puts.popleft())

            def consumer():
                item = yield self.store.get()
                self.received.append(item)

            self.sim.process(consumer())
            self._settle()

    @invariant()
    def buffered_matches_model(self):
        assert list(self.store.items) == list(self.model)

    @invariant()
    def received_in_fifo_order(self):
        assert self.received == self.expected

    @invariant()
    def capacity_never_exceeded(self):
        assert len(self.store) <= CAPACITY


TestStoreStateful = StoreMachine.TestCase
TestStoreStateful.settings = settings(
    max_examples=40, stateful_step_count=50, deadline=None
)
