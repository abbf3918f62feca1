"""Tests for named, seeded random streams (reproducibility backbone)."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simnet.rng import StreamFactory, _derive_seed
from repro.simtest.invariants import check_rng_isolation


class TestStreamFactory:
    def test_same_name_same_stream(self):
        streams = StreamFactory(42)
        assert streams.get("a") is streams.get("a")

    def test_different_names_different_draws(self):
        streams = StreamFactory(42)
        a = [streams.get("a").uniform() for _ in range(10)]
        b = [streams.get("b").uniform() for _ in range(10)]
        assert a != b

    def test_same_seed_reproduces(self):
        draws1 = [StreamFactory(7).get("x").uniform() for _ in range(1)]
        draws2 = [StreamFactory(7).get("x").uniform() for _ in range(1)]
        assert draws1 == draws2

    def test_different_seeds_differ(self):
        a = StreamFactory(1).get("x").uniform()
        b = StreamFactory(2).get("x").uniform()
        assert a != b

    def test_stream_independence_on_creation_order(self):
        # Adding a new consumer must not perturb existing streams.
        f1 = StreamFactory(9)
        f1.get("noise").uniform()
        v1 = f1.get("target").uniform()

        f2 = StreamFactory(9)
        v2 = f2.get("target").uniform()
        assert v1 == v2

    def test_len_and_iter(self):
        streams = StreamFactory(0)
        streams.get("a")
        streams.get("b")
        assert len(streams) == 2
        assert {s.name for s in streams} == {"a", "b"}


class TestDistributions:
    @pytest.fixture
    def stream(self):
        return StreamFactory(123).get("test")

    def test_uniform_bounds(self, stream):
        for _ in range(200):
            v = stream.uniform(2.0, 3.0)
            assert 2.0 <= v < 3.0

    def test_exponential_nonnegative(self, stream):
        assert all(stream.exponential(0.5) >= 0 for _ in range(200))

    def test_exponential_zero_mean(self, stream):
        assert stream.exponential(0.0) == 0.0

    def test_exponential_negative_mean_raises(self, stream):
        with pytest.raises(ValueError):
            stream.exponential(-1.0)

    def test_exponential_mean_roughly_right(self, stream):
        n = 5000
        mean = sum(stream.exponential(2.0) for _ in range(n)) / n
        assert 1.8 < mean < 2.2

    def test_bernoulli_bounds(self, stream):
        with pytest.raises(ValueError):
            stream.bernoulli(1.5)
        with pytest.raises(ValueError):
            stream.bernoulli(-0.1)

    def test_bernoulli_degenerate(self, stream):
        assert stream.bernoulli(0.0) is False
        assert stream.bernoulli(1.0) is True

    def test_bernoulli_rate(self, stream):
        n = 5000
        hits = sum(stream.bernoulli(0.3) for _ in range(n))
        assert 0.25 < hits / n < 0.35

    def test_randint_inclusive(self, stream):
        values = {stream.randint(1, 3) for _ in range(300)}
        assert values == {1, 2, 3}

    def test_choice_empty_raises(self, stream):
        with pytest.raises(ValueError):
            stream.choice([])

    def test_choice_member(self, stream):
        seq = ["a", "b", "c"]
        assert stream.choice(seq) in seq

    def test_bytes_length(self, stream):
        assert len(stream.bytes(16)) == 16

    def test_pareto_minimum(self, stream):
        assert all(stream.pareto(2.0, scale=5.0) >= 5.0 for _ in range(200))

    def test_shuffle_preserves_elements(self, stream):
        seq = list(range(20))
        shuffled = list(seq)
        stream.shuffle(shuffled)
        assert sorted(shuffled) == seq

    def test_returns_python_floats(self, stream):
        assert type(stream.uniform()) is float
        assert type(stream.exponential(1.0)) is float
        assert type(stream.normal(0, 1)) is float
        assert type(stream.randint(0, 5)) is int


def _shuffled(shuffle) -> list:
    seq = list(range(8))
    shuffle(seq)
    return seq


#: Every distribution, drawn through a Stream and straight from numpy.
DRAWS = {
    "uniform": (lambda s: s.uniform(-1.0, 2.0), lambda g: float(g.uniform(-1.0, 2.0))),
    "exponential": (lambda s: s.exponential(0.5), lambda g: float(g.exponential(0.5))),
    "normal": (lambda s: s.normal(1.0, 2.0), lambda g: float(g.normal(1.0, 2.0))),
    "lognormal": (lambda s: s.lognormal(0.0, 0.5), lambda g: float(g.lognormal(0.0, 0.5))),
    "pareto": (lambda s: s.pareto(2.0, 3.0), lambda g: float(3.0 * (1.0 + g.pareto(2.0)))),
    "bernoulli": (lambda s: s.bernoulli(0.3), lambda g: bool(g.random() < 0.3)),
    "randint": (lambda s: s.randint(1, 6), lambda g: int(g.integers(1, 7))),
    "choice": (lambda s: s.choice("abcde"), lambda g: "abcde"[int(g.integers(0, 5))]),
    "shuffle": (lambda s: _shuffled(s.shuffle), lambda g: _shuffled(g.shuffle)),
    "bytes": (lambda s: s.bytes(5), lambda g: g.bytes(5)),
}
NAMES = ["link:a->b:jitter", "crypto:dev-1", "retry:dev-1"]
#: One step: ``get(name)`` alone (``None``) or one draw of a distribution.
STEPS = st.lists(
    st.tuples(st.sampled_from(NAMES), st.sampled_from([None, *DRAWS])), max_size=40
)


class TestLazyGenerator:
    @settings(max_examples=60, deadline=None)
    @given(master=st.integers(0, 2**32), steps=STEPS)
    def test_lazy_streams_draw_what_eager_generators_draw(self, master, steps):
        """A stream's generator is built at its first draw, yet every value
        equals a draw from a generator built up front from the derived
        seed: when the generator is built cannot move a draw."""
        streams = StreamFactory(master)
        eager = {name: np.random.default_rng(_derive_seed(master, name)) for name in NAMES}
        for name, kind in steps:
            stream = streams.get(name)
            if kind is None:
                continue
            draw, reference = DRAWS[kind]
            assert draw(stream) == reference(eager[name])

    def test_undrawn_stream_holds_no_generator(self):
        streams = StreamFactory(5)
        stream = streams.get("retry:dev-1")
        assert stream._gen is None
        # Degenerate draws are answered without the generator.
        assert stream.exponential(0.0) == 0.0
        assert stream.bernoulli(1.0) is True
        assert stream._gen is None
        stream.uniform()
        assert stream._gen is not None

    def test_rng_isolation_holds_for_drawn_and_undrawn_streams(self):
        streams = StreamFactory(11)
        for name in NAMES:
            streams.get(name)
        streams.get(NAMES[0]).uniform()
        assert [s._gen is None for s in streams] == [False, True, True]
        ctx = SimpleNamespace(deployment=SimpleNamespace(network=SimpleNamespace(streams=streams)))
        assert list(check_rng_isolation(ctx)) == []
