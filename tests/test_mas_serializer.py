"""Tests for agent serialization: typed values, state, travelling form."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mas import (
    Itinerary,
    MigrationError,
    MobileAgent,
    Stop,
    deserialize_agent,
    serialize_agent,
    state_from_xml,
    typed_xml,
    value_from_xml,
)
from repro.xmlcodec import parse


def roundtrip(value):
    return value_from_xml(parse(typed_xml(value)))


class TestTypedValues:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -17,
            2**63,
            0.5,
            -1.25e10,
            "",
            "hello world",
            "<escaped & tricky>",
            b"",
            b"\x00\xff\x10",
            [],
            [1, "two", None],
            {},
            {"k": 1, "nested": {"a": [True, b"\x01"]}},
        ],
    )
    def test_roundtrip(self, value):
        assert roundtrip(value) == value

    def test_bool_not_confused_with_int(self):
        assert roundtrip(True) is True
        assert roundtrip(1) == 1
        assert not isinstance(roundtrip(1), bool)

    def test_tuple_becomes_list(self):
        assert roundtrip((1, 2)) == [1, 2]

    def test_non_string_dict_key_raises(self):
        with pytest.raises(TypeError):
            typed_xml({1: "x"})

    def test_unserialisable_type_raises(self):
        with pytest.raises(TypeError):
            typed_xml(object())

    def test_bad_type_attribute_raises(self):
        elem = parse(typed_xml(5))
        elem.set("type", "alien")
        with pytest.raises(ValueError):
            value_from_xml(elem)

    def test_state_must_be_dict(self):
        agent = _Courier("a/1", "o", "h")
        agent.state = [1, 2]
        with pytest.raises(TypeError):
            serialize_agent(agent)
        with pytest.raises(ValueError):
            state_from_xml(parse(typed_xml([1, 2], "state")))


_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**40), max_value=2**40)
    | st.floats(allow_nan=False, allow_infinity=False, width=32)
    | st.text(max_size=20)
    | st.binary(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


class TestValueProperties:
    @given(_json_values)
    @settings(max_examples=150, deadline=None)
    def test_roundtrip_property(self, value):
        assert roundtrip(value) == value


class _Courier(MobileAgent):
    code_size = 1500


class TestAgentWireForm:
    def make_agent(self):
        return _Courier(
            agent_id="gw/agent-9",
            owner="pda-1",
            home="gw",
            itinerary=Itinerary(
                origin="gw", stops=[Stop("a", "t1"), Stop("b")], cursor=1
            ),
            state={"params": {"x": 1}, "results": ["r1"]},
        )

    def test_roundtrip(self):
        agent = self.make_agent()
        agent.hops = 2
        snap = deserialize_agent(serialize_agent(agent))
        assert snap.agent_id == "gw/agent-9"
        assert snap.class_name == "_Courier"
        assert snap.owner == "pda-1"
        assert snap.home == "gw"
        assert snap.hops == 2
        assert snap.code_size == 1500
        assert snap.state == {"params": {"x": 1}, "results": ["r1"]}
        assert snap.itinerary.cursor == 1
        assert [s.address for s in snap.itinerary.stops] == ["a", "b"]
        assert snap.itinerary.stops[0].task == "t1"

    def test_wire_size_reflects_code_size(self):
        small = _Courier("a/1", "o", "h")
        small.code_size = 1000
        big = _Courier("a/2", "o", "h")
        big.code_size = 8000
        assert len(serialize_agent(big)) - len(serialize_agent(small)) >= 6500

    def test_corrupt_wire_raises_migration_error(self):
        with pytest.raises(MigrationError):
            deserialize_agent(b"not xml at all")

    def test_wrong_root_raises(self):
        with pytest.raises(MigrationError):
            deserialize_agent(b"<notagent/>")

    def test_missing_field_raises(self):
        agent = self.make_agent()
        data = serialize_agent(agent).replace(b"<owner>pda-1</owner>", b"")
        # owner is optional (findtext); drop a required one instead
        data = data.replace(b"<class>_Courier</class>", b"")
        with pytest.raises(MigrationError):
            deserialize_agent(data)


class TestItinerary:
    def test_navigation(self):
        it = Itinerary(origin="gw", stops=[Stop("a"), Stop("b")])
        assert not it.exhausted
        assert it.next_stop().address == "a"
        it.advance()
        assert it.next_stop().address == "b"
        it.advance()
        assert it.exhausted
        assert it.next_stop() is None
        with pytest.raises(IndexError):
            it.advance()

    def test_visited_remaining(self):
        it = Itinerary(origin="gw", stops=[Stop("a"), Stop("b"), Stop("c")], cursor=1)
        assert [s.address for s in it.visited()] == ["a"]
        assert [s.address for s in it.remaining()] == ["b", "c"]

    def test_append_and_insert_next(self):
        it = Itinerary(origin="gw", stops=[Stop("a")])
        it.advance()
        it.append(Stop("z"))
        assert it.next_stop().address == "z"
        it.insert_next(Stop("y"))
        assert it.next_stop().address == "y"

    def test_dict_roundtrip(self):
        it = Itinerary(origin="gw", stops=[Stop("a", "task")], cursor=1)
        assert Itinerary.from_dict(it.to_dict()).to_dict() == it.to_dict()

    def test_validation(self):
        with pytest.raises(ValueError):
            Itinerary(origin="")
        with pytest.raises(ValueError):
            Itinerary(origin="gw", stops=[], cursor=5)


_stops = st.lists(
    st.builds(
        Stop,
        address=st.text(
            st.characters(codec="utf-8", exclude_characters="\x00"),
            min_size=1, max_size=12,
        ),
        task=st.text(max_size=8),
    ),
    max_size=6,
)


class TestItineraryProperties:
    @settings(max_examples=100, deadline=None)
    @given(stops=_stops, data=st.data())
    def test_dict_round_trip_preserves_stops_and_cursor(self, stops, data):
        cursor = data.draw(st.integers(min_value=0, max_value=len(stops)))
        it = Itinerary(origin="gw", stops=stops, cursor=cursor)
        back = Itinerary.from_dict(it.to_dict())
        assert back.origin == it.origin
        assert back.cursor == it.cursor
        assert back.stops == it.stops
        assert [s.address for s in back.remaining()] == [
            s.address for s in it.remaining()
        ]

    @settings(max_examples=50, deadline=None)
    @given(
        address=st.text(min_size=1, max_size=20),
        task=st.text(max_size=20),
    )
    def test_stop_dict_round_trip(self, address, task):
        stop = Stop(address=address, task=task)
        assert Stop.from_dict(stop.to_dict()) == stop
