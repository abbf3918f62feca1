"""Agent serialisation: typed XML state encoding and the agent wire format.

Two layers:

* :func:`typed_xml` / :func:`value_from_xml` — a typed XML encoding of
  plain Python data (str/int/float/bool/None/bytes/list/dict).  This is the
  interoperable "standard MA code format … specified using XML" the paper
  advocates: any MAS adapter can read it.  Values are written straight to
  text and read back through the DOM.
* :func:`serialize_agent` / :func:`deserialize_agent` — the full travelling
  form of an agent: class name, identity, itinerary, and state dict, plus a
  synthetic code payload sized like the real class files (so transfer-time
  accounting reflects realistic agent sizes — the paper cites 1–8 KB).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..telemetry.spans import SpanContext
from ..xmlcodec import XML_DECLARATION, Element, attr_text, leaf_text, parse_bytes
from .errors import MigrationError
from .itinerary import Itinerary

if TYPE_CHECKING:  # pragma: no cover
    from .agent import MobileAgent

__all__ = [
    "typed_xml",
    "value_from_xml",
    "state_from_xml",
    "serialize_agent",
    "deserialize_agent",
    "AgentSnapshot",
]

_NONE, _BOOL, _INT, _FLOAT, _STR, _BYTES, _LIST, _DICT = (
    attr_text("type", kind)
    for kind in ("none", "bool", "int", "float", "str", "bytes", "list", "dict")
)
_AGENT_START = f"{XML_DECLARATION}<agent{attr_text('version', '1')}>"


def typed_xml(value: Any, tag: str = "value") -> str:
    """``value`` in the typed encoding, as the text of one element ``tag``.

    >>> typed_xml({"n": 1})
    '<value type="dict"><entry type="int" key="n">1</entry></value>'
    >>> typed_xml(["<", b""], "v")
    '<v type="list"><item type="str">&lt;</item><item type="bytes"/></v>'
    """
    parts: list[str] = []
    _write_value(value, tag, "", parts)
    return "".join(parts)


def _write_value(value: Any, tag: str, key: str, parts: list[str]) -> None:
    """Append ``value`` as element ``tag``; ``key`` is its ``key`` attribute
    text when it is a dict entry.  Types are tested in order of frequency;
    only ``bool`` must come before its base class ``int``."""
    if isinstance(value, str):
        parts.append(leaf_text(tag, _STR + key, value))
    elif isinstance(value, dict):
        if not value:
            parts.append(leaf_text(tag, _DICT + key))
            return
        parts.append(f"<{tag}{_DICT}{key}>")
        for name, item in value.items():
            if not isinstance(name, str):
                raise TypeError(f"dict keys must be str, got {name!r}")
            _write_value(item, "entry", attr_text("key", name), parts)
        parts.append(f"</{tag}>")
    elif isinstance(value, float):
        parts.append(leaf_text(tag, _FLOAT + key, repr(value)))
    elif isinstance(value, bool):
        parts.append(leaf_text(tag, _BOOL + key, "true" if value else "false"))
    elif isinstance(value, int):
        parts.append(leaf_text(tag, _INT + key, repr(value)))
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append(leaf_text(tag, _LIST + key))
            return
        parts.append(f"<{tag}{_LIST}{key}>")
        for item in value:
            _write_value(item, "item", "", parts)
        parts.append(f"</{tag}>")
    elif value is None:
        parts.append(leaf_text(tag, _NONE + key))
    elif isinstance(value, (bytes, bytearray)):
        parts.append(leaf_text(tag, _BYTES + key, bytes(value).hex()))
    else:
        raise TypeError(f"cannot serialise {type(value).__name__}: {value!r}")


def value_from_xml(elem: Element) -> Any:
    """Inverse of :func:`typed_xml`, from the parsed element."""
    kind = elem.require("type")
    if kind == "none":
        return None
    if kind == "bool":
        if elem.text not in ("true", "false"):
            raise ValueError(f"bad bool literal {elem.text!r}")
        return elem.text == "true"
    if kind == "int":
        return int(elem.text)
    if kind == "float":
        return float(elem.text)
    if kind == "str":
        return elem.text
    if kind == "bytes":
        return bytes.fromhex(elem.text)
    if kind == "list":
        return [value_from_xml(child) for child in elem]
    if kind == "dict":
        return {child.require("key"): value_from_xml(child) for child in elem}
    raise ValueError(f"unknown value type {kind!r}")


def state_from_xml(elem: Element) -> dict[str, Any]:
    value = value_from_xml(elem)
    if not isinstance(value, dict):
        raise ValueError("state element did not decode to a dict")
    return value


class AgentSnapshot:
    """A deserialised travelling agent, not yet re-instantiated.

    The hosting server turns a snapshot back into a live agent by looking up
    ``class_name`` in its class registry.
    """

    __slots__ = (
        "agent_id",
        "class_name",
        "owner",
        "home",
        "state",
        "itinerary",
        "hops",
        "code_size",
        "trace",
    )

    def __init__(
        self,
        agent_id: str,
        class_name: str,
        owner: str,
        home: str,
        state: dict[str, Any],
        itinerary: Itinerary,
        hops: int,
        code_size: int,
        trace: "SpanContext | None" = None,
    ) -> None:
        self.agent_id = agent_id
        self.class_name = class_name
        self.owner = owner
        self.home = home
        self.state = state
        self.itinerary = itinerary
        self.hops = hops
        self.code_size = code_size
        self.trace = trace


def serialize_agent(agent: "MobileAgent") -> bytes:
    """The agent's travelling wire form (XML bytes).

    The document embeds a ``<code>`` element whose declared ``size``
    inflates the wire size to the agent class's nominal code size —
    mobile-agent systems ship code with state, and the transfer cost must
    reflect that.
    """
    if not isinstance(agent.state, dict):
        raise TypeError("agent state must be a dict")
    parts = [
        _AGENT_START,
        leaf_text("id", "", agent.agent_id),
        leaf_text("class", "", agent.class_name),
        leaf_text("owner", "", agent.owner),
        leaf_text("home", "", agent.home),
        leaf_text("hops", "", str(agent.hops)),
    ]
    _write_value(agent.itinerary.to_dict(), "itinerary", "", parts)
    _write_value(agent.state, "state", "", parts)
    trace = agent.trace_ctx
    if trace is not None:
        ids = attr_text("tid", trace.trace_id) + attr_text("sid", trace.span_id)
        parts.append(leaf_text("trace", ids))
    # Synthetic payload standing in for class files: deterministic,
    # semi-compressible filler derived from the class name.
    filler_unit = (agent.class_name + ":bytecode;") or "x"
    reps = max(0, agent.code_size) // len(filler_unit) + 1
    code = (filler_unit * reps)[: agent.code_size]
    parts += (leaf_text("code", attr_text("size", str(agent.code_size)), code), "</agent>")
    return "".join(parts).encode("utf-8")


def deserialize_agent(data: bytes) -> AgentSnapshot:
    """Parse a travelling agent; raises MigrationError on damage."""
    try:
        root = parse_bytes(data)
        if root.tag != "agent":
            raise ValueError(f"root is <{root.tag}>, expected <agent>")
        itinerary = Itinerary.from_dict(
            value_from_xml(root.require_child("itinerary"))
        )
        code = root.require_child("code")
        trace_elem = root.find("trace")
        trace = (
            SpanContext(trace_elem.require("tid"), trace_elem.get("sid", ""))
            if trace_elem is not None
            else None
        )
        return AgentSnapshot(
            agent_id=root.require_child("id").text,
            class_name=root.require_child("class").text,
            owner=root.findtext("owner"),
            home=root.findtext("home"),
            state=state_from_xml(root.require_child("state")),
            itinerary=itinerary,
            hops=int(root.findtext("hops", "0")),
            code_size=int(code.require("size")),
            trace=trace,
        )
    except MigrationError:
        raise
    except Exception as exc:
        raise MigrationError(f"corrupt agent wire form: {exc}") from exc
