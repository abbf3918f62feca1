"""Packed Information (PI): the device → gateway dispatch package (§3.2).

The Agent Dispatcher "collect[s] the agent code and parameters, generate[s]
a unique key from the assigned code id, encode[s] them into a XML document,
and pass[es] it on as a single package".  The full pipeline is::

    PIContent → XML → compress(codec) → protect(encrypt | md5-tag) → bytes

:func:`write_pi` / :func:`pi_from_xml` are the XML step and its inverse;
:func:`pack` / :func:`unpack` run the pipeline and its inverse; the sizes at
each stage are reported so experiments can account CPU and transfer costs
against real byte counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..compressor import compress, decompress
from ..xmlcodec import XML_DECLARATION, Element, attr_text, leaf_text, parse_bytes
from ..mas.itinerary import Itinerary
from ..mas.serializer import typed_xml, value_from_xml
from .config import PDAgentConfig
from .errors import DeploymentError
from .security import DeviceSecurity, GatewaySecurity

__all__ = ["PIContent", "PackedInfo", "pack", "unpack", "write_pi", "pi_from_xml"]


@dataclass
class PIContent:
    """The logical content of a Packed Information document."""

    code_id: str
    device_id: str
    service: str
    agent_class: str
    dispatch_key: str
    nonce: str
    params: dict[str, Any] = field(default_factory=dict)
    itinerary: Optional[Itinerary] = None
    code_body: str = ""
    #: Idempotency key: one id per *logical* device task, stable across
    #: upload retries and re-packs, so the gateway can dedup a retried PI
    #: whose first response was lost instead of dispatching a second agent.
    #: Empty = legacy client without exactly-once semantics.
    task_id: str = ""
    # Telemetry correlation: the trace this dispatch belongs to and the
    # device-side span it should parent under.  Optional — an empty trace_id
    # means the task is untraced and the gateway starts no linked spans.
    trace_id: str = ""
    trace_parent: str = ""
    #: Absolute sim-time bound on the task's useful life.  A gateway must
    #: refuse to dispatch an agent whose deadline already passed (the
    #: queue, an admission shed, or a retry loop may have eaten it).
    #: 0.0 = no deadline (legacy client).
    deadline: float = 0.0

    def __post_init__(self) -> None:
        for name, value in (
            ("code_id", self.code_id),
            ("device_id", self.device_id),
            ("agent_class", self.agent_class),
            ("dispatch_key", self.dispatch_key),
        ):
            if not value:
                raise DeploymentError(f"PI field {name!r} must be non-empty")


@dataclass(frozen=True)
class PackedInfo:
    """The wire package plus stage-by-stage size accounting."""

    data: bytes
    xml_size: int
    compressed_size: int
    wire_size: int

    @property
    def compression_gain(self) -> float:
        """Fraction of XML bytes removed by compression."""
        if self.xml_size == 0:
            return 0.0
        return 1.0 - self.compressed_size / self.xml_size


_PI_START = f"{XML_DECLARATION}<pi{attr_text('version', '1')}>"


def write_pi(content: PIContent) -> bytes:
    """Encode PI content as the interoperable XML document (UTF-8)."""
    parts = [
        _PI_START,
        leaf_text("codeid", "", content.code_id),
        leaf_text("device", "", content.device_id),
        leaf_text("service", "", content.service),
        leaf_text("class", "", content.agent_class),
        leaf_text("key", "", content.dispatch_key),
        leaf_text("nonce", "", content.nonce),
    ]
    if content.task_id:
        parts.append(leaf_text("task", "", content.task_id))
    if content.deadline > 0:
        parts.append(leaf_text("deadline", "", repr(content.deadline)))
    parts.append(typed_xml(content.params, "params"))
    if content.itinerary is not None:
        parts.append(typed_xml(content.itinerary.to_dict(), "itinerary"))
    if content.trace_id:
        ids = attr_text("id", content.trace_id) + attr_text("parent", content.trace_parent)
        parts.append(leaf_text("trace", ids))
    size = attr_text("size", str(len(content.code_body)))
    parts += (leaf_text("code", size, content.code_body), "</pi>")
    return "".join(parts).encode("utf-8")


def pi_from_xml(root: Element) -> PIContent:
    """Decode the XML document back to PI content."""
    if root.tag != "pi":
        raise DeploymentError(f"expected <pi>, got <{root.tag}>")
    itinerary_elem = root.find("itinerary")
    trace_elem = root.find("trace")
    params = value_from_xml(root.require_child("params"))
    if not isinstance(params, dict):
        raise DeploymentError("<params> did not decode to a dict")
    return PIContent(
        code_id=root.require_child("codeid").text,
        device_id=root.require_child("device").text,
        service=root.findtext("service"),
        agent_class=root.require_child("class").text,
        dispatch_key=root.require_child("key").text,
        nonce=root.findtext("nonce"),
        params=params,
        itinerary=(
            Itinerary.from_dict(value_from_xml(itinerary_elem))
            if itinerary_elem is not None
            else None
        ),
        code_body=root.findtext("code"),
        task_id=root.findtext("task"),
        deadline=float(root.findtext("deadline") or 0.0),
        trace_id=trace_elem.get("id", "") if trace_elem is not None else "",
        trace_parent=trace_elem.get("parent", "") if trace_elem is not None else "",
    )


def pack(
    content: PIContent,
    config: PDAgentConfig,
    security: DeviceSecurity,
    gateway: str,
) -> PackedInfo:
    """Run the device-side packing pipeline for ``gateway``."""
    xml_bytes = write_pi(content)
    compressed = compress(xml_bytes, config.codec)
    wire = security.protect(compressed, gateway)
    return PackedInfo(
        data=wire,
        xml_size=len(xml_bytes),
        compressed_size=len(compressed),
        wire_size=len(wire),
    )


def unpack(frame: bytes, security: GatewaySecurity) -> PIContent:
    """Gateway-side inverse: verify, decrypt, decompress, parse."""
    compressed = security.unprotect(frame)
    xml_bytes = decompress(compressed)
    return pi_from_xml(parse_bytes(xml_bytes))
