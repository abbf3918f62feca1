"""Minimal XML codec — the reproduction's kXML substitute.

PDAgent encodes all device↔gateway traffic ("Packed Information", results,
code downloads) as XML for interoperability.  The prototype used kXML, a
~small-footprint J2ME XML API; this package provides the equivalent:
a tiny DOM (:class:`Element`), a deterministic writer, and a strict parser.
Documents built as text rather than as a DOM use the writer's element
helpers, :func:`attr_text` and :func:`leaf_text`, so one module owns how an
element is written.

>>> from repro.xmlcodec import Element, write, parse
>>> doc = Element("pi", {"version": "1"})
>>> _ = doc.add("param", {"name": "amount"}, text="250")
>>> parse(write(doc)).find("param").text
'250'
"""

from .dom import Element
from .errors import XmlError, XmlParseError, XmlWriteError
from .escape import escape_attr, escape_text, unescape
from .parser import parse, parse_bytes
from .writer import XML_DECLARATION, attr_text, leaf_text, write, write_bytes

__all__ = [
    "Element",
    "XmlError",
    "XmlParseError",
    "XmlWriteError",
    "escape_text",
    "escape_attr",
    "unescape",
    "parse",
    "parse_bytes",
    "write",
    "write_bytes",
    "attr_text",
    "leaf_text",
    "XML_DECLARATION",
]
