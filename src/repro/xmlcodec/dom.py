"""Minimal DOM: the tree representation shared by the writer and parser.

Modelled on kXML's small-footprint DOM: an :class:`Element` has a tag,
attributes, text, and child elements.  Mixed content is supported via
``text`` (content before the first child) and each child's ``tail`` (content
after that child) — the same model as :mod:`xml.etree`, which keeps the
structure compact.
"""

from __future__ import annotations

import re
from typing import Iterator, Optional

from .errors import XmlWriteError

__all__ = ["Element"]

# XML 1.0 Name production, ASCII subset (sufficient for the PI format).
_NAME_RE = re.compile(r"^[A-Za-z_:][A-Za-z0-9_:.\-]*$")


def _check_name(name: str, what: str) -> str:
    if not _NAME_RE.match(name):
        raise XmlWriteError(f"invalid {what} name {name!r}")
    return name


class Element:
    """An XML element.

    >>> root = Element("pi")
    >>> root.set("version", "1")
    >>> child = root.add("param", text="42")
    >>> root.find("param").text
    '42'
    """

    __slots__ = ("tag", "attrib", "text", "tail", "_children")

    def __init__(
        self,
        tag: str,
        attrib: Optional[dict[str, str]] = None,
        text: str = "",
    ) -> None:
        self.tag = _check_name(tag, "element")
        own: dict[str, str] = {}
        if attrib:
            for key, value in attrib.items():
                _check_name(key, "attribute")
                own[key] = value if type(value) is str else str(value)
        self.attrib = own
        self.text = text
        self.tail = ""
        self._children: list[Element] = []

    # -- attributes --------------------------------------------------------
    def set(self, key: str, value: str) -> "Element":
        """Set attribute ``key`` (values are coerced to str). Returns self."""
        _check_name(key, "attribute")
        self.attrib[key] = str(value)
        return self

    def get(self, key: str, default: Optional[str] = None) -> Optional[str]:
        return self.attrib.get(key, default)

    def require(self, key: str) -> str:
        """Attribute value, raising KeyError with context if missing."""
        try:
            return self.attrib[key]
        except KeyError:
            raise KeyError(f"<{self.tag}> missing attribute {key!r}") from None

    # -- children -----------------------------------------------------------
    def append(self, child: "Element") -> "Element":
        if not isinstance(child, Element):
            raise TypeError(f"children must be Elements, got {child!r}")
        self._children.append(child)
        return child

    def add(self, tag: str, attrib: Optional[dict[str, str]] = None, text: str = "") -> "Element":
        """Create, append, and return a child element."""
        return self.append(Element(tag, attrib, text))

    def remove(self, child: "Element") -> None:
        self._children.remove(child)

    def __len__(self) -> int:
        return len(self._children)

    def __iter__(self) -> Iterator["Element"]:
        return iter(self._children)

    def __getitem__(self, index: int) -> "Element":
        return self._children[index]

    def find(self, tag: str) -> Optional["Element"]:
        """First direct child with ``tag``, or None."""
        for child in self._children:
            if child.tag == tag:
                return child
        return None

    def findall(self, tag: str) -> list["Element"]:
        """All direct children with ``tag``."""
        return [c for c in self._children if c.tag == tag]

    def findtext(self, tag: str, default: str = "") -> str:
        """Text of the first direct child with ``tag``, or ``default``."""
        child = self.find(tag)
        return child.text if child is not None else default

    def require_child(self, tag: str) -> "Element":
        """First child with ``tag``, raising KeyError with context if absent."""
        child = self.find(tag)
        if child is None:
            raise KeyError(f"<{self.tag}> missing child <{tag}>")
        return child

    def iter(self, tag: Optional[str] = None) -> Iterator["Element"]:
        """Depth-first iteration over this element and all descendants."""
        if tag is None or self.tag == tag:
            yield self
        for child in self._children:
            yield from child.iter(tag)

    # -- comparison (structural) ------------------------------------------------
    def equals(self, other: "Element") -> bool:
        """Deep structural equality (tag, attributes, text, children)."""
        if not isinstance(other, Element):
            return False
        if (
            self.tag != other.tag
            or self.attrib != other.attrib
            or self.text != other.text
            or self.tail != other.tail
            or len(self) != len(other)
        ):
            return False
        return all(a.equals(b) for a, b in zip(self._children, other._children))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Element {self.tag!r} attrs={len(self.attrib)} children={len(self)}>"


def _parsed_element(tag: str, attrib: dict[str, str], text: str) -> Element:
    """An element as the parser builds it, without :func:`_check_name`.

    The parser's token patterns already held ``tag`` and every attribute
    name to the Name grammar, and ``attrib`` is a fresh dict of str values
    that the element may keep.
    """
    elem = object.__new__(Element)
    elem.tag = tag
    elem.attrib = attrib
    elem.text = text
    elem.tail = ""
    elem._children = []
    return elem
