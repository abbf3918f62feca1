"""XML serialisation.

Produces byte-stable output: attributes are written in insertion order and
formatting is deterministic, so Packed Information sizes (and therefore
transfer times) are reproducible across runs.
"""

from __future__ import annotations

from .dom import Element
from .escape import escape_attr, escape_text

__all__ = ["write", "write_bytes", "attr_text", "leaf_text", "XML_DECLARATION"]

XML_DECLARATION = '<?xml version="1.0" encoding="UTF-8"?>'


def attr_text(name: str, value: str) -> str:
    """One attribute as a start tag holds it: `` name="value"``, escaped."""
    return f' {name}="{escape_attr(value)}"'


def leaf_text(tag: str, attrs: str = "", text: str = "") -> str:
    """A childless element as text.

    ``attrs`` is the start tag's attributes, each from :func:`attr_text`, in
    document order; ``text`` is character data, escaped here.  An element
    without text is written ``<tag/>``.

    >>> leaf_text("t", attr_text("a", "<1>"), "x & y")
    '<t a="&lt;1&gt;">x &amp; y</t>'
    >>> leaf_text("t")
    '<t/>'
    """
    if text:
        return f"<{tag}{attrs}>{escape_text(text)}</{tag}>"
    return f"<{tag}{attrs}/>"


def _write_element(elem: Element, parts: list[str], indent: str, depth: int) -> None:
    pad = indent * depth if indent else ""
    attrs = "".join([attr_text(key, value) for key, value in elem.attrib.items()])
    if not len(elem):
        parts.append(pad + leaf_text(elem.tag, attrs, elem.text))
        return
    parts.append(f"{pad}<{elem.tag}{attrs}>")
    if elem.text:
        parts.append(escape_text(elem.text))
    for child in elem:
        if indent:
            parts.append("\n")
        _write_element(child, parts, indent, depth + 1)
        if child.tail:
            parts.append(escape_text(child.tail))
    if indent:
        parts.append(f"\n{pad}")
    parts.append(f"</{elem.tag}>")


def write(root: Element, declaration: bool = True, indent: str = "") -> str:
    """Serialise ``root`` to a string.

    Parameters
    ----------
    declaration:
        Prepend the XML declaration.
    indent:
        Pretty-print indentation unit (empty string = compact one-line
        output, the on-the-wire form).  Note: pretty-printing inserts
        whitespace text nodes, so compact form should be used whenever the
        document will be re-parsed and compared.
    """
    parts: list[str] = []
    if declaration:
        parts.append(XML_DECLARATION)
        parts.append("\n" if indent else "")
    _write_element(root, parts, indent, 0)
    return "".join(parts)


def write_bytes(root: Element, declaration: bool = True) -> bytes:
    """Compact UTF-8 wire form of the document."""
    return write(root, declaration=declaration, indent="").encode("utf-8")
