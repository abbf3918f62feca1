"""Iterative XML parser (kXML-substitute).

Supports the subset PDAgent's interoperability format needs — elements,
attributes (single- or double-quoted), character data with the predefined
entities and numeric character references, comments, CDATA sections,
processing instructions, and the XML declaration.  DTDs are recognised and
skipped (kXML parsed but did not validate them either).

The parser is strict where it matters for a wire format: mismatched tags,
unterminated constructs, duplicate attributes, trailing garbage and nesting
deeper than :data:`MAX_DEPTH` all raise
:class:`~repro.xmlcodec.errors.XmlParseError` with a position.

One loop reads the document token by token, keeping the open elements on a
stack, so no input can exhaust the interpreter's recursion limit.
"""

from __future__ import annotations

import re

from .dom import Element, _parsed_element
from .errors import XmlParseError
from .escape import unescape

__all__ = ["parse", "parse_bytes", "MAX_DEPTH"]

#: Deepest element nesting a document may have.  The platform's documents
#: nest at most 6 levels; the typed value decoder and the writers recurse
#: once per level, so deeper input is refused here as malformed.
MAX_DEPTH = 64

_NAME = r"[A-Za-z_:][A-Za-z0-9_:.\-]*"
_NAME_RE = re.compile(_NAME)
_WS = " \t\r\n"

# The common shape of the next token, matched in one C-level pass: the
# character data up to the next "<", then an end tag, or a start tag with
# quoted attributes that may close at once ("/>") or, for a leaf element,
# after its text ("<t a='v'>text</t>").  Anything else at that "<" (comments,
# CDATA, stray characters, unquoted values, "<" in a value) is read by the
# strict scanner below, which produces the precise error.
_TOKEN_RE = re.compile(
    rf"([^<]*)<(?:/({_NAME})[ \t\r\n]*>|({_NAME})"
    rf"((?:[ \t\r\n]+{_NAME}[ \t\r\n]*=[ \t\r\n]*(?:\"[^\"<]*\"|'[^'<]*'))*)"
    r"[ \t\r\n]*(?:(/)>|>(?:([^<]*)</\3[ \t\r\n]*>)?))"
)
_ATTR_ITEM_RE = re.compile(
    rf"[ \t\r\n]+({_NAME})[ \t\r\n]*=[ \t\r\n]*(?:\"([^\"<]*)\"|'([^'<]*)')"
)


class _Cursor:
    """Scanning state over the input string."""

    __slots__ = ("text", "pos")

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    @property
    def eof(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self, n: int = 1) -> str:
        return self.text[self.pos : self.pos + n]

    def startswith(self, token: str) -> bool:
        return self.text.startswith(token, self.pos)

    def advance(self, n: int) -> None:
        self.pos += n

    def skip_ws(self) -> None:
        text, pos, n = self.text, self.pos, len(self.text)
        while pos < n and text[pos] in _WS:
            pos += 1
        self.pos = pos

    def expect(self, token: str) -> None:
        if not self.startswith(token):
            raise XmlParseError(f"expected {token!r}", self.pos)
        self.pos += len(token)

    def read_until(self, token: str, what: str) -> str:
        end = self.text.find(token, self.pos)
        if end == -1:
            raise XmlParseError(f"unterminated {what}", self.pos)
        out = self.text[self.pos : end]
        self.pos = end + len(token)
        return out

    def read_name(self, what: str) -> str:
        match = _NAME_RE.match(self.text, self.pos)
        if not match:
            raise XmlParseError(f"expected {what} name", self.pos)
        self.pos = match.end()
        return match.group()


def _skip_misc(cur: _Cursor, allow_doctype: bool) -> None:
    """Skip whitespace, comments, PIs and (optionally) a DOCTYPE."""
    while True:
        cur.skip_ws()
        if cur.startswith("<!--"):
            cur.advance(4)
            cur.read_until("-->", "comment")
        elif cur.startswith("<?"):
            cur.advance(2)
            cur.read_until("?>", "processing instruction")
        elif allow_doctype and cur.startswith("<!DOCTYPE"):
            _skip_doctype(cur)
        else:
            return


def _skip_doctype(cur: _Cursor) -> None:
    cur.expect("<!DOCTYPE")
    depth = 1
    while depth > 0:
        if cur.eof:
            raise XmlParseError("unterminated DOCTYPE", cur.pos)
        ch = cur.peek()
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth -= 1
        cur.advance(1)


def _parse_attributes(cur: _Cursor, tag: str) -> dict[str, str]:
    attrib: dict[str, str] = {}
    while True:
        cur.skip_ws()
        ch = cur.peek()
        if ch in (">", "/") or cur.eof:
            return attrib
        name = cur.read_name("attribute")
        cur.skip_ws()
        cur.expect("=")
        cur.skip_ws()
        quote = cur.peek()
        if quote not in ("'", '"'):
            raise XmlParseError(
                f"attribute {name!r} of <{tag}> must be quoted", cur.pos
            )
        cur.advance(1)
        start = cur.pos
        raw = cur.read_until(quote, f"attribute value of {name!r}")
        if "<" in raw:
            raise XmlParseError(f"'<' in attribute value of {name!r}", start)
        if name in attrib:
            raise XmlParseError(f"duplicate attribute {name!r} in <{tag}>", start)
        attrib[name] = unescape(raw, start)


# About a hundred attribute texts (`` type="str" key="amount"``) make up
# over 90% of a run's start tags; the rest carry ids and occur once.
# Remember how each text parsed, and start over when the memo is full so the
# ids cannot crowd out the vocabulary.  Only valid text enters, so errors
# always recur.
_ATTR_CACHE: dict[str, dict[str, str]] = {}
_ATTR_CACHE_MAX = 512


def _token_attributes(raw: str, tag: str, start: int) -> dict[str, str]:
    """The attributes of a start tag that ``_TOKEN_RE`` matched at ``start``."""
    known = _ATTR_CACHE.get(raw)
    if known is not None:
        return known.copy()
    attrib: dict[str, str] = {}
    for name, double, single in _ATTR_ITEM_RE.findall(raw):
        if name in attrib:
            raise XmlParseError(f"duplicate attribute {name!r} in <{tag}>", start)
        value = double or single
        attrib[name] = unescape(value, start) if "&" in value else value
    if len(_ATTR_CACHE) >= _ATTR_CACHE_MAX:
        _ATTR_CACHE.clear()
    _ATTR_CACHE[raw] = attrib.copy()
    return attrib


def _add_text(elem: Element, chunk: str) -> None:
    """Character data in ``elem``: its text, or after a child that child's tail."""
    if elem._children:
        elem._children[-1].tail += chunk
    else:
        elem.text += chunk


def _parse_element(cur: _Cursor) -> Element:
    """Read the element whose start tag is at ``cur``, through its end tag.

    ``stack`` holds the open elements, innermost last.  A token that
    ``_TOKEN_RE`` does not match is read by the strict scanner, which raises
    the error the recursive parser this loop replaced raised.
    """
    text = cur.text
    pos = cur.pos
    token = _TOKEN_RE.match
    stack: list[Element] = []
    while True:
        m = token(text, pos)
        if m is None:
            lt, close, tag = text.find("<", pos), None, None
        else:
            lt = m.end(1)
            close, tag, raw_attrs, slash, leaf = m.group(2, 3, 4, 5, 6)
        if lt > pos:
            _add_text(stack[-1], unescape(text[pos:lt], pos))
        if tag is not None:  # start tag, perhaps a whole leaf element
            attrib = _token_attributes(raw_attrs, tag, lt) if raw_attrs else {}
            if leaf and "&" in leaf:
                leaf = unescape(leaf, m.start(6))
            elem = _parsed_element(tag, attrib, leaf or "")
            is_open = leaf is None and slash is None
            pos = m.end()
        elif close is not None and stack:
            elem = stack.pop()
            if close != elem.tag:
                raise XmlParseError(f"mismatched </{close}>; expected </{elem.tag}>", lt + 2)
            pos = m.end()
            if not stack:
                cur.pos = pos
                return elem
            continue
        else:
            if lt == -1:
                raise XmlParseError(f"unterminated <{stack[-1].tag}>", pos)
            after = text[lt + 1 : lt + 2]
            if after == "/" and stack:
                cur.pos = lt + 2
                close = cur.read_name("closing tag")
                elem = stack.pop()
                if close != elem.tag:
                    raise XmlParseError(
                        f"mismatched </{close}>; expected </{elem.tag}>", cur.pos
                    )
                cur.skip_ws()
                cur.expect(">")
                pos = cur.pos
                if not stack:
                    return elem
                continue
            if after == "!" and text.startswith("<!--", lt):
                cur.pos = lt + 4
                cur.read_until("-->", "comment")
            elif after == "!" and text.startswith("<![CDATA[", lt):
                cur.pos = lt + 9
                _add_text(stack[-1], cur.read_until("]]>", "CDATA section"))
            elif after == "?":
                cur.pos = lt + 2
                cur.read_until("?>", "processing instruction")
            else:  # a start tag, or "</" where the root's start tag belongs
                cur.pos = lt
                cur.expect("<")
                tag = cur.read_name("element")
                elem = _parsed_element(tag, _parse_attributes(cur, tag), "")
                cur.skip_ws()
                is_open = not cur.startswith("/>")
                cur.expect(">" if is_open else "/>")
            pos = cur.pos
            if after in ("!", "?"):  # a comment, CDATA or PI: no element
                continue
        if len(stack) == MAX_DEPTH:
            raise XmlParseError(f"elements nested deeper than {MAX_DEPTH} levels", lt)
        if stack:
            stack[-1]._children.append(elem)
        if is_open:
            stack.append(elem)
        elif not stack:
            cur.pos = pos
            return elem


def parse(text: str) -> Element:
    """Parse an XML document string and return the root element."""
    if not isinstance(text, str):
        raise TypeError(f"parse() wants str, got {type(text).__name__}")
    cur = _Cursor(text)
    _skip_misc(cur, allow_doctype=True)
    if not cur.startswith("<") or cur.startswith("<!") or cur.startswith("<?"):
        raise XmlParseError("no root element", cur.pos)
    root = _parse_element(cur)
    _skip_misc(cur, allow_doctype=False)
    if not cur.eof:
        raise XmlParseError("trailing content after root element", cur.pos)
    return root


def parse_bytes(data: bytes) -> Element:
    """Parse UTF-8 encoded XML bytes."""
    try:
        return parse(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise XmlParseError(f"invalid UTF-8: {exc.reason}", exc.start) from exc
