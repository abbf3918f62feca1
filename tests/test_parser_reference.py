"""The XML parser must read every input exactly as the recursive parser did.

``_reference_parse`` below is a verbatim copy of the recursive-descent
parser that ``repro.xmlcodec.parser`` replaced, kept as the reference.  On
valid input both must build ``equals`` trees; on malformed input both must
raise the same exception type with the same message and position.

The corpus is every document kind a one-task deployment parses, plus
hand-written documents for the constructs no deployment sends, each also
truncated at every position and with markup characters substituted in; and
the ``elements()`` strategy's documents.  It stays far below the reference's
recursion limit and holds no surrogate character reference, the two inputs
the parser now rejects where the reference did not.
"""

from __future__ import annotations

import re
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xmlcodec import Element, XmlParseError, parse, unescape, write
from tests.test_xmlcodec import elements

# ---------------------------------------------------------------- reference

_NAME_RE = re.compile(r"[A-Za-z_:][A-Za-z0-9_:.\-]*")
_WS = " \t\r\n"

_OPEN_TAG_RE = re.compile(
    r"<([A-Za-z_:][A-Za-z0-9_:.\-]*)"
    r"((?:[ \t\r\n]+[A-Za-z_:][A-Za-z0-9_:.\-]*[ \t\r\n]*=[ \t\r\n]*"
    r"(?:\"[^\"<]*\"|'[^'<]*'))*)"
    r"[ \t\r\n]*(/?)>"
)
_ATTR_ITEM_RE = re.compile(
    r"[ \t\r\n]+([A-Za-z_:][A-Za-z0-9_:.\-]*)[ \t\r\n]*=[ \t\r\n]*"
    r"(?:\"([^\"<]*)\"|'([^'<]*)')"
)
_CLOSE_TAG_RE = re.compile(r"([A-Za-z_:][A-Za-z0-9_:.\-]*)[ \t\r\n]*>")


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


def _parse_element(cur: _Cursor) -> Element:
    m = _OPEN_TAG_RE.match(cur.text, cur.pos)
    if m is not None:
        tag = m.group(1)
        raw_attrs = m.group(2)
        start = cur.pos
        cur.pos = m.end()
        if raw_attrs:
            attrib: dict[str, str] = {}
            for am in _ATTR_ITEM_RE.finditer(raw_attrs):
                name = am.group(1)
                if name in attrib:
                    raise XmlParseError(
                        f"duplicate attribute {name!r} in <{tag}>", start
                    )
                raw = am.group(2)
                if raw is None:
                    raw = am.group(3)
                attrib[name] = (
                    unescape(raw, start) if "&" in raw else raw
                )
            elem = Element(tag, attrib)
        else:
            elem = Element(tag)
        if m.group(3):  # self-closing
            return elem
    else:
        # Strict scanner: produces exact errors for malformed tags.
        cur.expect("<")
        tag = cur.read_name("element")
        attrib = _parse_attributes(cur, tag)
        elem = Element(tag, attrib)
        cur.skip_ws()
        if cur.startswith("/>"):
            cur.advance(2)
            return elem
        cur.expect(">")
    _parse_content(cur, elem)
    # _parse_content consumed "</"; match the closing name.
    cm = _CLOSE_TAG_RE.match(cur.text, cur.pos)
    if cm is not None:
        if cm.group(1) != tag:
            raise XmlParseError(
                f"mismatched </{cm.group(1)}>; expected </{tag}>", cur.pos
            )
        cur.pos = cm.end()
        return elem
    close = cur.read_name("closing tag")
    if close != tag:
        raise XmlParseError(f"mismatched </{close}>; expected </{tag}>", cur.pos)
    cur.skip_ws()
    cur.expect(">")
    return elem


def _parse_content(cur: _Cursor, elem: Element) -> None:
    """Fill ``elem.text``, children and their tails until the closing tag."""
    last_child: Element | None = None
    text = cur.text

    def add_text(chunk: str) -> None:
        nonlocal last_child
        if not chunk:
            return
        if last_child is None:
            elem.text += chunk
        else:
            last_child.tail += chunk

    while True:
        pos = cur.pos
        lt = text.find("<", pos)
        if lt == -1:
            raise XmlParseError(f"unterminated <{elem.tag}>", pos)
        if lt > pos:
            chunk = text[pos:lt]
            add_text(unescape(chunk, pos) if "&" in chunk else chunk)
            cur.pos = lt
        # Dispatch on the character after "<" instead of prefix-testing
        # every construct at every step.
        after = text[lt + 1 : lt + 2]
        if after == "/":
            cur.pos = lt + 2
            return
        if after == "!":
            if text.startswith("<!--", lt):
                cur.pos = lt + 4
                cur.read_until("-->", "comment")
            elif text.startswith("<![CDATA[", lt):
                cur.pos = lt + 9
                add_text(cur.read_until("]]>", "CDATA section"))
            else:
                last_child = elem.append(_parse_element(cur))
        elif after == "?":
            cur.pos = lt + 2
            cur.read_until("?>", "processing instruction")
        else:
            last_child = elem.append(_parse_element(cur))


def _reference_parse(text: str) -> Element:
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


# ---------------------------------------------------------------- corpus

#: Constructs no deployment sends: prolog, DOCTYPE, comments, CDATA,
#: processing instructions, mixed content, entities, single quotes,
#: whitespace inside tags and tags only the strict scanner reads.
HAND_WRITTEN = [
    '<?xml version="1.0"?>\n<!DOCTYPE a [<!ELEMENT a ANY>]><!-- c -->'
    "<a x='1' y = \"2\">t<b/>u<![CDATA[<x> & ]]>v<?pi x?><!--c-->w"
    "<c >x</c ><d\tz='&lt;&#65;&#x42;'\n/></a><!-- end -->\n",
    '<a x="1"y="2"/>',
    '<r><a>&lt;&#65;&#x42;&amp;</a><b x="&quot;&apos;"/>tail</r>',
    "<r><a><b><c><d>deep</d></c></b></a>text<e></e></r>",
]

MARKUP = "<>&\"'/= "


@lru_cache(maxsize=None)
def deployment_documents() -> tuple[str, ...]:
    """The first document of each root tag a one-task deployment parses.

    Text runs are cut to 48 characters (the agent code filler runs to
    kilobytes), which keeps every structure and the test fast.
    """
    import repro.xmlcodec.parser as parser_module
    from repro.apps.ebanking import make_transactions
    from repro.mas import Stop
    from tests.test_typed_documents import build_dep, drive

    seen: dict[str, str] = {}
    real_parse = parser_module.parse

    def recording(text):
        root = real_parse(text)
        seen.setdefault(root.tag, text)
        return root

    parser_module.parse = recording
    try:
        dep = build_dep()
        platform = dep.platform("pda")
        drive(dep, platform.subscribe("ebanking", gateway="gw-0"))
        handle = drive(
            dep,
            platform.deploy(
                "ebanking",
                {"transactions": make_transactions(["bank-a", "bank-b"], 1)},
                stops=[Stop("bank-a"), Stop("bank-b")],
                gateway="gw-0",
            ),
        )
        dep.sim.run(until=dep.gateway("gw-0").ticket(handle.ticket).completed)
        drive(dep, platform.collect(handle))
    finally:
        parser_module.parse = real_parse
    assert {"gateways", "macode", "pi", "dispatched", "agent", "result"} <= set(seen)
    return tuple(re.sub(r">([^<]{48})[^<]+<", r">\1<", doc) for doc in seen.values())


def outcome(parser, text):
    """``("tree", root)`` or ``("error", type, message, position)``."""
    try:
        return ("tree", parser(text))
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return ("error", type(exc), str(exc), getattr(exc, "position", None))


def assert_same(text):
    got, want = outcome(parse, text), outcome(_reference_parse, text)
    if want[0] == "tree":
        assert got[0] == "tree", (text, got)
        assert got[1].equals(want[1]), text
    else:
        assert got == want, text


def variants(doc):
    """The document, its truncation at every position, and a markup
    character substituted at every position (rotating through MARKUP)."""
    yield doc
    for i in range(len(doc)):
        yield doc[:i]
        yield doc[:i] + MARKUP[i % len(MARKUP)] + doc[i + 1 :]


class TestParserMatchesReference:
    def test_deployment_documents(self):
        for doc in deployment_documents():
            for text in variants(doc):
                assert_same(text)

    def test_hand_written_documents(self):
        for doc in HAND_WRITTEN:
            for text in variants(doc):
                assert_same(text)

    @given(elements(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_generated_documents(self, elem, data):
        doc = write(elem, declaration=False)
        assert_same(doc)
        i = data.draw(st.integers(min_value=0, max_value=len(doc) - 1))
        assert_same(doc[:i])
        assert_same(doc[:i] + data.draw(st.sampled_from(MARKUP)) + doc[i + 1 :])
