"""Tests for the kXML-substitute XML codec, including property-based
roundtrips over generated documents."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xmlcodec import (
    Element,
    XmlParseError,
    XmlWriteError,
    escape_attr,
    escape_text,
    parse,
    parse_bytes,
    unescape,
    write,
    write_bytes,
)


class TestEscape:
    def test_text_escapes(self):
        assert escape_text("a<b&c>d") == "a&lt;b&amp;c&gt;d"

    def test_attr_escapes_quotes(self):
        assert escape_attr('say "hi" & \'bye\'') == (
            "say &quot;hi&quot; &amp; &apos;bye&apos;"
        )

    def test_unescape_entities(self):
        assert unescape("&lt;&gt;&amp;&quot;&apos;") == "<>&\"'"

    def test_unescape_numeric(self):
        assert unescape("&#65;&#x42;") == "AB"

    def test_unknown_entity_raises(self):
        with pytest.raises(XmlParseError):
            unescape("&nbsp;")

    def test_unterminated_entity_raises(self):
        with pytest.raises(XmlParseError):
            unescape("&amp")

    def test_roundtrip(self):
        original = "tricky <text> & \"quotes\""
        assert unescape(escape_text(original)) == original


class TestElement:
    def test_invalid_tag_raises(self):
        with pytest.raises(XmlWriteError):
            Element("9bad")
        with pytest.raises(XmlWriteError):
            Element("has space")

    def test_invalid_attr_raises(self):
        with pytest.raises(XmlWriteError):
            Element("ok").set("1bad", "v")

    def test_attr_coerced_to_str(self):
        e = Element("x")
        e.set("n", 5)
        assert e.get("n") == "5"

    def test_require_missing_raises(self):
        with pytest.raises(KeyError, match="missing attribute"):
            Element("x").require("gone")

    def test_children_navigation(self):
        root = Element("root")
        a = root.add("child", text="1")
        b = root.add("child", text="2")
        root.add("other")
        assert root.find("child") is a
        assert root.findall("child") == [a, b]
        assert root.findtext("other") == ""
        assert root.findtext("nope", "dflt") == "dflt"
        assert len(root) == 3
        assert root[1] is b

    def test_require_child_missing(self):
        with pytest.raises(KeyError, match="missing child"):
            Element("x").require_child("y")

    def test_iter_descendants(self):
        root = Element("a")
        root.add("b").add("c")
        root.add("b")
        assert [e.tag for e in root.iter()] == ["a", "b", "c", "b"]
        assert len(list(root.iter("b"))) == 2

    def test_append_non_element_raises(self):
        with pytest.raises(TypeError):
            Element("x").append("no")

    def test_remove(self):
        root = Element("r")
        c = root.add("c")
        root.remove(c)
        assert len(root) == 0

    def test_equals_deep(self):
        a = Element("x", {"k": "1"}, text="t")
        a.add("c", text="y")
        b = Element("x", {"k": "1"}, text="t")
        b.add("c", text="y")
        assert a.equals(b)
        b.add("extra")
        assert not a.equals(b)


class TestWriter:
    def test_empty_element_self_closes(self):
        assert write(Element("e"), declaration=False) == "<e/>"

    def test_attributes_in_insertion_order(self):
        e = Element("e")
        e.set("z", "1")
        e.set("a", "2")
        assert write(e, declaration=False) == '<e z="1" a="2"/>'

    def test_text_escaped(self):
        e = Element("e", text="a<b")
        assert write(e, declaration=False) == "<e>a&lt;b</e>"

    def test_declaration(self):
        out = write(Element("e"))
        assert out.startswith("<?xml")

    def test_pretty_indent(self):
        root = Element("a")
        root.add("b", text="x")
        out = write(root, declaration=False, indent="  ")
        assert "\n  <b>" in out

    def test_write_bytes_utf8(self):
        e = Element("e", text="héllo")
        raw = write_bytes(e, declaration=False)
        assert raw == "<e>héllo</e>".encode("utf-8")


class TestParser:
    def test_simple_document(self):
        root = parse('<a x="1"><b>text</b><c/></a>')
        assert root.tag == "a"
        assert root.get("x") == "1"
        assert root.findtext("b") == "text"
        assert root.find("c") is not None

    def test_declaration_and_comments_skipped(self):
        root = parse('<?xml version="1.0"?><!-- hi --><a/><!-- bye -->')
        assert root.tag == "a"

    def test_doctype_skipped(self):
        root = parse("<!DOCTYPE a [<!ELEMENT a ANY>]><a/>")
        assert root.tag == "a"

    def test_cdata(self):
        root = parse("<a><![CDATA[<raw> & text]]></a>")
        assert root.text == "<raw> & text"

    def test_single_quoted_attrs(self):
        assert parse("<a x='v'/>").get("x") == "v"

    def test_entities_in_text_and_attrs(self):
        root = parse('<a x="&lt;1&gt;">&amp;ok</a>')
        assert root.get("x") == "<1>"
        assert root.text == "&ok"

    def test_mixed_content_tails(self):
        root = parse("<a>one<b/>two<c/>three</a>")
        assert root.text == "one"
        assert root.find("b").tail == "two"
        assert root.find("c").tail == "three"

    def test_mismatched_close_raises(self):
        with pytest.raises(XmlParseError, match="mismatched"):
            parse("<a><b></a></b>")

    def test_unterminated_raises(self):
        with pytest.raises(XmlParseError):
            parse("<a><b>")

    def test_duplicate_attr_raises(self):
        with pytest.raises(XmlParseError, match="duplicate"):
            parse('<a x="1" x="2"/>')

    def test_unquoted_attr_raises(self):
        with pytest.raises(XmlParseError):
            parse("<a x=1/>")

    def test_trailing_garbage_raises(self):
        with pytest.raises(XmlParseError, match="trailing"):
            parse("<a/>junk")

    def test_no_root_raises(self):
        with pytest.raises(XmlParseError):
            parse("   just text")

    def test_lt_in_attr_raises(self):
        with pytest.raises(XmlParseError):
            parse('<a x="<"/>')

    def test_parse_bytes_bad_utf8(self):
        with pytest.raises(XmlParseError, match="UTF-8"):
            parse_bytes(b"<a>\xff\xfe</a>")

    def test_parse_non_str_raises(self):
        with pytest.raises(TypeError):
            parse(b"<a/>")

    @pytest.mark.parametrize("ref", ["&#xD800;", "&#xdfff;", "&#55296;"])
    def test_surrogate_character_reference_raises(self, ref):
        # XML 1.0's Char production excludes U+D800-U+DFFF: a lone
        # surrogate cannot be encoded back to UTF-8.
        with pytest.raises(XmlParseError, match="surrogate"):
            parse(f"<a>{ref}</a>")
        with pytest.raises(XmlParseError, match="surrogate"):
            parse(f'<a x="{ref}"/>')
        assert parse("<a>&#xD7FF;&#xE000;</a>").text == "\ud7ff\ue000"

    def test_nesting_limit(self):
        assert parse("<a>" * 64 + "</a>" * 64).tag == "a"
        for innermost in ("<b/>", "<b>x</b>", '<b x="1"y="2"/>'):
            with pytest.raises(XmlParseError, match="deeper than 64") as err:
                parse("<a>" * 64 + innermost + "</a>" * 64)
            assert err.value.position == 64 * len("<a>")
        # Far past the limit too: a parse error, never a RecursionError.
        for depth in (65, 600, 5000):
            with pytest.raises(XmlParseError, match="deeper than 64"):
                parse("<a>" * depth + "</a>" * depth)

    def test_error_positions_reported(self):
        try:
            parse("<a><b></c></a>")
        except XmlParseError as exc:
            assert exc.position > 0
        else:
            pytest.fail("expected XmlParseError")


# ---------------------------------------------------------------- property tests

_text = st.text(
    alphabet=st.characters(
        codec="utf-8", exclude_characters="\r", exclude_categories=("Cs", "Cc")
    ),
    max_size=40,
)
_name = st.from_regex(r"[A-Za-z_][A-Za-z0-9_.\-]{0,10}", fullmatch=True)


@st.composite
def elements(draw, depth=2):
    elem = Element(draw(_name))
    for key in draw(st.lists(_name, max_size=3, unique=True)):
        elem.set(key, draw(_text))
    elem.text = draw(_text)
    if depth > 0:
        for child in draw(st.lists(elements(depth=depth - 1), max_size=3)):
            elem.append(child)
    return elem


class TestRoundtripProperties:
    @given(elements())
    @settings(max_examples=120, deadline=None)
    def test_write_parse_roundtrip(self, elem):
        # Compact form only: pretty-printing inserts whitespace text nodes.
        reparsed = parse(write(elem, declaration=False))
        assert reparsed.equals(elem)

    @given(_text)
    @settings(max_examples=120, deadline=None)
    def test_text_escape_roundtrip(self, text):
        elem = Element("t", text=text)
        assert parse(write(elem, declaration=False)).text == text

    @given(_text)
    @settings(max_examples=120, deadline=None)
    def test_attr_escape_roundtrip(self, value):
        elem = Element("t")
        elem.set("a", value)
        assert parse(write(elem, declaration=False)).get("a") == value


# Adversarial corpus: markup-significant sequences, entity-like text, CDATA
# terminators, and non-ASCII scripts — the strings most likely to confuse a
# hand-rolled escaper/parser pair.  Surrogates are excluded (not encodable
# to UTF-8), as is \r (XML line-ending normalization folds it to \n).
_adversarial = st.one_of(
    st.sampled_from(
        [
            "]]>",
            "<![CDATA[",
            "<!--", "-->",
            "&amp;", "&#65;", "&#x41;", "&bogus;", "&",
            "<tag attr='v'>", "</close>",
            '"\'<>&',
            "\t\n mixed \n\t",
            "\N{SNOWMAN}\N{GREEK SMALL LETTER ALPHA}漢字עברית",
            "a b c",  # nbsp, line separator
        ]
    ),
    st.text(
        alphabet=st.characters(
            codec="utf-8", exclude_characters="\r", exclude_categories=("Cs",)
        ),
        max_size=80,
    ),
)


class TestAdversarialRoundtrips:
    @given(_adversarial)
    @settings(max_examples=150, deadline=None)
    def test_adversarial_text_roundtrip(self, text):
        # Control chars other than \t\n are not representable in XML 1.0
        # text; the writer must either escape-roundtrip or refuse, never
        # silently corrupt.
        elem = Element("t", text=text)
        try:
            doc = write(elem, declaration=False)
        except XmlWriteError:
            return
        assert parse(doc).text == text

    @given(_adversarial)
    @settings(max_examples=150, deadline=None)
    def test_adversarial_attr_roundtrip(self, value):
        elem = Element("t")
        elem.set("a", value)
        try:
            doc = write(elem, declaration=False)
        except XmlWriteError:
            return
        assert parse(doc).get("a") == value

    def test_ten_kilobyte_attribute(self):
        # The PI carries serialized agent state in attributes; a 10KB value
        # with every escapable char must survive untruncated.
        value = ('<&>"\N{SNOWMAN}' + "x" * 15) * 500
        assert len(value) == 10000
        elem = Element("t")
        elem.set("blob", value)
        reparsed = parse(write(elem, declaration=False))
        assert reparsed.get("blob") == value

    def test_cdata_terminator_in_text_survives(self):
        elem = Element("t", text="a]]>b")
        assert parse(write(elem, declaration=False)).text == "a]]>b"
