"""Entity escaping/unescaping for XML text and attribute values."""

from __future__ import annotations

import re

from .errors import XmlParseError

__all__ = ["escape_text", "escape_attr", "unescape"]

_TEXT_ESCAPES = {"&": "&amp;", "<": "&lt;", ">": "&gt;"}
_ATTR_ESCAPES = {**_TEXT_ESCAPES, '"': "&quot;", "'": "&apos;"}
# Most values escape nothing — detect that with one C-level scan instead of
# one replace() pass per special character.
_TEXT_NEEDS = re.compile(r"[&<>]")
_ATTR_NEEDS = re.compile(r"[&<>\"']")
_ENTITIES = {
    "amp": "&",
    "lt": "<",
    "gt": ">",
    "quot": '"',
    "apos": "'",
}


def escape_text(value: str) -> str:
    """Escape character data for element content."""
    if _TEXT_NEEDS.search(value) is None:
        return value
    out = value
    for char, entity in _TEXT_ESCAPES.items():
        out = out.replace(char, entity)
    return out


def escape_attr(value: str) -> str:
    """Escape character data for a double-quoted attribute value."""
    if _ATTR_NEEDS.search(value) is None:
        return value
    out = value
    for char, entity in _ATTR_ESCAPES.items():
        out = out.replace(char, entity)
    return out


def unescape(value: str, offset: int = 0) -> str:
    """Resolve the five predefined entities and numeric character references.

    ``offset`` is used only to report accurate positions in parse errors.
    """
    if "&" not in value:
        return value
    parts: list[str] = []
    i = 0
    n = len(value)
    while i < n:
        ch = value[i]
        if ch != "&":
            parts.append(ch)
            i += 1
            continue
        end = value.find(";", i + 1)
        if end == -1:
            raise XmlParseError("unterminated entity reference", offset + i)
        name = value[i + 1 : end]
        if not name:
            raise XmlParseError("empty entity reference", offset + i)
        if name.startswith("#"):
            hexadecimal = name.startswith(("#x", "#X"))
            try:
                char = chr(int(name[2:], 16) if hexadecimal else int(name[1:], 10))
            except (ValueError, OverflowError):
                kind = "hex character" if hexadecimal else "character"
                raise XmlParseError(
                    f"bad {kind} reference &{name};", offset + i
                ) from None
            # XML 1.0's Char production excludes the surrogate block: a lone
            # surrogate could not even be encoded back to UTF-8.
            if "\ud800" <= char <= "\udfff":
                raise XmlParseError(
                    f"surrogate character reference &{name};", offset + i
                )
            parts.append(char)
        else:
            try:
                parts.append(_ENTITIES[name])
            except KeyError:
                raise XmlParseError(
                    f"unknown entity &{name};", offset + i
                ) from None
        i = end + 1
    return "".join(parts)
