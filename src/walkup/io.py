"""Reading and writing complexes.

Text format, the toolkit's lingua franca: one facet per line as
whitespace-separated vertex labels; lines whose first non-blank character
is '#' are comments; blank lines are ignored.  The structured alternative
is a JSON object {"facets": [[label, ...], ...]} with the same meaning.
Input is UTF-8 with lines ended by \n, \r\n or a lone \r; loads and the
CLI's ledger reader drop one leading byte-order mark (U+FEFF).

Serialization is canonical: vertices sorted within each facet, facets
sorted lexicographically, one per line.  Equal complexes serialize to
byte-identical text.
"""

from __future__ import annotations

import json

from .complex import CLONE_MARKER, SimplicialComplex, from_facets
from .errors import ParseError


def parse_facet_text(text: str) -> SimplicialComplex:
    """Parse the facet-list text format with line/column diagnostics; it
    makes every check from_facets makes, so it builds the complex directly."""
    faces: list[tuple[str, ...]] = []
    expected_size: int | None = None
    seen: dict[tuple[str, ...], int] = {}
    lines = _lines(text)
    for lineno, raw in enumerate(lines, start=1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if "#" in raw or CLONE_MARKER in raw:
            # some label has a forbidden character: find it and its column
            cursor = 0
            for tok in tokens:
                pos = raw.index(tok, cursor)
                cursor = pos + len(tok)
                for ch in tok:
                    if ch == "#" or ch == CLONE_MARKER:
                        raise ParseError(
                            f"label {tok!r} contains forbidden character {ch!r}",
                            lineno,
                            pos + 1,
                        )
        if len(set(tokens)) != len(tokens):
            dup = next(t for t in tokens if tokens.count(t) > 1)
            raise ParseError(f"vertex {dup!r} repeated in facet", lineno)
        if expected_size is None:
            expected_size = len(tokens)
        elif len(tokens) != expected_size:
            raise ParseError(
                f"facet has {len(tokens)} vertices, previous facets have "
                f"{expected_size}",
                lineno,
            )
        key = tuple(sorted(tokens))
        if key in seen:
            raise ParseError(
                f"facet duplicates line {seen[key]}", lineno
            )
        seen[key] = lineno
        faces.append(key)
    if not faces:
        raise ParseError("no facets found", len(lines))
    return SimplicialComplex(faces)


def _lines(text: str) -> list[str]:
    """text split at \n, \r\n and a lone \r only, not as str.splitlines."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def read_text(stream) -> str:
    """All of stream, decoded as strict UTF-8 if it yields bytes (a binary
    stream, or the buffer under sys.stdin), where a byte that is not UTF-8
    is a ParseError on its line; a text stream with no buffer is read as is."""
    data = getattr(stream, "buffer", stream).read()
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(
            f"not UTF-8: byte 0x{data[e.start]:02x} ({e.reason})",
            len(_lines(data[: e.start].decode("utf-8"))),
        ) from e


def decode_json(text: str):
    """Decode a JSON document; malformed or too deeply nested input is a ParseError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", e.lineno, e.colno) from e
    except RecursionError as e:
        # the decoder recurses once per nesting level
        raise ParseError("invalid JSON: nested too deeply", 1) from e


def parse_facet_json(text: str) -> SimplicialComplex:
    """Parse the structured {"facets": [...]} form."""
    obj = decode_json(text)
    if not isinstance(obj, dict) or "facets" not in obj:
        raise ParseError('expected an object with a "facets" key', 1)
    facets = obj["facets"]
    if not isinstance(facets, list) or not all(isinstance(f, list) for f in facets):
        raise ParseError('"facets" must be a list of label lists', 1)
    return from_facets(facets)


def unmarked(text: str) -> str:
    """text without one leading byte-order mark."""
    return text.removeprefix("\ufeff")


def loads(text: str) -> SimplicialComplex:
    """Parse either format, sniffing JSON by a leading '{' once one
    leading byte-order mark is dropped."""
    text = unmarked(text)
    if text.lstrip().startswith("{"):
        return parse_facet_json(text)
    return parse_facet_text(text)


def load(path: str) -> SimplicialComplex:
    with open(path, "rb") as fh:
        return loads(read_text(fh))


def serialize(X: SimplicialComplex) -> str:
    """Canonical text serialization (sorted facets, one per line)."""
    return "".join(" ".join(f) + "\n" for f in X.facets)
