"""Facet-list text and JSON parsing, canonical serialization."""

from __future__ import annotations

import io
import json

import pytest

from walkup import build_m4_15, from_facets, standard_sphere
from walkup.errors import InvalidLabel, ParseError
from walkup.io import (
    loads,
    parse_facet_json,
    parse_facet_text,
    read_text,
    serialize,
)


def test_parse_simple():
    X = parse_facet_text("1 2\n2 3\n3 1\n")
    assert X.f_vector() == (3, 3)


def test_parse_comments_and_blank_lines():
    text = "# a comment\n\n  # indented comment\n1 2 3\n1 2 4\n"
    X = parse_facet_text(text)
    assert X.dimension == 2
    assert len(X.facets) == 2


def test_parse_error_reports_line():
    with pytest.raises(ParseError) as exc:
        parse_facet_text("1 2\n1 2 3\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError) as exc:
        parse_facet_text("1 2\n3 3\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError) as exc:
        parse_facet_text("1 2\n2 1\n")
    assert exc.value.line == 2


def test_parse_error_forbidden_chars():
    with pytest.raises(ParseError) as exc:
        parse_facet_text("a b#c\n")
    assert exc.value.line == 1
    assert exc.value.column == 3
    with pytest.raises(ParseError):
        parse_facet_text("a b~1\n")


def test_parse_empty_is_error():
    with pytest.raises(ParseError):
        parse_facet_text("# nothing here\n")


def test_serialize_round_trip():
    X = build_m4_15()
    assert parse_facet_text(serialize(X)) == X


def test_serialize_canonical():
    a = from_facets([["b", "a"], ["c", "b"], ["a", "c"]])
    b = from_facets([["a", "c"], ["a", "b"], ["b", "c"]])
    assert serialize(a) == serialize(b) == "a b\na c\nb c\n"


def test_json_round_trip():
    X = standard_sphere(3)
    text = json.dumps({"facets": [list(f) for f in X.facets]})
    assert parse_facet_json(text) == X
    assert loads(text) == X
    assert loads(serialize(X)) == X


def test_json_errors():
    with pytest.raises(ParseError):
        parse_facet_json("{not json")
    with pytest.raises(ParseError):
        parse_facet_json('{"something": 1}')
    with pytest.raises(ParseError):
        parse_facet_json('{"facets": "nope"}')


def _parse_error(text):
    with pytest.raises(ParseError) as exc:
        parse_facet_text(text)
    return str(exc.value), exc.value.line, exc.value.column


def test_forbidden_character_after_clean_lines():
    assert _parse_error("a b c\nb c d\nc x#y d\n") == (
        "line 3, column 3: label 'x#y' contains forbidden character '#'", 3, 3,
    )
    assert _parse_error("a b c\n# note\n   d  e~2   f\n") == (
        "line 3, column 7: label 'e~2' contains forbidden character '~'", 3, 7,
    )


def test_forbidden_label_twice_on_a_line_reports_the_first():
    assert _parse_error("a b c\nb q~ c q~\n") == (
        "line 2, column 3: label 'q~' contains forbidden character '~'", 2, 3,
    )
    assert _parse_error("b c x\nb x#y x# c~\n") == (
        "line 2, column 3: label 'x#y' contains forbidden character '#'", 2, 3,
    )


def test_facet_errors_carry_their_line():
    assert _parse_error("a b c\nb c b\n") == (
        "line 2: vertex 'b' repeated in facet", 2, None,
    )
    assert _parse_error("a b c\n\nb c\n") == (
        "line 3: facet has 2 vertices, previous facets have 3", 3, None,
    )
    assert _parse_error("a b c\nb c d\nc a b\n") == (
        "line 3: facet duplicates line 1", 3, None,
    )


@pytest.mark.parametrize(
    "label", [1, None, ["b"], {"b": 1}, "", "c~1", "c#"], ids=repr
)
def test_json_rejects_bad_labels(label):
    text = json.dumps({"facets": [["a", "b"], ["b", label]]})
    with pytest.raises(InvalidLabel):
        loads(text)


def test_read_text_decodes_strict_utf8():
    assert read_text(io.BytesIO("é 1\n".encode())) == "é 1\n"
    assert read_text(io.StringIO("a b\n")) == "a b\n"  # a text stream as it is
    with pytest.raises(ParseError) as exc:
        read_text(io.BytesIO(b"a b\n\nc\xc3"))
    assert exc.value.line == 3
    assert "0xc3" in str(exc.value)


def test_loads_drops_one_byte_order_mark():
    X = loads("1 2\n2 3\n3 1\n")
    assert loads("\ufeff1 2\n2 3\n3 1\n") == X
    assert loads('\ufeff {"facets": [["1", "2"], ["2", "3"], ["1", "3"]]}') == X
    # only one: a second mark is part of the first label
    assert "\ufeff1" in loads("\ufeff\ufeff1 2\n2 3\n3 1\n").vertices
