"""Facet-list text and JSON parsing, canonical serialization."""

from __future__ import annotations

import json

import pytest

from walkup import build_m4_15, from_facets, standard_sphere
from walkup.errors import ParseError
from walkup.io import loads, parse_facet_json, parse_facet_text, serialize


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
