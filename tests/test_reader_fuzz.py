"""Fuzzing the two input readers: only WalkupError may escape them.

io.loads reads facet files (text or JSON) and cli._ledger_from_json
reads the ledgers that `walkup replay` takes.  Anything else escaping
would reach the user as a traceback instead of one `error:` line.
"""

from __future__ import annotations

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from walkup import io
from walkup.cli import _ledger_from_json
from walkup.errors import WalkupError

labels = st.one_of(
    st.sampled_from(["a", "b", "c", "d", "e~1", "#", "", " "]),
    st.text(max_size=3),
)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | labels,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(
        st.sampled_from(
            ["facets", "base", "handles", "source_facet", "target_facet", "pairs"]
        )
        | st.text(max_size=3),
        inner,
        max_size=4,
    ),
    max_leaves=20,
)
# facet-list and ledger shapes, so the fuzzer gets past the first key lookup
facet_lists = st.lists(st.lists(labels, max_size=4), max_size=4)
ledgers = st.fixed_dictionaries(
    {
        "base": st.fixed_dictionaries({"facets": facet_lists}) | json_values,
        "handles": st.lists(
            st.fixed_dictionaries(
                {
                    "source_facet": st.lists(labels, max_size=3) | json_values,
                    "target_facet": st.lists(labels, max_size=3) | json_values,
                    "pairs": st.lists(st.lists(labels, max_size=3), max_size=3)
                    | json_values,
                }
            )
            | json_values,
            max_size=3,
        ),
    }
)
documents = st.one_of(
    json_values,
    ledgers,
    st.fixed_dictionaries({"facets": facet_lists | json_values}),
).map(json.dumps)
texts = st.one_of(
    st.text(),
    st.text(alphabet="abc~# \t\n\r{}[]\",:0", max_size=60),
    documents,
)

# deeper than json.loads can recurse: it raises RecursionError inside
DEEP = "[" * 100_000 + "]" * 100_000


def _only_walkup_errors(read, text):
    try:
        read(text)
    except WalkupError:
        pass


@settings(max_examples=300, deadline=None)
@given(texts)
@example('{"facets": ' + DEEP + "}")
def test_loads_raises_only_walkup_errors(text):
    _only_walkup_errors(io.loads, text)


@settings(max_examples=300, deadline=None)
@given(texts)
@example(DEEP)
def test_ledger_reader_raises_only_walkup_errors(text):
    _only_walkup_errors(_ledger_from_json, text)

