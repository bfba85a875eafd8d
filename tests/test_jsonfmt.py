"""The indented JSON writer is byte-identical to ``json.dumps(indent=2)``."""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.jsonfmt import dumps_indented

_leaves = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10 ** 30), max_value=10 ** 30)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text()
)
_keys = (
    st.text()
    | st.integers(min_value=-(10 ** 6), max_value=10 ** 6)
    | st.floats(allow_nan=False)
    | st.booleans()
    | st.none()
)
_values = st.recursive(
    _leaves,
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(_keys, children, max_size=5)
    ),
    max_leaves=40,
)


@given(_values)
@settings(max_examples=300, deadline=None)
def test_matches_the_standard_encoder(value):
    assert dumps_indented(value) == json.dumps(value, indent=2)


@given(st.recursive(
    _leaves,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(), children, max_size=5),
    max_leaves=40,
))
@settings(max_examples=200, deadline=None)
def test_sorted_keys_match_the_standard_encoder(value):
    assert dumps_indented(value, sort_keys=True) == json.dumps(
        value, indent=2, sort_keys=True
    )


def test_special_floats_and_escapes():
    value = {"nan": math.nan, "inf": [math.inf, -math.inf, -0.0],
             "text": "é\n\"\\\t—\ud83d", 1: {}, None: [], True: [[]]}
    assert dumps_indented(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [object(), {1j: 1}, [set()], {"a": b"x"}])
def test_rejects_what_the_standard_encoder_rejects(value):
    with pytest.raises(TypeError):
        json.dumps(value, indent=2)
    with pytest.raises(TypeError):
        dumps_indented(value)
