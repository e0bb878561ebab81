import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpseq.ioutil import dumps


def test_dumps_roundtrips_through_stdlib_json():
    doc = {
        "family": "corpse",
        "target": {"theta": np.pi, "phi": 0.0},
        "winding": [1, 2, 1],
        "flags": [True, False, None],
        "pulses": [{"theta": 7 * np.pi / 3, "phi": 0.0}],
    }
    back = json.loads(dumps(doc))
    assert back["winding"] == [1, 2, 1]
    assert back["flags"] == [True, False, None]
    assert back["target"]["theta"] == np.pi  # 17 digits round-trip exactly


def test_dumps_float_precision():
    text = dumps({"x": np.pi})
    assert "3.1415926535897931" in text


def test_dumps_is_deterministic():
    doc = {"a": [1.0, 2.5, {"b": np.e}], "c": "text"}
    assert dumps(doc) == dumps(doc)


def test_dumps_numpy_scalars_and_arrays():
    doc = {"v": np.array([1.0, 2.0]), "n": np.int64(3), "f": np.float64(0.5), "b": np.bool_(True)}
    back = json.loads(dumps(doc))
    assert back == {"v": [1, 2], "n": 3, "f": 0.5, "b": True}


def test_dumps_rejects_non_finite():
    with pytest.raises(ValueError):
        dumps({"x": float("nan")})


def test_dumps_rejects_unknown_types():
    with pytest.raises(TypeError):
        dumps({"x": object()})


def test_dumps_escapes_strings():
    back = json.loads(dumps({"s": 'quote " backslash \\ newline \n'}))
    assert back["s"] == 'quote " backslash \\ newline \n'


def test_dumps_escapes_control_characters_in_keys_and_strings():
    doc = {"a\tb": "c\rd", 'q"k': 1, "\x00\\": "\x1f\b\f"}
    assert json.loads(dumps(doc)) == doc
    assert dumps({"\u00e9": "\u03b8"}) == '{\n  "\u00e9": "\u03b8"\n}'  # non-ASCII stays raw


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.dictionaries(st.text(), st.text() | st.lists(st.text(), max_size=3)
                       | st.dictionaries(st.text(), st.text(), max_size=3)))
def test_dumps_round_trips_any_text(doc):
    assert json.loads(dumps(doc)) == doc


def test_dumps_empty_containers():
    assert dumps({}) == "{}"
    assert dumps({"a": []}) == '{\n  "a": []\n}'
