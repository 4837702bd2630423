import enum
import json
import math
import struct
from dataclasses import dataclass

import numpy as np
import pytest

from permboot.jsonio import canonical_json


def _strict_loads(text):
    def reject(token):
        raise ValueError(f"non-JSON constant {token}")
    return json.loads(text, parse_constant=reject)


def test_doubles_round_trip_exactly():
    rng = np.random.default_rng(20)
    # random bit patterns cover every exponent; the non-finite ones go
    bits = rng.integers(0, 2**64, size=2000, dtype=np.uint64)
    doubles = [x for x in bits.view(np.float64).tolist() if math.isfinite(x)]
    doubles += [-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e16 + 2, 2.0**53 + 2, 0.1, 1 / 3,
                np.finfo(float).max, np.finfo(float).tiny]
    back = _strict_loads(canonical_json(doubles))
    assert [struct.pack("<d", x) for x in back] == [struct.pack("<d", x) for x in doubles]


class _Color(enum.Enum):
    RED = "red"


@dataclass
class _Point:
    x: float
    kind: _Color
    values: np.ndarray


def test_numpy_enum_and_dataclass_values_are_encoded():
    doc = {
        "int64": np.int64(7),
        "float32": np.float32(0.5),
        "float64": np.float64(0.1),
        "flag": np.bool_(True),
        "array": np.arange(6).reshape(2, 3),
        "mask": np.array([True, False]),
        "color": _Color.RED,
        "point": _Point(1.5, _Color.RED, np.array([0.25, 2.0])),
        "tuple": (1, "a", None),
    }
    assert _strict_loads(canonical_json(doc)) == {
        "int64": 7,
        "float32": 0.5,
        "float64": 0.1,
        "flag": True,
        "array": [[0, 1, 2], [3, 4, 5]],
        "mask": [True, False],
        "color": "red",
        "point": {"x": 1.5, "kind": "red", "values": [0.25, 2.0]},
        "tuple": [1, "a", None],
    }


def test_strings_are_escaped():
    s = 'quote " backslash \\ newline \n tab \t bell \x07 é é'
    assert _strict_loads(canonical_json({s: s})) == {s: s}


@pytest.mark.parametrize("value", [
    math.nan, math.inf, -math.inf, np.float64("nan"), np.array([1.0, math.inf]),
    {"nested": [np.float32("-inf")]},
])
def test_non_finite_floats_raise(value):
    with pytest.raises(ValueError):
        canonical_json(value)


@pytest.mark.parametrize("value", [object(), {1, 2}, b"bytes", _Point])
def test_unsupported_types_raise(value):
    with pytest.raises(TypeError):
        canonical_json({"value": value})


def test_key_order_does_not_matter():
    items = [("b", 1), ("a", [2.5, {"y": 1, "x": 2}]), ("c", None)]
    a = canonical_json(dict(items))
    b = canonical_json(dict(reversed(items)))
    assert a == b
    assert a.index('"a"') < a.index('"b"') < a.index('"c"')
    assert a.index('"x"') < a.index('"y"')
