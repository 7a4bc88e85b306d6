import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from creditbounds._floatrepr import repr_rows


def reference(*columns):
    rows = zip(*(np.asarray(c, dtype=np.float64).tolist() for c in columns))
    return "".join(",".join(map(repr, row)) + "\n" for row in rows).encode()


def assert_reprs(x):
    """repr_rows(x) is repr's bytes, asked for in blocks as the oracle's writer asks."""
    x = np.asarray(x, dtype=np.float64)
    got = b"".join(repr_rows(x[i : i + 2**16]) for i in range(0, len(x), 2**16))
    want = reference(x)
    if got != want:
        bad = [(v, g, w) for v, g, w in zip(x.tolist(), got.split(b"\n"), want.split(b"\n")) if g != w]
        pytest.fail(f"first mismatches (value, got, repr): {bad[:5]}")


def neighbours(x):
    x = np.asarray(x, dtype=np.float64)
    return np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])


EDGES = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-4, 1e16, 0.9999999999999999, 1.0,
         math.inf, -math.inf, math.nan]


def test_edge_values():
    assert_reprs(neighbours(EDGES))


def test_random_bit_patterns():
    bits = np.random.default_rng(11).integers(0, 2**64, 10**6, dtype=np.uint64, endpoint=False)
    assert_reprs(bits.view(np.float64))


def test_uniform_weights():
    assert_reprs(np.random.default_rng(12).random(10**6))


def test_powers_of_two_and_ten():
    assert_reprs(neighbours(np.ldexp(1.0, np.arange(-1074, 1024))))
    assert_reprs(neighbours([float(f"1e{k}") for k in range(-323, 309)]))


def test_columns_rows_and_separators():
    x, y = np.array([0.5, 1e-300, 2.0]), np.array([0.0, 0.25, math.nan])
    assert repr_rows(x, y) == b"0.5,0.0\n1e-300,0.25\n2.0,nan\n"
    assert repr_rows(x, y, x) == reference(x, y, x)
    assert repr_rows(np.array([])) == b""
    strided = np.linspace(0.0, 1.0, 11)[::2]
    assert repr_rows(strided, strided) == reference(strided, strided)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=8))
def test_matches_repr(values):
    assert repr_rows(np.array(values, dtype=np.float64)) == reference(values)

