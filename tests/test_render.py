"""The one-pass renderers against the per-cell reference, byte for byte,
and the vectorised digit kernel against ``format(x, ".17g")``, value by value."""

import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import render_reference as ref
from cpseq import _digits, ioutil
from cpseq.analysis import LandscapeGrid, landscape, landscape_csv
from cpseq.ioutil import dumps
from cpseq.sequences import _REGISTRY, synthesize

SYNTH_FAMILIES = list(_REGISTRY)


def assert_same_text(got: str, want: str):
    """Byte equality, reported at the first differing line: pytest's own diff
    of two rendered 201^2 grids would take minutes."""
    if got != want:
        a, b = got.split("\n"), want.split("\n")
        i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        pytest.fail(f"first difference at line {i}: {a[i:i + 1]} != {b[i:i + 1]}")


def grid_document(grid) -> dict:
    """The document ``cpseq landscape --format json`` renders."""
    return {"family": grid.family, "eps": grid.eps_values,
            "eps_prime": grid.eps_prime_values, "fidelity": grid.fidelity}


@pytest.mark.parametrize("family", SYNTH_FAMILIES)
def test_landscape_text_matches_reference(family):
    grid = landscape(synthesize(family, np.pi, 0.3), resolution=201, threads=1)
    assert_same_text(landscape_csv(grid),
                     ref.landscape_csv(grid.eps_values, grid.eps_prime_values, grid.fidelity))
    # the reference renders the lists of numpy scalars the CLI used to build
    listed = {"family": grid.family, "eps": list(grid.eps_values),
              "eps_prime": list(grid.eps_prime_values),
              "fidelity": [list(row) for row in grid.fidelity]}
    want = ref.dumps(listed)
    assert_same_text(dumps(grid_document(grid)), want)
    assert_same_text(dumps(listed), want)


edge_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300,
                     1.0, -3.0, 2.0 ** 53, 1e16, 0.1]),
)
float_arrays = st.one_of(
    arrays(np.float64, st.tuples(st.integers(0, 6)), elements=edge_floats),
    arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(0, 5)), elements=edge_floats),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(float_arrays)
def test_float_arrays_render_as_reference(a):
    scalars = [list(row) for row in a] if a.ndim == 2 else list(a)
    for doc in (a, a.tolist(), scalars, {"a": a}):
        assert_same_text(dumps(doc), ref.dumps(doc))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(float_arrays)
def test_float_arrays_render_as_reference_through_the_kernel(a):
    # the same documents with every float row, however short, sent through the kernel
    scalars = [list(row) for row in a] if a.ndim == 2 else list(a)
    with mock.patch.object(ioutil, "_VECTOR_MIN", 1):
        for doc in (a, a.tolist(), scalars, {"a": a}):
            assert_same_text(dumps(doc), ref.dumps(doc))


@pytest.mark.parametrize("size", [ioutil._VECTOR_MIN - 1, ioutil._VECTOR_MIN, ioutil._VECTOR_MIN + 1])
def test_rows_reach_the_kernel_from_the_minimum_length(size):
    values = list(np.linspace(0.1, 0.9, size))
    half = size // 2
    for doc in (values, np.array(values), [values[:half], values[half:2 * half]]):
        with mock.patch.object(_digits, "fields", wraps=_digits.fields) as spy:
            text = dumps(doc)
        assert spy.called == (np.size(doc) >= ioutil._VECTOR_MIN), np.size(doc)
        assert_same_text(text, ref.dumps(doc))


@st.composite
def grids(draw):
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    return LandscapeGrid(eps_values=draw(arrays(np.float64, rows, elements=edge_floats)),
                         eps_prime_values=draw(arrays(np.float64, cols, elements=edge_floats)),
                         fidelity=draw(arrays(np.float64, (rows, cols), elements=edge_floats)),
                         family="plain")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(grids())
def test_landscape_csv_matches_reference_on_any_finite_grid(grid):
    assert_same_text(landscape_csv(grid),
                     ref.landscape_csv(grid.eps_values, grid.eps_prime_values, grid.fidelity))


@pytest.mark.parametrize("doc", [
    [1, 2.5, 3],
    [True, 1.0, False],
    [np.bool_(True), 0.5],
    [None, 1.0],
    [np.float32(0.1), np.float32(-2.5)],
    [np.float32(0.1), 0.1],
    [np.int64(7), 1.5, np.int32(-2)],
    [1.0, {"x": 2.0, "y": [3.0, None]}, [4.0, 5.0]],
    {"a": [0.1, 0.2], "b": {"c": [1, 2], "d": [[1.0, 2.0], [3.0, 4.0]]}, "e": []},
    (0.25, -0.0),
    np.array([1, 2, 3]),
    np.array([True, False]),
    np.array([0.1, 0.2], dtype=np.float32),
    [np.float64(1.0), 2.0, np.float64(-0.0)],
    [[], [1.0], [[2.0]]],
])
def test_mixed_documents_render_as_reference(doc):
    assert_same_text(dumps(doc), ref.dumps(doc))


def test_landscape_csv_refuses_non_finite_cells():
    F = np.full((2, 2), 0.5)
    F[1, 0] = np.nan
    grid = LandscapeGrid(np.array([0.0, 0.1]), np.array([0.0, 0.1]), F, "plain")
    with pytest.raises(ValueError):
        landscape_csv(grid)


@pytest.mark.parametrize("doc", [
    {"x": [0.5] * 300 + [np.nan] + [0.5] * 10},
    {"x": [np.float64(0.5)] * 50 + [np.float64(np.inf)]},
    {"x": np.array([[0.5, 0.25], [0.125, -np.inf]])},
    {"x": np.array([[0.5, np.nan]])},
])
def test_dumps_refuses_non_finite_floats_in_rows(doc):
    with pytest.raises(ValueError, match="non-finite"):
        dumps(doc)
    # the kernel's refusal names the same value as the per-value path's
    with pytest.raises(ValueError) as per_value:
        dumps({"x": doc["x"].tolist()} if isinstance(doc["x"], np.ndarray) else doc)
    with mock.patch.object(ioutil, "_VECTOR_MIN", 1), pytest.raises(ValueError) as kernel:
        dumps(doc)
    assert str(kernel.value) == str(per_value.value)


def kernel_text(values) -> list:
    """Each value as :func:`_digits.fields` writes it, in blocks of 2^16."""
    text = []
    for lo in range(0, values.size, 1 << 16):
        cols = _digits.fields(values[lo:lo + (1 << 16)])
        layout = np.empty((cols.shape[1], cols.shape[0] + 1), np.uint8)
        layout[:, :-1] = cols.T
        layout[:, -1] = ord("\n")
        text += _digits.text(layout).split("\n")[:-1]
    return text


def ties(rng, decade: int, count: int) -> np.ndarray:
    """Doubles in [10^X, 10^(X+1)), X = ``decade``, that lie exactly halfway between two
    17-digit decimals: x 10^(16 - X) = o 5^(16 - X) / 2 has a fraction of 1/2 for
    x = o 2^(X - 17), o odd.  Every one when there are at most ``count``, else a sample."""
    scale = 2.0 ** (17 - decade)
    lo, hi = math.ceil(10.0 ** decade * scale) | 1, min(10.0 ** (decade + 1) * scale, 2.0 ** 53)
    odd = np.arange(lo, hi, 2) if (hi - lo) / 2 <= count else rng.integers(lo // 2, hi // 2, count) * 2 + 1
    return odd.astype(np.float64) / scale


def kernel_case(name: str) -> np.ndarray:
    """About 10^6 values over the cases below, each from its own seed."""
    rng = np.random.default_rng(KERNEL_CASES.index(name))
    if name == "random bits":  # every finite double alike, subnormals included, both signs
        values = rng.integers(0, 2 ** 64, 200_000, dtype=np.uint64).view(np.float64)
        return values[np.isfinite(values)]
    if name == "fidelity-like":
        return 1 - rng.random(200_000) ** 4 * 1e-2
    if name == "decades":  # +-10^U(-5, 17), across both ends of the positional range
        return rng.choice([-1.0, 1.0], 300_000) * 10.0 ** rng.uniform(-5, 17, 300_000)
    if name == "powers of ten":  # where log10 rounds across a decade: 1e-5..1e17, +-1..3 ulps
        up = down = [np.array([float(f"1e{m}") for m in range(-5, 18)])]
        for _ in range(3):
            up, down = up + [np.nextafter(up[-1], np.inf)], down + [np.nextafter(down[-1], 0)]
        values = np.concatenate(up + down[1:])
        return np.concatenate([values, -values])
    if name == "ties":
        values = np.concatenate([ties(rng, decade, 5000) for decade in range(-4, 16)])
        return np.concatenate([values, -values])
    return np.array([0.0, -0.0, 5e-324, -5e-324, sys.float_info.max, -sys.float_info.max,
                     sys.float_info.min, 1e-4, 1e16, 0.1, 1.0])


KERNEL_CASES = ("random bits", "fidelity-like", "decades", "powers of ten", "ties", "extremes")


@pytest.mark.parametrize("name", KERNEL_CASES)
def test_digit_kernel_writes_each_value_as_format_17g(name):
    values = kernel_case(name)
    want = [format(x, ".17g") for x in values.tolist()]
    got = kernel_text(values)
    wrong = [(x, g, w) for x, g, w in zip(values.tolist(), got, want) if g != w]
    assert len(got) == len(want) and not wrong, f"{len(wrong)} of {len(want)} differ, e.g. {wrong[:3]}"


def test_ties_are_halfway_and_in_their_decade():
    # the construction of the tie case, checked in exact decimal arithmetic
    from decimal import Decimal
    rng = np.random.default_rng(0)
    for decade in range(-4, 16):
        for x in ties(rng, decade, 5).tolist():
            scaled = Decimal(x) * Decimal(10) ** (16 - decade)
            assert 10 ** 16 <= scaled < 10 ** 17 and scaled % 1 == Decimal("0.5"), (decade, x)
