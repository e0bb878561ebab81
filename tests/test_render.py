"""The one-pass renderers against the per-cell reference, byte for byte."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import render_reference as ref
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
