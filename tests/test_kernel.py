"""The quaternion product kernel against the plain-loop reference.

Tolerances are fixed in advance: products 1e-14, landscape cells 1e-13,
moment integrals 1e-12, toggling-frame quadrature 1e-14 (all max-abs).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import loop_reference as ref
from cpseq.analysis import landscape
from cpseq.error_model import (
    ErrorChannel,
    error_moment_integrals,
    interaction_error_quadrature,
    perturbed_propagator,
)
from cpseq.sequences import FAMILIES, PulseSequence, synthesize
from cpseq.su2 import compose, product, quaternion, to_matrix

from conftest import random_xy_vector

SYNTH_FAMILIES = [f for f in FAMILIES if f != "custom"]
TARGETS = [(1.3, 0.4), (np.pi / 2, 2.9), (3.0, 5.5)]


def max_abs(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


@pytest.mark.parametrize("family", SYNTH_FAMILIES)
def test_propagator_matches_loop(family):
    for theta, phi in TARGETS:
        seq = synthesize(family, theta, phi)
        assert max_abs(seq.propagator(), ref.product(ref.vectors_of(seq))) <= 1e-14


@pytest.mark.parametrize("family", SYNTH_FAMILIES)
def test_perturbed_propagator_matches_loop(family):
    rng = np.random.default_rng(41)
    for theta, phi in TARGETS:
        seq = synthesize(family, theta, phi)
        vectors = ref.vectors_of(seq)
        for eps, eps_prime in rng.uniform(-0.2, 0.2, size=(4, 2)):
            got = perturbed_propagator(seq, ErrorChannel.combined(eps, eps_prime))
            assert max_abs(got, ref.product(ref.deform(vectors, eps, eps_prime))) <= 1e-14
        f, F = rng.normal(scale=0.05, size=3), rng.normal(scale=0.05, size=(3, 3))
        got = perturbed_propagator(seq, ErrorChannel.general_linear(f, F))
        want = ref.product([m + f + F @ m for m in vectors])
        assert max_abs(got, want) <= 1e-14


@pytest.mark.parametrize("family", SYNTH_FAMILIES)
def test_landscape_cells_match_loop(family):
    seq = synthesize(family, 1.3, 0.4)
    vectors = ref.vectors_of(seq)
    grid = landscape(seq, (-0.3, 0.2), (-0.25, 0.3), resolution=13, threads=1)
    want = [[ref.fidelity(seq.target, ref.product(ref.deform(vectors, e, p)))
             for p in grid.eps_prime_values] for e in grid.eps_values]
    assert max_abs(grid.fidelity, want) <= 1e-13


def test_landscape_cells_at_zero_strength_vector_match_loop():
    # eps = -1, eps' = 0 deforms every pulse to the identity
    seq = synthesize("bb1", 1.3, 0.4)
    vectors = ref.vectors_of(seq)
    grid = landscape(seq, (-1.0, 1.0), (-0.5, 0.5), resolution=5, threads=1)
    assert grid.fidelity[0, 2] == pytest.approx(np.cos(1.3 / 2), abs=1e-15)
    want = [[ref.fidelity(seq.target, ref.product(ref.deform(vectors, e, p)))
             for p in grid.eps_prime_values] for e in grid.eps_values]
    assert max_abs(grid.fidelity, want) <= 1e-13


def test_landscape_of_a_pulse_free_sequence_is_the_target_overlap():
    seq = PulseSequence("custom", (), ref.rotation([0.0, 0.0, 1.0]))
    grid = landscape(seq, resolution=5, threads=1)
    assert grid.fidelity.shape == (5, 5)
    assert max_abs(grid.fidelity, np.cos(0.5)) <= 1e-15


@pytest.mark.parametrize("family,subdivisions", [
    ("corpse", 64), ("scrofulous", 64), ("bb1", 64), ("alway-jones", 64), ("cis-cccp", 256),
])
def test_moments_match_node_loop(family, subdivisions):
    seq = synthesize(family, 1.3, 0.4)
    got = error_moment_integrals(seq, subdivisions=subdivisions)
    first, second = ref.moments(ref.vectors_of(seq), subdivisions)
    assert max_abs(got.first_moment, first) <= 1e-12
    assert max_abs(got.second_moment, second) <= 1e-12


def test_moments_match_node_loop_with_zero_angle_pulse():
    # the second set has z components, which the closed form covers like any pulse
    rng = np.random.default_rng(44)
    for vectors in ([np.array([1.1, 0.3, 0.0]), np.zeros(3), np.array([-0.4, 2.0, 0.0])],
                    [*rng.normal(scale=2.0, size=(4, 3)), np.zeros(3), np.array([0.0, 0.0, 2 * np.pi])]):
        got = error_moment_integrals(vectors, subdivisions=32)
        first, second = ref.moments(vectors, 32)
        assert max_abs(got.first_moment, first) <= 1e-12
        assert max_abs(got.second_moment, second) <= 1e-12


def test_interaction_quadrature_matches_node_loop():
    rng = np.random.default_rng(42)
    for _ in range(20):
        m = random_xy_vector(rng) + np.array([0.0, 0.0, rng.normal()])
        A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        G = (A + A.conj().T) / 2
        for nodes in (2, 64):
            got = interaction_error_quadrature(m, G, nodes)
            assert max_abs(got, ref.interaction_quadrature(m, G, nodes)) <= 1e-14


batch_shapes = st.one_of(
    st.just(()),
    st.tuples(st.integers(1, 4)),
    st.tuples(st.integers(1, 3), st.integers(1, 3)),
)


@st.composite
def vector_batches(draw):
    shape = draw(batch_shapes)
    factors = draw(st.integers(1, 4))
    return draw(arrays(float, (factors, *shape, 3), elements=st.floats(-20, 20)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(vector_batches())
def test_hamilton_product_is_the_matrix_product(vs):
    qs = quaternion(vs)
    assert qs.shape == vs.shape[:-1] + (4,)
    assert np.all(np.abs(np.linalg.norm(qs, axis=-1) - 1) <= 4e-15)
    batch = vs.shape[1:-1]
    pair = compose(qs[-1], qs[0])
    full = product(qs)
    for index in np.ndindex(*batch):
        column = [v[index] for v in vs]
        want_pair = ref.rotation(column[-1]) @ ref.rotation(column[0])
        assert max_abs(to_matrix(pair[index]), want_pair) <= 1e-14
        assert max_abs(to_matrix(full[index]), ref.product(column)) <= 1e-14
    assert np.all(np.abs(np.linalg.norm(full, axis=-1) - 1) <= 1e-14)
