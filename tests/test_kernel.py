"""The quaternion product kernel against the plain-loop reference.

Tolerances are fixed in advance: products 1e-14, landscape cells 1e-13
(and bitwise against the trace formula), moment integrals 1e-12
(all max-abs).  Landscape cells and ladder points are also held bitwise to
the per-pulse kernel in ``loop_reference``.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import loop_reference as ref
from cpseq.analysis import _DIRECTIONS, AXES, DEFAULT_SCALING_LADDER, _infidelities, _ladder, _products, landscape
from cpseq.error_model import (
    ErrorChannel,
    error_moment_integrals,
    perturbed_propagator,
)
from cpseq.sequences import _REGISTRY, Pulse, PulseSequence, synthesize
from cpseq.su2 import _hamilton, _matrix, _product, _quaternion

from conftest import theta_for

SYNTH_FAMILIES = list(_REGISTRY)
TARGETS = [(1.3, 0.4), (np.pi / 2, 2.9), (3.0, 5.5)]


def max_abs(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


@pytest.mark.parametrize("family", SYNTH_FAMILIES)
def test_propagator_matches_loop(family):
    for theta, phi in TARGETS:
        seq = synthesize(family, theta_for(family, theta), phi)
        assert max_abs(seq.propagator(), ref.product(ref.vectors_of(seq))) <= 1e-14


@pytest.mark.parametrize("family", SYNTH_FAMILIES)
def test_perturbed_propagator_matches_loop(family):
    rng = np.random.default_rng(41)
    for theta, phi in TARGETS:
        seq = synthesize(family, theta_for(family, theta), phi)
        vectors = ref.vectors_of(seq)
        for eps, eps_prime in rng.uniform(-0.2, 0.2, size=(4, 2)):
            got = perturbed_propagator(seq, ErrorChannel.combined(eps, eps_prime))
            assert max_abs(got, ref.product(ref.deform(vectors, eps, eps_prime))) <= 1e-14
        f, F = rng.normal(scale=0.05, size=3), rng.normal(scale=0.05, size=(3, 3))
        got = perturbed_propagator(seq, ErrorChannel(f, F))
        want = ref.product([m + np.linalg.norm(m) * f + F @ m for m in vectors])
        assert max_abs(got, want) <= 1e-14


@pytest.mark.parametrize("family", SYNTH_FAMILIES)
def test_landscape_cells_match_loop(family):
    seq = synthesize(family, theta_for(family, 1.3), 0.4)
    vectors = ref.vectors_of(seq)
    grid = landscape(seq, (-0.3, 0.2), (-0.25, 0.3), resolution=13, threads=1)
    want = [[ref.fidelity(seq.target, ref.product(ref.deform(vectors, e, p)))
             for p in grid.eps_prime_values] for e in grid.eps_values]
    assert max_abs(grid.fidelity, want) <= 1e-13


@pytest.mark.parametrize("family", SYNTH_FAMILIES)
def test_landscape_cells_are_the_trace_fidelity_bit_for_bit(family):
    # for an SU(2) target |Tr(T^dag U)| / 2 is an exact doubling of the overlap's w
    seq = synthesize(family, theta_for(family, 1.3), 0.4)
    grid = landscape(seq, (-0.3, 0.2), (-0.25, 0.3), resolution=257, threads=2)
    q = _products(seq._terms, grid.eps_values[:, None], grid.eps_prime_values[None, :])
    assert np.array_equal(grid.fidelity, ref.trace_fidelity(seq.target, q))


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


# ---- exact bits of the per-pulse kernel (loop_reference.per_pulse_*) -------------

EXACT_TARGETS = [(1.3, 19.7), (2.9, -20.3)]


def pulses_of(seq) -> list[tuple[float, float]]:
    return [(p.theta, p.phi) for p in seq.pulses]


def exact_sequences():
    """Every family at two targets; a custom sequence that repeats angles at
    other azimuths and has a zero-angle pulse; and a pulse-free sequence."""
    for family in SYNTH_FAMILIES:
        for theta, phi in EXACT_TARGETS:
            yield f"{family}-{theta}", synthesize(family, theta_for(family, theta), phi)
    pulses = [Pulse(1.1, 0.3), Pulse(2.0, 4.0), Pulse(1.1, 2.5), Pulse(0.0, 1.0), Pulse(2.0, 0.0),
              Pulse(1.1, 5.9)]
    yield "custom", PulseSequence("custom", tuple(pulses), ref.rotation([0.3, -0.2, 0.9]))
    yield "pulse-free", PulseSequence("custom", (), ref.rotation([0.0, 0.0, 1.0]))


EXACT_SEQUENCES = dict(exact_sequences())


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", list(EXACT_SEQUENCES))
def test_landscape_cells_have_the_per_pulse_bits(name, threads):
    seq = EXACT_SEQUENCES[name]
    grid = landscape(seq, (-0.3, 0.25), (-0.2, 0.35), resolution=257, threads=threads)
    want = ref.per_pulse_landscape(pulses_of(seq), seq._unit, grid.eps_values, grid.eps_prime_values)
    assert np.array_equal(grid.fidelity, want)


@pytest.mark.parametrize("name", list(EXACT_SEQUENCES))
def test_ladder_has_the_per_pulse_bits(name):
    seq = EXACT_SEQUENCES[name]
    for axis in AXES:
        de, dp = _DIRECTIONS[axis]
        points = [(s, ref.per_pulse_infidelity(pulses_of(seq), seq._unit, de * s, dp * s))
                  for s in DEFAULT_SCALING_LADDER]
        assert [_infidelities(seq, de * s, dp * s) for s in DEFAULT_SCALING_LADDER] == [f for _, f in points]
        kept = [(s, f) for s, f in points if f > 1e-14]
        if len(kept) < 2:
            with pytest.raises(ValueError, match="fewer than 2"):
                _ladder(seq, axis)
            continue
        slope, _, got, _ = _ladder(seq, axis)
        assert got == kept
        assert slope == ref.ladder_slope(kept)


def test_landscape_working_set_stays_within_16_and_a_half_blocks():
    # 16.5 arrays of 16,384 float64 cells: what the kernel needed when it
    # evaluated one rotation per pulse, at that block size
    seq = synthesize("cis-cccp", 1.3, 0.4)
    tracemalloc.start()
    try:
        grid = landscape(seq, resolution=513, threads=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - grid.fidelity.nbytes <= 2_162_688


@pytest.mark.parametrize("family,subdivisions", [
    ("corpse", 64), ("scrofulous", 64), ("bb1", 64), ("alway-jones", 64), ("cis-cccp", 256),
])
def test_moments_match_node_loop(family, subdivisions):
    seq = synthesize(family, theta_for(family, 1.3), 0.4)
    got = error_moment_integrals(seq)
    first, second = ref.moments(ref.vectors_of(seq), subdivisions)
    assert max_abs(got.first_moment, first) <= 1e-12
    assert max_abs(got.second_moment, second) <= 1e-12


def test_moments_match_node_loop_with_zero_angle_pulse():
    # the xy vectors (1.1, 0.3, 0), 0 and (-0.4, 2.0, 0)
    pulses = (Pulse(np.hypot(1.1, 0.3), np.arctan2(0.3, 1.1)), Pulse(0.0, 0.0),
              Pulse(np.hypot(-0.4, 2.0), np.arctan2(2.0, -0.4)))
    seq = PulseSequence("custom", pulses, (1, 0, 0, 0))
    got = error_moment_integrals(seq)
    first, second = ref.moments(ref.vectors_of(seq), 32)
    assert max_abs(got.first_moment, first) <= 1e-12
    assert max_abs(got.second_moment, second) <= 1e-12


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
    planes = _quaternion(*np.moveaxis(vs, -1, 0))
    qs = np.stack(planes, axis=-1)
    assert qs.shape == vs.shape[:-1] + (4,)
    assert np.all(np.abs(np.linalg.norm(qs, axis=-1) - 1) <= 4e-15)
    batch = vs.shape[1:-1]
    pair = np.stack(_hamilton([c[-1] for c in planes], [c[0] for c in planes]), axis=-1)
    full = np.stack(_product(np.moveaxis(qs, -1, 1)), axis=-1)
    for index in np.ndindex(*batch):
        column = [v[index] for v in vs]
        want_pair = ref.rotation(column[-1]) @ ref.rotation(column[0])
        assert max_abs(_matrix(*pair[index]), want_pair) <= 1e-14
        assert max_abs(_matrix(*full[index]), ref.product(column)) <= 1e-14
    assert np.all(np.abs(np.linalg.norm(full, axis=-1) - 1) <= 1e-14)
