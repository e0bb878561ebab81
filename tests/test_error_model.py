import math
import warnings

import numpy as np
import pytest

from cpseq.analysis import landscape, phase_decomposition
from cpseq.cli import main
from cpseq.error_model import (
    ErrorChannel,
    _norm,
    error_moment_integrals,
    finite_difference_generator,
    first_order_error,
    perturbed_propagator,
)
from cpseq.sequences import _REGISTRY, Pulse, PulseSequence, synthesize
from cpseq.su2 import rotation_generator

from conftest import CliRunner, averaged_generator, frob, pulse_generator, random_xy_vector, theta_for
from loop_reference import (SX, SY, SZ, fidelity, interaction_quadrature, product_error_split, rotation,
                            vectors_of)


def random_three_pulse(rng) -> PulseSequence:
    pulses = tuple(Pulse(rng.uniform(0.1, 2 * np.pi), rng.uniform(0, 2 * np.pi)) for _ in range(3))
    seq = PulseSequence("custom", pulses, np.eye(2, dtype=complex))
    return PulseSequence("custom", pulses, seq.propagator())


# ---------------------------------------------------------------- channels

def test_channel_shape_check():
    for f, F in ((np.ones(2), np.eye(3)), (np.ones(4), np.eye(3)), (np.ones(3), np.eye(4)),
                 (np.ones(3), np.ones((3, 2))), (np.ones(3), np.ones((2, 3)))):
        with pytest.raises(ValueError):
            ErrorChannel(f, F)
    ch = ErrorChannel(f_linear=0.1 * np.eye(3))
    assert ch.f_const == (0.0, 0.0, 0.0) and ch.f_linear == ((0.1, 0.0, 0.0), (0.0, 0.1, 0.0), (0.0, 0.0, 0.1))
    assert {type(v) for v in (*ch.f_const, *sum(ch.f_linear, ()))} == {float}
    assert ch == ErrorChannel.pulse_length(0.1)


# ------------------------------------------------- per-pulse generator dm

def test_pulse_error_pulse_length_term():
    got = pulse_generator([np.pi, 0, 0], ErrorChannel.pulse_length(0.1))
    assert frob(got, 0.1 * np.pi * SX / 2) < 1e-14


def test_pulse_error_off_resonance_term():
    got = pulse_generator([np.pi, 0, 0], ErrorChannel.off_resonance(0.1))
    assert frob(got, 0.1 * np.pi * SZ / 2) < 1e-14


def test_pulse_error_zero_strengths():
    assert frob(pulse_generator([1.2, 0.3, 0], ErrorChannel.combined(0, 0))) == 0.0


def test_pulse_error_general_linear():
    f = np.array([0.1, 0.0, -0.2])
    F = np.array([[0.0, 0.1, 0.0], [0.0, 0.0, 0.0], [0.3, 0.0, 0.0]])
    m = np.array([1.0, 2.0, 0.0])
    got = pulse_generator(m, ErrorChannel(f, F))
    v = np.linalg.norm(m) * f + F @ m
    expect = (v[0] * SX + v[1] * SY + v[2] * SZ) / 2
    assert frob(got, expect) < 1e-14


# ----------------------------------------- toggling-frame average A(m)^T dm

def test_interaction_error_full_two_pi_pulse_kills_detuning():
    # sin(|m|/2) vanishes at |m| = 2*pi; cross-check with quadrature
    m = [2 * np.pi, 0, 0]
    ch = ErrorChannel.off_resonance(0.7)
    closed = averaged_generator(m, ch)
    assert frob(closed) < 1e-12
    quad = interaction_quadrature(m, pulse_generator(m, ch), nodes=64)
    assert frob(quad) < 1e-12


def test_interaction_error_commuting_term_untouched():
    got = averaged_generator([np.pi, 0, 0], ErrorChannel.pulse_length(0.1))
    assert frob(got, 0.1 * np.pi * SX / 2) < 1e-14


def test_interaction_error_quarter_pulse_detuning():
    # analytic integral of (cos(x theta) sz + sin(x theta) sy) over the pulse
    got = averaged_generator([np.pi / 2, 0, 0], ErrorChannel.off_resonance(1.0))
    s = np.sin(np.pi / 4)
    want = s * (np.cos(np.pi / 4) * SZ + np.sin(np.pi / 4) * SY)
    assert frob(got, want) < 1e-14


def test_quadrature_zero_generator():
    assert frob(interaction_quadrature([1.0, 0.5, 0], np.zeros((2, 2)), nodes=64)) == 0.0


def test_quadrature_matches_closed_form_single_case():
    m = [np.pi / 2, 0, 0]
    got = interaction_quadrature(m, (np.pi / 2) * SZ / 2, nodes=64)
    want = averaged_generator(m, ErrorChannel.off_resonance(1.0))
    assert frob(got, want) < 1e-12


def test_quadrature_z_axis_pulse_rotation_average():
    # W = pi sz / 2 conjugates sx/2 into (cos(pi x) sx - sin(pi x) sy) / 2;
    # integrating over x in [0, 1] leaves -(2/pi) sy / 2.
    got = interaction_quadrature([0, 0, np.pi], SX / 2, nodes=64)
    want = -(2 / np.pi) * SY / 2
    assert frob(got, want) < 1e-12


def test_closed_form_vs_quadrature_200_random():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(200):
        m = random_xy_vector(rng)
        ch = ErrorChannel.combined(rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1))
        closed = averaged_generator(m, ch)
        quad = interaction_quadrature(m, pulse_generator(m, ch), nodes=64)
        worst = max(worst, frob(closed, quad))
    assert worst < 1e-10


def test_interaction_error_hermitian():
    rng = np.random.default_rng(8)
    for _ in range(50):
        m = random_xy_vector(rng)
        ch = ErrorChannel.combined(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))
        H = averaged_generator(m, ch)
        assert frob(H, H.conj().T) <= 1e-12 and abs(np.trace(H)) <= 1e-12


def test_interaction_error_general_linear_off_axis_pulse():
    # pulses with z components under general-linear channels, including the
    # sinc limit |m| -> 0 and whole turns, where the closed form must neither
    # warn nor leave a NaN
    rng = np.random.default_rng(43)
    cases = [(np.array([0.0, 0.0, np.pi]), ErrorChannel(f_const=[0.5, 0, 0]))]
    lengths = [0.0, 1e-300, 1e-9, 2 * np.pi - 1e-9, 2 * np.pi, 2 * np.pi + 1e-9, 4 * np.pi,
               4 * np.pi + 1e-9]
    for length in lengths + list(rng.uniform(0.1, 8.0, 200)):
        direction = rng.normal(size=3)
        ch = ErrorChannel(rng.uniform(-0.3, 0.3, 3), rng.uniform(-0.3, 0.3, (3, 3)))
        cases.append((length * direction / np.linalg.norm(direction), ch))
    for m, ch in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = averaged_generator(m, ch)
        assert np.isfinite(got).all()
        want = interaction_quadrature(m, pulse_generator(m, ch), nodes=64)
        assert frob(got, want) < 1e-13


# -------------------------------------------------------- accumulation

def test_first_order_single_pulse():
    rep = first_order_error(synthesize("plain", np.pi, 0.0), ErrorChannel.pulse_length(1.0))
    assert frob(rep.generator, np.pi * SX / 2) < 1e-12


def test_first_order_corpse_detuning_cancels():
    rep = first_order_error(synthesize("corpse", np.pi, 0.0), ErrorChannel.off_resonance(1.0))
    assert frob(rep.generator) < 1e-10
    assert rep.robust_to_off_resonance and not rep.robust_to_pulse_length


def test_first_order_corpse_residual_is_target_pulse_length_error():
    rng = np.random.default_rng(11)
    for winding in ((1, 1, 0), (1, 2, 1)):
        theta, phi = rng.uniform(0.2, 2 * np.pi - 0.2), rng.uniform(0, 2 * np.pi)
        rep = first_order_error(synthesize("corpse", theta, phi, winding), ErrorChannel.pulse_length(1.0))
        target_error = theta * (np.cos(phi) * SX + np.sin(phi) * SY) / 2
        assert frob(rep.generator, target_error) < 1e-10


def test_norm_survives_a_square_that_overflows():
    assert _norm((3.0, 4.0, 12.0)) == math.sqrt(169.0 / 2)  # a finite square keeps its formula
    assert _norm((2e154, 0.0, 0.0)) == 2e154 / math.sqrt(2)
    assert _norm((-1e308, 1e308, 1e308)) == pytest.approx(1e308 * math.sqrt(1.5), rel=1e-15)


def test_first_order_linearity_in_strengths():
    rng = np.random.default_rng(12)
    seq = random_three_pulse(rng)
    base = first_order_error(seq, ErrorChannel.combined(0.02, -0.05)).generator
    for alpha in (-1.5, 0.3, 2.0):
        scaled = first_order_error(seq, ErrorChannel.combined(alpha * 0.02, alpha * -0.05)).generator
        assert frob(scaled, alpha * base) < 1e-12


def test_first_order_generator_hermitian():
    rng = np.random.default_rng(13)
    for _ in range(20):
        seq = random_three_pulse(rng)
        H = first_order_error(seq, ErrorChannel.combined(0.1, 0.07)).generator
        assert frob(H, H.conj().T) <= 1e-12 and abs(np.trace(H)) <= 1e-12


# a pulse-length error commutes with its pulse: no toggling-frame rotation

def test_commuting_accumulation_plain_pulse():
    got = first_order_error(synthesize("plain", np.pi, 0.0), ErrorChannel.pulse_length(1.0)).generator
    assert frob(got, np.pi * SX / 2) < 1e-14


def test_commuting_accumulation_scrofulous_cancels():
    got = first_order_error(synthesize("scrofulous", np.pi, 0.0), ErrorChannel.pulse_length(1.0)).generator
    assert frob(got) < 1e-10


def test_no_library_path_runs_a_quadrature(monkeypatch):
    def refuse(nodes):
        raise AssertionError("Gauss-Legendre quadrature outside the oracle")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
    with pytest.raises(AssertionError):
        interaction_quadrature([1.0, 0.0, 0.0], SX / 2, nodes=64)
    rng = np.random.default_rng(57)
    channels = (ErrorChannel.pulse_length(0.1), ErrorChannel.off_resonance(0.1),
                ErrorChannel(rng.uniform(-0.3, 0.3, 3), rng.uniform(-0.3, 0.3, (3, 3))))
    runner = CliRunner()
    for family in _REGISTRY:
        seq = synthesize(family, theta_for(family, 1.3), 0.4)
        for ch in channels:
            first_order_error(seq, ch)
        error_moment_integrals(seq)
        theta = [] if family == "alway-jones" else ["--theta", "1.3"]
        result = runner.invoke(main, ["verify", "--family", family, *theta], catch_exceptions=False)
        assert result.exit_code == 0


# -------------------------------------------------- product error split

def test_product_split_identity_random():
    rng = np.random.default_rng(15)
    for _ in range(30):
        seq = random_three_pulse(rng)
        eps, epsp = rng.uniform(-0.2, 0.2, size=2)
        length_part, detuning_part = product_error_split(vectors_of(seq))
        gen = first_order_error(seq, ErrorChannel.combined(eps, epsp)).generator
        lhs = seq.propagator() @ gen
        rhs = eps * rotation(seq.pulses[2].vector) @ length_part + epsp * detuning_part
        assert frob(lhs, rhs) < 1e-12


def test_product_split_corpse_detuning_part_vanishes():
    _, detuning_part = product_error_split(vectors_of(synthesize("corpse", np.pi, 0.0)))
    assert frob(detuning_part) < 1e-10


def test_product_split_scrofulous():
    length_part, detuning_part = product_error_split(vectors_of(synthesize("scrofulous", np.pi, 0.0)))
    assert frob(length_part) < 1e-10
    # the residual detuning term is NOT the bare off-resonance error of the
    # target, which is why the reverse concatenation fails
    assert frob(detuning_part, SZ * np.sin(np.pi / 2)) > 0.1


def test_product_split_requires_three_pulses():
    with pytest.raises(ValueError):
        product_error_split(vectors_of(synthesize("plain", np.pi, 0.0)))


# ------------------------------------------------------ moment integrals

def test_moment_trace_part_scrofulous():
    mom = error_moment_integrals(synthesize("scrofulous", np.pi, 0.0))
    assert np.max(np.abs(mom.second_moment.trace())) < 1e-8


def test_moment_trace_part_plain_pulse():
    mom = error_moment_integrals(synthesize("plain", np.pi, 0.0))
    assert np.allclose(mom.second_moment.trace(), [np.pi, 0, 0], atol=1e-10)


def test_moment_first_constant_hamiltonian():
    # a single pulse about x leaves tau_x untouched: first row is (1, 0, 0)
    mom = error_moment_integrals(synthesize("plain", np.pi, 0.0))
    assert np.allclose(mom.first_moment[0], [1, 0, 0], atol=1e-12)


def test_generator_is_the_moment_contraction():
    # g = Theta first^T f + second : F for any channel (f, F), Theta the total rotation
    rng = np.random.default_rng(59)
    for family, row in _REGISTRY.items():
        lo, hi, _ = row.domain
        for theta in [t for t in (0.5, 1.0, 2.0, np.pi) if lo < t <= hi or t == lo == hi]:
            seq = synthesize(family, theta, 0.3)
            f, F = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, (3, 3))
            mom = error_moment_integrals(seq)
            total = sum(p.theta for p in seq.pulses)
            g = total * mom.first_moment.T @ f + np.einsum("mn,mnr->r", F, mom.second_moment)
            got = first_order_error(seq, ErrorChannel(f, F)).generator
            assert frob(got, rotation_generator(g)) < 1e-13, (family, theta)
    # a constant error is a rate per unit rotation, so CORPSE cancels a constant z error
    assert ErrorChannel([0, 0, 1]) == ErrorChannel.off_resonance(1.0)
    assert frob(first_order_error(synthesize("corpse", np.pi, 0.0), ErrorChannel([0, 0, 1])).generator) < 1e-13


def test_moment_zero_length_sequence():
    seq = PulseSequence("custom", (Pulse(0.0, 0.0),), np.eye(2, dtype=complex))
    mom = error_moment_integrals(seq)
    assert np.allclose(mom.second_moment, 0.0)
    assert np.allclose(mom.first_moment, np.eye(3))


# --------------------------------------------- exact perturbed propagator

def test_perturbed_propagator_zero_error_is_ideal():
    seq = synthesize("corpse", 1.1, 0.3)
    U = perturbed_propagator(seq, ErrorChannel.combined(0.0, 0.0))
    assert fidelity(U, seq.target) > 1 - 1e-12


def test_perturbed_propagator_plain_pulse_closed_forms():
    seq = synthesize("plain", np.pi, 0.0)
    eps = 0.07
    got = perturbed_propagator(seq, ErrorChannel.pulse_length(eps))
    assert frob(got, rotation([np.pi * (1 + eps), 0, 0])) < 1e-14
    got = perturbed_propagator(seq, ErrorChannel.off_resonance(eps))
    assert frob(got, rotation([np.pi, 0, eps * np.pi])) < 1e-14


def test_perturbed_vector_general_linear():
    # m + |m| f + F m = (1.05 + 0.1 sqrt(5), 2.1, 0) for m = (1, 2, 0), the pulse (sqrt(5), atan2(2, 1))
    seq = PulseSequence("custom", (Pulse(math.sqrt(5), math.atan2(2, 1)),), (1, 0, 0, 0))
    ch = ErrorChannel([0.1, 0, 0], 0.05 * np.eye(3))
    assert frob(perturbed_propagator(seq, ch), rotation([1.05 + 0.1 * np.sqrt(5), 2.1, 0.0])) < 1e-14


# ------------------------------------------------------ finite differences

def test_fd_oracle_compensated_channel():
    got = finite_difference_generator(synthesize("corpse", np.pi, 0.0), ErrorChannel.off_resonance(1.0))
    assert frob(got) < 1e-4


def test_fd_oracle_plain_pulse():
    got = finite_difference_generator(synthesize("plain", np.pi, 0.0), ErrorChannel.pulse_length(1.0))
    assert frob(got, np.pi * SX / 2) < 1e-4


def test_fd_oracle_concatenated_both_channels():
    seq = synthesize("cis-cccp", np.pi, np.pi / 2)
    for ch in (ErrorChannel.pulse_length(1.0), ErrorChannel.off_resonance(1.0),
               ErrorChannel.combined(1.0, 1.0)):
        assert frob(finite_difference_generator(seq, ch)) < 1e-4


def test_fd_oracle_matches_analytic_on_bb1():
    seq = synthesize("bb1", 1.7, 0.4)
    rep = first_order_error(seq, ErrorChannel.off_resonance(1.0))
    got = finite_difference_generator(seq, ErrorChannel.off_resonance(1.0))
    assert frob(got, rep.generator) < 1e-4


def test_fd_oracle_general_linear_channel():
    # the analytic generator and the oracle meet on a general channel for every family
    rng = np.random.default_rng(55)
    seqs = [synthesize("corpse", 1.3, 0.4)] + [synthesize(family, theta_for(family, 2.1), 1.0) for family in _REGISTRY]
    for seq in seqs:
        ch = ErrorChannel(rng.uniform(-0.3, 0.3, 3), rng.uniform(-0.2, 0.2, (3, 3)))
        analytic = first_order_error(seq, ch).generator
        fd = finite_difference_generator(seq, ch)
        assert frob(analytic, fd) < 1e-4
        assert frob(analytic, analytic.conj().T) <= 1e-12 and abs(np.trace(analytic)) <= 1e-12


# ------------------------------------------------------- empty sequence
# an empty sequence is the identity in every analysis, as a zero-angle pulse is

@pytest.mark.parametrize("analysis", ["first_order_error", "finite_difference_generator", "perturbed_propagator",
                                      "error_moment_integrals", "phase_decomposition", "landscape"])
def test_empty_sequence_is_the_identity(analysis):
    seq = PulseSequence("custom", (), (1, 0, 0, 0))
    channels = (ErrorChannel.pulse_length(0.1), ErrorChannel.off_resonance(0.1),
                ErrorChannel((0.1, -0.2, 0.05), ((0.03, 0.1, 0.0), (-0.1, 0.02, 0.2), (0.0, 0.1, -0.04))))
    zero = np.zeros((2, 2))
    if analysis == "first_order_error":
        for ch in channels:
            rep = first_order_error(seq, ch)
            for g in (rep.generator, rep.pulse_length_coefficient, rep.off_resonance_coefficient):
                assert np.array_equal(g, zero)
            assert rep.pulse_length_norm == rep.off_resonance_norm == 0.0
            assert rep.robust_to_pulse_length and rep.robust_to_off_resonance
    elif analysis == "finite_difference_generator":
        for ch in channels:
            assert np.array_equal(finite_difference_generator(seq, ch), zero)
    elif analysis == "perturbed_propagator":
        for ch in channels:
            assert np.array_equal(perturbed_propagator(seq, ch), np.eye(2))
    elif analysis == "error_moment_integrals":
        mom = error_moment_integrals(seq)
        assert np.array_equal(mom.first_moment, np.eye(3)) and np.array_equal(mom.second_moment, np.zeros((3, 3, 3)))
    elif analysis == "phase_decomposition":
        rep = phase_decomposition(seq)
        assert rep.degenerate and np.array_equal(rep.states, np.eye(2))
        for phases in (rep.total, rep.dynamical, rep.geometric):
            assert np.array_equal(phases, [0.0, 0.0])
    else:
        grid = landscape(seq, resolution=5, threads=1)
        assert np.array_equal(grid.fidelity, np.ones((5, 5)))
