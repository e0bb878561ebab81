"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them inline).  Tolerances are
fixed here and nowhere else."""

import time
import warnings

import numpy as np

from cpseq.analysis import infidelity_scaling, landscape, phase_decomposition, robust_area
from cpseq.error_model import (
    ErrorChannel,
    error_moment_integrals,
    finite_difference_generator,
    first_order_error,
    perturbed_propagator,
)
from cpseq.sequences import PulseSequence, _reduce, synthesize

from conftest import averaged_generator, frob, pulse_generator, random_xy_vector
from loop_reference import SX, SY, fidelity, interaction_quadrature, rotation


def report(number: int, description: str, ok: bool):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number:2d}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def xy(theta, phi):
    return np.array([theta * np.cos(phi), theta * np.sin(phi), 0.0])


UNIT_LENGTH = ErrorChannel.pulse_length(1.0)
UNIT_DETUNING = ErrorChannel.off_resonance(1.0)


def test_criterion_01_product_exactness():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        phi = rng.uniform(0, 2 * np.pi)
        theta = rng.uniform(0.05, 2 * np.pi - 0.05)
        theta_s = rng.uniform(0.15, 3.7)  # SCROFULOUS-solvable range
        for family, angle in (("plain", theta), ("corpse", theta), ("bb1", theta),
                              ("scrofulous", theta_s), ("cis-cccp", theta_s), ("alway-jones", np.pi)):
            seq = synthesize(family, angle, phi)
            worst = max(worst, 1 - fidelity(seq.propagator(), seq.target))
    report(1, f"ideal products match targets (worst 1-F = {worst:.2e} <= 1e-11)",
           worst <= 1e-11)


def test_criterion_02_channel_cancellation():
    rng = np.random.default_rng(102)
    worst = {"corpse": 0.0, "scrofulous": 0.0, "bb1": 0.0, "cis": 0.0, "aj": 0.0}
    samples = [(np.pi, 0.0), (np.pi, np.pi / 2)]
    samples += [(rng.uniform(0.1, 2 * np.pi - 0.1), rng.uniform(0, 2 * np.pi)) for _ in range(15)]
    for theta, phi in samples:
        theta_s = min(theta, 3.7)
        worst["corpse"] = max(worst["corpse"], first_order_error(
            synthesize("corpse", theta, phi), UNIT_DETUNING).off_resonance_norm)
        worst["scrofulous"] = max(worst["scrofulous"], first_order_error(
            synthesize("scrofulous", theta_s, phi), UNIT_LENGTH).pulse_length_norm)
        worst["bb1"] = max(worst["bb1"], first_order_error(
            synthesize("bb1", theta, phi), UNIT_LENGTH).pulse_length_norm)
        rep = first_order_error(synthesize("cis-cccp", theta_s, phi), UNIT_LENGTH)
        worst["cis"] = max(worst["cis"], rep.pulse_length_norm, rep.off_resonance_norm)
        rep = first_order_error(synthesize("alway-jones", np.pi, phi), UNIT_LENGTH)
        worst["aj"] = max(worst["aj"], rep.pulse_length_norm, rep.off_resonance_norm)
    ok = (worst["corpse"] <= 1e-10 and worst["scrofulous"] <= 1e-10
          and worst["bb1"] <= 1e-10 and worst["cis"] <= 1e-9 and worst["aj"] <= 1e-9)
    report(2, "per-unit-strength generators vanish on compensated channels "
              f"(worst: corpse {worst['corpse']:.1e}, scrofulous {worst['scrofulous']:.1e}, "
              f"bb1 {worst['bb1']:.1e}, cis {worst['cis']:.1e}, aj {worst['aj']:.1e})", ok)


def test_criterion_03_corpse_residual_identity():
    rng = np.random.default_rng(103)
    worst = 0.0
    for winding in ((1, 1, 0), (1, 2, 1), (0, 1, 1)):
        for _ in range(10):
            theta = rng.uniform(0.1, 2 * np.pi - 0.1)
            phi = rng.uniform(0, 2 * np.pi)
            rep = first_order_error(synthesize("corpse", theta, phi, winding), UNIT_LENGTH)
            want = theta * (np.cos(phi) * SX + np.sin(phi) * SY) / 2
            worst = max(worst, frob(rep.generator, want))
    report(3, f"CORPSE residual equals the target's own pulse-length error "
              f"(worst gap {worst:.2e} <= 1e-10)", worst <= 1e-10)


def test_criterion_04_closed_form_matches_quadrature():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(200):
        m = random_xy_vector(rng)
        ch = ErrorChannel.combined(rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1))
        closed = averaged_generator(m, ch)
        quad = interaction_quadrature(m, pulse_generator(m, ch), nodes=64)
        worst = max(worst, frob(closed, quad))
    report(4, f"toggling-frame closed form matches 64-node quadrature "
              f"(worst {worst:.2e} <= 1e-10)", worst <= 1e-10)


def test_criterion_05_finite_difference_oracle():
    families = {
        "plain": synthesize("plain", np.pi, 0.0),
        "corpse": synthesize("corpse", np.pi, 0.0),
        "scrofulous": synthesize("scrofulous", np.pi, 0.0),
        "bb1": synthesize("bb1", np.pi, 0.0),
        "cis-cccp": synthesize("cis-cccp", np.pi, np.pi / 2),
        "alway-jones": synthesize("alway-jones", np.pi, 0.0),
    }
    worst = 0.0
    for seq in families.values():
        rep = first_order_error(seq, ErrorChannel.combined(0, 0))
        for channel, coeff in ((UNIT_LENGTH, rep.pulse_length_coefficient),
                               (UNIT_DETUNING, rep.off_resonance_coefficient)):
            fd = finite_difference_generator(seq, channel)
            worst = max(worst, frob(fd, coeff))
    report(5, f"analytic generators match central-difference oracle at step 1e-5 "
              f"(worst {worst:.2e} <= 1e-4)", worst <= 1e-4)


def test_criterion_06_landscape_area_ordering():
    phi = np.pi / 2  # target exp(-i pi sigma_y / 2)
    start = time.perf_counter()
    grids = {
        "plain": landscape(synthesize("plain", np.pi, phi), resolution=201, threads=1),
        "corpse": landscape(synthesize("corpse", np.pi, phi), resolution=201, threads=1),
        "scrofulous": landscape(synthesize("scrofulous", np.pi, phi), resolution=201, threads=1),
        "cis-cccp": landscape(synthesize("cis-cccp", np.pi, phi), resolution=201, threads=1),
    }
    elapsed = time.perf_counter() - start
    areas = {name: robust_area(g, 1 - 1e-4) for name, g in grids.items()}
    ok = (areas["cis-cccp"] > areas["corpse"]
          and areas["cis-cccp"] > areas["scrofulous"]
          and areas["cis-cccp"] > areas["plain"]
          and elapsed <= 10.0)
    report(6, "201x201 robust-area ordering cis-cccp > {corpse, scrofulous, plain} "
              f"(areas {areas['cis-cccp']:.3f} / {areas['corpse']:.3f} / "
              f"{areas['scrofulous']:.3f} / {areas['plain']:.3f}, {elapsed:.1f}s <= 10s)", ok)


def test_criterion_07_scaling_exponents():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        plain_eps = infidelity_scaling(synthesize("plain", np.pi, 0.0), "eps").slope
        plain_det = infidelity_scaling(synthesize("plain", np.pi, 0.0), "eps-prime").slope
        scrof = infidelity_scaling(synthesize("scrofulous", np.pi, 0.0), "eps").slope
        corpse_det = infidelity_scaling(synthesize("corpse", np.pi, 0.0, (1, 2, 1)), "eps-prime").slope
        cis = synthesize("cis-cccp", np.pi, np.pi / 2)
        cis_eps = infidelity_scaling(cis, "eps").slope
        cis_det = infidelity_scaling(cis, "eps-prime").slope
    ok = (abs(plain_eps - 2.0) <= 0.1 and abs(plain_det - 2.0) <= 0.1
          and scrof >= 3.8 and corpse_det >= 3.8 and cis_eps >= 3.8 and cis_det >= 3.8)
    report(7, f"log-log infidelity slopes (plain {plain_eps:.2f}/{plain_det:.2f} ~ 2, "
              f"scrofulous {scrof:.2f}, corpse {corpse_det:.2f}, "
              f"cis {cis_eps:.2f}/{cis_det:.2f} >= 3.8)", ok)


def test_criterion_08_geometric_phase_claim():
    worst = 0.0
    for seq in (synthesize("scrofulous", np.pi, 0.0), synthesize("bb1", np.pi, 0.0),
                synthesize("cis-cccp", np.pi, np.pi / 2), synthesize("alway-jones", np.pi, 0.0)):
        worst = max(worst, float(np.max(np.abs(phase_decomposition(seq).dynamical))))
    rep = phase_decomposition(synthesize("plain", np.pi, 0.0))
    plain_ok = np.allclose(rep.dynamical, [-np.pi / 2, np.pi / 2], atol=1e-10)
    report(8, f"pulse-length-robust families have vanishing dynamical phase "
              f"(worst |gamma_d| = {worst:.2e} <= 1e-8) and the plain pi pulse gives "
              f"-/+ pi/2", worst <= 1e-8 and plain_ok)


def test_criterion_09_pi_pulse_appendix():
    seq = synthesize("alway-jones", np.pi, 0.0)
    length_block = PulseSequence("custom", seq.pulses[1:4], (1, 0, 0, 0))
    detuning_block = PulseSequence("custom", seq.pulses[4:8], (1, 0, 0, 0))

    def block_product(block, channel):
        return perturbed_propagator(block, channel)

    id_gap = max(frob(block_product(length_block, ErrorChannel.combined(0, 0)), np.eye(2)),
                 frob(block_product(detuning_block, ErrorChannel.combined(0, 0)), np.eye(2)))

    h = 1e-4
    c = np.arccos(-0.25)
    d_len = (block_product(length_block, ErrorChannel.pulse_length(h))
             - block_product(length_block, ErrorChannel.pulse_length(-h))) / (2 * h)
    gap_len = frob(d_len, -2j * np.pi * np.cos(c) * SX)
    d_det = (block_product(detuning_block, ErrorChannel.off_resonance(h))
             - block_product(detuning_block, ErrorChannel.off_resonance(-h))) / (2 * h)
    gap_det = frob(d_det, 4j * np.cos(c) * SY)

    rng = np.random.default_rng(109)
    worst_red = 0.0
    for _ in range(1000):
        k = int(rng.integers(1, 9))
        phases = rng.uniform(0, 2 * np.pi, size=k)
        direct = np.eye(2, dtype=complex)
        for p in phases:
            direct = rotation(xy(np.pi, p)) @ direct
        worst_red = max(worst_red, 1 - fidelity(direct, rotation(_reduce(phases))))

    ok = id_gap <= 1e-12 and gap_len <= 1e-6 and gap_det <= 1e-6 and worst_red <= 1e-10
    report(9, f"compensation blocks are identity ({id_gap:.1e} <= 1e-12), first-order "
              f"coefficients 2*pi*cos(phi) and 4*cos(phi) match FD ({gap_len:.1e}, "
              f"{gap_det:.1e} <= 1e-6), pi-pulse reduction exact (worst 1-F {worst_red:.1e})",
           ok)


def test_criterion_10_reverse_concatenation_not_robust():
    rep = first_order_error(synthesize("scrofulous-in-corpse", np.pi, 0.0), ErrorChannel.combined(0, 0))
    combined_norm = float(np.hypot(rep.pulse_length_norm, rep.off_resonance_norm))
    report(10, f"SCROFULOUS-inside-CORPSE keeps a first-order error "
               f"(combined norm {combined_norm:.3f} > 1e-3)", combined_norm > 1e-3)


def test_criterion_11_moment_integrals():
    worst_trace = 0.0
    for seq in (synthesize("scrofulous", np.pi, 0.0), synthesize("bb1", np.pi, 0.0)):
        mom = error_moment_integrals(seq)
        worst_trace = max(worst_trace, float(np.max(np.abs(mom.second_moment.trace()))))
    report(11, f"second-moment trace part vanishes for pulse-length-robust families "
               f"({worst_trace:.1e} <= 1e-8)", worst_trace <= 1e-8)
