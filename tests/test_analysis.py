import concurrent.futures
import warnings

import numpy as np
import pytest

from cpseq import analysis
from cpseq.analysis import (
    fidelity_under_error,
    infidelity_scaling,
    landscape,
    landscape_csv,
    phase_decomposition,
    robust_area,
)
from cpseq.sequences import alway_jones, bb1, cis_cccp, corpse, plain, scrofulous, synthesize

from conftest import frob


# ------------------------------------------------------------- fidelity

def test_fidelity_zero_error_is_one():
    for seq in (plain(np.pi, 0.3), corpse(1.2, 0.1), scrofulous(2.0, 1.0)):
        assert abs(fidelity_under_error(seq, 0.0, 0.0) - 1) < 1e-12


def test_fidelity_plain_pulse_closed_form():
    seq = plain(np.pi, 0.0)
    assert abs(fidelity_under_error(seq, 0.1, 0.0) - np.cos(0.05 * np.pi)) < 1e-12
    rng = np.random.default_rng(30)
    for _ in range(20):
        eps = rng.uniform(-0.5, 0.5)
        want = abs(np.cos(np.pi * eps / 2))
        assert abs(fidelity_under_error(seq, eps, 0.0) - want) < 1e-12


def test_infidelity_even_in_pulse_length_strength():
    makers = [plain(np.pi, np.pi / 2), corpse(np.pi, np.pi / 2), scrofulous(np.pi, np.pi / 2),
              bb1(np.pi, np.pi / 2), cis_cccp(np.pi, np.pi / 2), alway_jones(0.0)]
    for seq in makers:
        for s in (0.003, 0.02, 0.1):
            gap = abs(fidelity_under_error(seq, s, 0.0) - fidelity_under_error(seq, -s, 0.0))
            assert gap < 1e-12


def test_landscape_reflection_symmetry_plain_and_corpse():
    rng = np.random.default_rng(31)
    for seq in (plain(np.pi, 0.0), corpse(np.pi, 0.0)):
        for _ in range(25):
            eps, epsp = rng.uniform(-0.1, 0.1, size=2)
            gap = abs(fidelity_under_error(seq, eps, epsp) - fidelity_under_error(seq, eps, -epsp))
            assert gap < 1e-12


# ------------------------------------------------------------- landscape

def test_landscape_center_cell_is_one():
    grid = landscape(corpse(np.pi, 0.0), resolution=21, threads=1)
    assert abs(grid.fidelity[10, 10] - 1) < 1e-12
    assert grid.fidelity.shape == (21, 21)
    assert np.all(grid.fidelity >= 0) and np.all(grid.fidelity <= 1)


def test_landscape_matches_scalar_evaluation():
    seq = cis_cccp(np.pi, np.pi / 2)
    grid = landscape(seq, resolution=11, threads=1)
    rng = np.random.default_rng(32)
    for _ in range(10):
        i, j = rng.integers(0, 11, size=2)
        want = fidelity_under_error(seq, grid.eps_values[i], grid.eps_prime_values[j])
        assert abs(grid.fidelity[i, j] - want) < 1e-12


# 257^2 cells make more than four blocks of analysis._BLOCK_CELLS
@pytest.mark.parametrize("threads", [1, 2, 3, 4])
@pytest.mark.parametrize("resolution", [41, 257])
def test_landscape_thread_count_does_not_change_bytes(monkeypatch, resolution, threads):
    seq = scrofulous(np.pi, 0.0)
    got = landscape(seq, resolution=resolution, threads=threads)
    monkeypatch.setattr(analysis, "_BLOCK_CELLS", resolution * resolution)
    whole = landscape(seq, resolution=resolution, threads=1)  # one block
    assert np.array_equal(got.fidelity, whole.fidelity)


def test_landscape_refuses_ranges_too_large_to_evaluate():
    with pytest.raises(ValueError, match="non-finite"):
        landscape(plain(1.0, 0.0), eps_range=(-1e200, 1e200), resolution=3, threads=2)


def test_landscape_resolution_validation():
    with pytest.raises(ValueError):
        landscape(plain(np.pi, 0.0), resolution=1)


def test_robust_area_trivial_thresholds():
    grid = landscape(plain(np.pi, 0.0), resolution=11, threads=1)
    ones = type(grid)(grid.eps_values, grid.eps_prime_values,
                      np.ones_like(grid.fidelity), "plain")
    assert robust_area(ones, 0.9999) == 1.0
    assert robust_area(grid, 0.0) == 1.0


def test_robust_area_ordering_coarse():
    # the acceptance suite runs the full 201x201 comparison
    target_phi = np.pi / 2
    grids = {
        "plain": landscape(plain(np.pi, target_phi), resolution=81, threads=1),
        "corpse": landscape(corpse(np.pi, target_phi), resolution=81, threads=1),
        "scrofulous": landscape(scrofulous(np.pi, target_phi), resolution=81, threads=1),
        "cis": landscape(cis_cccp(np.pi, target_phi), resolution=81, threads=1),
    }
    areas = {k: robust_area(g, 1 - 1e-4) for k, g in grids.items()}
    assert areas["cis"] > areas["corpse"]
    assert areas["cis"] > areas["scrofulous"]
    assert areas["cis"] > areas["plain"]


def test_landscape_cis_cccp_axes_stay_flat():
    # along either single-error axis the concatenated sequence stays above 0.999
    grid = landscape(cis_cccp(np.pi, np.pi / 2), resolution=201, threads=1)
    center = 100
    assert grid.eps_values[center] == 0.0 and grid.eps_prime_values[center] == 0.0
    assert grid.fidelity[center, :].min() >= 0.999
    assert grid.fidelity[:, center].min() >= 0.999


def test_cis_cccp_beats_plain_at_corner():
    plain_f = fidelity_under_error(plain(np.pi, np.pi / 2), 0.1, 0.1)
    cis_f = fidelity_under_error(cis_cccp(np.pi, np.pi / 2), 0.1, 0.1)
    assert plain_f < cis_f


def test_landscape_csv_format():
    grid = landscape(plain(np.pi, 0.0), resolution=3, threads=1)
    text = landscape_csv(grid)
    lines = text.split("\n")
    assert lines[0] == "eps,eps_prime,fidelity"
    assert lines[-1] == ""  # trailing LF
    assert len(lines) == 1 + 9 + 1
    # row-major over eps then eps_prime
    e1, p1, f1 = (float(x) for x in lines[1].split(","))
    e2, p2, _ = (float(x) for x in lines[2].split(","))
    assert e1 == e2 == grid.eps_values[0]
    assert p1 == grid.eps_prime_values[0] and p2 == grid.eps_prime_values[1]
    assert abs(f1 - grid.fidelity[0, 0]) == 0.0
    assert landscape_csv(grid) == text  # deterministic


# --------------------------------------------------------------- scaling

def test_scaling_plain_is_quadratic():
    fit = infidelity_scaling(plain(np.pi, 0.0), "eps")
    assert abs(fit.slope - 2.0) < 0.05
    fit = infidelity_scaling(plain(np.pi, 0.0), "eps-prime")
    assert abs(fit.slope - 2.0) < 0.05


def test_scaling_compensated_axes_are_quartic_or_steeper():
    assert infidelity_scaling(scrofulous(np.pi, 0.0), "eps").slope >= 3.8
    with pytest.warns(RuntimeWarning, match="precision"):
        # the smallest ladder point sits below the double-precision floor
        assert infidelity_scaling(corpse(np.pi, 0.0, (1, 2, 1)), "eps-prime").slope >= 3.8


def test_scaling_diagonal_axis():
    fit = infidelity_scaling(cis_cccp(np.pi, np.pi / 2), "diagonal")
    assert fit.slope >= 3.8


def test_scaling_drops_points_below_precision_floor():
    with pytest.warns(RuntimeWarning, match="precision"):
        fit = infidelity_scaling(cis_cccp(np.pi, np.pi / 2), "eps-prime")
    assert fit.dropped
    assert fit.slope >= 3.8


def _exact_infidelity(mpmath, seq, eps: float):
    """1 - F of the shipped double-precision pulses, lengthened by eps, against
    the declared target, in 50-digit arithmetic."""
    def rotation(theta, phi, stretch=0.0):
        half = mpmath.mpf(theta) * (1 + mpmath.mpf(stretch)) / 2
        c, s = mpmath.cos(half), mpmath.sin(half)
        e = mpmath.expjpi(mpmath.mpf(phi) / mpmath.pi)
        return mpmath.matrix([[c, -1j * s / e], [-1j * s * e, c]])

    with mpmath.workdps(50):
        U = mpmath.eye(2)
        for p in seq.pulses:
            U = rotation(p.theta, p.phi, eps) * U
        M = rotation(seq.theta, seq.phi).H * U
        return 1 - abs(M[0, 0] + M[1, 1]) / 2


@pytest.mark.parametrize("family,theta,phi", [("alway-jones", np.pi, 0.3), ("bb1", 1.0, 0.0),
                                              ("cis-cccp", 1.0, 0.0)])
def test_scaling_infidelities_match_a_50_digit_product(family, theta, phi):
    # T^dag U = (w, v) carries about one ulp of rounding in v, |v| = sqrt(1 - F),
    # so 1 - F = |v|^2 / (1 + |w|) is good to about 2 eps sqrt(1 - F), where
    # 1 - |w| by subtraction is good only to about eps
    mpmath = pytest.importorskip("mpmath")
    seq = synthesize(family, theta, phi)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        fit = infidelity_scaling(seq, "eps")
    eps = np.finfo(float).eps
    for strength, infid in zip(fit.strengths, fit.infidelities):
        exact = float(_exact_infidelity(mpmath, seq, strength))
        assert abs(infid - exact) <= 1e-12 * exact + 8 * eps * np.sqrt(exact)


def test_scaling_ladder_validation():
    with pytest.raises(ValueError):
        infidelity_scaling(plain(np.pi, 0.0), "eps", strengths=[1e-3, 2e-3, 4e-3])
    with pytest.raises(ValueError):
        infidelity_scaling(plain(np.pi, 0.0), "eps", strengths=[1e-4, 2e-3, 4e-3, 8e-3, 1e-2])
    with pytest.raises(ValueError):
        infidelity_scaling(plain(np.pi, 0.0), "bogus-axis")
    for bad in (np.nan, np.inf, -np.inf):  # a range check by min and max lets NaN through
        with pytest.raises(ValueError, match="within"):
            infidelity_scaling(plain(1.0), "eps", strengths=[1e-3, bad, 2e-3, 4e-3, 8e-3])


# ---------------------------------------------------------------- phases

def test_phase_plain_pi_pulse():
    rep = phase_decomposition(plain(np.pi, 0.0))
    assert not rep.degenerate
    assert np.allclose(rep.total, [-np.pi / 2, np.pi / 2], atol=1e-12)
    assert np.allclose(rep.dynamical, [-np.pi / 2, np.pi / 2], atol=1e-10)
    assert np.allclose(rep.geometric, 0.0, atol=1e-10)


def test_phase_pulse_length_robust_families_have_no_dynamical_phase():
    for seq in (scrofulous(np.pi, 0.0), bb1(np.pi, 0.0)):
        rep = phase_decomposition(seq)
        assert np.max(np.abs(rep.dynamical)) < 1e-8
        # the whole eigenphase is geometric
        assert np.allclose(np.abs(rep.geometric), np.pi / 2, atol=1e-8)


def test_phase_additivity_mod_two_pi():
    for seq in (corpse(1.1, 0.2), scrofulous(2.2, 1.0), bb1(0.8, 0.0)):
        rep = phase_decomposition(seq)
        for a in range(2):
            gap = np.exp(1j * rep.total[a]) - np.exp(1j * (rep.dynamical[a] + rep.geometric[a]))
            assert abs(gap) < 1e-12


def test_phase_degenerate_target():
    rep = phase_decomposition(plain(2 * np.pi, 0.0))  # product is -identity
    assert rep.degenerate
    assert np.allclose(rep.states, np.eye(2))
    assert np.allclose(rep.total, np.pi, atol=1e-12)


def test_phase_states_are_cyclic():
    seq = corpse(1.7, 0.9)
    rep = phase_decomposition(seq)
    U = seq.propagator()
    for a in range(2):
        v = rep.states[:, a]
        assert np.linalg.norm(U @ v - np.exp(1j * rep.total[a]) * v) < 1e-12


@pytest.mark.parametrize("threads", [5000, 0])
def test_landscape_thread_pool_is_capped_at_available_cpus(monkeypatch, threads):
    # a stand-in pool records its size and runs the blocks in this thread
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(analysis, "_available_cpus", lambda: 3)
    seq = scrofulous(np.pi, 0.0)
    got = landscape(seq, resolution=41, threads=threads)
    assert sizes == [3]
    assert np.array_equal(got.fidelity, landscape(seq, resolution=41, threads=1).fidelity)
