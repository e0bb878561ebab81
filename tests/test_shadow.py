"""A 50-digit shadow of the double-precision kernels.

The kernels take their elementary functions from the caller as ``lib``, so
the code that computes cpseq's doubles also runs on mpmath numbers.  For
every registry family at theta in ``THETAS`` (alway-jones at pi) and phi in
``PHIS``, each pulse's (theta, cos phi, sin phi) and the target are built in
50 digits from the sequence's float angles, the kernels run with
``lib=mpmath``, and each double output is held to its 50-digit value:

- the walk's ideal product and the two unit generators (``_shares``,
  ``_generators``), absolute, scaled by the total rotation Theta;
- both moment integrals of ``error_moment_integrals``, against their
  contractions written out here from the 50-digit shares, likewise;
- every ladder point of the three scaling axes (``_products``), relative;
- the perturbed product under a general (f, F) channel
  (``_perturbed_products``), absolute, scaled by Theta;
- a sample of landscape cells (``_products``), likewise;
- the phases of ``_phases``, against their closed form in the 50-digit
  product and pulse-length generator, likewise.

The shadow is checked before it is trusted.  Every component must be an
mpf, and two identities must hold far below a double's rounding: the
general channel's generator is the contraction of the moments, and it is
the derivative of the perturbed product, a central difference at a 1e-20
step.  A kernel that calls math instead of its ``lib`` either hands back a
float or leaves an error near 1e-17 in one of them.  Each bound is the
worst case measured over these cases, on x86-64 with glibc, times the
headroom stated beside it.
``_eig`` still calls math and cmath itself and takes no ``lib``, so the
phases it gives are shadowed through that closed form, not by running it on
mpmath.
"""

import functools
import math
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from cpseq.analysis import _DIRECTIONS, AXES, DEFAULT_SCALING_LADDER, _infidelities, _phases, _products, landscape
from cpseq.error_model import _UNITS, ErrorChannel, _generators, _perturbed_products, error_moment_integrals
from cpseq.sequences import _REGISTRY, synthesize
from cpseq.su2 import _hamilton, _shares

mpmath = pytest.importorskip("mpmath")

EPS = sys.float_info.epsilon
THETAS = (0.5, 1.0, math.pi / 2, 2.0, math.pi)
PHIS = (0.0, 0.3)
# a channel with every entry of f and F nonzero and no symmetry, at two strengths
GENERAL = ErrorChannel((0.3, -0.2, 0.7), ((0.1, 0.5, -0.3), (0.2, -0.4, 0.6), (0.9, 0.05, -0.15)))
STRENGTHS = (1.0, -0.01)
# landscape cells sampled from a 21 x 21 grid: corners, edge midpoints and the centre
CELLS = (0, 10, 20)

# Bounds: measured worst case, then the headroom.
PRODUCT = 2 * EPS  # x Theta; 0.46, plain at theta = 0.5; 4.3x
GENERATOR = 8 * EPS  # x Theta; 1.92, scrofulous-in-corpse at theta = 1, phi = 0; 4.2x
FIRST_MOMENT = 1 * EPS  # x Theta; 0.19, alway-jones; 5.2x
SECOND_MOMENT = 8 * EPS  # x Theta; 1.80, alway-jones; 4.4x
LADDER = 1e-6  # relative; 2.47e-7, bb1 at theta = 1, phi = 0, eps = 1e-3, where 1 - F = 3.5e-19; 4x
# The overlap's v carries about an ulp of rounding and 1 - F = |v|^2 / (1 + |w|),
# so the error grows as sqrt(1 - F): the relative bound is set by the smallest points
LADDER_SQRT = 24 * EPS  # x sqrt(1 - F); 5.73, corpse at theta = pi, phi = 0.3 on eps-prime; 4.2x
PERTURBED = 3 * EPS  # x Theta; 0.68, plain at theta = 0.5; 4.4x
CELL = 4 * EPS  # x Theta; 1.0, plain at theta = 0.5 at the centre, half an ulp of 1; 4x
TOTAL_PHASE = 1.5 * EPS  # x Theta; 0.32, plain at theta = pi, phi = 0.3; 4.7x
DYNAMICAL_PHASE = 3 * EPS  # x Theta; 0.66, corpse at theta = 1, phi = 0.3; 4.6x
GEOMETRIC_PHASE = 4 * EPS  # x Theta; 0.82, corpse at theta = 1, phi = 0.3; 4.9x
# The shadow's own identities, far below any double's rounding
CONTRACTION = 1e-45  # x Theta; 2.3e-51, rounding at 50 digits
STEP = 1e-20
DERIVATIVE = 1e-28  # x Theta; 1.6e-31, the rounding of a central difference at STEP

FAMILIES = list(_REGISTRY)


@pytest.fixture(autouse=True)
def fifty_digits():
    with mpmath.workdps(50):
        yield


def cases(family):
    lo, hi, _ = _REGISTRY[family].domain
    return [(theta, phi) for theta in ((lo,) if lo == hi else THETAS) for phi in PHIS]


@functools.cache
def case(family, theta, phi):
    """The sequence, its 50-digit shadow and its total rotation Theta.  The
    shadow, built under the fixture's 50 digits, has the fields the kernels
    read: ``_terms``, ``_vectors``, ``_shares`` and ``_product``, the last two
    from ``_shares`` on mpmath, and ``_unit``, the target's quaternion."""
    seq = synthesize(family, theta, phi)
    terms = tuple((mpmath.mpf(p.theta), mpmath.cos(p.phi), mpmath.sin(p.phi)) for p in seq.pulses)
    vectors = tuple((t * c, t * s, mpmath.mpf(0)) for t, c, s in terms)
    shares, product = _shares(vectors, mpmath)
    half = mpmath.mpf(seq.theta) / 2
    unit = (mpmath.cos(half), mpmath.sin(half) * mpmath.cos(seq.phi),
            mpmath.sin(half) * mpmath.sin(seq.phi), mpmath.mpf(0))
    shadow = SimpleNamespace(_terms=terms, _vectors=vectors, _shares=shares, _product=product, _unit=unit)
    return seq, shadow, sum(p.theta for p in seq.pulses)


def shadowed(values) -> list:
    """The components of a shadow output, flattened; each must be an mpf."""
    flat = [c for v in values for c in shadowed(v)] if isinstance(values, (tuple, list)) else [values]
    assert all(type(c) is mpmath.mpf for c in flat), flat
    return flat


def gap(doubles, shadow) -> float:
    """Largest |double - shadow| over matching components."""
    shadow = shadowed(shadow)
    doubles = np.ravel(doubles).tolist()
    assert len(doubles) == len(shadow)
    return max(float(abs(mpmath.mpf(d) - s)) for d, s in zip(doubles, shadow))


def overlap_w(shadow, eps, eps_prime):
    """w of T^dag U for the 50-digit product under combined errors of double strengths."""
    w, x, y, z = shadow._unit
    q = _products(shadow._terms, mpmath.mpf(eps), mpmath.mpf(eps_prime), mpmath)
    return shadowed(_hamilton((w, -x, -y, -z), q))[0]


@pytest.mark.parametrize("family", FAMILIES)
def test_ideal_product_and_unit_generators_are_their_50_digit_values(family):
    for theta, phi in cases(family):
        seq, shadow, total = case(family, theta, phi)
        assert len(shadowed(shadow._shares)) == 9 * len(seq)
        assert gap(seq._product, shadow._product) <= PRODUCT * total, (theta, phi)
        doubles, exact = _generators(seq, _UNITS.values()), _generators(shadow, _UNITS.values(), mpmath)
        assert gap(doubles, exact) <= GENERATOR * total, (theta, phi)


@pytest.mark.parametrize("family", FAMILIES)
def test_moment_integrals_are_their_50_digit_contractions(family):
    for theta, phi in cases(family):
        seq, shadow, total = case(family, theta, phi)
        moments = error_moment_integrals(seq)
        angles = [mpmath.sqrt(x * x + y * y + z * z) for x, y, z in shadow._vectors]
        angle = sum(angles)
        first = [sum(a / angle * s[3 * mu + rho] for a, s in zip(angles, shadow._shares))
                 for mu in range(3) for rho in range(3)]
        second = [sum(m[nu] * s[3 * mu + rho] for m, s in zip(shadow._vectors, shadow._shares))
                  for mu in range(3) for nu in range(3) for rho in range(3)]
        assert gap(moments.first_moment, first) <= FIRST_MOMENT * total, (theta, phi)
        assert gap(moments.second_moment, second) <= SECOND_MOMENT * total, (theta, phi)
        # the shadow's moments give its generators: g = Theta first^T f + second : F
        f, F = GENERAL.f_const, GENERAL.f_linear
        g = [angle * sum(f[mu] * first[3 * mu + rho] for mu in range(3))
             + sum(F[mu][nu] * second[9 * mu + 3 * nu + rho] for mu in range(3) for nu in range(3))
             for rho in range(3)]
        generator = shadowed(_generators(shadow, [GENERAL], mpmath))
        assert max(abs(a - b) for a, b in zip(g, generator)) <= CONTRACTION * total, (theta, phi)


@pytest.mark.parametrize("family", FAMILIES)
def test_shadow_generator_is_the_derivative_of_its_perturbed_product(family):
    # the generator comes through _shares and _frame_average, the derivative
    # through _quaternion alone, as finite_difference_generator takes it
    step = mpmath.mpf(STEP)
    for theta, phi in cases(family):
        _, shadow, total = case(family, theta, phi)
        up, um = _perturbed_products(shadow._vectors, GENERAL, (step, -step), mpmath)
        w, x, y, z = shadow._product
        derivative = _hamilton((w, -x, -y, -z), [(p - m) / step for p, m in zip(up, um)])[1:]
        generator = _generators(shadow, [GENERAL], mpmath)[0]
        gaps = [abs(a - b) for a, b in zip(shadowed(derivative), shadowed(generator))]
        assert max(gaps) <= DERIVATIVE * total, (theta, phi)


@pytest.mark.parametrize("family", FAMILIES)
def test_ladder_points_are_their_50_digit_infidelities(family):
    for theta, phi in cases(family):
        seq, shadow, _ = case(family, theta, phi)
        for axis in AXES:
            de, dp = _DIRECTIONS[axis]
            for s in DEFAULT_SCALING_LADDER:
                exact = 1 - abs(overlap_w(shadow, de * s, dp * s))
                error = float(abs(mpmath.mpf(_infidelities(seq, de * s, dp * s)) - exact))
                assert error <= LADDER * float(exact), (theta, phi, axis, s)
                assert error <= LADDER_SQRT * float(mpmath.sqrt(exact)), (theta, phi, axis, s)


@pytest.mark.parametrize("family", FAMILIES)
def test_perturbed_products_are_their_50_digit_values(family):
    strengths = [mpmath.mpf(s) for s in STRENGTHS]
    for theta, phi in cases(family):
        seq, shadow, total = case(family, theta, phi)
        doubles = _perturbed_products(seq._vectors, GENERAL, STRENGTHS)
        exact = _perturbed_products(shadow._vectors, GENERAL, strengths, mpmath)
        assert gap(doubles, exact) <= PERTURBED * total, (theta, phi)


@pytest.mark.parametrize("family", FAMILIES)
def test_landscape_cells_are_their_50_digit_fidelities(family):
    for theta, phi in cases(family):
        seq, shadow, total = case(family, theta, phi)
        grid = landscape(seq, resolution=21, threads=1)
        for i in CELLS:
            for j in CELLS:
                exact = abs(overlap_w(shadow, grid.eps_values[i], grid.eps_prime_values[j]))
                assert gap(grid.fidelity[i, j], [exact]) <= CELL * total, (theta, phi, i, j)


def wrapped_gap(double, exact) -> float:
    """|double - exact| with the difference reduced mod 2 pi into [-pi, pi]."""
    diff = mpmath.mpf(double) - exact
    return float(abs(diff - 2 * mpmath.pi * mpmath.nint(diff / (2 * mpmath.pi))))


@pytest.mark.parametrize("family", FAMILIES)
def test_phases_are_their_50_digit_closed_form(family):
    # For the product (w, v), the eigenphases are -+a, a = atan2(|v|, w), and the
    # state of total -a has Bloch vector +v/|v|; its dynamical phase is -1/2 g . v/|v|
    # for the pulse-length generator g, and the geometric phase is what remains.
    for theta, phi in cases(family):
        seq, shadow, total = case(family, theta, phi)
        rows, _, degenerate = _phases(seq)
        assert not degenerate, (theta, phi)
        w, x, y, z = shadow._product
        norm = mpmath.sqrt(x * x + y * y + z * z)
        a = mpmath.atan2(norm, w)
        g = shadowed(_generators(shadow, (_UNITS["pulse_length"],), mpmath)[0])
        along = (g[0] * x + g[1] * y + g[2] * z) / norm
        for (t, d, geometric), sign in zip(rows, (-1, 1)):
            assert wrapped_gap(t, sign * a) <= TOTAL_PHASE * total, (theta, phi)
            assert wrapped_gap(d, sign * along / 2) <= DYNAMICAL_PHASE * total, (theta, phi)
            assert wrapped_gap(geometric, sign * (a - along / 2)) <= GEOMETRIC_PHASE * total, (theta, phi)
