"""Fidelity landscapes, robustness scaling and phase decomposition.

Fidelity is always the exact, non-perturbative overlap of the deformed
product with the target: nothing here linearises in the error strengths, so
these tools independently confirm what the first-order error generators
predict.

One sequence's fidelity, ladder and phases are computed on Python floats;
numpy is imported for grids and for the arrays the public functions return.
"""

from __future__ import annotations

import math
import os
import warnings
from typing import TYPE_CHECKING

from .error_model import _UNITS, _generators
from .sequences import PulseSequence, _Record
from .su2 import _eig, _half_angle, _hamilton, _wrap

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "LandscapeGrid",
    "ScalingFit",
    "PhaseReport",
    "AXES",
    "fidelity_under_error",
    "landscape",
    "landscape_csv",
    "robust_area",
    "infidelity_scaling",
    "phase_decomposition",
]

# (eps, eps_prime) per unit strength along each scaling axis
_DIRECTIONS = {"eps": (1.0, 0.0), "eps-prime": (0.0, 1.0), "diagonal": (1.0, 1.0)}
AXES = tuple(_DIRECTIONS)

DEFAULT_SCALING_LADDER = (1e-3, 2e-3, 4e-3, 8e-3, 1e-2)

# Ladder points with 1 - F at or below this are dropped from the scaling fit.
_LADDER_FLOOR = 1e-14

# Landscape cells per row block: small enough that a block's planes, and the
# rotations it keeps for each distinct pulse angle, stay in cache while its
# pulses are composed, and that the kept rotations add nothing to a grid's
# peak memory (at 16384 cells they added several per cent).
_BLOCK_CELLS = 8192


class LandscapeGrid(_Record):
    """Sampled fidelity of a ``family``'s sequence over an (eps, eps_prime)
    rectangle: ``fidelity[i, j]`` belongs to (eps_values[i], eps_prime_values[j]).
    """

    __slots__ = ("eps_values", "eps_prime_values", "fidelity", "family")


class ScalingFit(_Record):
    """Log-log fit log(1 - F) = slope log(s) + intercept of infidelity against
    error strength s along one ``axis``: the kept ``strengths`` with their
    ``infidelities``, and the strengths ``dropped`` at the floor."""

    __slots__ = ("axis", "slope", "intercept", "strengths", "infidelities", "dropped")


class PhaseReport(_Record):
    """``total``, ``dynamical`` and ``geometric`` phases of the two cyclic
    ``states``, the columns of an array.

    States are sorted by ascending total phase; all phases are reduced
    mod 2*pi into (-pi, pi].  ``degenerate`` marks targets proportional to
    the identity, for which the computational basis convention applies.
    """

    __slots__ = ("total", "dynamical", "geometric", "states", "degenerate")


def fidelity_under_error(seq: PulseSequence, eps: float, eps_prime: float) -> float:
    """Exact gate fidelity of the deformed sequence against its target."""
    return min(abs(seq._overlap(_products(seq._terms, float(eps), float(eps_prime)))[0]), 1.0)


def _products(terms, eps, eps_prime, lib=math) -> tuple:
    """Quaternion (w, x, y, z) of the product of pulses given by their
    ``PulseSequence._terms``, deformed by combined errors, elementwise over the
    broadcast strengths: Python floats for one cell, arrays for a grid, whose
    caller passes numpy as ``lib``.

    The deformed pulse k is theta_k ((1 + eps) cos phi_k, (1 + eps) sin phi_k, eps'),
    a rotation by theta_k r about an axis of norm r = sqrt((1 + eps)^2 + eps'^2),
    the same r for every pulse.  So cos(theta r / 2), sin(theta r / 2) / r and
    eps' sin(theta r / 2) / r come from one :func:`su2._half_angle` call per
    distinct pulse angle theta (exact ``==``), the half-angle formula's one
    home, and each pulse adds only its two azimuth terms: every cell has the
    bits of a rotation evaluated per pulse.  Pulses are composed one
    at a time, so memory is a few arrays the size of the strengths per
    distinct angle, and any block of cells is bitwise what a larger grid gives."""
    stretch = 1.0 + eps
    r = lib.sqrt(stretch * stretch + eps_prime * eps_prime)
    length = r + (r == 0.0)  # length 1 stands in for a zero axis, as in su2._quaternion
    rotations = {}
    product = None  # folded as su2._product does: from the first factor, the identity for none
    for theta, cos_phi, sin_phi in terms:
        rotation = rotations.get(theta)
        if rotation is None:
            cos_half, scale = _half_angle(theta * r, length, lib)
            rotation = rotations[theta] = (cos_half, scale, eps_prime * scale)
        cos_half, scale, z = rotation
        q = cos_half, (stretch * cos_phi) * scale, (stretch * sin_phi) * scale, z
        product = q if product is None else _hamilton(q, product)
    return product or (1.0, 0.0, 0.0, 0.0)


def _infidelities(seq: PulseSequence, eps, eps_prime, lib=math):
    """1 - F under combined errors without cancellation, floats or arrays alike:
    with T^dag U = (w, v), 1 - F = 1 - |w| = |v|^2 / (1 + |w|)."""
    w, x, y, z = seq._overlap(_products(seq._terms, eps, eps_prime, lib))
    return (x * x + y * y + z * z) / (1 + abs(w))


def _available_cpus() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def landscape(seq: PulseSequence,
              eps_range: tuple[float, float] = (-0.1, 0.1),
              eps_prime_range: tuple[float, float] = (-0.1, 0.1),
              resolution: int = 201,
              threads: int = 0) -> LandscapeGrid:
    """Fidelity grid over the Cartesian product of the two strength ranges.

    The eps axis is split into row blocks of at most about ``_BLOCK_CELLS``
    cells, the same number for each thread; ``threads`` evaluates them
    concurrently, 0 meaning automatic (up to 4); either is capped at the
    CPUs available to the process and at the number of blocks, so a grid of
    one block runs in the calling thread.  Each cell is the w component of
    T^dag U for the product U of :func:`_products`, computed elementwise, so
    the result is bitwise the same for any thread count or block split.
    Raises ValueError for a negative ``threads`` or a ``resolution`` below 2,
    and when a range is too large to evaluate and leaves a non-finite cell;
    MemoryError when the grid cannot be allocated.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2 per axis")
    if threads < 0:
        raise ValueError(f"threads must be >= 0 (0 = auto), got {threads}")
    import numpy as np
    eps = np.linspace(eps_range[0], eps_range[1], resolution)
    eps_prime = np.linspace(eps_prime_range[0], eps_prime_range[1], resolution)
    blocks = -(-resolution * resolution // _BLOCK_CELLS)
    workers = min(threads or 4, _available_cpus(), blocks)
    # whole rounds of blocks per thread, so that no thread is left with one more
    blocks = min(resolution, workers * -(-blocks // workers))
    bounds = np.linspace(0, resolution, blocks + 1).astype(int)
    F = np.empty((resolution, resolution))
    tw, tx, ty, tz = seq._unit

    def fill(k):
        lo, hi = bounds[k], bounds[k + 1]
        # errstate is per thread, so it is set where the cells are computed;
        # overflowing cells come out non-finite and are refused below
        with np.errstate(over="ignore", invalid="ignore"):
            uw, ux, uy, uz = _products(seq._terms, eps[lo:hi, None], eps_prime[None, :], np)
            # the first component of PulseSequence._overlap, with the same bits
            np.minimum(np.abs(tw * uw + tx * ux + ty * uy + tz * uz), 1.0, out=F[lo:hi])

    if workers == 1:
        for k in range(blocks):
            fill(k)
    else:
        from concurrent.futures import ThreadPoolExecutor  # here, so that one sequence does not load it
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, range(blocks)))
    if not np.isfinite(F).all():
        raise ValueError("strength ranges too large to evaluate: the landscape has non-finite cells")
    return LandscapeGrid(eps_values=eps, eps_prime_values=eps_prime,
                         fidelity=F, family=seq.family)


def landscape_csv(grid: LandscapeGrid) -> str:
    """CSV rendering: header eps,eps_prime,fidelity, one row per cell,
    row-major over eps then eps_prime, each value as ``"%.17g"`` writes it,
    LF endings.  The text is laid out by :func:`cpseq._digits.csv_rows` in row
    blocks, so the scratch memory is one block's, whatever the grid.  Raises
    ValueError on a non-finite value, as :func:`ioutil.dumps` does."""
    import numpy as np

    from ._digits import csv_rows
    for values in (grid.eps_values, grid.eps_prime_values, grid.fidelity):
        if not np.isfinite(values).all():
            raise ValueError("cannot render a landscape with non-finite values")
    return csv_rows(grid.eps_values, grid.eps_prime_values, grid.fidelity)


def robust_area(grid: LandscapeGrid, threshold: float) -> float:
    """Fraction of grid cells with fidelity at or above ``threshold``;
    raises ValueError for a NaN threshold, which no cell meets."""
    if math.isnan(threshold):
        raise ValueError("threshold must not be NaN")
    return float((grid.fidelity >= threshold).mean())


def infidelity_scaling(seq: PulseSequence, axis: str) -> ScalingFit:
    """Least-squares slope of log(1 - F) against log(strength) over the
    strengths of ``DEFAULT_SCALING_LADDER``.

    A plain pulse scales quadratically; a sequence whose first-order
    generator vanishes on the chosen axis loses the quadratic term and
    comes out quartic or steeper.  Points with 1 - F at or below
    ``_LADDER_FLOOR`` are dropped with a warning.
    """
    import numpy as np
    slope, intercept, kept, dropped = _ladder(seq, axis)
    if dropped:
        warnings.warn(f"dropping {len(dropped)} ladder point(s) with infidelity below {_LADDER_FLOOR:g} "
                      f"(double-precision floor): {dropped}", RuntimeWarning, stacklevel=2)
    kept_strengths, infidelities = (np.array(column) for column in zip(*kept))
    return ScalingFit(axis=axis, slope=slope, intercept=intercept, strengths=kept_strengths,
                      infidelities=infidelities, dropped=dropped)


def _ladder(seq: PulseSequence, axis: str) -> tuple:
    """:func:`infidelity_scaling` on Python floats, without its warning: the slope,
    the intercept, the kept (strength, infidelity) points and the dropped strengths."""
    if axis not in _DIRECTIONS:
        raise ValueError(f"axis must be one of {AXES}, got {axis!r}")
    de, dp = _DIRECTIONS[axis]
    points = [(s, _infidelities(seq, de * s, dp * s)) for s in DEFAULT_SCALING_LADDER]
    kept = [(s, f) for s, f in points if f > _LADDER_FLOOR]
    dropped = tuple(s for s, f in points if not f > _LADDER_FLOOR)
    if len({s for s, _ in kept}) < 2:
        raise ValueError("fewer than 2 ladder points resolve above the precision floor")
    # the least-squares line through the points (log s, log f)
    xs, ys = [math.log(s) for s, _ in kept], [math.log(f) for _, f in kept]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
             / sum((x - mx) * (x - mx) for x in xs))
    return slope, my - slope * mx, kept, dropped


def phase_decomposition(seq: PulseSequence) -> PhaseReport:
    """Total, dynamical and geometric phases of the ideal sequence.

    The cyclic states are the eigenvectors of the ideal product; with a
    piecewise-constant drive the Hamiltonian expectation is constant within
    each pulse, so the dynamical phase is the sum of per-pulse expectations
    of the pulse generators along the propagated state,
    -1/2 sum_i m_i . O(V_{i-1}) s for the state's Bloch vector s, in the
    frames the error model accumulates over.  Since A(m)^T m = m, the sum
    is -1/2 g . s with g the pulse-length first-order generator vector, so
    the dynamical phase vanishes on pulse-length-robust sequences.  The
    geometric phase is whatever remains of the total eigenphase.
    """
    import numpy as np
    rows, states, degenerate = _phases(seq)
    total, dynamical, geometric = (np.array(column) for column in zip(*rows))
    return PhaseReport(total=total, dynamical=dynamical, geometric=geometric,
                       states=np.array(states, dtype=complex).T, degenerate=degenerate)


def _phases(seq: PulseSequence) -> tuple:
    """:func:`phase_decomposition` on Python floats: a (total, dynamical,
    geometric) row and an eigenvector per cyclic state, and whether the
    product is degenerate."""
    pairs = _eig(0.0, *seq._product)
    # equal eigenphases of a unitary mean U is proportional to the identity
    degenerate = abs(pairs[0][0] - pairs[1][0]) < 1e-12
    gx, gy, gz = _generators(seq, (_UNITS["pulse_length"],))[0]
    rows = []
    for gamma, (a, b) in pairs:
        ab = a.conjugate() * b
        s = (2 * ab.real, 2 * ab.imag, (a * a.conjugate()).real - (b * b.conjugate()).real)
        dynamical = _wrap(-0.5 * (gx * s[0] + gy * s[1] + gz * s[2]))
        rows.append((_wrap(gamma), dynamical, _wrap(gamma - dynamical)))
    return rows, [v for _, v in pairs], degenerate
