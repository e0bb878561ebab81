"""Fidelity landscapes, robustness scaling and phase decomposition.

Fidelity is always the exact, non-perturbative overlap of the deformed
product with the target: nothing here linearises in the error strengths, so
these tools independently confirm what the first-order error generators
predict.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .error_model import ErrorChannel, perturbed_propagator
from .sequences import PulseSequence
from .su2 import (axis_angle, eig_unitary, fidelity, fidelity_to, frames, product, quaternion,
                  rotation_generator, to_matrix)

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

# Landscape cells per row block: small enough that a block's planes stay in
# cache while its pulses are composed.
_BLOCK_CELLS = 16384


@dataclass(frozen=True, eq=False)
class LandscapeGrid:
    """Sampled fidelity over an (eps, eps_prime) rectangle.

    ``fidelity[i, j]`` belongs to (eps_values[i], eps_prime_values[j]).
    """

    eps_values: np.ndarray
    eps_prime_values: np.ndarray
    fidelity: np.ndarray
    family: str


@dataclass(frozen=True, eq=False)
class ScalingFit:
    """Log-log fit of infidelity against error strength along one axis."""

    axis: str
    slope: float
    intercept: float
    strengths: np.ndarray
    infidelities: np.ndarray
    dropped: tuple[float, ...]


@dataclass(frozen=True, eq=False)
class PhaseReport:
    """Total, dynamical and geometric phases of the two cyclic states.

    States are sorted by ascending total phase; all phases are reduced
    mod 2*pi into (-pi, pi].  ``degenerate`` marks targets proportional to
    the identity, for which the computational basis convention applies.
    """

    total: np.ndarray
    dynamical: np.ndarray
    geometric: np.ndarray
    states: np.ndarray
    degenerate: bool


def fidelity_under_error(seq: PulseSequence, eps: float, eps_prime: float) -> float:
    """Exact gate fidelity of the deformed sequence against its target."""
    U = perturbed_propagator(seq, ErrorChannel.combined(eps, eps_prime))
    return fidelity(seq.target, U)


def _fidelities(seq: PulseSequence, eps, eps_prime) -> np.ndarray:
    """Exact fidelities under combined errors, elementwise over the broadcast
    strength arrays.

    The deformed pulse k is theta_k ((1 + eps) cos phi_k, (1 + eps) sin phi_k, eps'),
    a rotation by theta_k r about an axis of norm r = sqrt((1 + eps)^2 + eps'^2),
    the same r for every pulse.  Memory is a few arrays of pulses x cells,
    which :func:`landscape` bounds by evaluating row blocks; any block of
    cells is bitwise what a larger grid gives."""
    stretch = 1.0 + np.asarray(eps, dtype=float)
    eps_prime = np.asarray(eps_prime, dtype=float)
    r = np.sqrt(stretch * stretch + eps_prime * eps_prime)
    per_pulse = (-1,) + (1,) * r.ndim
    theta = np.array([p.theta for p in seq.pulses]).reshape(per_pulse)
    phi = np.array([p.phi for p in seq.pulses]).reshape(per_pulse)
    qs = axis_angle(theta * r, stretch * np.cos(phi), stretch * np.sin(phi), eps_prime, r)
    F = fidelity_to(seq.target, product(qs))
    return F if seq.pulses else np.full(r.shape, F)


def landscape(seq: PulseSequence,
              eps_range: tuple[float, float] = (-0.1, 0.1),
              eps_prime_range: tuple[float, float] = (-0.1, 0.1),
              resolution: int = 201,
              threads: int = 0) -> LandscapeGrid:
    """Fidelity grid over the Cartesian product of the two strength ranges.

    The eps axis is split into row blocks of at most about ``_BLOCK_CELLS``
    cells, the same number for each thread; ``threads`` evaluates them
    concurrently, 0 meaning automatic.  Every cell is computed elementwise,
    so the result is bitwise the same for any thread count or block split.
    Raises ValueError when a range is too large to evaluate and leaves a
    non-finite cell.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2 per axis")
    eps = np.linspace(eps_range[0], eps_range[1], resolution)
    eps_prime = np.linspace(eps_prime_range[0], eps_prime_range[1], resolution)
    workers = threads if threads >= 1 else min(os.cpu_count() or 1, 4)
    # whole rounds of blocks per thread, so that no thread is left with one more
    blocks = -(-resolution * resolution // _BLOCK_CELLS)
    blocks = min(resolution, workers * -(-blocks // workers))
    bounds = np.linspace(0, resolution, blocks + 1).astype(int)
    F = np.empty((resolution, resolution))

    def fill(k):
        lo, hi = bounds[k], bounds[k + 1]
        # errstate is per thread, so it is set where the cells are computed;
        # overflowing cells come out non-finite and are refused below
        with np.errstate(over="ignore", invalid="ignore"):
            F[lo:hi] = _fidelities(seq, eps[lo:hi, None], eps_prime[None, :])

    if workers == 1 or resolution < 2 * workers:
        for k in range(blocks):
            fill(k)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, range(blocks)))
    if not np.isfinite(F).all():
        raise ValueError("strength ranges too large to evaluate: the landscape has non-finite cells")
    return LandscapeGrid(eps_values=eps, eps_prime_values=eps_prime,
                         fidelity=F, family=seq.family)


def landscape_csv(grid: LandscapeGrid) -> str:
    """CSV rendering: header eps,eps_prime,fidelity, one row per cell,
    row-major over eps then eps_prime, 17 significant digits, LF endings.
    Raises ValueError on a non-finite value, as :func:`ioutil.dumps` does."""
    for values in (grid.eps_values, grid.eps_prime_values, grid.fidelity):
        if not np.isfinite(values).all():
            raise ValueError("cannot render a landscape with non-finite values")
    # each eps' string goes into the row template once; a row is one % call
    cells = [f"{p:.17g},%.17g" for p in grid.eps_prime_values.tolist()]
    lines = ["eps,eps_prime,fidelity"]
    for e, row in zip(grid.eps_values.tolist(), grid.fidelity.tolist()):
        e = f"{e:.17g},"
        lines.append(e + (("\n" + e).join(cells) % tuple(row)))
    return "\n".join(lines) + "\n"


def robust_area(grid: LandscapeGrid, threshold: float) -> float:
    """Fraction of grid cells with fidelity at or above ``threshold``."""
    return float(np.mean(grid.fidelity >= threshold))


def infidelity_scaling(seq: PulseSequence, axis: str,
                       strengths=DEFAULT_SCALING_LADDER) -> ScalingFit:
    """Least-squares slope of log(1 - F) against log(strength).

    A plain pulse scales quadratically; a sequence whose first-order
    generator vanishes on the chosen axis loses the quadratic term and
    comes out quartic or steeper.  Points with 1 - F below 1e-14 sit in
    double-precision noise and are dropped with a warning.
    """
    strengths = np.asarray(strengths, dtype=float)
    if len(strengths) < 5:
        raise ValueError("need at least 5 ladder points")
    if strengths.min() < 1e-3 - 1e-15 or strengths.max() > 1e-2 + 1e-15:
        raise ValueError("ladder strengths must lie within [1e-3, 1e-2]")
    if axis not in _DIRECTIONS:
        raise ValueError(f"axis must be one of {AXES}, got {axis!r}")
    eps, eps_prime = np.outer(_DIRECTIONS[axis], strengths)
    infid = 1.0 - _fidelities(seq, eps, eps_prime)
    keep = infid > 1e-14
    dropped = tuple(float(s) for s in strengths[~keep])
    if dropped:
        warnings.warn(
            f"dropping {len(dropped)} ladder point(s) with infidelity below 1e-14 "
            f"(double-precision floor): {dropped}",
            RuntimeWarning,
            stacklevel=2,
        )
    if keep.sum() < 2:
        raise ValueError("fewer than 2 ladder points resolve above the precision floor")
    logs = np.log(strengths[keep])
    logf = np.log(infid[keep])
    design = np.vstack([logs, np.ones_like(logs)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, logf, rcond=None)
    return ScalingFit(axis=axis, slope=float(slope), intercept=float(intercept),
                      strengths=strengths[keep], infidelities=infid[keep], dropped=dropped)


def _wrap(angle: float) -> float:
    """Reduce mod 2*pi into (-pi, pi]."""
    a = float(np.angle(np.exp(1j * angle)))
    return np.pi if a == -np.pi else a


def phase_decomposition(seq: PulseSequence) -> PhaseReport:
    """Total, dynamical and geometric phases of the ideal sequence.

    The cyclic states are the eigenvectors of the ideal product; with a
    piecewise-constant drive the Hamiltonian expectation is constant within
    each pulse, so the dynamical phase is the sum of per-pulse expectations
    of the pulse generators along the propagated state.  The geometric
    phase is whatever remains of the total eigenphase.
    """
    U = seq.propagator()
    pairs = eig_unitary(U)
    # equal eigenphases of a unitary mean U is proportional to the identity
    degenerate = abs(pairs[0][0] - pairs[1][0]) < 1e-12
    vectors = seq.vectors()
    V = to_matrix(frames(quaternion(vectors)))  # V_{i-1}: the frame before pulse i
    W = rotation_generator(vectors)
    total, dynamical, states = [], [], []
    for gamma, psi0 in pairs:
        psi = V @ psi0  # the state as each pulse begins
        acc = -float(np.einsum("ni,nij,nj->", psi.conj(), W, psi).real)
        total.append(_wrap(gamma))
        dynamical.append(_wrap(acc))
        states.append(psi0)
    geometric = [_wrap(g - d) for g, d in zip(total, dynamical)]
    return PhaseReport(
        total=np.array(total),
        dynamical=np.array(dynamical),
        geometric=np.array(geometric),
        states=np.column_stack(states),
        degenerate=bool(degenerate),
    )
