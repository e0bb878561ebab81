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
from .su2 import (eig_unitary, fidelity, fidelity_to, frames, product, quaternion,
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
    strength arrays.  Composed pulse by pulse, so memory stays a few arrays of
    the broadcast shape; any block of cells is bitwise what a larger grid gives."""
    def factors():
        for pulse, (mx, my, _) in zip(seq.pulses, seq.vectors()):
            m = np.broadcast_arrays(mx * (1.0 + eps), my * (1.0 + eps), pulse.theta * eps_prime)
            yield quaternion(np.moveaxis(np.array(m), 0, -1))

    F = fidelity_to(seq.target, product(factors()))
    return F if seq.pulses else np.full(np.broadcast(eps, eps_prime).shape, F)


def landscape(seq: PulseSequence,
              eps_range: tuple[float, float] = (-0.1, 0.1),
              eps_prime_range: tuple[float, float] = (-0.1, 0.1),
              resolution: int = 201,
              threads: int = 0) -> LandscapeGrid:
    """Fidelity grid over the Cartesian product of the two strength ranges.

    ``threads`` splits the eps axis into row blocks evaluated concurrently;
    0 means automatic.  Results are bitwise identical for a fixed grid
    regardless of the thread count, since every block is computed
    independently and reassembled in order.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2 per axis")
    eps = np.linspace(eps_range[0], eps_range[1], resolution)
    eps_prime = np.linspace(eps_prime_range[0], eps_prime_range[1], resolution)
    workers = threads if threads >= 1 else min(os.cpu_count() or 1, 4)
    if workers == 1 or resolution < 2 * workers:
        F = _fidelities(seq, eps[:, None], eps_prime[None, :])
    else:
        bounds = np.linspace(0, len(eps), workers + 1).astype(int)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(
                lambda k: _fidelities(seq, eps[bounds[k]:bounds[k + 1], None], eps_prime[None, :]),
                range(workers),
            ))
        F = np.vstack(blocks)
    return LandscapeGrid(eps_values=eps, eps_prime_values=eps_prime,
                         fidelity=F, family=seq.family)


def landscape_csv(grid: LandscapeGrid) -> str:
    """CSV rendering: header eps,eps_prime,fidelity, one row per cell,
    row-major over eps then eps_prime, 17 significant digits, LF endings."""
    lines = ["eps,eps_prime,fidelity"]
    for i, e in enumerate(grid.eps_values):
        for j, p in enumerate(grid.eps_prime_values):
            lines.append(f"{e:.17g},{p:.17g},{grid.fidelity[i, j]:.17g}")
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
