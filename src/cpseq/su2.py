"""Exact 2x2 special-unitary algebra.

Conventions used throughout the package:

- rotation vectors m = (m1, m2, m3) are real triples in radians;
- a pulse of vector m implements R(m) = exp(-i m . sigma / 2), i.e. a
  Bloch-sphere rotation by |m| about the axis m/|m|;
- generators are tau_mu = sigma_mu / 2, orthonormalised so that
  Tr(tau_mu tau_nu) = delta_mu_nu / 2;
- gate overlap is the phase-blind fidelity F = |Tr(U^dag V)| / 2.

All functions are pure and operate on plain ``numpy`` arrays; there is no
shared mutable state, so concurrent use is safe.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

__all__ = [
    "IDENTITY2",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "PAULIS",
    "pauli_generator",
    "rotation",
    "rotation_generator",
    "generator_vector",
    "log_rotation",
    "fidelity",
    "eig_unitary",
    "is_unitary",
    "is_hermitian_traceless",
]

IDENTITY2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)

# Below this rotation angle the axis term is dropped: R(m) ~ I.
_SMALL_ANGLE = 1e-12


def pauli_generator(index: int) -> np.ndarray:
    """Return tau_index = sigma_index / 2 for index in {1, 2, 3}."""
    if index not in (1, 2, 3):
        raise ValueError(f"Pauli index must be 1, 2 or 3, got {index!r}")
    return PAULIS[index - 1] / 2


def is_unitary(U: np.ndarray, tol: float = 1e-12) -> bool:
    """Check U^dag U = I within ``tol`` (operator norm)."""
    U = np.asarray(U, dtype=complex)
    if U.shape != (2, 2):
        return False
    return np.linalg.norm(U.conj().T @ U - IDENTITY2, ord=2) <= tol


def is_hermitian_traceless(H: np.ndarray, tol: float = 1e-12) -> bool:
    """Check H = H^dag and Tr H = 0 within ``tol``."""
    H = np.asarray(H, dtype=complex)
    if H.shape != (2, 2):
        return False
    return np.linalg.norm(H - H.conj().T, ord=2) <= tol and abs(np.trace(H)) <= tol


def rotation(m) -> np.ndarray:
    """SU(2) rotation R(m) = exp(-i m . sigma / 2).

    Evaluated in closed form: cos(|m|/2) I - i sin(|m|/2) (m/|m|) . sigma.
    R(0) = I; the axis term is dropped for |m| below 1e-12.
    """
    m = np.asarray(m, dtype=float)
    angle = float(np.linalg.norm(m))
    if angle < _SMALL_ANGLE:
        return IDENTITY2.copy()
    n = m / angle
    c = np.cos(angle / 2)
    s = np.sin(angle / 2)
    return np.array(
        [
            [c - 1j * s * n[2], -1j * s * (n[0] - 1j * n[1])],
            [-1j * s * (n[0] + 1j * n[1]), c + 1j * s * n[2]],
        ]
    )


def rotation_generator(m) -> np.ndarray:
    """Hermitian generator m . sigma / 2, so rotation(m) = expm(-i * generator)."""
    m = np.asarray(m, dtype=float)
    return (m[0] * SIGMA_X + m[1] * SIGMA_Y + m[2] * SIGMA_Z) / 2


def generator_vector(H: np.ndarray) -> np.ndarray:
    """Coefficients of a Hermitian traceless H in the tau basis.

    Inverse of :func:`rotation_generator`: H = v . sigma / 2 maps to v,
    via v_mu = 2 Tr(H tau_mu).
    """
    H = np.asarray(H, dtype=complex)
    return np.array([np.trace(H @ s).real for s in PAULIS])


def log_rotation(U: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Principal rotation vector of a special-unitary U: inverse of rotation().

    Returns m with |m| in [0, 2*pi) such that rotation(m) = U, except for
    U = -I which is reported as (0, 0, 2*pi) (the one angle the principal
    branch cannot represent with a well-defined axis).

    Raises ValueError if U is not special-unitary within ``tol``.
    """
    U = np.asarray(U, dtype=complex)
    if not is_unitary(U, tol):
        raise ValueError("log_rotation requires a unitary 2x2 matrix")
    if abs(np.linalg.det(U) - 1) > tol:
        raise ValueError("log_rotation requires det U = 1 (special unitary)")
    c = float(np.clip(np.trace(U).real / 2, -1.0, 1.0))
    half = np.arccos(c)
    s = np.sin(half)
    if s < _SMALL_ANGLE:
        if c > 0:
            return np.zeros(3)
        return np.array([0.0, 0.0, 2 * np.pi])
    # U - cI = -i sin(|m|/2) n.sigma, so n_mu = Tr(sigma_mu i(U - cI)) / (2 sin)
    A = 1j * (U - c * IDENTITY2)
    n = np.array([np.trace(s_mu @ A).real for s_mu in PAULIS]) / (2 * s)
    return 2 * half * n


def fidelity(U: np.ndarray, V: np.ndarray) -> float:
    """Phase-blind gate overlap |Tr(U^dag V)| / 2, clipped into [0, 1]."""
    U = np.asarray(U, dtype=complex)
    V = np.asarray(V, dtype=complex)
    f = abs(np.trace(U.conj().T @ V)) / 2
    return float(min(f, 1.0))


def _wrap(phase: float) -> float:
    """Reduce an angle within 2*pi of (-pi, pi] into (-pi, pi]."""
    if phase > math.pi:
        return phase - 2 * math.pi
    if phase <= -math.pi:
        return phase + 2 * math.pi
    return phase


def eig_unitary(U: np.ndarray) -> list[tuple[float, np.ndarray]]:
    """Eigenphases and orthonormal eigenvectors of a unitary U.

    Returns two (phase, vector) pairs with phases in (-pi, pi], sorted by
    ascending phase. A degenerate U = exp(i gamma) I returns the
    computational basis (declared convention).

    Closed form: U = exp(i gamma) (cos(a) I - i x . sigma) with
    gamma = arg(det U) / 2 and |x| = sin(a), a in [0, pi].  The eigenphases
    are gamma -/+ a and the eigenvectors are those of x . sigma for the
    eigenvalues +/-|x|.  The pair is written in whichever of its two closed
    forms has the larger norm, which keeps it orthonormal to rounding even
    near degeneracy.
    """
    (u00, u01), (u10, u11) = np.asarray(U, dtype=complex).tolist()
    gamma = cmath.phase(u00 * u11 - u01 * u10) / 2
    w = cmath.exp(-1j * gamma)
    a, b, c, d = u00 * w, u01 * w, u10 * w, u11 * w
    x1 = -(b + c).imag / 2
    x2 = (c - b).real / 2
    x3 = (d - a).imag / 2
    s = math.sqrt(x1 * x1 + x2 * x2 + x3 * x3)
    # |lambda_0 - lambda_1| = 2 |x|
    if 2 * s < 1e-12:
        phase = cmath.phase((u00 + u11) / 2)
        return [(phase, np.array([1, 0], dtype=complex)), (phase, np.array([0, 1], dtype=complex))]
    half = math.atan2(s, (a + d).real / 2)
    r = s + abs(x3)
    z = complex(x1, x2)
    norm = math.sqrt(2 * s * r)
    if x3 >= 0:
        v_plus, v_minus = (r, z), (z.conjugate(), -r)
    else:
        v_plus, v_minus = (z.conjugate(), r), (r, -z)
    pairs = [
        (_wrap(gamma - half), np.array(v_plus, dtype=complex) / norm),
        (_wrap(gamma + half), np.array(v_minus, dtype=complex) / norm),
    ]
    pairs.sort(key=lambda p: p[0])
    return pairs
