"""Exact 2x2 special-unitary algebra.

Conventions used throughout the package:

- rotation vectors m = (m1, m2, m3) are real triples in radians;
- a pulse of vector m implements R(m) = exp(-i m . sigma / 2), i.e. a
  Bloch-sphere rotation by |m| about the axis m/|m|;
- generators are tau_mu = sigma_mu / 2, orthonormalised so that
  Tr(tau_mu tau_nu) = delta_mu_nu / 2;
- gate overlap is the phase-blind fidelity F = |Tr(U^dag V)| / 2.

Rotations are real unit quaternions q = (w, x, y, z) on the last axis,
U = w I - i (x, y, z) . sigma, with any leading batch axes.  Only
:func:`axis_angle` evaluates a rotation and only :func:`_hamilton`
multiplies two; the rest of the package composes through them.

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
    "quaternion",
    "axis_angle",
    "compose",
    "product",
    "frames",
    "to_matrix",
    "rotation_matrix",
    "fidelity_to",
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
_PAULI_STACK = np.array(PAULIS)

# Below this rotation angle log_rotation reports no axis: R(m) ~ I.
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


def _components(q) -> list:
    """The planes of a quaternion or vector array, unpacked from its last axis."""
    q = np.asarray(q, dtype=float)
    return [q[..., k] for k in range(q.shape[-1])]


def _assemble(*planes) -> np.ndarray:
    """Array whose last axis runs over ``planes``, stored plane-major so that
    batched products read and write contiguous planes."""
    a = np.array(np.broadcast_arrays(*planes))
    return a.transpose(tuple(range(1, a.ndim)) + (0,))


def _hamilton(p, q):
    """Hamilton product of (w, x, y, z) tuples of floats or arrays: the quaternion of P Q."""
    pw, px, py, pz = p
    qw, qx, qy, qz = q
    return (
        pw * qw - px * qx - py * qy - pz * qz,
        pw * qx + px * qw + py * qz - pz * qy,
        pw * qy + py * qw + pz * qx - px * qz,
        pw * qz + pz * qw + px * qy - py * qx,
    )


def _fold(qs):
    """Running products 1, q_0, q_1 q_0, ... of the factors along the first axis.
    An (n, 4) array is folded in Python floats, several times faster than numpy
    calls on 4-vectors; anything else one batched factor at a time."""
    acc = (1.0, 0.0, 0.0, 0.0)
    yield acc
    for q in qs.tolist() if isinstance(qs, np.ndarray) and qs.ndim == 2 else map(_components, qs):
        acc = _hamilton(q, acc)
        yield acc


def quaternion(m) -> np.ndarray:
    """Unit quaternions (cos(|m|/2), sin(|m|/2) m/|m|) of R(m) for vectors m (..., 3)."""
    x, y, z = _components(m)
    angle = np.sqrt(x * x + y * y + z * z)
    return axis_angle(angle, x, y, z, angle)


def axis_angle(angle, x, y, z, length) -> np.ndarray:
    """Unit quaternions (cos(angle/2), sin(angle/2) (x, y, z)/length) of rotations
    by ``angle`` about the axes (x, y, z) of norm ``length``; a zero axis must
    come with a zero angle.  All five arguments broadcast."""
    half = angle / 2
    scale = np.sin(half) / np.where(length == 0.0, 1.0, length)
    return _assemble(np.cos(half), x * scale, y * scale, z * scale)


def compose(p, q) -> np.ndarray:
    """Quaternion of the product P Q (P applied after Q); batch axes broadcast."""
    return _assemble(*_hamilton(_components(p), _components(q)))


def product(qs) -> np.ndarray:
    """Ordered product q_{n-1} ... q_0 of an (n, ..., 4) array or an iterable of
    broadcast-compatible factors, in application order.  Only the running
    product is held: a generator of batched factors needs the memory of a few."""
    for acc in _fold(qs):
        pass
    return _assemble(*acc)


def frames(qs) -> np.ndarray:
    """Frames before each factor of an (n, 4) array: V_0 = 1, V_i = q_{i-1} ... q_0."""
    return np.array(list(_fold(np.asarray(qs, dtype=float)))[:-1]).reshape(-1, 4)


def to_matrix(q) -> np.ndarray:
    """The 2x2 matrices w I - i (x, y, z) . sigma of quaternions q (..., 4)."""
    w, x, y, z = _components(q)
    return _assemble(w - 1j * z, -y - 1j * x, y - 1j * x, w + 1j * z).reshape(np.shape(w) + (2, 2))


def rotation_matrix(q) -> np.ndarray:
    """Bloch rotations O of quaternions q: U^dag sigma_mu U = sum_rho O[mu, rho] sigma_rho."""
    w, x, y, z = _components(q)
    return _assemble(
        1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
        2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
        2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
    ).reshape(np.shape(w) + (3, 3))


def fidelity_to(target, q) -> np.ndarray:
    """Fidelity |Tr(T^dag U)| / 2, clipped into [0, 1], of quaternions q against
    the entries of a 2x2 target T, which need not lie in SU(2)."""
    (a, b), (c, d) = np.conj(np.asarray(target, dtype=complex))
    w, x, y, z = _components(q)
    tr = (a + d) * w - 1j * (b + c) * x + (c - b) * y + 1j * (d - a) * z
    return np.minimum(np.abs(tr) / 2, 1.0)


def rotation(m) -> np.ndarray:
    """SU(2) rotation R(m) = exp(-i m . sigma / 2) as 2x2 matrices, for vectors m (..., 3)."""
    return to_matrix(quaternion(m))


def rotation_generator(m) -> np.ndarray:
    """Hermitian generator m . sigma / 2, so rotation(m) = expm(-i * generator).

    A batch of vectors (..., 3) gives a batch of generators (..., 2, 2).
    """
    return np.einsum("...a,aij->...ij", np.asarray(m, dtype=float), _PAULI_STACK) / 2


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
