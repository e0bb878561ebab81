"""Exact 2x2 special-unitary algebra.

Conventions used throughout the package:

- rotation vectors m = (m1, m2, m3) are real triples in radians;
- a pulse of vector m implements R(m) = exp(-i m . sigma / 2), i.e. a
  Bloch-sphere rotation by |m| about the axis m/|m|;
- generators are tau_mu = sigma_mu / 2, orthonormalised so that
  Tr(tau_mu tau_nu) = delta_mu_nu / 2;
- gate overlap is the phase-blind fidelity F = |Tr(U^dag V)| / 2; for unit
  quaternions, with U^dag V = (w, v), it is min(|w|, 1).

Rotations are real unit quaternions q = (w, x, y, z), U = w I - i (x, y, z) . sigma.
Only :func:`_half_angle` evaluates a rotation, only :func:`_hamilton`
multiplies two and only :func:`_fold` runs a product; the rest of the
package composes through them, and a sequence meets its target only
through ``PulseSequence._overlap``, the quaternion T^dag U.  These kernels
take their components as Python floats or as numpy arrays of any broadcast
batch shape, alike: on floats they use :mod:`math`, so a single sequence is
handled without numpy.  numpy is imported only by the functions that take
or return arrays.

All functions are pure; there is no shared mutable state, so concurrent use
is safe.
"""

from __future__ import annotations

import cmath
import collections
import importlib
import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "rotation",
    "quaternion",
    "compose",
    "to_matrix",
    "rotation_generator",
    "eig_unitary",
    "is_unitary",
]


def _lib(x):
    """The elementary functions for a kernel input: math for a Python float, numpy for an array."""
    return math if isinstance(x, (float, int)) else importlib.import_module("numpy")


def is_unitary(U: np.ndarray, tol: float = 1e-12) -> bool:
    """Check U^dag U = I within ``tol`` (operator norm)."""
    import numpy as np
    U = np.asarray(U, dtype=complex)
    return U.shape == (2, 2) and np.linalg.norm(U.conj().T @ U - np.eye(2), ord=2) <= tol


def _components(q) -> list:
    """The planes of a quaternion or vector array, unpacked from its last axis."""
    import numpy as np
    q = np.asarray(q, dtype=float)
    return [q[..., k] for k in range(q.shape[-1])]


def _assemble(*planes) -> np.ndarray:
    """Array whose last axis runs over ``planes``, stored plane-major so that
    batched products read and write contiguous planes."""
    import numpy as np
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


def _fold(factors):
    """Running products 1, q_0, q_1 q_0, ... of (w, x, y, z) factors, floats or broadcast planes."""
    acc = (1.0, 0.0, 0.0, 0.0)
    yield acc
    for q in factors:
        acc = _hamilton(q, acc)
        yield acc


def _product(factors):
    """The ordered product q_{n-1} ... q_0: the last running product of :func:`_fold`."""
    return collections.deque(_fold(factors), maxlen=1).pop()


def _half_angle(angle, x, y, z, length):
    """Unit quaternion (cos(angle/2), sin(angle/2) (x, y, z)/length) of the rotation
    by ``angle`` about the axis (x, y, z) of norm ``length``, floats or arrays
    alike; a zero axis must come with a zero angle."""
    lib = _lib(angle)
    half = angle / 2
    scale = lib.sin(half) / (length + (length == 0.0))  # length 1 stands in for a zero axis
    return lib.cos(half), x * scale, y * scale, z * scale


def _quaternion(x, y, z):
    """(w, x, y, z) of R(m) for m = (x, y, z), floats or arrays alike."""
    angle = _lib(x).sqrt(x * x + y * y + z * z)
    return _half_angle(angle, x, y, z, angle)


def quaternion(m) -> np.ndarray:
    """Unit quaternions (cos(|m|/2), sin(|m|/2) m/|m|) of R(m) for vectors m (..., 3)."""
    return _assemble(*_quaternion(*_components(m)))


def compose(p, q) -> np.ndarray:
    """Quaternion of the product P Q (P applied after Q); batch axes broadcast."""
    return _assemble(*_hamilton(_components(p), _components(q)))


def _matrix(w, x, y, z) -> np.ndarray:
    """The 2x2 matrices w I - i (x, y, z) . sigma of broadcast quaternion planes."""
    a = _assemble(w - 1j * z, -y - 1j * x, y - 1j * x, w + 1j * z)
    return a.reshape(a.shape[:-1] + (2, 2))


def to_matrix(q) -> np.ndarray:
    """The 2x2 matrices w I - i (x, y, z) . sigma of quaternions q (..., 4)."""
    return _matrix(*_components(q))


def _bloch(w, x, y, z):
    """Row-major entries of the Bloch rotation O of a quaternion,
    U^dag sigma_mu U = sum_rho O[mu, rho] sigma_rho, floats or arrays alike."""
    return (1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
            2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
            2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y))


def _unit_quaternion(T):
    """(w, x, y, z) of a unitary 2x2 T = exp(i gamma) (w I - i (x, y, z) . sigma), det T = exp(2i gamma)."""
    (a, b), (c, d) = T
    u = cmath.exp(-0.5j * cmath.phase(a * d - b * c)) / 2
    return (float(((a + d) * u).real), float(-((b + c) * u).imag),
            float(-((b - c) * u).real), float(-((a - d) * u).imag))


def rotation(m) -> np.ndarray:
    """SU(2) rotation R(m) = exp(-i m . sigma / 2) as 2x2 matrices, for vectors m (..., 3)."""
    return _matrix(*_quaternion(*_components(m)))


def rotation_generator(m) -> np.ndarray:
    """Hermitian generator m . sigma / 2, so rotation(m) = expm(-i * generator).

    A batch of vectors (..., 3) gives a batch of generators (..., 2, 2).
    """
    return 0.5j * _matrix(0.0, *_components(m))


def _wrap(phase: float) -> float:
    """Reduce an angle mod 2*pi into (-pi, pi], exactly."""
    r = math.remainder(phase, 2 * math.pi)
    return math.pi if r == -math.pi else r


def _eig(gamma, w, x1, x2, x3) -> list:
    """:func:`eig_unitary` of exp(i gamma) (w I - i x . sigma) for a unit quaternion
    (w, x) of Python floats, each eigenvector a pair of Python numbers."""
    s = math.sqrt(x1 * x1 + x2 * x2 + x3 * x3)
    # |lambda_0 - lambda_1| = 2 |x|
    if 2 * s < 1e-12:
        phase = _wrap(gamma if w > 0 else gamma + math.pi)
        return [(phase, (1.0, 0.0)), (phase, (0.0, 1.0))]
    half = math.atan2(s, w)
    r = s + abs(x3)
    z = complex(x1, x2)
    norm = math.sqrt(2 * s * r)
    if x3 >= 0:
        v_plus, v_minus = (r, z), (z.conjugate(), -r)
    else:
        v_plus, v_minus = (z.conjugate(), r), (r, -z)
    pairs = [(_wrap(gamma - half), tuple(v / norm for v in v_plus)),
             (_wrap(gamma + half), tuple(v / norm for v in v_minus))]
    pairs.sort(key=lambda p: p[0])
    return pairs


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
    import numpy as np
    (a, b), (c, d) = T = np.asarray(U, dtype=complex).tolist()
    pairs = _eig(cmath.phase(a * d - b * c) / 2, *_unit_quaternion(T))
    return [(phase, np.array(v, dtype=complex)) for phase, v in pairs]
