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
:func:`_half_angle`, the one home of the half-angle formula, evaluates every
rotation (``analysis._products`` shares one per distinct pulse angle),
:func:`_hamilton` multiplies two and :func:`_product` runs a whole product,
and a sequence meets its target through ``PulseSequence._overlap``, the
quaternion T^dag U.  Only the w component of that overlap is written out,
in ``analysis.landscape``, with the same operations in the same order:
routing the grid through ``_overlap`` cost 3-50% of grid time.  These
kernels take their components as Python floats or as numpy arrays of any
broadcast batch shape, alike: on floats they use :mod:`math`, so a single
sequence is handled without numpy.
:func:`_matrix` turns quaternion planes into 2x2 matrices.  numpy is
imported only by the functions that take or return arrays, the three public
ones among them: ``rotation_generator``, ``is_unitary`` and ``eig_unitary``.

:func:`_frame_average` gives the error model's toggling-frame averages;
:func:`_shares`, one walk over a sequence's pulses, gives their first-order
shares and the ideal product, which a ``PulseSequence`` computes when it is
built.  All functions here are pure.
"""

from __future__ import annotations

import cmath
import importlib
import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "rotation_generator",
    "eig_unitary",
    "is_unitary",
]


def _lib(x):
    """The elementary functions for a kernel input: math for a Python float, numpy for an array."""
    return math if isinstance(x, (float, int)) else importlib.import_module("numpy")


def is_unitary(U: np.ndarray) -> bool:
    """Check U^dag U = I within 1e-12 (operator norm); False for a non-finite U."""
    import numpy as np
    U = np.asarray(U, dtype=complex)
    return (U.shape == (2, 2) and np.isfinite(U).all()
            and np.linalg.norm(U.conj().T @ U - np.eye(2), ord=2) <= 1e-12)


def _components(q) -> list:
    """The planes of a quaternion or vector array, unpacked from its last axis; floats for one."""
    import numpy as np
    q = np.asarray(q, dtype=float)
    return q.tolist() if q.ndim == 1 else [q[..., k] for k in range(q.shape[-1])]


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


def _product(factors):
    """The ordered product q_{n-1} ... q_0 of (w, x, y, z) factors, floats or broadcast
    planes, starting from q_0 itself; the identity when there are no factors."""
    factors = iter(factors)
    acc = next(factors, (1.0, 0.0, 0.0, 0.0))
    for q in factors:
        acc = _hamilton(q, acc)
    return acc


def _half_angle(angle, length):
    """(cos(angle/2), sin(angle/2)/length), floats or arrays alike: the rotation by
    ``angle`` about an axis v of norm ``length`` is the unit quaternion
    (cos(angle/2), v sin(angle/2)/length).  ``length`` must be nonzero."""
    lib = _lib(angle)
    half = angle / 2
    return lib.cos(half), lib.sin(half) / length


def _quaternion(x, y, z):
    """(w, x, y, z) of R(m) for m = (x, y, z), floats or arrays alike."""
    angle = _lib(x).sqrt(x * x + y * y + z * z)
    w, scale = _half_angle(angle, angle + (angle == 0.0))  # length 1 stands in for a zero axis
    return w, x * scale, y * scale, z * scale


def _matrix(w, x, y, z) -> np.ndarray:
    """The 2x2 matrices w I - i (x, y, z) . sigma of broadcast quaternion planes."""
    import numpy as np
    # one empty array and four slice writes: no numpy scalar, no broadcast copies
    a = np.empty(np.broadcast(w, x, y, z).shape + (2, 2), complex)
    a[..., 0, 0], a[..., 0, 1], a[..., 1, 0], a[..., 1, 1] = w - 1j * z, -y - 1j * x, y - 1j * x, w + 1j * z
    return a


def _bloch(w, x, y, z):
    """Row-major entries of the Bloch rotation O of a quaternion,
    U^dag sigma_mu U = sum_rho O[mu, rho] sigma_rho, floats or arrays alike."""
    return (1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
            2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
            2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y))


def _frame_average(x, y, z) -> tuple:
    """A(m) = integral_0^1 O(R(x m)) dx for m = (x, y, z) in closed form (see
    ``error_model``), A(0) = I: nine row-major entries, floats or arrays alike."""
    lib = _lib(x)
    angle = lib.sqrt(x * x + y * y + z * z)
    zero = angle == 0.0
    safe = angle + zero  # 1 where the angle is 0
    nx, ny, nz = x / safe, y / safe, z / safe
    sinc = lib.sin(angle) / safe + zero
    k = 2 * lib.sin(angle / 2) ** 2 / safe  # (1 - cos(angle)) / angle
    c = 1 - sinc
    return (c * nx * nx + sinc, c * nx * ny - k * nz, c * nx * nz + k * ny,
            c * nx * ny + k * nz, c * ny * ny + sinc, c * ny * nz - k * nx,
            c * nx * nz - k * ny, c * ny * nz + k * nx, c * nz * nz + sinc)


def _shares(vectors) -> tuple:
    """One walk over a sequence's pulses m_i: (shares, product), the share
    A(m_i) O(V_{i-1}) of each pulse, V_{i-1} the frame before it, as nine
    row-major floats (the 3x3 product written out), and the last frame, the
    quaternion of the whole product as :func:`_product` gives it."""
    shares = []
    frame = (1.0, 0.0, 0.0, 0.0)
    for i, m in enumerate(vectors):
        q = _quaternion(*m)
        a0, a1, a2, a3, a4, a5, a6, a7, a8 = _frame_average(*m)
        o0, o1, o2, o3, o4, o5, o6, o7, o8 = _bloch(*frame)
        shares.append((
            a0 * o0 + a1 * o3 + a2 * o6, a0 * o1 + a1 * o4 + a2 * o7, a0 * o2 + a1 * o5 + a2 * o8,
            a3 * o0 + a4 * o3 + a5 * o6, a3 * o1 + a4 * o4 + a5 * o7, a3 * o2 + a4 * o5 + a5 * o8,
            a6 * o0 + a7 * o3 + a8 * o6, a6 * o1 + a7 * o4 + a8 * o7, a6 * o2 + a7 * o5 + a8 * o8))
        frame = _hamilton(q, frame) if i else q  # V_1 is q_0 itself, as in _product
    return tuple(shares), frame


def _unit_quaternion(T):
    """(w, x, y, z) of a unitary 2x2 T = exp(i gamma) (w I - i (x, y, z) . sigma), det T = exp(2i gamma)."""
    (a, b), (c, d) = T
    u = cmath.exp(-0.5j * cmath.phase(a * d - b * c)) / 2
    return (float(((a + d) * u).real), float(-((b + c) * u).imag),
            float(-((b - c) * u).real), float(-((a - d) * u).imag))


def rotation_generator(m) -> np.ndarray:
    """Hermitian generator m . sigma / 2, so R(m) = expm(-i * generator).

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
