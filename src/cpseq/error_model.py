"""First-order systematic error analysis for pulse sequences.

A systematic error deforms every pulse the same way.  A channel is one pair
(f, F), a constant vector and a constant 3x3 tensor, and deforms the rotation
vector m of each pulse by

    dm = |m| f + F m,

a constant error per unit rotation angle plus an error linear in the pulse.
The two errors native to NMR-style control are

- pulse-length error, strength eps:         (f, F) = (0, eps I),        dm = eps * m
- off-resonance error, strength eps_prime:  (f, F) = (eps_prime e_z, 0), dm = eps_prime * |m| * e_z

and a combined channel is their sum.  The per-pulse error generator is
dW = dm . sigma / 2, the first-order change of W = m . sigma / 2.

To first order the perturbed sequence equals U (1 - i G) where G is the
accumulated error generator

    G = sum_i V_{i-1}^dag Gi V_{i-1},   V_i = R(m_i) ... R(m_1),

and Gi is the per-pulse generator averaged in the toggling frame of its own
pulse: Gi = integral_0^1 exp(i x W) dW exp(-i x W) dx.  The sequence is
robust against the channel exactly when G = 0.

Every generator here is Hermitian and traceless: a real 3-vector g with
G = g . sigma / 2, which a frame V conjugates into O(V)^T g, O the Bloch
rotation U^dag sigma_mu U = sum_rho O[mu, rho] sigma_rho of V.  Averaged over
a pulse m = theta n, O is

    A(m) = n n^T + (sin theta / theta) (I - n n^T) + ((1 - cos theta) / theta) [n]x,

A(0) = I, so Gi = A(m_i)^T dm_i . sigma / 2 exactly for any channel and any
pulse, and pulse i adds A(m_i) O(V_{i-1}) to the moment integrals.  The
defining integral, evaluated by Gauss-Legendre quadrature in
``tests/loop_reference.py``, is the oracle for this closed form.

A sequence's generators are accumulated on Python floats; the public
functions build their matrices when they return.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .sequences import PulseSequence, _Record, _Value
from .su2 import _bloch, _fold, _hamilton, _lib, _matrix, _product, _quaternion, rotation_generator

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ErrorChannel",
    "FirstOrderReport",
    "MomentIntegrals",
    "first_order_error",
    "error_moment_integrals",
    "perturbed_propagator",
    "finite_difference_generator",
]

# Frobenius norm below which a per-unit-strength generator counts as
# compensated: machine-precision algebra, far below any physical error.
ROBUST_TOL = 1e-10

# Strength step of the central-difference oracle, finite_difference_generator.
FD_STEP = 1e-5


class ErrorChannel(_Value):
    """A systematic error: every pulse m deforms by dm = |m| f + F m.

    ``f_const`` is f, three floats, and ``f_linear`` is F, three rows of three
    floats; both default to zero.  Arrays are taken as well and stored as
    float tuples, so channels compare and hash by their entries.  The
    constructors give pulse_length(eps) = (0, eps I), off_resonance(eps') =
    (eps' e_z, 0) and combined(eps, eps') = (eps' e_z, eps I).  A channel's
    accumulated generator is Theta first^T f + second : F in the moments of
    :class:`MomentIntegrals`, Theta the sequence's total rotation angle.
    """

    __slots__ = ("f_const", "f_linear")

    def __init__(self, f_const=(0.0, 0.0, 0.0), f_linear=((0.0, 0.0, 0.0),) * 3):
        f, F = tuple(map(float, f_const)), tuple([tuple(map(float, row)) for row in f_linear])
        if len(f) != 3 or [len(row) for row in F] != [3, 3, 3]:
            raise ValueError("an error channel needs f_const of 3 floats and f_linear of 3x3 floats")
        set_field = object.__setattr__  # written out: callers build a channel per analysis call
        set_field(self, "f_const", f)
        set_field(self, "f_linear", F)

    @classmethod
    def pulse_length(cls, epsilon: float) -> "ErrorChannel":
        return cls.combined(epsilon, 0.0)

    @classmethod
    def off_resonance(cls, epsilon_prime: float) -> "ErrorChannel":
        return cls.combined(0.0, epsilon_prime)

    @classmethod
    def combined(cls, epsilon: float, epsilon_prime: float) -> "ErrorChannel":
        return cls((0.0, 0.0, epsilon_prime), ((epsilon, 0.0, 0.0), (0.0, epsilon, 0.0), (0.0, 0.0, epsilon)))


# The unit channels whose generators every report carries, built once.
_UNIT_LENGTH, _UNIT_DETUNING = ErrorChannel.pulse_length(1.0), ErrorChannel.off_resonance(1.0)


class FirstOrderReport(_Record):
    """Accumulated first-order error of a sequence under one channel.

    ``generator`` is the Hermitian accumulated error generator at the
    channel's strengths.  The two coefficient matrices are the per-unit
    strength generators of the pulse-length and off-resonance channels
    (properties of the sequence alone); robustness flags compare their
    Frobenius norms against ``tolerance``.
    """

    __slots__ = ("generator", "pulse_length_coefficient", "off_resonance_coefficient",
                 "pulse_length_norm", "off_resonance_norm", "robust_to_pulse_length",
                 "robust_to_off_resonance", "tolerance")

    def __init__(self, generator: np.ndarray, pulse_length_coefficient: np.ndarray,
                 off_resonance_coefficient: np.ndarray, pulse_length_norm: float,
                 off_resonance_norm: float, robust_to_pulse_length: bool,
                 robust_to_off_resonance: bool, tolerance: float):
        super().__init__(generator, pulse_length_coefficient, off_resonance_coefficient,
                         pulse_length_norm, off_resonance_norm, robust_to_pulse_length,
                         robust_to_off_resonance, tolerance)


class MomentIntegrals(_Record):
    """Interaction-picture moments controlling robustness to constant and
    linear error tensors.

    ``first_moment[mu, rho]`` is the tau_rho coefficient of
    integral_0^1 U(t)^dag tau_mu U(t) dt; ``second_moment[mu, nu, rho]``
    likewise for integral_0^1 U(t)^dag tau_mu U(t) lambda_nu(t) dt, where
    lambda(t) is the piecewise-constant drive vector.  A channel (f, F) has
    the accumulated generator vector

        g_rho = Theta sum_mu first[mu, rho] f_mu + sum_mu,nu F[mu, nu] second[mu, nu, rho],

    g = Theta first^T f + second : F with Theta the total rotation angle, so
    a vanishing first moment kills every constant error f and a vanishing
    second moment every linear one F.
    """

    __slots__ = ("first_moment", "second_moment")

    def __init__(self, first_moment: np.ndarray, second_moment: np.ndarray):
        super().__init__(first_moment, second_moment)


def _as_vectors(seq) -> list:
    """Rotation vectors of a sequence or of a list of vectors, as float triples."""
    vs = seq._vectors() if isinstance(seq, PulseSequence) else [tuple(map(float, m)) for m in seq]
    if not vs:
        raise ValueError("pulse sequence must be nonempty")
    return vs


def _deformation(x, y, z, channel: ErrorChannel) -> tuple:
    """The channel's deformation dm = |m| f + F m of m = (x, y, z), floats or
    arrays alike; the products are written out."""
    (f0, f1, f2), ((a0, a1, a2), (b0, b1, b2), (c0, c1, c2)) = channel.f_const, channel.f_linear
    angle = _lib(x).sqrt(x * x + y * y + z * z)
    return (angle * f0 + a0 * x + a1 * y + a2 * z, angle * f1 + b0 * x + b1 * y + b2 * z,
            angle * f2 + c0 * x + c1 * y + c2 * z)


def _frame_average(x, y, z) -> tuple:
    """A(m) = integral_0^1 O(R(x m)) dx for m = (x, y, z) in closed form (module
    docstring), A(0) = I: nine row-major entries, floats or arrays alike."""
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


def _transposed(s, d) -> tuple:
    """M^T d for a 3x3 M given as its nine row-major entries ``s``, floats or arrays alike."""
    a, b, c = d
    return a * s[0] + b * s[3] + c * s[6], a * s[1] + b * s[4] + c * s[7], a * s[2] + b * s[5] + c * s[8]


def _shares(vectors) -> list:
    """A(m_i) O(V_{i-1}) for every pulse, V_{i-1} the frame before pulse i, as
    nine row-major floats each; the 3x3 product is written out."""
    shares = []
    for m, frame in zip(vectors, _fold(_quaternion(*m) for m in vectors)):
        a0, a1, a2, a3, a4, a5, a6, a7, a8 = _frame_average(*m)
        o0, o1, o2, o3, o4, o5, o6, o7, o8 = _bloch(*frame)
        shares.append((
            a0 * o0 + a1 * o3 + a2 * o6, a0 * o1 + a1 * o4 + a2 * o7, a0 * o2 + a1 * o5 + a2 * o8,
            a3 * o0 + a4 * o3 + a5 * o6, a3 * o1 + a4 * o4 + a5 * o7, a3 * o2 + a4 * o5 + a5 * o8,
            a6 * o0 + a7 * o3 + a8 * o6, a6 * o1 + a7 * o4 + a8 * o7, a6 * o2 + a7 * o5 + a8 * o8))
    return shares


def _generators(seq, channels) -> list:
    """Accumulated generator vectors sum_i O(V_{i-1})^T A(m_i)^T dm_i of a
    sequence, one float triple per channel."""
    vectors = _as_vectors(seq)
    shares = _shares(vectors)
    gs = []
    for channel in channels:
        terms = [_transposed(s, _deformation(*m, channel)) for m, s in zip(vectors, shares)]
        gs.append(tuple(map(sum, zip(*terms))))
    return gs


def _norm(g) -> float:
    """Frobenius norm |g| / sqrt(2) of the generator g . sigma / 2."""
    gx, gy, gz = g
    return math.sqrt((gx * gx + gy * gy + gz * gz) / 2)


def first_order_error(seq, channel: ErrorChannel, tolerance: float = ROBUST_TOL) -> FirstOrderReport:
    """Accumulated first-order error generator and per-channel robustness.

    The report's coefficient matrices are the generators of the unit-strength
    pulse-length and off-resonance channels, accumulated together with the
    requested channel's generator.
    """
    c_len, c_det, gen = _generators(seq, (_UNIT_LENGTH, _UNIT_DETUNING, channel))
    n_len, n_det = _norm(c_len), _norm(c_det)
    return FirstOrderReport(
        generator=rotation_generator(gen),
        pulse_length_coefficient=rotation_generator(c_len),
        off_resonance_coefficient=rotation_generator(c_det),
        pulse_length_norm=n_len,
        off_resonance_norm=n_det,
        robust_to_pulse_length=n_len <= tolerance,
        robust_to_off_resonance=n_det <= tolerance,
        tolerance=tolerance,
    )


def error_moment_integrals(seq) -> MomentIntegrals:
    """Interaction-picture moment integrals over the whole sequence.

    Each pulse occupies a time fraction proportional to its rotation angle
    (constant drive amplitude), with the drive vector lambda = m / dt held
    constant on its interval.  Within pulse i the Bloch rotation of
    U(t) = R(x m_i) V_{i-1} averages to A(m_i) O(V_{i-1}) exactly.

    A sequence of zero-angle pulses evolves trivially: the first moment is
    the identity and the second moment vanishes.
    """
    import numpy as np
    vectors = _as_vectors(seq)
    angles = np.array([math.sqrt(x * x + y * y + z * z) for x, y, z in vectors])
    total_angle = angles.sum()
    if total_angle == 0.0:
        return MomentIntegrals(first_moment=np.eye(3), second_moment=np.zeros((3, 3, 3)))
    shares = np.array(_shares(vectors)).reshape(-1, 3, 3)
    first = np.einsum("n,nmr->mr", angles / total_angle, shares)
    # dt * lambda_nu = m_nu, so the linear moment needs no dt.
    second = np.einsum("nv,nmr->mvr", np.array(vectors), shares)
    return MomentIntegrals(first_moment=first, second_moment=second)


def _perturbed_product(vectors, channel: ErrorChannel, strength: float = 1.0) -> tuple:
    """Quaternion of the ordered product of R(m_i + strength dm_i), on floats:
    dm is linear in the channel, so scaling it scales the channel."""
    return _product(_quaternion(*(a + strength * b for a, b in zip(m, _deformation(*m, channel))))
                    for m in vectors)


def perturbed_propagator(seq, channel: ErrorChannel) -> np.ndarray:
    """Exact (non-perturbative) propagator of the deformed sequence under any
    channel: the ordered product of R(m_i + dm_i), as the finite-difference
    oracle computes it."""
    return _matrix(*_perturbed_product(_as_vectors(seq), channel))


def _fd_vector(seq, channel: ErrorChannel) -> tuple:
    """:func:`finite_difference_generator` as its vector, on floats.  With
    U_0^dag (U_+ - U_-) / (2 step) = a I - i b . sigma, the Hermitian part of
    i times it is b . sigma, so the generator vector is 2 b."""
    vectors = _as_vectors(seq)
    (w, x, y, z), up, um = (_perturbed_product(vectors, channel, s) for s in (0.0, FD_STEP, -FD_STEP))
    _, gx, gy, gz = _hamilton((w, -x, -y, -z), [(p - m) / FD_STEP for p, m in zip(up, um)])
    return gx, gy, gz


def finite_difference_generator(seq, channel: ErrorChannel) -> np.ndarray:
    """Oracle for the accumulated generator by direct differentiation.

    Scales the whole channel by +/- ``FD_STEP``, central-differences the
    exact perturbed propagator, and symmetrises i U^dag dU into a Hermitian
    generator.  Agrees with the analytic accumulation to O(FD_STEP^2).
    """
    return rotation_generator(_fd_vector(seq, channel))
