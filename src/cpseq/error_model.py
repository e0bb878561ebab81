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

A(0) = I (``su2._frame_average``), so Gi = A(m_i)^T dm_i . sigma / 2 exactly
for any channel and any pulse, and pulse i adds its share A(m_i) O(V_{i-1})
(``su2._shares``) to the moment integrals.  The
defining integral, evaluated by Gauss-Legendre quadrature in
``tests/loop_reference.py``, is the oracle for this closed form.

Every analysis here takes a :class:`~cpseq.sequences.PulseSequence` and
reads the vectors, shares and product it computed, on Python floats, when
it was built; the public functions build their matrices when they return.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .sequences import ROBUST_TOL, _Record, _Value
from .su2 import _hamilton, _matrix, _product, _quaternion, rotation_generator

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
        # the float tuples set directly: an analysis call builds its channel here
        e, p = float(epsilon), float(epsilon_prime)
        channel = cls.__new__(cls)
        object.__setattr__(channel, "f_const", (0.0, 0.0, p))
        object.__setattr__(channel, "f_linear", ((e, 0.0, 0.0), (0.0, e, 0.0), (0.0, 0.0, e)))
        return channel


# The unit channels whose generators every report carries, built once.
_UNITS = {"pulse_length": ErrorChannel.pulse_length(1.0), "off_resonance": ErrorChannel.off_resonance(1.0)}


class FirstOrderReport(_Record):
    """Accumulated first-order error of a sequence under one channel.

    ``generator`` is the Hermitian accumulated error generator at the
    channel's strengths.  ``pulse_length_coefficient`` and
    ``off_resonance_coefficient`` are the per-unit strength generators of
    the two unit channels (properties of the sequence alone), and
    ``pulse_length_norm`` and ``off_resonance_norm`` their Frobenius norms;
    ``robust_to_pulse_length`` and ``robust_to_off_resonance`` compare those
    norms against ``tolerance``.
    """

    __slots__ = ("generator", "pulse_length_coefficient", "off_resonance_coefficient",
                 "pulse_length_norm", "off_resonance_norm", "robust_to_pulse_length",
                 "robust_to_off_resonance", "tolerance")


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


def _deformation(x, y, z, channel: ErrorChannel, lib=math) -> tuple:
    """The channel's deformation dm = |m| f + F m of m = (x, y, z), floats or
    arrays alike; the products are written out."""
    (f0, f1, f2), ((a0, a1, a2), (b0, b1, b2), (c0, c1, c2)) = channel.f_const, channel.f_linear
    angle = lib.sqrt(x * x + y * y + z * z)
    return (angle * f0 + a0 * x + a1 * y + a2 * z, angle * f1 + b0 * x + b1 * y + b2 * z,
            angle * f2 + c0 * x + c1 * y + c2 * z)


def _transposed(s, d) -> tuple:
    """M^T d for a 3x3 M given as its nine row-major entries ``s``, floats or arrays alike."""
    a, b, c = d
    return a * s[0] + b * s[3] + c * s[6], a * s[1] + b * s[4] + c * s[7], a * s[2] + b * s[5] + c * s[8]


def _generators(seq, channels, lib=math) -> list:
    """Accumulated generator vectors sum_i O(V_{i-1})^T A(m_i)^T dm_i of a
    :class:`PulseSequence`, one triple per channel, each component summed
    over the pulses in order; an empty sequence gives zeros, the identity's."""
    gs = []
    for channel in channels:
        terms = [_transposed(s, _deformation(*m, channel, lib)) for m, s in zip(seq._vectors, seq._shares)]
        gs.append(tuple(map(sum, zip(*terms))) or (0, 0, 0))
    return gs


def _norm(g) -> float:
    """Frobenius norm |g| / sqrt(2) of the generator g . sigma / 2."""
    gx, gy, gz = g
    square = gx * gx + gy * gy + gz * gz
    if square == math.inf:  # a component above about 1e154 overflows its square; hypot does not
        return math.hypot(gx, gy, gz) / math.sqrt(2)
    return math.sqrt(square / 2)


def first_order_error(seq, channel: ErrorChannel, tolerance: float = ROBUST_TOL) -> FirstOrderReport:
    """Accumulated first-order error generator and per-channel robustness of
    a :class:`PulseSequence`; zero generators and norms for an empty one.

    The report's coefficient matrices are the generators of the unit-strength
    pulse-length and off-resonance channels, accumulated together with the
    requested channel's generator.
    """
    c_len, c_det, gen = _generators(seq, (*_UNITS.values(), channel))
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
    """Interaction-picture moment integrals over the whole :class:`PulseSequence`.

    Each pulse occupies a time fraction proportional to its rotation angle
    (constant drive amplitude), with the drive vector lambda = m / dt held
    constant on its interval.  Within pulse i the Bloch rotation of
    U(t) = R(x m_i) V_{i-1} averages to A(m_i) O(V_{i-1}) exactly.

    A sequence of zero-angle pulses, the empty one included, evolves
    trivially: the first moment is the identity and the second moment
    vanishes.
    """
    import numpy as np
    angles = np.array([math.sqrt(x * x + y * y + z * z) for x, y, z in seq._vectors])
    total_angle = angles.sum()
    if total_angle == 0.0:
        return MomentIntegrals(first_moment=np.eye(3), second_moment=np.zeros((3, 3, 3)))
    shares = np.array(seq._shares).reshape(-1, 3, 3)
    first = np.einsum("n,nmr->mr", angles / total_angle, shares)
    # dt * lambda_nu = m_nu, so the linear moment needs no dt.
    second = np.einsum("nv,nmr->mvr", np.array(seq._vectors), shares)
    return MomentIntegrals(first_moment=first, second_moment=second)


def _perturbed_products(vectors, channel: ErrorChannel, strengths=(1.0,), lib=math) -> list:
    """Quaternions of the ordered products of R(m_i + s dm_i), one per strength s:
    dm is linear in the channel, so scaling it scales the channel, and each
    pulse's dm is computed once for all strengths."""
    pulses = [(*m, *_deformation(*m, channel, lib)) for m in vectors]
    return [_product([_quaternion(x + s * a, y + s * b, z + s * c, lib) for x, y, z, a, b, c in pulses])
            for s in strengths]


def perturbed_propagator(seq, channel: ErrorChannel) -> np.ndarray:
    """Exact (non-perturbative) propagator of a :class:`PulseSequence`
    deformed by any channel: the ordered product of R(m_i + dm_i), as the
    finite-difference oracle computes it; the identity for an empty sequence."""
    return _matrix(*_perturbed_products(seq._vectors, channel)[0])


def _fd_vector(seq, channel: ErrorChannel) -> tuple:
    """:func:`finite_difference_generator` as its vector, on floats.  With
    U_0^dag (U_+ - U_-) / (2 step) = a I - i b . sigma, the Hermitian part of
    i times it is b . sigma, so the generator vector is 2 b."""
    w, x, y, z = seq._product
    up, um = _perturbed_products(seq._vectors, channel, (FD_STEP, -FD_STEP))
    _, gx, gy, gz = _hamilton((w, -x, -y, -z), [(p - m) / FD_STEP for p, m in zip(up, um)])
    return gx, gy, gz


def finite_difference_generator(seq, channel: ErrorChannel) -> np.ndarray:
    """Oracle for the accumulated generator of a :class:`PulseSequence` by
    direct differentiation; zero for an empty sequence.

    Scales the whole channel by +/- ``FD_STEP``, central-differences the
    exact perturbed propagator, and symmetrises i U^dag dU into a Hermitian
    generator.  Agrees with the analytic accumulation to O(FD_STEP^2).
    """
    return rotation_generator(_fd_vector(seq, channel))
