"""First-order systematic error analysis for pulse sequences.

A systematic error deforms every pulse the same way.  The two errors native
to NMR-style control are modelled on the rotation vector m of each pulse:

- pulse-length error, strength eps:        dm = eps * m
- off-resonance error, strength eps_prime: dm = eps_prime * |m| * e_z

so the per-pulse error generator is dW = eps * W + eps_prime * |m| sigma_z/2
with W = m . sigma / 2.  A general channel dm_mu = f_mu + f_mu_nu m_nu with
constant tensors is also supported.

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

PULSE_LENGTH = "pulse-length"
OFF_RESONANCE = "off-resonance"
COMBINED = "combined"
GENERAL_LINEAR = "general-linear"

# Frobenius norm below which a per-unit-strength generator counts as
# compensated: machine-precision algebra, far below any physical error.
ROBUST_TOL = 1e-10

# Strength step of the central-difference oracle, finite_difference_generator.
FD_STEP = 1e-5


class ErrorChannel(_Value):
    """A systematic error specification.

    Use the classmethod constructors; they enforce that each kind carries
    only its own strengths.  ``general_linear`` channels ignore
    (epsilon, epsilon_prime) and deform pulses as dm = f_const + f_linear @ m.
    """

    __slots__ = ("kind", "epsilon", "epsilon_prime", "f_const", "f_linear")

    def __init__(self, kind: str, epsilon: float = 0.0, epsilon_prime: float = 0.0,
                 f_const: np.ndarray | None = None, f_linear: np.ndarray | None = None):
        if kind not in (PULSE_LENGTH, OFF_RESONANCE, COMBINED, GENERAL_LINEAR):
            raise ValueError(f"unknown error channel kind {kind!r}")
        if kind == PULSE_LENGTH and epsilon_prime != 0.0:
            raise ValueError("pulse-length channel carries only epsilon")
        if kind == OFF_RESONANCE and epsilon != 0.0:
            raise ValueError("off-resonance channel carries only epsilon_prime")
        if kind == GENERAL_LINEAR:
            import numpy as np
            f_const = np.zeros(3) if f_const is None else np.asarray(f_const, dtype=float)
            f_linear = np.zeros((3, 3)) if f_linear is None else np.asarray(f_linear, dtype=float)
            if f_const.shape != (3,) or f_linear.shape != (3, 3):
                raise ValueError("general-linear channel needs f_const (3,) and f_linear (3, 3)")
            epsilon = epsilon_prime = 0.0
        elif f_const is not None or f_linear is not None:
            raise ValueError("tensor fields are only valid on a general-linear channel")
        set_field = object.__setattr__  # written out: an error analysis builds a dozen channels
        set_field(self, "kind", kind)
        set_field(self, "epsilon", epsilon)
        set_field(self, "epsilon_prime", epsilon_prime)
        set_field(self, "f_const", f_const)
        set_field(self, "f_linear", f_linear)

    def _key(self) -> tuple:
        # the tensors as tuples of floats, so that equal channels are equal and hash alike
        if self.kind != GENERAL_LINEAR:
            return super()._key()
        return self.kind, tuple(self.f_const.tolist()), tuple(map(tuple, self.f_linear.tolist()))

    @classmethod
    def pulse_length(cls, epsilon: float) -> "ErrorChannel":
        return cls(PULSE_LENGTH, epsilon=float(epsilon))

    @classmethod
    def off_resonance(cls, epsilon_prime: float) -> "ErrorChannel":
        return cls(OFF_RESONANCE, epsilon_prime=float(epsilon_prime))

    @classmethod
    def combined(cls, epsilon: float, epsilon_prime: float) -> "ErrorChannel":
        return cls(COMBINED, epsilon=float(epsilon), epsilon_prime=float(epsilon_prime))

    @classmethod
    def general_linear(cls, f_const=None, f_linear=None) -> "ErrorChannel":
        return cls(GENERAL_LINEAR, f_const=f_const, f_linear=f_linear)

    def scaled(self, factor: float) -> "ErrorChannel":
        """Channel with every strength multiplied by ``factor``."""
        if self.kind == GENERAL_LINEAR:
            return ErrorChannel.general_linear(factor * self.f_const, factor * self.f_linear)
        return ErrorChannel(self.kind, epsilon=factor * self.epsilon,
                            epsilon_prime=factor * self.epsilon_prime)


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
    lambda(t) is the piecewise-constant drive vector.  Vanishing first
    moment kills constant errors; vanishing second moment kills linear ones.
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
    """The channel's deformation dm of m = (x, y, z), floats or arrays alike."""
    if channel.kind == GENERAL_LINEAR:
        f, F = channel.f_const.tolist(), channel.f_linear.tolist()
        return tuple(f[i] + F[i][0] * x + F[i][1] * y + F[i][2] * z for i in range(3))
    e = channel.epsilon
    return e * x, e * y, e * z + channel.epsilon_prime * _lib(x).sqrt(x * x + y * y + z * z)


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
    c_len, c_det, gen = _generators(seq, (ErrorChannel.pulse_length(1.0),
                                          ErrorChannel.off_resonance(1.0), channel))
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


def _perturbed_product(vectors, channel: ErrorChannel) -> tuple:
    """Quaternion of the ordered product of R(m_i + dm_i), on floats."""
    return _product(_quaternion(*(a + b for a, b in zip(m, _deformation(*m, channel))))
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
    (w, x, y, z), up, um = (_perturbed_product(vectors, channel.scaled(s)) for s in (0.0, FD_STEP, -FD_STEP))
    _, gx, gy, gz = _hamilton((w, -x, -y, -z), [(p - m) / FD_STEP for p, m in zip(up, um)])
    return gx, gy, gz


def finite_difference_generator(seq, channel: ErrorChannel) -> np.ndarray:
    """Oracle for the accumulated generator by direct differentiation.

    Scales the whole channel by +/- ``FD_STEP``, central-differences the
    exact perturbed propagator, and symmetrises i U^dag dU into a Hermitian
    generator.  Agrees with the analytic accumulation to O(FD_STEP^2).
    """
    return rotation_generator(_fd_vector(seq, channel))
