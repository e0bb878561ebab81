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
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .sequences import PulseSequence
from .su2 import (_assemble, _bloch, _components, _fold, _hamilton, _lib, _matrix, _product,
                  _quaternion, compose, quaternion, rotation_generator, to_matrix)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ErrorChannel",
    "FirstOrderReport",
    "MomentIntegrals",
    "pulse_error",
    "interaction_error",
    "first_order_error",
    "product_error_split",
    "error_moment_integrals",
    "irreducible_decompose",
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


@dataclass(frozen=True)
class ErrorChannel:
    """A systematic error specification.

    Use the classmethod constructors; they enforce that each kind carries
    only its own strengths.  ``general_linear`` channels ignore
    (epsilon, epsilon_prime) and deform pulses as dm = f_const + f_linear @ m.
    """

    kind: str
    epsilon: float = 0.0
    epsilon_prime: float = 0.0
    f_const: np.ndarray | None = None
    f_linear: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in (PULSE_LENGTH, OFF_RESONANCE, COMBINED, GENERAL_LINEAR):
            raise ValueError(f"unknown error channel kind {self.kind!r}")
        if self.kind == PULSE_LENGTH and self.epsilon_prime != 0.0:
            raise ValueError("pulse-length channel carries only epsilon")
        if self.kind == OFF_RESONANCE and self.epsilon != 0.0:
            raise ValueError("off-resonance channel carries only epsilon_prime")
        if self.kind == GENERAL_LINEAR:
            import numpy as np
            f = np.zeros(3) if self.f_const is None else np.asarray(self.f_const, dtype=float)
            F = np.zeros((3, 3)) if self.f_linear is None else np.asarray(self.f_linear, dtype=float)
            if f.shape != (3,) or F.shape != (3, 3):
                raise ValueError("general-linear channel needs f_const (3,) and f_linear (3, 3)")
            object.__setattr__(self, "f_const", f)
            object.__setattr__(self, "f_linear", F)
            object.__setattr__(self, "epsilon", 0.0)
            object.__setattr__(self, "epsilon_prime", 0.0)
        elif self.f_const is not None or self.f_linear is not None:
            raise ValueError("tensor fields are only valid on a general-linear channel")

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


@dataclass(frozen=True)
class FirstOrderReport:
    """Accumulated first-order error of a sequence under one channel.

    ``generator`` is the Hermitian accumulated error generator at the
    channel's strengths.  The two coefficient matrices are the per-unit
    strength generators of the pulse-length and off-resonance channels
    (properties of the sequence alone); robustness flags compare their
    Frobenius norms against ``tolerance``.
    """

    generator: np.ndarray
    pulse_length_coefficient: np.ndarray
    off_resonance_coefficient: np.ndarray
    pulse_length_norm: float
    off_resonance_norm: float
    robust_to_pulse_length: bool
    robust_to_off_resonance: bool
    tolerance: float


@dataclass(frozen=True)
class MomentIntegrals:
    """Interaction-picture moments controlling robustness to constant and
    linear error tensors.

    ``first_moment[mu, rho]`` is the tau_rho coefficient of
    integral_0^1 U(t)^dag tau_mu U(t) dt; ``second_moment[mu, nu, rho]``
    likewise for integral_0^1 U(t)^dag tau_mu U(t) lambda_nu(t) dt, where
    lambda(t) is the piecewise-constant drive vector.  Vanishing first
    moment kills constant errors; vanishing second moment kills linear ones.
    """

    first_moment: np.ndarray
    second_moment: np.ndarray

    @property
    def second_moment_trace_part(self) -> np.ndarray:
        """Coefficient triple of integral U^dag H U dt (the contraction
        second_moment[mu, mu, :]); zero exactly for pulse-length-robust
        sequences."""
        return self.second_moment.trace()


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


def pulse_error(m, channel: ErrorChannel) -> np.ndarray:
    """Per-pulse error generator dW = dm . sigma / 2."""
    return rotation_generator(_assemble(*_deformation(*_components(m), channel)))


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


def interaction_error(m, channel: ErrorChannel) -> np.ndarray:
    """Toggling-frame averaged per-pulse error generator A(m)^T dm . sigma / 2,
    exact for every channel and every pulse, z components included."""
    m = _components(m)
    return rotation_generator(_assemble(*_transposed(_frame_average(*m), _deformation(*m, channel))))


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


def product_error_split(seq) -> tuple[np.ndarray, np.ndarray]:
    """Split a 3-pulse sequence's product-frame error into channel parts.

    Returns (length_part, detuning_part) such that

        U G = eps * R(m3) @ length_part + eps_prime * detuning_part

    holds exactly against the accumulated generator G of the combined
    channel, for any strengths.  A sequence compensates the pulse-length
    error iff length_part = 0 and the off-resonance error iff
    detuning_part = 0.
    """
    import numpy as np
    SIGMA_Z = np.diag([1.0, -1.0])
    vectors = np.array(_as_vectors(seq))
    if len(vectors) != 3:
        raise ValueError(f"product error split needs exactly 3 pulses, got {len(vectors)}")
    qs = quaternion(vectors)
    R1, R2, R3 = to_matrix(qs)
    R21, R32 = to_matrix(compose(qs[1:], qs[:-1]))
    W1, W2, W3 = rotation_generator(vectors)
    s1, s2, s3 = (np.sin(np.linalg.norm(m) / 2) for m in vectors)
    length_part = W3 @ R21 + R2 @ W2 @ R1 + R21 @ W1
    detuning_part = s3 * SIGMA_Z @ R21 + s2 * R3 @ SIGMA_Z @ R1 + s1 * R32 @ SIGMA_Z
    return length_part, detuning_part


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


def irreducible_decompose(mat) -> tuple[float, np.ndarray, np.ndarray]:
    """Split a real 3x3 tensor into trace, antisymmetric and symmetric
    traceless parts: mat = (trace/3) I + antisym + sym_traceless, exactly.

    The three parts deform the drive vector as uniform expansion, rigid
    rotation and torsion respectively, and each has its own sufficient
    robustness condition on the moment integrals.
    """
    import numpy as np
    mat = np.asarray(mat, dtype=float)
    if mat.shape != (3, 3):
        raise ValueError("expected a real 3x3 matrix")
    trace = float(np.trace(mat))
    antisym = (mat - mat.T) / 2
    sym_traceless = (mat + mat.T) / 2 - (trace / 3) * np.eye(3)
    return trace, antisym, sym_traceless


def _perturbed_product(vectors, channel: ErrorChannel) -> tuple:
    """Quaternion of the ordered product of R(m_i + dm_i), on floats."""
    return _product(_quaternion(*(a + b for a, b in zip(m, _deformation(*m, channel))))
                    for m in vectors)


def perturbed_propagator(seq, channel: ErrorChannel) -> np.ndarray:
    """Exact (non-perturbative) propagator of the deformed sequence under any
    channel: the ordered product of R(m_i + dm_i), as the finite-difference
    oracle computes it."""
    return _matrix(*_perturbed_product(_as_vectors(seq), channel))


def _fd_vector(seq, channel: ErrorChannel, step: float) -> tuple:
    """:func:`finite_difference_generator` as its vector, on floats.  With
    U_0^dag (U_+ - U_-) / (2 step) = a I - i b . sigma, the Hermitian part of
    i times it is b . sigma, so the generator vector is 2 b."""
    if not 0 < step <= 1e-3:
        raise ValueError("step must lie in (0, 1e-3]")
    vectors = _as_vectors(seq)
    (w, x, y, z), up, um = (_perturbed_product(vectors, channel.scaled(s)) for s in (0.0, step, -step))
    _, gx, gy, gz = _hamilton((w, -x, -y, -z), [(p - m) / step for p, m in zip(up, um)])
    return gx, gy, gz


def finite_difference_generator(seq, channel: ErrorChannel, step: float = 1e-5) -> np.ndarray:
    """Oracle for the accumulated generator by direct differentiation.

    Scales the whole channel by +/- step, central-differences the exact
    perturbed propagator, and symmetrises i U^dag dU into a Hermitian
    generator.  Agrees with the analytic accumulation to O(step).
    """
    return rotation_generator(_fd_vector(seq, channel, step))
