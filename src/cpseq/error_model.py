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
rotation of :func:`su2.rotation_matrix`.  Averaged over a pulse m = theta n,
O is

    A(m) = n n^T + (sin theta / theta) (I - n n^T) + ((1 - cos theta) / theta) [n]x,

A(0) = I, so Gi = A(m_i)^T dm_i . sigma / 2 exactly for any channel and any
pulse, and pulse i adds A(m_i) O(V_{i-1}) to the moment integrals.  The
quadrature :func:`interaction_error_quadrature` is kept only as its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sequences import PulseSequence
from .su2 import (SIGMA_Z, compose, frames, product, quaternion, rotation, rotation_generator,
                  rotation_matrix, to_matrix)

__all__ = [
    "ErrorChannel",
    "FirstOrderReport",
    "MomentIntegrals",
    "pulse_error",
    "interaction_error",
    "interaction_error_quadrature",
    "first_order_error",
    "commuting_first_order_error",
    "product_error_split",
    "error_moment_integrals",
    "irreducible_decompose",
    "perturbed_vector",
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

_COMMUTE_TOL = 1e-12

_E_Z = np.array([0.0, 0.0, 1.0])
# _CROSS[l] = [e_l]x, the matrix of v -> e_l x v
_CROSS = np.cross(np.eye(3)[None, :, :], np.eye(3)[:, None, :])


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
        return np.einsum("mmr->r", self.second_moment)


def _as_vectors(seq) -> np.ndarray:
    """Rotation vectors of a sequence or of a list of vectors, as an (n, 3) array."""
    vs = seq.vectors() if isinstance(seq, PulseSequence) else np.asarray(list(seq), dtype=float)
    if len(vs) == 0:
        raise ValueError("pulse sequence must be nonempty")
    return vs


def _deformation(m, channel: ErrorChannel) -> np.ndarray:
    """The channel's deformation dm of rotation vectors m (..., 3)."""
    if channel.kind == GENERAL_LINEAR:
        return channel.f_const + m @ channel.f_linear.T
    return (channel.epsilon * m
            + channel.epsilon_prime * np.linalg.norm(m, axis=-1, keepdims=True) * _E_Z)


def perturbed_vector(m, channel: ErrorChannel) -> np.ndarray:
    """Rotation vector m + dm under the channel's deformation; m may be (..., 3)."""
    m = np.asarray(m, dtype=float)
    return m + _deformation(m, channel)


def pulse_error(m, channel: ErrorChannel) -> np.ndarray:
    """Per-pulse error generator dW = dm . sigma / 2."""
    return rotation_generator(_deformation(np.asarray(m, dtype=float), channel))


def _gauss_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    return 0.5 * (x + 1.0), 0.5 * w


def interaction_error_quadrature(m, generator: np.ndarray, nodes: int = 64) -> np.ndarray:
    """Gauss-Legendre evaluation of the toggling-frame average
    integral_0^1 exp(i x W) G exp(-i x W) dx with W = m . sigma / 2.

    Converges spectrally in ``nodes`` (the integrand is entire); 64 nodes
    put the result at machine precision for any |m| a sequence ships.
    This is the defining integral and serves as the oracle for the closed
    form in :func:`interaction_error`.
    """
    if nodes < 2:
        raise ValueError("need at least 2 quadrature nodes")
    m = np.asarray(m, dtype=float)
    G = np.asarray(generator, dtype=complex)
    x, w = _gauss_legendre(nodes)
    E = rotation(-x[:, None] * m)  # exp(+i x W) at every node
    return np.einsum("k,kij,jl,kml->im", w, E, G, E.conj())


def _frame_average(m) -> np.ndarray:
    """A(m) = integral_0^1 O(R(x m)) dx for vectors m (..., 3): the Bloch
    rotation of a pulse's toggling frame averaged over the pulse, in closed
    form (see the module docstring), with the sinc limit A(0) = I."""
    angle = np.linalg.norm(m, axis=-1)[..., None, None]
    safe = np.where(angle == 0.0, 1.0, angle)
    n = m / safe[..., 0]
    nn = n[..., :, None] * n[..., None, :]
    sinc = np.where(angle == 0.0, 1.0, np.sin(angle) / safe)
    cross = np.tensordot(n, _CROSS, axes=1)  # [n]x
    return nn + sinc * (np.eye(3) - nn) + (2 * np.sin(angle / 2) ** 2 / safe) * cross


def interaction_error(m, channel: ErrorChannel, nodes: int = 64) -> np.ndarray:
    """Toggling-frame averaged per-pulse error generator A(m)^T dm . sigma / 2.

    Exact for every channel and every pulse, z components included;
    ``nodes`` is accepted for compatibility and does not change the result.
    """
    m = np.asarray(m, dtype=float)
    return rotation_generator(np.einsum("...j,...jk->...k", _deformation(m, channel),
                                        _frame_average(m)))


def _accumulate(vectors: np.ndarray, dm: np.ndarray) -> np.ndarray:
    """Generators sum_i O(V_{i-1})^T A(m_i)^T dm_i . sigma / 2 for deformations dm (..., n, 3)."""
    return rotation_generator(np.einsum("...nj,njk->...k", dm, _shares(vectors)))


def _shares(vectors: np.ndarray) -> np.ndarray:
    """A(m_i) O(V_{i-1}) for every pulse, V_{i-1} the frame before pulse i."""
    return _frame_average(vectors) @ rotation_matrix(frames(quaternion(vectors)))


def first_order_error(seq, channel: ErrorChannel, tolerance: float = ROBUST_TOL) -> FirstOrderReport:
    """Accumulated first-order error generator and per-channel robustness.

    The report's coefficient matrices are the generators of the unit-strength
    pulse-length and off-resonance channels, accumulated together with the
    requested channel's generator.
    """
    vectors = _as_vectors(seq)
    channels = (ErrorChannel.pulse_length(1.0), ErrorChannel.off_resonance(1.0), channel)
    dm = np.stack([_deformation(vectors, ch) for ch in channels])
    c_len, c_det, gen = _accumulate(vectors, dm)
    n_len = float(np.linalg.norm(c_len, ord="fro"))
    n_det = float(np.linalg.norm(c_det, ord="fro"))
    return FirstOrderReport(
        generator=gen,
        pulse_length_coefficient=c_len,
        off_resonance_coefficient=c_det,
        pulse_length_norm=n_len,
        off_resonance_norm=n_det,
        robust_to_pulse_length=n_len <= tolerance,
        robust_to_off_resonance=n_det <= tolerance,
        tolerance=tolerance,
    )


def commuting_first_order_error(seq, channel) -> np.ndarray:
    """Accumulated error generator for a channel that commutes pulsewise.

    When every per-pulse error generator commutes with its own pulse
    (dm parallel to m) the toggling-frame average leaves it unchanged and
    the accumulation is sum_i V_{i-1}^dag dW_i V_{i-1}.  ``channel`` may be a
    bare float, read as a pulse-length strength (for which the commutation
    always holds).

    Raises ValueError if the channel does not commute on some pulse, that
    is if the Frobenius norm |m x dm| / sqrt(2) of [W, dW] exceeds 1e-12.
    """
    if not isinstance(channel, ErrorChannel):
        channel = ErrorChannel.pulse_length(float(channel))
    vectors = _as_vectors(seq)
    dm = _deformation(vectors, channel)
    leaks = np.linalg.norm(np.cross(vectors, dm), axis=-1) / np.sqrt(2)
    bad = np.flatnonzero(leaks > _COMMUTE_TOL)
    if bad.size:
        raise ValueError(
            f"error generator does not commute with pulse {bad[0]}; "
            "use first_order_error for non-commuting channels"
        )
    return _accumulate(vectors, dm)


def product_error_split(seq) -> tuple[np.ndarray, np.ndarray]:
    """Split a 3-pulse sequence's product-frame error into channel parts.

    Returns (length_part, detuning_part) such that

        U G = eps * R(m3) @ length_part + eps_prime * detuning_part

    holds exactly against the accumulated generator G of the combined
    channel, for any strengths.  A sequence compensates the pulse-length
    error iff length_part = 0 and the off-resonance error iff
    detuning_part = 0.
    """
    vectors = _as_vectors(seq)
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


def error_moment_integrals(seq, subdivisions: int = 256) -> MomentIntegrals:
    """Interaction-picture moment integrals over the whole sequence.

    Each pulse occupies a time fraction proportional to its rotation angle
    (constant drive amplitude), with the drive vector lambda = m / dt held
    constant on its interval.  Within pulse i the Bloch rotation of
    U(t) = R(x m_i) V_{i-1} averages to A(m_i) O(V_{i-1}) exactly, so
    ``subdivisions`` (which must be positive) does not change the result.

    A sequence of zero-angle pulses evolves trivially: the first moment is
    the identity and the second moment vanishes.
    """
    if subdivisions < 1:
        raise ValueError("subdivisions must be positive")
    vectors = _as_vectors(seq)
    angles = np.linalg.norm(vectors, axis=-1)
    total_angle = angles.sum()
    if total_angle == 0.0:
        return MomentIntegrals(first_moment=np.eye(3), second_moment=np.zeros((3, 3, 3)))
    shares = _shares(vectors)
    first = np.einsum("n,nmr->mr", angles / total_angle, shares)
    # dt * lambda_nu = m_nu, so the linear moment needs no dt.
    second = np.einsum("nv,nmr->mvr", vectors, shares)
    return MomentIntegrals(first_moment=first, second_moment=second)


def irreducible_decompose(mat) -> tuple[float, np.ndarray, np.ndarray]:
    """Split a real 3x3 tensor into trace, antisymmetric and symmetric
    traceless parts: mat = (trace/3) I + antisym + sym_traceless, exactly.

    The three parts deform the drive vector as uniform expansion, rigid
    rotation and torsion respectively, and each has its own sufficient
    robustness condition on the moment integrals.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.shape != (3, 3):
        raise ValueError("expected a real 3x3 matrix")
    trace = float(np.trace(mat))
    antisym = (mat - mat.T) / 2
    sym_traceless = (mat + mat.T) / 2 - (trace / 3) * np.eye(3)
    return trace, antisym, sym_traceless


def perturbed_propagator(seq, channel: ErrorChannel) -> np.ndarray:
    """Exact (non-perturbative) propagator of the deformed sequence:
    the ordered product of R(m_i + dm_i).  Ground truth for all fidelity
    and oracle computations."""
    return to_matrix(product(quaternion(perturbed_vector(_as_vectors(seq), channel))))


def finite_difference_generator(seq, channel: ErrorChannel, step: float = 1e-5) -> np.ndarray:
    """Oracle for the accumulated generator by direct differentiation.

    Scales the whole channel by +/- step, central-differences the exact
    perturbed propagator, and symmetrises i U^dag dU into a Hermitian
    generator.  Agrees with the analytic accumulation to O(step).
    """
    if not 0 < step <= 1e-3:
        raise ValueError("step must lie in (0, 1e-3]")
    vectors = _as_vectors(seq)
    scaled = [perturbed_vector(vectors, channel.scaled(s)) for s in (0.0, step, -step)]
    U0, Up, Um = to_matrix(product(quaternion(np.stack(scaled, axis=1))))
    G = 1j * U0.conj().T @ (Up - Um) / (2 * step)
    return (G + G.conj().T) / 2
