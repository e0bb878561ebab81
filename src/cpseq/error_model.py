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

For an xy-plane pulse the toggling-frame average has the closed form

    Gi = eps * W + eps_prime * R(m)^dag sigma_z sin(|m| / 2),

which this module cross-checks against direct Gauss-Legendre quadrature of
the defining integral (the quadrature is the ground truth if the two ever
disagree).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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


def perturbed_vector(m, channel: ErrorChannel) -> np.ndarray:
    """Rotation vector m + dm under the channel's deformation; m may be (..., 3)."""
    m = np.asarray(m, dtype=float)
    if channel.kind == GENERAL_LINEAR:
        return m + channel.f_const + m @ channel.f_linear.T
    dm = channel.epsilon * m
    dm = dm + (channel.epsilon_prime * np.linalg.norm(m, axis=-1, keepdims=True)
               * np.array([0.0, 0.0, 1.0]))
    return m + dm


def pulse_error(m, channel: ErrorChannel) -> np.ndarray:
    """Per-pulse error generator dW = dm . sigma / 2."""
    m = np.asarray(m, dtype=float)
    return rotation_generator(perturbed_vector(m, channel) - m)


@lru_cache(maxsize=8)
def _gauss_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1], computed once per size."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    x.flags.writeable = w.flags.writeable = False
    return x, w


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


def _commutes(m, dW) -> bool:
    """Whether a per-pulse error generator commutes with its own pulse."""
    W = rotation_generator(m)
    return np.linalg.norm(W @ dW - dW @ W, ord="fro") <= _COMMUTE_TOL


def interaction_error(m, channel: ErrorChannel, nodes: int = 64) -> np.ndarray:
    """Toggling-frame averaged per-pulse error generator.

    For the NMR channels on an xy-plane pulse this is the closed form
    eps * W + eps_prime * R(m)^dag sigma_z sin(|m|/2); any other case falls
    back to quadrature of the defining integral (or skips the average
    entirely when the error commutes with its own pulse).
    """
    m = np.asarray(m, dtype=float)
    if channel.kind == GENERAL_LINEAR:
        dW = pulse_error(m, channel)
        if _commutes(m, dW):
            return dW
        return interaction_error_quadrature(m, dW, nodes)
    if abs(m[2]) > 0.0:
        return interaction_error_quadrature(m, pulse_error(m, channel), nodes)
    theta = np.linalg.norm(m)
    out = channel.epsilon * rotation_generator(m)
    if channel.epsilon_prime != 0.0:
        out = out + channel.epsilon_prime * np.sin(theta / 2) * (rotation(m).conj().T @ SIGMA_Z)
    return out


def _accumulate(vectors: np.ndarray, terms) -> np.ndarray:
    """Toggling-frame sum sum_i V_{i-1}^dag terms[i] V_{i-1}, V_i = R(m_i) ... R(m_1)."""
    V = to_matrix(frames(quaternion(vectors)))
    return np.einsum("nji,njk,nkl->il", V.conj(), np.asarray(terms), V)


def first_order_error(seq, channel: ErrorChannel, tolerance: float = ROBUST_TOL) -> FirstOrderReport:
    """Accumulated first-order error generator and per-channel robustness.

    The generator is linear in the strengths, so the report's coefficient
    matrices are computed once at unit strength and the requested channel's
    generator is assembled from them (general-linear channels are
    accumulated directly).
    """
    vectors = _as_vectors(seq)
    c_len, c_det = (_accumulate(vectors, [interaction_error(m, ch) for m in vectors])
                    for ch in (ErrorChannel.pulse_length(1.0), ErrorChannel.off_resonance(1.0)))
    if channel.kind == GENERAL_LINEAR:
        gen = _accumulate(vectors, [interaction_error(m, channel) for m in vectors])
    else:
        gen = channel.epsilon * c_len + channel.epsilon_prime * c_det
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

    When every per-pulse error generator commutes with its own pulse the
    toggling-frame average is the identity and the accumulation collapses to
    sum_i V_{i-1}^dag dW_i V_{i-1}.  ``channel`` may be a bare float, read
    as a pulse-length strength (for which the commutation always holds).

    Raises ValueError if the channel does not commute on some pulse.
    """
    if not isinstance(channel, ErrorChannel):
        channel = ErrorChannel.pulse_length(float(channel))
    vectors = _as_vectors(seq)
    terms = [pulse_error(m, channel) for m in vectors]
    for i, (m, dW) in enumerate(zip(vectors, terms)):
        if not _commutes(m, dW):
            raise ValueError(
                f"error generator does not commute with pulse {i}; "
                "use first_order_error for non-commuting channels"
            )
    return _accumulate(vectors, terms)


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
    constant on its interval.  Per-pulse integrals use Gauss-Legendre with
    ``subdivisions`` nodes; 256 nodes leave quadrature error far below 1e-10.

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
    x, w = _gauss_legendre(subdivisions)
    # U(t) at node k of pulse i is R(x_k m_i) V_{i-1}, and U^dag tau_mu U =
    # sum_rho O[mu, rho] tau_rho for its Bloch rotation O; zero-angle
    # pulses carry zero weight.
    within = quaternion(x[:, None, None] * vectors)
    O = rotation_matrix(compose(within, frames(quaternion(vectors))))
    first = np.einsum("k,n,knmr->mr", w, angles / total_angle, O)
    # dt * lambda_nu = m_nu, so the linear moment needs no dt.
    second = np.einsum("k,nv,knmr->mvr", w, vectors, O)
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
