"""Composite pulse synthesis for SU(2) gates.

A pulse sequence is an ordered list of hard (rectangular) pulses, each a
rotation by theta_i about an axis (cos phi_i, sin phi_i, 0) in the xy-plane,
applied left to right in time.  Every synthesizer declares a target gate and
guarantees that the ideal product of its pulses reproduces that target.

Shipped families:

- ``plain``        one pulse, no error compensation;
- ``corpse``       3 pulses, cancels the off-resonance error to first order;
- ``scrofulous``   3 pulses, cancels the pulse-length error to first order;
- ``cis_cccp``     9 pulses, a SCROFULOUS whose pulses are each replaced by a
                   CORPSE; cancels both errors simultaneously;
- ``bb1``          4 pulses (target plus an identity-valued compensation
                   block), cancels the pulse-length error;
- ``alway_jones``  8 pulses, cancels both errors but only implements pi
                   rotations;
- ``scrofulous_in_corpse``  the reverse concatenation (three SCROFULOUS
                   blocks composing a CORPSE); ships as a negative control,
                   it does NOT cancel the off-resonance error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .su2 import fidelity, product, quaternion, rotation, to_matrix

__all__ = [
    "SynthesisError",
    "WindingError",
    "Pulse",
    "PulseSequence",
    "FAMILIES",
    "plain",
    "corpse",
    "scrofulous",
    "cis_cccp",
    "bb1",
    "alway_jones",
    "scrofulous_in_corpse",
    "reduce_pi_pulse_product",
    "sequence_to_dict",
    "sequence_from_dict",
]

TWO_PI = 2 * np.pi

# Location of the first positive minimum of sin(x)/x; right edge of the
# bracket used for the SCROFULOUS angle equation.
_SINC_ARGMIN = 4.4934094579090641

FAMILIES = (
    "plain",
    "corpse",
    "scrofulous",
    "cis-cccp",
    "bb1",
    "alway-jones",
    "scrofulous-in-corpse",
    "custom",
)


class SynthesisError(RuntimeError):
    """Raised when a numerical synthesis step fails to converge."""


class WindingError(ValueError):
    """Raised when winding numbers produce a negative segment angle or
    violate a family constraint."""


@dataclass(frozen=True)
class Pulse:
    """One hard pulse: rotation by ``theta`` about azimuth ``phi`` in the xy-plane."""

    theta: float
    phi: float

    def __post_init__(self):
        if not np.isfinite(self.theta) or not np.isfinite(self.phi):
            raise ValueError("pulse angles must be finite")
        if self.theta < 0:
            raise ValueError(f"pulse angle must be nonnegative, got {self.theta}")
        object.__setattr__(self, "phi", float(self.phi) % TWO_PI)
        object.__setattr__(self, "theta", float(self.theta))

    @property
    def vector(self) -> np.ndarray:
        """Rotation vector theta * (cos phi, sin phi, 0)."""
        return np.array([self.theta * np.cos(self.phi), self.theta * np.sin(self.phi), 0.0])

    def unitary(self) -> np.ndarray:
        return rotation(self.vector)


@dataclass(frozen=True, eq=False)
class PulseSequence:
    """An ordered pulse list with its declared target gate.

    ``pulses[0]`` is applied first, so the ideal propagator is
    R(m_k) ... R(m_1).  ``theta``/``phi``/``winding`` record the synthesis
    parameters when the sequence came from a synthesizer.
    """

    family: str
    pulses: tuple[Pulse, ...]
    target: np.ndarray
    theta: float | None = None
    phi: float | None = None
    winding: tuple[int, int, int] | None = None

    def __post_init__(self):
        object.__setattr__(self, "pulses", tuple(self.pulses))
        object.__setattr__(self, "target", np.asarray(self.target, dtype=complex))

    def __len__(self) -> int:
        return len(self.pulses)

    def vectors(self) -> np.ndarray:
        """Rotation vectors of all pulses, in application order, as an (n, 3) array."""
        theta = np.array([p.theta for p in self.pulses])
        phi = np.array([p.phi for p in self.pulses])
        return np.stack([theta * np.cos(phi), theta * np.sin(phi), np.zeros_like(theta)], axis=-1)

    def propagator(self) -> np.ndarray:
        """Ideal (error-free) product of all pulses."""
        return to_matrix(product(quaternion(self.vectors())))


def _xy_target(theta: float, phi: float) -> np.ndarray:
    return rotation([theta * np.cos(phi), theta * np.sin(phi), 0.0])


def _check_product(seq: PulseSequence, tol: float = 1e-12) -> PulseSequence:
    f = fidelity(seq.propagator(), seq.target)
    if not f >= 1 - tol:  # also refuses a NaN product
        raise SynthesisError(
            f"{seq.family} synthesis produced a product with fidelity {f!r} to its target"
        )
    return seq


def plain(theta: float, phi: float = 0.0) -> PulseSequence:
    """Single uncompensated pulse implementing the rotation (theta, phi)."""
    pulse = Pulse(theta, phi)
    return _check_product(
        PulseSequence("plain", (pulse,), _xy_target(theta, phi), theta=theta, phi=phi)
    )


def corpse_angles(theta: float, winding: tuple[int, int, int]) -> tuple[float, float, float]:
    """Segment angles of a CORPSE decomposition of a rotation by ``theta``.

    With kappa = arcsin(sin(theta/2) / 2):

        theta_1 = theta/2 - kappa + 2 pi n1
        theta_2 =        -2 kappa + 2 pi n2
        theta_3 = theta/2 - kappa + 2 pi n3

    Raises WindingError if any segment angle comes out negative.
    """
    kappa = np.arcsin(np.sin(theta / 2) / 2)
    n1, n2, n3 = winding
    angles = (
        theta / 2 - kappa + TWO_PI * n1,
        -2 * kappa + TWO_PI * n2,
        theta / 2 - kappa + TWO_PI * n3,
    )
    for i, a in enumerate(angles, start=1):
        if a < 0:
            raise WindingError(
                f"CORPSE segment angle theta_{i} = {a:.6f} is negative; "
                f"increase winding number n{i}"
            )
    return angles


def corpse(theta: float, phi: float = 0.0, winding: tuple[int, int, int] = (1, 2, 1)) -> PulseSequence:
    """CORPSE: three collinear pulses cancelling the off-resonance error.

    The middle pulse is applied along the reversed axis (phi + pi).  Any
    integer winding with all segment angles nonnegative is accepted; the
    default (1, 2, 1) is the standard long CORPSE.  Windings with
    n1 - n2 + n3 = 0 leave a residual first-order error exactly equal to the
    pulse-length error of the target rotation itself, which is what the
    concatenated sequence :func:`cis_cccp` relies on.

    For odd n1 + n2 + n3 the product equals minus the target; the gate is the
    same up to global phase.
    """
    if not 0 <= theta <= TWO_PI:
        raise ValueError(f"CORPSE rotation angle must lie in [0, 2*pi], got {theta}")
    a1, a2, a3 = corpse_angles(theta, winding)
    pulses = (Pulse(a1, phi), Pulse(a2, phi + np.pi), Pulse(a3, phi))
    return _check_product(
        PulseSequence("corpse", pulses, _xy_target(theta, phi), theta=theta, phi=phi,
                      winding=tuple(winding))
    )


def _scrofulous_excess(theta: float) -> float:
    """Root u = theta_1 - pi/2 of the SCROFULOUS angle equation.

    With t = pi/2 + u and q = sin(theta/4)^2, the equation
    sin(t)/t = (2/pi) cos(theta/2) becomes

        g(u) = u (1 - 2q) - pi (q - sin(u/2)^2) = 0,

    since g(u) = -(pi t / 2) (sin(t)/t - (2/pi) cos(theta/2)).  The root is
    the same and so is the sign change on the bracket (0, argmin sinc - pi/2),
    but u keeps full relative precision when theta is small (u ~ pi theta^2
    / 16), where t itself would round it away.  Solved by Newton steps,
    safeguarded by bisection on the bracket.
    """
    q = math.sin(theta / 4) ** 2

    def g(u: float) -> float:
        return u * (1 - 2 * q) - math.pi * (q - math.sin(u / 2) ** 2)

    lo, hi = 0.0, _SINC_ARGMIN - math.pi / 2
    if g(hi) < 0:
        rhs = (2 / math.pi) * math.cos(theta / 2)
        raise SynthesisError(
            f"SCROFULOUS angle equation sin(t)/t = {rhs:.6f} has no root for "
            f"theta = {theta:.6f}; the family only covers rotations up to about 3.83 rad"
        )
    # small-theta estimate (exact to first order in q), else mid-bracket
    u = math.pi * q / (1 - 2 * q) if q < 0.25 else hi / 2
    for _ in range(200):
        gu = g(u)
        if gu == 0:
            return u
        if gu < 0:
            lo = u
        else:
            hi = u
        slope = (1 - 2 * q) + (math.pi / 2) * math.sin(u)
        nxt = u - gu / slope if slope else lo
        if not lo < nxt < hi:
            nxt = (lo + hi) / 2
        if abs(nxt - u) <= 2e-16 * abs(nxt) or nxt in (lo, hi):
            return nxt
        u = nxt
    return u


def _scrofulous_params(theta: float, phi: float) -> tuple[float, float, float]:
    """Solve the SCROFULOUS constraints for (theta_1, phi_1, phi_2).

    The outer pulses share (theta_1, phi_1); the middle pulse is a pi pulse
    at phi_2 with theta_1 * cos(phi_1 - phi_2) = -pi/2.  Eliminating phi_2
    through that constraint and matching the product to the target reduces
    the angle to the transcendental equation

        sin(theta_1) / theta_1 = (2/pi) * cos(theta/2),

    solved for u = theta_1 - pi/2 (see :func:`_scrofulous_excess`), after which

        phi_1 = phi + arccos(-pi cos(theta_1) / (2 theta_1 sin(theta/2)))
        phi_2 = phi_1 - arccos(-pi / (2 theta_1)).

    The arccos branch for phi_1 picks the root with phi_1 - phi in (0, pi);
    the mirror solution (phi -> 2 phi - phi_i) is equally valid.
    """
    u = _scrofulous_excess(theta)
    th1 = math.pi / 2 + u
    # -cos(theta_1) = sin(u)
    cos_offset = np.pi * math.sin(u) / (2 * th1 * np.sin(theta / 2))
    ph1 = float(phi + np.arccos(np.clip(cos_offset, -1.0, 1.0)))
    # phi_1 - arccos(-pi / (2 theta_1)), well conditioned as u -> 0
    ph2 = ph1 - math.pi + 2 * math.asin(math.sqrt(u / (math.pi + 2 * u)))
    return th1, ph1, ph2


def scrofulous(theta: float, phi: float = 0.0) -> PulseSequence:
    """SCROFULOUS: a pi pulse sandwiched between two identical pulses.

    Cancels the pulse-length error to first order.  Solvable for rotation
    angles up to about 3.83 rad; beyond that SynthesisError is raised.
    """
    if not 0 < theta < TWO_PI:
        raise ValueError(f"SCROFULOUS rotation angle must lie in (0, 2*pi), got {theta}")
    th1, ph1, ph2 = _scrofulous_params(theta, phi)
    pulses = (Pulse(th1, ph1), Pulse(np.pi, ph2), Pulse(th1, ph1))
    return _check_product(
        PulseSequence("scrofulous", pulses, _xy_target(theta, phi), theta=theta, phi=phi)
    )


def _validate_cccp_winding(winding: tuple[int, int, int]):
    n1, n2, n3 = winding
    if n1 - n2 + n3 != 0:
        raise WindingError(
            f"concatenation requires winding numbers with n1 - n2 + n3 = 0, got {winding}; "
            "otherwise the constituent residual is not a pure pulse-length error"
        )


def cis_cccp(theta: float, phi: float = 0.0, winding: tuple[int, int, int] = (1, 1, 0)) -> PulseSequence:
    """CORPSE-in-SCROFULOUS concatenation: robust against both errors.

    Each of the three SCROFULOUS pulses is replaced by a CORPSE with the
    given winding (shared by all three constituents).  The winding must
    satisfy n1 - n2 + n3 = 0 so that each CORPSE's residual first-order
    error is exactly the pulse-length error of its own target, which the
    outer SCROFULOUS structure then cancels.
    """
    if not 0 < theta < TWO_PI:
        raise ValueError(f"CORPSE-in-SCROFULOUS rotation angle must lie in (0, 2*pi), got {theta}")
    _validate_cccp_winding(winding)
    th1, ph1, ph2 = _scrofulous_params(theta, phi)
    pulses: list[Pulse] = []
    for t, p in ((th1, ph1), (np.pi, ph2), (th1, ph1)):
        a1, a2, a3 = corpse_angles(t, winding)
        pulses += [Pulse(a1, p), Pulse(a2, p + np.pi), Pulse(a3, p)]
    return _check_product(
        PulseSequence("cis-cccp", tuple(pulses), _xy_target(theta, phi), theta=theta, phi=phi,
                      winding=tuple(winding)),
        tol=1e-11,
    )


def bb1(theta: float, phi: float = 0.0) -> PulseSequence:
    """BB1: target pulse followed by an identity-valued compensation block.

    The block is pi, 2*pi, pi at azimuths (phi + c, phi + 3c, phi + c) with
    c = arccos(-theta / (4*pi)); it multiplies to exactly +I at zero error
    and cancels the pulse-length error of the target pulse to first order.
    """
    if not 0 < theta <= TWO_PI:
        raise ValueError(f"BB1 rotation angle must lie in (0, 2*pi], got {theta}")
    c = np.arccos(-theta / (4 * np.pi))
    pulses = (
        Pulse(theta, phi),
        Pulse(np.pi, phi + c),
        Pulse(2 * np.pi, phi + 3 * c),
        Pulse(np.pi, phi + c),
    )
    return _check_product(
        PulseSequence("bb1", pulses, _xy_target(theta, phi), theta=theta, phi=phi)
    )


def alway_jones(phi_axis: float = 0.0) -> PulseSequence:
    """Eight-pulse pi rotation robust against both errors.

    Applies the bare pi pulse, then a 3-pulse block compensating the
    pulse-length error (the BB1 block) and a 4-pulse block compensating the
    off-resonance error.  Both blocks multiply to +I at zero error.  The
    construction only exists for rotation angle pi; the axis is free.
    """
    c = np.arccos(-0.25)
    relative = (
        (np.pi, 0.0),
        (np.pi, c),
        (2 * np.pi, 3 * c),
        (np.pi, c),
        (np.pi, np.pi - c),
        (np.pi, -c),
        (np.pi, np.pi + c),
        (np.pi, c),
    )
    pulses = tuple(Pulse(t, p + phi_axis) for t, p in relative)
    return _check_product(
        PulseSequence("alway-jones", pulses, _xy_target(np.pi, phi_axis),
                      theta=np.pi, phi=phi_axis)
    )


def scrofulous_in_corpse(theta: float, phi: float = 0.0) -> PulseSequence:
    """Reverse concatenation: three SCROFULOUS blocks composing a CORPSE.

    Negative control.  The CORPSE segment rotations, reduced mod 2*pi so
    each block target stays within the SCROFULOUS domain, are
    (theta/2 - kappa, 2 kappa, theta/2 - kappa), all about the same axis;
    their product is exactly the target rotation.  Each block cancels its
    own pulse-length error, so the whole sequence is pulse-length robust,
    but the blocks' residual off-resonance errors do not combine into
    anything the outer CORPSE structure can remove: the off-resonance
    channel stays first order.
    """
    if not 0 < theta < TWO_PI:
        raise ValueError(f"rotation angle must lie in (0, 2*pi), got {theta}")
    kappa = np.arcsin(np.sin(theta / 2) / 2)
    pulses: list[Pulse] = []
    for t in (theta / 2 - kappa, 2 * kappa, theta / 2 - kappa):
        th1, ph1, ph2 = _scrofulous_params(t, phi)
        pulses += [Pulse(th1, ph1), Pulse(np.pi, ph2), Pulse(th1, ph1)]
    return _check_product(
        PulseSequence("scrofulous-in-corpse", tuple(pulses), _xy_target(theta, phi),
                      theta=theta, phi=phi)
    )


def reduce_pi_pulse_product(phases) -> np.ndarray:
    """Collapse a product of xy-plane pi pulses to a single rotation vector.

    ``phases`` lists the pulse azimuths in application order.  An even count
    multiplies to a z rotation (0, 0, 2*Theta) with
    Theta = sum_j (phi_2j - phi_2j-1 + pi) over consecutive pairs; an odd
    count multiplies to another pi pulse in the plane, at azimuth
    phi_last - Theta(preceding pairs).  Both identities are exact, not just
    up to global phase.  Raises ValueError when the result overflows.
    """
    phases = [float(p) for p in phases]
    if not phases:
        raise ValueError("need at least one pulse azimuth")
    pairs = (len(phases) // 2) if len(phases) % 2 == 0 else ((len(phases) - 1) // 2)
    big_theta = sum(phases[2 * j + 1] - phases[2 * j] + np.pi for j in range(pairs))
    azimuth = phases[-1] - big_theta
    if not math.isfinite(2 * big_theta if len(phases) % 2 == 0 else azimuth):
        raise ValueError("pulse azimuths too large: the reduced rotation is not finite")
    if len(phases) % 2 == 0:
        return np.array([0.0, 0.0, 2 * big_theta])
    return np.array([np.pi * np.cos(azimuth), np.pi * np.sin(azimuth), 0.0])


_SYNTH = {
    "plain": lambda theta, phi, winding: plain(theta, phi),
    "corpse": lambda theta, phi, winding: corpse(theta, phi, winding or (1, 2, 1)),
    "scrofulous": lambda theta, phi, winding: scrofulous(theta, phi),
    "cis-cccp": lambda theta, phi, winding: cis_cccp(theta, phi, winding or (1, 1, 0)),
    "bb1": lambda theta, phi, winding: bb1(theta, phi),
    "alway-jones": lambda theta, phi, winding: alway_jones(phi),
    "scrofulous-in-corpse": lambda theta, phi, winding: scrofulous_in_corpse(theta, phi),
}


def synthesize(family: str, theta: float, phi: float = 0.0,
               winding: tuple[int, int, int] | None = None) -> PulseSequence:
    """Dispatch to a synthesizer by family name (as spelled in FAMILIES)."""
    try:
        maker = _SYNTH[family]
    except KeyError:
        raise ValueError(f"unknown sequence family {family!r}; expected one of {list(_SYNTH)}")
    return maker(theta, phi, winding)


def sequence_to_dict(seq: PulseSequence) -> dict:
    """Serializable form of a sequence (the JSON wire schema)."""
    doc: dict = {"family": seq.family}
    if seq.theta is not None:
        doc["target"] = {"theta": float(seq.theta), "phi": float(seq.phi or 0.0)}
    if seq.winding is not None:
        doc["winding"] = [int(n) for n in seq.winding]
    doc["pulses"] = [{"theta": p.theta, "phi": p.phi} for p in seq.pulses]
    return doc


def _angle(obj, key: str, where: str) -> float:
    """``obj[key]`` of a wire document as a finite float; ValueError otherwise."""
    value = obj.get(key) if isinstance(obj, dict) else None
    try:
        x = math.nan if isinstance(value, (bool, str)) else float(value)
    except (TypeError, OverflowError):
        x = math.nan
    if not math.isfinite(x):
        raise ValueError(
            f"malformed sequence document: {where} {key} must be a finite number, got {value!r}"
        )
    return x


def sequence_from_dict(doc: dict) -> PulseSequence:
    """Rebuild a sequence from its wire form; inverse of sequence_to_dict.

    Raises ValueError for any document that is not a well-formed sequence:
    a top level that is not an object, an unknown family, a missing or
    empty pulse list, a winding that is not three integers, an angle that is
    not a finite number, or angles too large for the product to be evaluated.
    """
    if not isinstance(doc, dict):
        raise ValueError(
            f"malformed sequence document: expected a JSON object, got {type(doc).__name__}"
        )
    family = doc.get("family", "custom")
    if family not in FAMILIES:
        raise ValueError(f"unknown sequence family {family!r}")
    raw_pulses = doc.get("pulses")
    if not isinstance(raw_pulses, list) or not raw_pulses:
        raise ValueError(
            f'malformed sequence document: "pulses" must be a non-empty list, got {raw_pulses!r}'
        )
    pulses = tuple(Pulse(_angle(p, "theta", f"pulse {i}"), _angle(p, "phi", f"pulse {i}"))
                   for i, p in enumerate(raw_pulses))
    target_spec = doc.get("target")
    theta = _angle(target_spec, "theta", "target")
    phi = _angle(target_spec, "phi", "target")
    winding = doc.get("winding")
    if winding is not None:
        if (not isinstance(winding, list) or len(winding) != 3
                or not all(isinstance(n, int) and not isinstance(n, bool) for n in winding)):
            raise ValueError(
                f"malformed sequence document: winding must be three integers, got {winding!r}"
            )
        winding = tuple(winding)
    # angles above ~1e154 overflow |m|^2 and leave NaN entries
    with np.errstate(over="ignore", invalid="ignore"):
        seq = PulseSequence(family, pulses, _xy_target(theta, phi),
                            theta=theta, phi=phi, winding=winding)
        evaluable = np.isfinite(seq.target).all() and np.isfinite(seq.propagator()).all()
    if not evaluable:
        raise ValueError("malformed sequence document: angles too large to evaluate the product")
    return seq
