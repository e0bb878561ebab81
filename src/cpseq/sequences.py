"""Composite pulse synthesis for SU(2) gates.

A pulse sequence is an ordered list of hard (rectangular) pulses, each a
rotation by theta_i about an axis (cos phi_i, sin phi_i, 0) in the xy-plane,
applied left to right in time.  The shipped families are the rows of
``_REGISTRY``, one row and one segments function each; the README's family
table lists them and a test holds it to the registry.  :func:`synthesize`,
the only way to build a family, builds it from its row and guarantees that
the ideal product of the pulses reproduces the declared target.
Concatenated families are rows built by :func:`concatenate`.
"""

from __future__ import annotations

import collections
import math
from typing import TYPE_CHECKING

from .su2 import _hamilton, _matrix, _quaternion, _shares, _unit_quaternion, is_unitary

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "SynthesisError",
    "WindingError",
    "Pulse",
    "PulseSequence",
    "FAMILIES",
    "sequence_to_dict",
    "sequence_from_dict",
    "synthesize",
]

TWO_PI = 2 * math.pi

# verify's tolerance, the Frobenius norm below which a unit channel's generator
# counts as compensated: machine-precision algebra, far below any physical error.
ROBUST_TOL = 1e-10

# Location of the first positive minimum of sin(x)/x; right edge of the
# bracket used for the SCROFULOUS angle equation.
_SINC_ARGMIN = 4.4934094579090641


class SynthesisError(RuntimeError):
    """Raised when a numerical synthesis step fails to converge."""


class WindingError(ValueError):
    """Raised when winding numbers produce a negative segment angle or
    violate a family constraint."""


def _azimuth(phi: float) -> float:
    """``phi`` reduced mod 2*pi into [0, 2*pi); ValueError unless it is finite."""
    if not math.isfinite(phi := float(phi)):
        raise ValueError(f"azimuth phi must be finite, got {phi}")
    phi %= TWO_PI  # a tiny negative azimuth rounds to 2*pi
    return phi if phi < TWO_PI else 0.0


def _xy(theta: float, phi: float) -> tuple[float, float, float]:
    """Rotation vector theta * (cos phi, sin phi, 0) of an xy-plane rotation."""
    return theta * math.cos(phi), theta * math.sin(phi), 0.0


class _Record:
    """Base of the package's immutable records.  The fields are the
    ``__slots__``, set once by ``__init__``, which takes them by position or
    by name and raises TypeError for an unknown, missing or repeated one;
    assigning or deleting a field raises AttributeError.  Records compare by
    identity unless they derive from :class:`_Value`."""

    __slots__ = ()

    def __init__(self, *values, **fields):
        names = self.__slots__
        # the fields not given by position must be given by name, each once
        if len(values) > len(names) or fields.keys() != set(names[len(values):]):
            raise TypeError(f"{type(self).__name__} takes each of the fields {names} once, "
                            f"got {len(values)} by position and {tuple(fields)} by name")
        fields.update(zip(names, values))
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):  # copy and pickle restore the slots through here
        for name, value in state[1].items():
            object.__setattr__(self, name, value)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__
                           if not name.startswith("_"))
        return f"{type(self).__name__}({fields})"


class _Value(_Record):
    """A record that compares and hashes by its fields, like a tuple of them,
    and equals only records of its own class."""

    __slots__ = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


class Pulse(_Value):
    """One hard pulse: rotation by ``theta`` about azimuth ``phi`` in the xy-plane."""

    __slots__ = ("theta", "phi")

    def __init__(self, theta: float, phi: float):
        if not math.isfinite(theta):  # _azimuth refuses a non-finite phi
            raise ValueError(f"pulse angle must be finite, got {theta}")
        if theta < 0:
            raise ValueError(f"pulse angle must be nonnegative, got {theta}")
        object.__setattr__(self, "theta", float(theta))
        object.__setattr__(self, "phi", _azimuth(phi))

    @property
    def vector(self) -> np.ndarray:
        """Rotation vector theta * (cos phi, sin phi, 0)."""
        import numpy as np
        return np.array(_xy(self.theta, self.phi))


def _target_quaternion(target) -> tuple[float, float, float, float]:
    """The unit quaternion of a target gate, global phase stripped.  Raises
    ValueError unless ``target`` is a unitary 2x2 matrix or four numbers of
    norm 1 within 1e-12."""
    try:
        if len(target) != 4:
            unit = _unit_quaternion(target) if is_unitary(target) else None
        else:
            unit = tuple(map(float, target))
    except (TypeError, ValueError):  # no length, four rows, entries that are not numbers
        unit = None
    if unit is None:
        raise ValueError("target must be a unit quaternion or a unitary 2x2 matrix")
    norm = math.hypot(*unit)
    if not abs(norm - 1) <= 1e-12:
        raise ValueError(f"target quaternion must have norm 1, got {norm!r}")
    return unit


class PulseSequence(_Record):
    """An ordered pulse list with its declared target gate.

    ``pulses[0]`` is applied first, so the ideal propagator is
    R(m_k) ... R(m_1).  ``target`` is given as a unitary 2x2 matrix or as the
    unit quaternion (w, x, y, z) of an SU(2) gate; anything else, a
    quaternion of norm other than 1 included, raises ValueError.  Only the
    target's unit quaternion is kept, global phase stripped, and ``target``
    reads back as its SU(2) matrix.
    ``theta``/``phi``/``winding`` record the synthesis parameters when the
    sequence came from a synthesizer.  The underscored members work on Python
    floats, the public ones return arrays.

    A sequence is immutable and carries its float work from construction:
    ``_terms``, each pulse's (theta, cos phi, sin phi); ``_vectors``, the
    rotation vectors they multiply out to as :func:`_xy` does; and, from one
    walk over the pulses (:func:`su2._shares`), ``_shares``, the first-order
    shares, and ``_product``, the quaternion of the ideal product.  So a
    pulse whose |m|^2 overflows, theta above about 1e154, raises ValueError here.
    """

    __slots__ = ("family", "pulses", "theta", "phi", "winding", "_unit", "_terms", "_vectors", "_product",
                 "_shares")

    def __init__(self, family: str, pulses, target, theta: float | None = None,
                 phi: float | None = None, winding: tuple[int, int, int] | None = None):
        unit = _target_quaternion(target)
        pulses = tuple(pulses)
        terms = tuple((p.theta, math.cos(p.phi), math.sin(p.phi)) for p in pulses)
        vectors = tuple((t * c, t * s, 0.0) for t, c, s in terms)
        try:  # math.sin refuses an angle whose |m|^2 overflows
            shares, product = _shares(vectors)
        except ValueError:
            raise ValueError("pulse angles too large to evaluate the product") from None
        set_field = object.__setattr__  # written out: synthesis builds one sequence per call
        set_field(self, "family", family)
        set_field(self, "pulses", pulses)
        set_field(self, "theta", theta)
        set_field(self, "phi", phi)
        set_field(self, "winding", winding)
        set_field(self, "_unit", unit)
        set_field(self, "_terms", terms)
        set_field(self, "_vectors", vectors)
        set_field(self, "_product", product)
        set_field(self, "_shares", shares)

    def __len__(self) -> int:
        return len(self.pulses)

    @property
    def target(self) -> np.ndarray:
        """The target gate as a 2x2 special-unitary matrix."""
        return _matrix(*self._unit)

    def propagator(self) -> np.ndarray:
        """Ideal (error-free) product of all pulses."""
        return _matrix(*self._product)

    def _overlap(self, q) -> tuple:
        """T^dag U = (w, x, y, z) of a product quaternion U against the target T,
        floats or arrays alike: the fidelity |Tr(T^dag U)| / 2 is min(|w|, 1)."""
        w, x, y, z = self._unit
        return _hamilton((w, -x, -y, -z), q)

    def _fidelity(self) -> float:
        """Fidelity of the ideal product to the target."""
        return min(abs(self._overlap(self._product)[0]), 1.0)


# Each family's segments: (theta, phi, winding) -> raw [(theta_i, phi_i), ...].
# Raw, because Pulse reduces phi mod 2*pi and a concatenation must feed the
# inner family each outer segment's unreduced angles.


def corpse_angles(theta: float, winding: tuple[int, int, int]) -> tuple[float, float, float]:
    """Segment angles of a CORPSE decomposition of a rotation by ``theta``.

    With kappa = arcsin(sin(theta/2) / 2):

        theta_1 = theta/2 - kappa + 2 pi n1
        theta_2 =        -2 kappa + 2 pi n2
        theta_3 = theta/2 - kappa + 2 pi n3

    Raises WindingError if any segment angle comes out negative or a winding
    number is too large for a float.
    """
    kappa = math.asin(math.sin(theta / 2) / 2)
    n1, n2, n3 = winding
    try:
        angles = (
            theta / 2 - kappa + TWO_PI * n1,
            -2 * kappa + TWO_PI * n2,
            theta / 2 - kappa + TWO_PI * n3,
        )
    except OverflowError:
        raise WindingError("CORPSE winding number is too large to convert to a float") from None
    for i, a in enumerate(angles, start=1):
        if a < 0:
            raise WindingError(
                f"CORPSE segment angle theta_{i} = {a:.6g} is negative; "
                f"increase winding number n{i}"
            )
    return angles


def _corpse_segments(theta, phi, winding):
    """CORPSE: three collinear pulses, the middle one about the reversed axis
    phi + pi, cancelling the off-resonance error.  Any winding that leaves
    every angle nonnegative is valid; for odd n1 + n2 + n3 the product is
    minus the target, the same gate up to global phase."""
    a1, a2, a3 = corpse_angles(theta, winding)
    return [(a1, phi), (a2, phi + math.pi), (a3, phi)]


def _pure_length_residual(winding: tuple[int, int, int]):
    """CORPSE's only first-order residual is the pulse-length error of its
    own target exactly when n1 - n2 + n3 = 0; WindingError otherwise."""
    n1, n2, n3 = winding
    if n1 - n2 + n3 != 0:
        raise WindingError(
            f"concatenation requires winding numbers with n1 - n2 + n3 = 0, got {winding}; "
            "otherwise the constituent residual is not a pure pulse-length error"
        )


def _corpse_rotations(theta, phi, winding):
    """CORPSE's three rotations reduced mod 2*pi: (theta/2 - kappa, 2 kappa,
    theta/2 - kappa), all about phi, so each stays within SCROFULOUS's reach.
    As the outer family of scrofulous-in-corpse they are a negative control:
    the blocks' residual off-resonance errors stay first order."""
    kappa = math.asin(math.sin(theta / 2) / 2)
    return [(theta / 2 - kappa, phi), (2 * kappa, phi), (theta / 2 - kappa, phi)]


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


def _scrofulous_segments(theta, phi, winding):
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
    # -cos(theta_1) = sin(u); the offset tends to 0 with u, also where
    # sin(theta/2) underflows
    cos_offset = math.pi * math.sin(u) / (2 * th1 * math.sin(theta / 2)) if u else 0.0
    ph1 = phi + math.acos(min(max(cos_offset, -1.0), 1.0))
    # phi_1 - arccos(-pi / (2 theta_1)), well conditioned as u -> 0
    ph2 = ph1 - math.pi + 2 * math.asin(math.sqrt(u / (math.pi + 2 * u)))
    return [(th1, ph1), (math.pi, ph2), (th1, ph1)]


def _bb1_segments(theta, phi, winding):
    """BB1: the target pulse, then the block pi, 2 pi, pi at azimuths phi + c,
    phi + 3c, phi + c with c = arccos(-theta / (4 pi)); the block multiplies
    to exactly +I."""
    c = math.acos(-theta / (4 * math.pi))
    return [(theta, phi), (math.pi, phi + c), (TWO_PI, phi + 3 * c), (math.pi, phi + c)]


def _alway_jones_segments(theta, phi, winding):
    """Alway-Jones: BB1 at theta = pi, then a 4-pulse block against the
    off-resonance error at azimuths phi + (pi - c, -c, pi + c, c), BB1's
    c = arccos(-1/4) at pi; BB1's block and this one multiply to exactly +I."""
    c, pi = math.acos(-0.25), math.pi
    return _bb1_segments(pi, phi, None) + [(pi, p + phi) for p in (pi - c, -c, pi + c, c)]


# ---- the registry ------------------------------------------------------------


class _Family(collections.namedtuple(
        "_Family", "name segments domain refusal winding declared length_residual",
        defaults=(None, (), None))):
    """One registry row: everything the package states about a family.

    - ``segments``: (theta, phi, winding) -> raw [(theta_i, phi_i), ...];
    - ``domain``: (lo, hi, brackets), (0, 2*pi, "(]") is 0 < theta <= 2*pi;
    - ``refusal``: what a theta outside the domain is told;
    - ``winding``: the default winding; None refuses any winding;
    - ``declared``: the channels cancelled to first order;
    - ``length_residual``: raises WindingError unless the family's only
      first-order residual is the pulse-length error of its own target;
      None when no winding gives that.
    """

    __slots__ = ()

    def admits(self, theta: float) -> bool:
        lo, hi, brackets = self.domain
        return ((lo <= theta if brackets[0] == "[" else lo < theta)
                and (theta <= hi if brackets[1] == "]" else theta < hi))


def concatenate(outer: _Family, inner: _Family, **row) -> _Family:
    """Registry row of ``inner`` nested in ``outer``.

    Each outer segment (t, p) is replaced by the inner family's segments for
    the rotation (t, p); the winding, if any, is the inner family's.  The
    paper's rule sets the declared channels: when the inner sequence's only
    first-order residual is the pulse-length error of its own target (CORPSE
    with n1 - n2 + n3 = 0, which is then required) and the outer sequence
    cancels pulse-length error, the concatenation cancels what either one
    cancels.  Any other pairing cancels only what the inner sequence
    cancels.  ``row`` gives the remaining fields (name, domain, refusal,
    winding).
    """
    both = inner.length_residual is not None and "pulse_length" in outer.declared

    def segments(theta, phi, winding):
        if both:
            inner.length_residual(winding)
        return [s for t, p in outer.segments(theta, phi, None) for s in inner.segments(t, p, winding)]

    declared = tuple(dict.fromkeys(outer.declared + inner.declared)) if both else inner.declared
    return _Family(segments=segments, declared=declared, **row)


_CORPSE = _Family("corpse", _corpse_segments, (0.0, TWO_PI, "[]"),
                  "CORPSE rotation angle must lie in [0, 2*pi]", winding=(1, 2, 1),
                  declared=("off_resonance",), length_residual=_pure_length_residual)
_SCROFULOUS = _Family("scrofulous", _scrofulous_segments, (0.0, TWO_PI, "()"),
                      "SCROFULOUS rotation angle must lie in (0, 2*pi)", declared=("pulse_length",))
_REGISTRY = {row.name: row for row in (
    _Family("plain", lambda theta, phi, winding: [(theta, phi)], (0.0, math.inf, "[)"),
            "plain rotation angle must lie in [0, inf)"),
    _CORPSE,
    _SCROFULOUS,
    concatenate(_SCROFULOUS, _CORPSE, name="cis-cccp", domain=(0.0, TWO_PI, "()"),
                refusal="CORPSE-in-SCROFULOUS rotation angle must lie in (0, 2*pi)",
                winding=(1, 1, 0)),
    _Family("bb1", _bb1_segments, (0.0, TWO_PI, "(]"), "BB1 rotation angle must lie in (0, 2*pi]",
            declared=("pulse_length",)),
    _Family("alway-jones", _alway_jones_segments, (math.pi, math.pi, "[]"),
            "alway-jones only implements pi rotations; theta must be pi",
            declared=("pulse_length", "off_resonance")),
    concatenate(_Family("corpse-rotations", _corpse_rotations, (0.0, TWO_PI, "[]"), ""), _SCROFULOUS,
                name="scrofulous-in-corpse", domain=(0.0, TWO_PI, "()"),
                refusal="rotation angle must lie in (0, 2*pi)"),
)}

FAMILIES = (*_REGISTRY, "custom")


def synthesize(family: str, theta: float, phi: float = 0.0,
               winding: tuple[int, int, int] | None = None) -> PulseSequence:
    """Build a family's sequence from its registry row (names as in FAMILIES).

    Raises ValueError for an unknown family, a theta outside the family's
    domain, a non-finite phi, or a winding given to a family that takes
    none (without one, the family's default is used), and SynthesisError
    unless the pulses multiply to the target with fidelity at least 1 - 1e-12.
    """
    try:
        row = _REGISTRY[family]
    except KeyError:
        raise ValueError(f"unknown sequence family {family!r}; expected one of {list(_REGISTRY)}")
    if not row.admits(theta):
        raise ValueError(f"{row.refusal}, got {theta}")
    if row.winding is None and winding is not None:
        raise ValueError(f"{family} takes no winding, got {winding}")
    winding = None if row.winding is None else tuple(winding or row.winding)
    # reduced once, so that no segment carries the rounding of a large |phi|
    reduced = _azimuth(phi)
    pulses = tuple(Pulse(t, p) for t, p in row.segments(theta, reduced, winding))
    try:  # math.sin refuses an angle whose |m|^2 overflows
        seq = PulseSequence(family, pulses, _quaternion(*_xy(theta, reduced)),
                            theta=theta, phi=phi, winding=winding)
        f = seq._fidelity()
    except ValueError:
        f = math.nan
    if not f >= 1 - 1e-12:  # also refuses a NaN product
        raise SynthesisError(f"{family} synthesis produced a product with fidelity {f!r} to its target")
    return seq


def _reduce(phases) -> tuple[float, float, float]:
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
    big_theta = sum(phases[2 * j + 1] - phases[2 * j] + math.pi for j in range(len(phases) // 2))
    azimuth = phases[-1] - big_theta
    if not math.isfinite(2 * big_theta if len(phases) % 2 == 0 else azimuth):
        raise ValueError("pulse azimuths too large: the reduced rotation is not finite")
    if len(phases) % 2 == 0:
        return 0.0, 0.0, 2 * big_theta
    return math.pi * math.cos(azimuth), math.pi * math.sin(azimuth), 0.0


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
    try:  # math.sin refuses an angle whose |m|^2 overflows, above about 1e154
        seq = PulseSequence(family, pulses, _quaternion(*_xy(theta, _azimuth(phi))),
                            theta=theta, phi=phi, winding=winding)
    except ValueError:
        raise ValueError("malformed sequence document: angles too large to evaluate the product") from None
    return seq
