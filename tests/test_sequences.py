import inspect
import pickle

import numpy as np
import pytest

from cpseq import analysis
from cpseq.error_model import ErrorChannel, error_moment_integrals, first_order_error
from cpseq.sequences import (
    Pulse,
    PulseSequence,
    SynthesisError,
    WindingError,
    _REGISTRY,
    _Record,
    _Value,
    _reduce,
    sequence_from_dict,
    sequence_to_dict,
    synthesize,
)
from cpseq.su2 import _product, _quaternion

from conftest import frob, theta_for
from loop_reference import fidelity, rotation


def xy(theta, phi):
    return np.array([theta * np.cos(phi), theta * np.sin(phi), 0.0])


# ----------------------------------------------------------------- pulses

def test_pulse_rejects_negative_angle():
    with pytest.raises(ValueError):
        Pulse(-0.1, 0.0)


@pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_pulse_rejects_a_non_finite_angle(x):
    with pytest.raises(ValueError, match="angle must be finite"):
        Pulse(x, 0.0)
    with pytest.raises(ValueError, match="phi must be finite"):
        Pulse(1.0, x)


def test_pulse_azimuth_stays_below_two_pi():
    # -1e-300 % 2pi rounds to 2pi itself, which a wire round trip turned into 0
    for phi in (-1e-300, -1e-17, -0.0):
        assert Pulse(1.0, phi).phi == 0.0
    seq = synthesize("plain", 1.0, -1e-300)
    assert sequence_from_dict(sequence_to_dict(seq)).pulses == seq.pulses


def test_pulse_wraps_azimuth():
    p = Pulse(np.pi, -np.pi / 3)
    assert abs(p.phi - 5 * np.pi / 3) < 1e-12


def test_sequence_propagator_order():
    # pulses[0] acts first: R(b) R(a) for pulses (a, b)
    a, b = Pulse(1.0, 0.0), Pulse(0.7, np.pi / 2)
    seq = PulseSequence("custom", (a, b), rotation(b.vector) @ rotation(a.vector))
    assert frob(seq.propagator(), seq.target) < 1e-14


def test_pulse_equality_and_hash_are_by_angles():
    a = Pulse(1.0, 0.3)
    assert a == Pulse(1, 0.3) and hash(a) == hash(Pulse(1, 0.3))
    assert a != Pulse(1.0, 0.4) and a != (1.0, 0.3)
    assert len({Pulse(1.0, 0.3), Pulse(1.0, 0.3), Pulse(2.0, 0.3)}) == 2
    assert pickle.loads(pickle.dumps(a)) == a


def test_error_channel_equality_and_hash_are_by_fields():
    a = ErrorChannel.pulse_length(0.1)
    assert a == ErrorChannel(f_linear=0.1 * np.eye(3)) and hash(a) == hash(ErrorChannel.pulse_length(0.1))
    # a channel is its (f, F) pair, whichever constructor made it
    assert a != ErrorChannel.pulse_length(0.2) and a == ErrorChannel.combined(0.1, 0.0)
    assert ErrorChannel.off_resonance(0.1) != ErrorChannel.pulse_length(0.1)
    assert len({a, ErrorChannel.pulse_length(0.1), ErrorChannel.off_resonance(0.1)}) == 2
    assert pickle.loads(pickle.dumps(a)) == a
    # tensors compare by their entries, not as arrays
    g = ErrorChannel([1, 0, 0])
    assert g == ErrorChannel([1.0, 0.0, 0.0], np.zeros((3, 3)))
    assert hash(g) == hash(ErrorChannel([1, 0, 0]))
    assert g != ErrorChannel([0, 1, 0]) and g != ErrorChannel([1, 0, 0], np.eye(3))
    assert len({g, ErrorChannel([1, 0, 0]), ErrorChannel()}) == 2
    assert pickle.loads(pickle.dumps(g)) == g


def test_sequences_compare_by_identity():
    seq = synthesize("bb1", 1.0, 0.3)
    assert seq == seq and seq != synthesize("bb1", 1.0, 0.3) and hash(seq) == hash(seq)
    copy = pickle.loads(pickle.dumps(seq))
    assert copy.pulses == seq.pulses and frob(copy.target, seq.target) == 0


def _records():
    seq = synthesize("plain", 1.0, 0.3)
    return {
        "Pulse": seq.pulses[0],
        "PulseSequence": seq,
        "_Family": _REGISTRY["bb1"],
        "ErrorChannel": ErrorChannel([0.1, 0.0, 0.2], np.eye(3)),
        "FirstOrderReport": first_order_error(seq, ErrorChannel.pulse_length(0.1)),
        "MomentIntegrals": error_moment_integrals(seq),
        "LandscapeGrid": analysis.landscape(seq, resolution=3),
        "ScalingFit": analysis.infidelity_scaling(seq, "eps"),
        "PhaseReport": analysis.phase_decomposition(seq),
    }


@pytest.mark.parametrize("kind", list(_records()))
def test_records_are_immutable(kind):
    record = _records()[kind]
    assert type(record).__name__ == kind
    fields = [name for name in dir(record) if not name.startswith("_") and not callable(getattr(record, name))]
    assert fields
    for name in [*fields, "unknown_field"]:
        with pytest.raises(AttributeError):
            setattr(record, name, 0.0)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(record, name)


@pytest.mark.parametrize("kind", list(_records()))
def test_records_compare_by_value_or_by_identity(kind):
    record, twin = _records()[kind], _records()[kind]
    assert record == record and hash(record) == hash(record)
    # values (and the registry's shared rows) equal their twins; records holding arrays only themselves
    by_value = isinstance(record, _Value) or record is twin
    assert (record == twin) is by_value and (hash(record) == hash(twin)) is by_value


# the result records, whose constructor is _Record.__init__ over their slots
_FROM_SLOTS = ("FirstOrderReport", "MomentIntegrals", "LandscapeGrid", "ScalingFit", "PhaseReport")


def _fields(record) -> tuple:
    """The names a record's constructor takes, in order."""
    cls = type(record)
    return cls.__slots__ if cls.__init__ is _Record.__init__ else tuple(inspect.signature(cls).parameters)


def test_result_records_are_built_from_their_slots():
    records = _records()
    assert tuple(kind for kind, record in records.items() if type(record).__init__ is _Record.__init__) == _FROM_SLOTS


@pytest.mark.parametrize("kind", list(_records()))
def test_records_build_from_keywords_as_from_positions(kind):
    record = _records()[kind]
    names = _fields(record)
    values = [getattr(record, name) for name in names]
    by_position, by_keyword = type(record)(*values), type(record)(**dict(zip(names, values)))
    for name in dict.fromkeys([*names, *type(record).__slots__]):
        a, b = getattr(by_position, name), getattr(by_keyword, name)
        assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, name


@pytest.mark.parametrize("kind", _FROM_SLOTS)
def test_record_refuses_an_unknown_missing_or_repeated_field(kind):
    record = _records()[kind]
    fields = {name: getattr(record, name) for name in type(record).__slots__}
    first, *rest = fields
    for values, named in [((), {**fields, "unknown": 0.0}),  # unknown
                          ((), {name: fields[name] for name in rest}),  # missing
                          ((fields[first],), fields),  # repeated
                          ((*fields.values(), 0.0), {})]:  # one position too many
        with pytest.raises(TypeError):
            type(record)(*values, **named)


# ------------------------------------------------------------------ plain

def test_sequence_target_is_phase_stripped_and_must_be_unitary():
    U = rotation([0.3, -1.2, 0.5])
    assert frob(PulseSequence("custom", (), np.exp(0.7j) * U).target, U) < 1e-15
    for T in (2 * U, np.zeros((2, 2)), [[1.0, 0.0], [0.0, 1.1]], np.eye(3)):
        with pytest.raises(ValueError, match="unitary"):
            PulseSequence("custom", (), T)


def test_sequence_target_quaternion_must_have_unit_norm():
    pulses = (Pulse(1.0, 0.0),)
    assert PulseSequence("custom", pulses, (1.0, 0.0, 0.0, 0.0))._fidelity() == pytest.approx(np.cos(0.5))
    for T in ((2.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0)):
        with pytest.raises(ValueError, match="norm 1"):
            PulseSequence("custom", pulses, T)
    with pytest.raises(ValueError, match="unit quaternion or a unitary 2x2 matrix"):
        PulseSequence("custom", pulses, np.eye(4))


@pytest.mark.parametrize("target", [5, 1.0, None, {"w": 1}, np.full((2, 2), np.nan), [[None, None], [None, None]]],
                         ids=["int", "float", "none", "dict", "nan-matrix", "none-matrix"])
def test_sequence_refuses_a_target_that_is_no_gate(target):
    with pytest.raises(ValueError, match="^target must be a unit quaternion or a unitary 2x2 matrix$"):
        PulseSequence("custom", (Pulse(1.0, 0.0),), target)


def test_sequence_refuses_an_overflowing_pulse_when_built():
    # |m|^2 of a 1e200 rad pulse overflows: the product cannot be evaluated
    with pytest.raises(ValueError, match="too large to evaluate the product"):
        PulseSequence("custom", (Pulse(1.0, 0.0), Pulse(1e200, 0.3)), (1.0, 0.0, 0.0, 0.0))


def test_plain_pi_about_y():
    seq = synthesize("plain", np.pi, np.pi / 2)
    assert frob(seq.target, rotation([0, np.pi, 0])) < 1e-15
    assert len(seq) == 1


def test_plain_identity():
    seq = synthesize("plain", 0.0, 0.0)
    assert fidelity(seq.target, np.eye(2)) > 1 - 1e-15


def test_plain_half_pulse():
    seq = synthesize("plain", np.pi / 2, 0.0)
    assert frob(seq.target, rotation([np.pi / 2, 0, 0])) < 1e-15


# ----------------------------------------------------------------- corpse

def test_corpse_standard_winding_angles():
    seq = synthesize("corpse", np.pi, 0.0, (1, 2, 1))
    angles = [p.theta for p in seq.pulses]
    assert np.allclose(angles, [7 * np.pi / 3, 11 * np.pi / 3, 7 * np.pi / 3], atol=1e-12)
    assert abs(seq.pulses[1].phi - np.pi) < 1e-12
    assert fidelity(seq.propagator(), seq.target) > 1 - 1e-12


def test_corpse_short_winding_angles():
    seq = synthesize("corpse", np.pi, 0.0, (1, 1, 0))
    assert np.allclose([p.theta for p in seq.pulses],
                       [7 * np.pi / 3, 5 * np.pi / 3, np.pi / 3], atol=1e-12)


def test_corpse_identity_edge():
    seq = synthesize("corpse", 0.0, 0.0, (0, 0, 0))
    assert all(p.theta == 0.0 for p in seq.pulses)
    assert fidelity(seq.propagator(), np.eye(2)) > 1 - 1e-15


def test_corpse_negative_angle_names_offending_index():
    with pytest.raises(WindingError, match="theta_2"):
        synthesize("corpse", np.pi, 0.0, (1, 0, 1))


def test_corpse_refusal_shows_the_negative_angle():
    # theta_2 = -2 kappa is -1.2e-16 at theta = 2 pi, which a fixed six-decimal format shows as -0.000000
    with pytest.raises(WindingError, match=r"theta_2 = -1\.22465e-16 is negative; increase winding number n2"):
        synthesize("corpse", 2 * np.pi, 0.0, (0, 0, 0))


def test_corpse_winding_too_large_for_a_float():
    # n1 - n2 + n3 = 0, so the concatenation accepts it too
    huge = int("9" * 400)
    for family in ("corpse", "cis-cccp"):
        with pytest.raises(WindingError, match="too large"):
            synthesize(family, 1.0, 0.0, (1, huge, huge - 1))


def test_corpse_rejects_out_of_range_angle():
    with pytest.raises(ValueError):
        synthesize("corpse", 2 * np.pi + 0.1, 0.0)


# ------------------------------------------------------------- scrofulous

def test_scrofulous_pi_known_solution():
    seq = synthesize("scrofulous", np.pi, 0.0)
    th = [p.theta for p in seq.pulses]
    ph = [p.phi for p in seq.pulses]
    assert np.allclose(th, [np.pi, np.pi, np.pi], atol=1e-9)
    assert abs(ph[0] - np.pi / 3) < 1e-9
    assert abs(ph[1] - 5 * np.pi / 3) < 1e-9
    assert ph[2] == ph[0]


def test_scrofulous_constraint_residual():
    for theta in (0.4, 1.0, np.pi, 3.2):
        seq = synthesize("scrofulous", theta, 0.7)
        th1, ph1, ph2 = seq.pulses[0].theta, seq.pulses[0].phi, seq.pulses[1].phi
        assert abs(th1 * np.cos(ph1 - ph2) + np.pi / 2) < 1e-10
        assert abs(seq.pulses[1].theta - np.pi) < 1e-12
        assert fidelity(seq.propagator(), seq.target) > 1 - 1e-10


def test_scrofulous_axis_shift():
    base = synthesize("scrofulous", np.pi, 0.0)
    shifted = synthesize("scrofulous", np.pi, np.pi / 2)
    assert np.allclose([p.theta for p in shifted.pulses], [p.theta for p in base.pulses], atol=1e-9)
    deltas = [(s.phi - b.phi) % (2 * np.pi) for s, b in zip(shifted.pulses, base.pulses)]
    assert np.allclose(deltas, np.pi / 2, atol=1e-9)


def test_scrofulous_branch_choice():
    # deterministic branch: first azimuth leads the target azimuth by (0, pi)
    for theta in (0.5, 2.0, 3.0):
        seq = synthesize("scrofulous", theta, 1.0)
        lead = (seq.pulses[0].phi - 1.0) % (2 * np.pi)
        assert 0 < lead < np.pi


def test_scrofulous_unsolvable_angle():
    with pytest.raises(SynthesisError):
        synthesize("scrofulous", 3.9, 0.0)


def test_scrofulous_domain_validation():
    with pytest.raises(ValueError):
        synthesize("scrofulous", 0.0, 0.0)
    with pytest.raises(ValueError):
        synthesize("scrofulous", 2 * np.pi, 0.0)


# sin(x)/x has its first positive minimum where tan x = x, and there equals
# cos x; the angle equation sin(t)/t = (2/pi) cos(theta/2) has a root on
# (0, x_min) only below the theta at which the two sides meet.
SINC_ARGMIN = 4.4934094579090641
SCROFULOUS_EDGE = 2 * np.arccos(np.pi / 2 * np.cos(SINC_ARGMIN))


def test_scrofulous_across_domain_down_to_small_angles():
    rng = np.random.default_rng(21)
    for theta in np.geomspace(1e-6, 3.83, 41):
        phi = rng.uniform(0, 2 * np.pi)
        seq = synthesize("scrofulous", theta, phi)
        th1, ph1, ph2 = seq.pulses[0].theta, seq.pulses[0].phi, seq.pulses[1].phi
        assert abs(np.sin(th1) / th1 - 2 / np.pi * np.cos(theta / 2)) < 1e-13
        assert abs(th1 * np.cos(ph1 - ph2) + np.pi / 2) < 1e-10
        assert fidelity(seq.propagator(), seq.target) > 1 - 1e-12
        assert first_order_error(seq, ErrorChannel.pulse_length(1.0)).pulse_length_norm < 1e-10


def test_scrofulous_refuses_just_above_domain_edge():
    assert 3.83 < SCROFULOUS_EDGE < 3.84
    seq = synthesize("scrofulous", SCROFULOUS_EDGE - 1e-6, 0.3)
    assert fidelity(seq.propagator(), seq.target) > 1 - 1e-12
    for theta in (SCROFULOUS_EDGE + 1e-9, SCROFULOUS_EDGE + 1e-6, 3.85):
        with pytest.raises(SynthesisError, match="has no root"):
            synthesize("scrofulous", theta, 0.3)


# --------------------------------------------------------------- cis-cccp

def test_cis_cccp_shape_and_product():
    seq = synthesize("cis-cccp", np.pi, np.pi / 2)
    assert len(seq) == 9
    assert fidelity(seq.propagator(), seq.target) > 1 - 1e-11
    assert frob(seq.target, rotation([0, np.pi, 0])) < 1e-15


def test_cis_cccp_domain_validation():
    # theta = 0 would divide by sin(0) in the SCROFULOUS angle solve
    for theta in (0.0, -1.0, 2 * np.pi, 7.0):
        with pytest.raises(ValueError, match=r"must lie in \(0, 2\*pi\)"):
            synthesize("cis-cccp", theta, 0.0)


def test_cis_cccp_rejects_bad_winding():
    with pytest.raises(WindingError):
        synthesize("cis-cccp", np.pi, 0.0, (2, 1, 0))


def test_cis_cccp_accepts_constraint_windings():
    for winding in ((1, 1, 0), (1, 2, 1), (0, 1, 1)):
        seq = synthesize("cis-cccp", 1.5, 0.3, winding)
        assert fidelity(seq.propagator(), seq.target) > 1 - 1e-11


# -------------------------------------------------------------------- bb1

def test_bb1_pi_azimuth():
    seq = synthesize("bb1", np.pi, 0.0)
    assert abs(seq.pulses[1].phi - np.arccos(-0.25)) < 1e-12
    assert abs(seq.pulses[2].phi - 3 * np.arccos(-0.25)) < 1e-12
    assert np.allclose([p.theta for p in seq.pulses], [np.pi, np.pi, 2 * np.pi, np.pi])


def test_bb1_half_pi_azimuth():
    seq = synthesize("bb1", np.pi / 2, 0.0)
    assert abs(seq.pulses[1].phi - np.arccos(-1 / 8)) < 1e-12


def test_bb1_product_exact():
    rng = np.random.default_rng(21)
    for _ in range(10):
        theta, phi = rng.uniform(0.1, 2 * np.pi), rng.uniform(0, 2 * np.pi)
        seq = synthesize("bb1", theta, phi)
        assert fidelity(seq.propagator(), seq.target) > 1 - 1e-12


# ------------------------------------------------------------ alway-jones

def test_alway_jones_structure():
    seq = synthesize("alway-jones", np.pi, 0.0)
    assert len(seq) == 8
    assert frob(seq.target, rotation([np.pi, 0, 0])) < 1e-15
    assert fidelity(seq.propagator(), seq.target) > 1 - 1e-12


def test_alway_jones_subproducts_are_identity():
    seq = synthesize("alway-jones", np.pi, 0.0)
    for block in (seq.pulses[1:4], seq.pulses[4:8]):
        U = np.eye(2, dtype=complex)
        for p in block:
            U = rotation(p.vector) @ U
        assert frob(U, np.eye(2)) < 1e-12


def test_alway_jones_axis_covariance():
    phi = 1.3
    seq = synthesize("alway-jones", np.pi, phi)
    base = synthesize("alway-jones", np.pi, 0.0)
    shifted = np.eye(2, dtype=complex)
    for p in base.pulses:
        shifted = rotation(xy(p.theta, p.phi + phi)) @ shifted
    assert fidelity(seq.propagator(), shifted) > 1 - 1e-12


@pytest.mark.parametrize("phi", [0.0, 0.4, 3.0, 6.2, -1.0])
def test_alway_jones_opens_with_bb1_at_pi(phi):
    assert synthesize("alway-jones", np.pi, phi).pulses[:4] == synthesize("bb1", np.pi, phi).pulses


# --------------------------------------------------------- reverse fixture

def test_scrofulous_in_corpse_negative_control():
    seq = synthesize("scrofulous-in-corpse", np.pi, 0.0)
    assert len(seq) == 9
    assert fidelity(seq.propagator(), seq.target) > 1 - 1e-12
    rep = first_order_error(seq, ErrorChannel.combined(0, 0))
    assert rep.pulse_length_norm < 1e-10       # each block fixes its own length error
    assert rep.off_resonance_norm > 1e-3       # but the detuning channel survives


# -------------------------------------------------------- family coverage

def test_product_exactness_random_sample():
    rng = np.random.default_rng(22)
    for _ in range(25):
        phi = rng.uniform(0, 2 * np.pi)
        theta = rng.uniform(0.1, 2 * np.pi - 0.1)
        theta_s = rng.uniform(0.15, 3.7)
        for family, angle in (("plain", theta), ("corpse", theta), ("bb1", theta),
                              ("scrofulous", theta_s), ("cis-cccp", theta_s), ("alway-jones", np.pi)):
            seq = synthesize(family, angle, phi)
            assert fidelity(seq.propagator(), seq.target) > 1 - 1e-11


@pytest.mark.parametrize("family", _REGISTRY)
def test_sequence_product_is_the_product_of_its_pulse_rotations_bit_for_bit(family):
    # the one walk over the pulses gives the product _product gives, the sign of each zero included
    for theta in (0.05, np.pi / 4, 1.3, np.pi / 2, 2.1, np.pi, 3.7):
        for phi in (0.0, 0.4, 2.5, 5.1):
            seq = synthesize(family, theta_for(family, theta), phi)
            want = _product(_quaternion(*m) for m in seq._vectors)
            assert [x.hex() for x in seq._product] == [x.hex() for x in want]


@pytest.mark.parametrize("family", _REGISTRY)
@pytest.mark.parametrize("phi", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_synthesize_refuses_a_non_finite_phi(family, phi):
    with pytest.raises(ValueError, match="phi must be finite"):
        synthesize(family, theta_for(family, 1.3), phi)


def test_channel_cancellation_random_sample():
    rng = np.random.default_rng(23)
    for _ in range(10):
        phi = rng.uniform(0, 2 * np.pi)
        theta = rng.uniform(0.1, 2 * np.pi - 0.1)
        theta_s = rng.uniform(0.15, 3.7)
        assert first_order_error(synthesize("corpse", theta, phi),
                                 ErrorChannel.combined(0, 0)).off_resonance_norm < 1e-10
        assert first_order_error(synthesize("scrofulous", theta_s, phi),
                                 ErrorChannel.combined(0, 0)).pulse_length_norm < 1e-10
        assert first_order_error(synthesize("bb1", theta, phi),
                                 ErrorChannel.combined(0, 0)).pulse_length_norm < 1e-10
        rep = first_order_error(synthesize("cis-cccp", theta_s, phi), ErrorChannel.combined(0, 0))
        assert rep.pulse_length_norm < 1e-9 and rep.off_resonance_norm < 1e-9


def test_axis_covariance_by_rigid_shift():
    rng = np.random.default_rng(24)
    phi = rng.uniform(0, 2 * np.pi)
    for family in ("corpse", "scrofulous", "bb1", "cis-cccp"):
        seq = synthesize(family, 1.4, phi)
        base = synthesize(family, 1.4, 0.0)
        shifted = np.eye(2, dtype=complex)
        for p in base.pulses:
            shifted = rotation(xy(p.theta, p.phi + phi)) @ shifted
        assert fidelity(seq.propagator(), shifted) > 1 - 1e-11


# -------------------------------------------------------------- reduction

def test_reduce_single_pulse():
    m = _reduce([0.8])
    assert np.allclose(m, xy(np.pi, 0.8))


def test_reduce_pair_closed_form():
    m = _reduce([0.3, 1.1])
    assert np.allclose(m, [0, 0, 2 * (1.1 - 0.3 + np.pi)])
    direct = rotation(xy(np.pi, 1.1)) @ rotation(xy(np.pi, 0.3))
    assert frob(rotation(m), direct) < 1e-12


def test_reduce_matches_direct_product():
    rng = np.random.default_rng(25)
    for _ in range(200):
        k = int(rng.integers(1, 9))
        phases = rng.uniform(0, 2 * np.pi, size=k)
        direct = np.eye(2, dtype=complex)
        for p in phases:
            direct = rotation(xy(np.pi, p)) @ direct
        reduced = rotation(_reduce(phases))
        assert fidelity(direct, reduced) > 1 - 1e-10


def test_reduce_empty_rejected():
    with pytest.raises(ValueError):
        _reduce([])


# ------------------------------------------------------------ wire format

def test_sequence_roundtrip_through_dict():
    seq = synthesize("cis-cccp", 1.1, 0.6)
    doc = sequence_to_dict(seq)
    assert doc["family"] == "cis-cccp"
    assert doc["winding"] == [1, 1, 0]
    back = sequence_from_dict(doc)
    assert len(back) == len(seq)
    assert fidelity(back.propagator(), seq.propagator()) > 1 - 1e-14
    assert fidelity(back.target, seq.target) > 1 - 1e-14


def test_sequence_from_dict_rejects_unknown_family():
    with pytest.raises(ValueError):
        sequence_from_dict({"family": "nonsense", "target": {"theta": 1, "phi": 0}, "pulses": []})


def test_sequence_from_dict_rejects_missing_fields():
    with pytest.raises(ValueError):
        sequence_from_dict({"family": "custom", "pulses": [{"theta": 1.0, "phi": 0.0}]})


def _wire(**changes):
    doc = {"family": "corpse", "target": {"theta": 1.0, "phi": 0.0}, "winding": [1, 2, 1],
           "pulses": [{"theta": 1.0, "phi": 0.0}]}
    doc.update(changes)
    return doc


@pytest.mark.parametrize("doc", [
    [1, 2],
    "corpse",
    None,
    _wire(pulses=[]),
    _wire(pulses={"theta": 1.0, "phi": 0.0}),
    _wire(pulses=[5]),
    _wire(pulses=[{"theta": "1.0", "phi": 0.0}]),
    _wire(winding=[1]),
    _wire(winding=[1, 2]),
    _wire(winding=[1, 2, 1, 0]),
    _wire(winding=[1, 2.5, 1]),
    _wire(winding="1,2,1"),
    _wire(target={"theta": float("nan"), "phi": 0.0}),
    _wire(target={"theta": 1.0, "phi": float("inf")}),
    _wire(target={"theta": float("-inf"), "phi": 0.0}),
    _wire(target=[1.0, 0.0]),
    _wire(target={"theta": 1e308, "phi": 0.0}),
    _wire(pulses=[{"theta": 1e300, "phi": 0.0}]),
])
def test_sequence_from_dict_rejects_malformed_documents(doc):
    with pytest.raises(ValueError):
        sequence_from_dict(doc)


def test_sequence_from_dict_accepts_missing_or_null_winding():
    assert sequence_from_dict(_wire(winding=None)).winding is None
    doc = _wire()
    del doc["winding"]
    assert sequence_from_dict(doc).winding is None
    assert sequence_from_dict(_wire()).winding == (1, 2, 1)


def test_synthesize_dispatch():
    seq = synthesize("corpse", np.pi, 0.0, (1, 2, 1))
    assert seq.family == "corpse"
    with pytest.raises(ValueError):
        synthesize("made-up", 1.0)
