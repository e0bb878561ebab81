"""The family registry: one row per family, concatenation by the paper's rule."""

import inspect
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpseq.cli import main
from cpseq.error_model import ErrorChannel, first_order_error
from cpseq.ioutil import dumps
from cpseq.sequences import (
    _REGISTRY,
    FAMILIES,
    ROBUST_TOL,
    Pulse,
    PulseSequence,
    SynthesisError,
    WindingError,
    concatenate,
    sequence_from_dict,
    sequence_to_dict,
    synthesize,
)

from conftest import CliRunner

README = Path(__file__).resolve().parents[1] / "README.md"
CHANNELS = {"pulse-length": ("pulse_length",), "off-resonance": ("off_resonance",),
            "both": ("pulse_length", "off_resonance"), "nothing": ()}
# largest rotation SCROFULOUS can make: (2/pi) cos(theta/2) must stay above
# the minimum of sin(t)/t, which it takes at t = 4.4934...
SCROFULOUS_EDGE = 2 * np.arccos(np.pi / 2 * np.cos(4.4934094579090641))


def test_families_are_the_registry_and_custom():
    assert FAMILIES == (*_REGISTRY, "custom")
    assert all(name == row.name for name, row in _REGISTRY.items())


def test_readme_family_table_matches_the_registry():
    section = README.read_text(encoding="utf-8").split("## Shipped families", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([^`]+)`\s*\|\s*(\d+)\s*\|\s*([^|]*?)\s*\|$", section, re.MULTILINE)
    assert [name for name, _, _ in rows] == list(_REGISTRY)
    for name, pulses, cancels in rows:
        assert _REGISTRY[name].admits(np.pi)
        assert int(pulses) == len(synthesize(name, np.pi))
        claim = cancels.split(" (")[0].removesuffix(" only")
        assert set(CHANNELS[claim]) == set(_REGISTRY[name].declared), name


def test_concatenation_declares_by_the_paper_rule():
    # inner CORPSE (pure pulse-length residual) in an outer pulse-length canceller
    assert set(_REGISTRY["cis-cccp"].declared) == {"pulse_length", "off_resonance"}
    # inner SCROFULOUS leaves an off-resonance residual: only its own channel
    assert _REGISTRY["scrofulous-in-corpse"].declared == ("pulse_length",)
    # an outer sequence that does not cancel pulse-length adds nothing, and
    # asks nothing of the winding
    inner_only = concatenate(_REGISTRY["plain"], _REGISTRY["corpse"], name="corpse-in-plain",
                             domain=(0.0, 2 * np.pi, "[]"), refusal="", winding=(2, 3, 2))
    assert inner_only.declared == ("off_resonance",)
    assert len(inner_only.segments(1.0, 0.3, (2, 3, 2))) == 3


@pytest.mark.parametrize("theta", [0.5, np.pi / 2, np.pi, 2 * np.pi])
def test_corpse_in_bb1_cancels_both_channels(theta):
    # the rule on a pairing the registry does not ship
    row = concatenate(_REGISTRY["bb1"], _REGISTRY["corpse"], name="corpse-in-bb1",
                      domain=(0.0, 2 * np.pi, "(]"), refusal="", winding=(1, 1, 0))
    assert set(row.declared) == {"pulse_length", "off_resonance"}
    pulses = [Pulse(t, p) for t, p in row.segments(theta, 0.3, (1, 1, 0))]
    seq = PulseSequence("custom", pulses, synthesize("bb1", theta, 0.3).target)
    assert len(seq) == 12
    report = first_order_error(seq, ErrorChannel.combined(0.0, 0.0))
    assert report.pulse_length_norm < 1e-10 and report.off_resonance_norm < 1e-10
    with pytest.raises(WindingError, match="n1 - n2 \\+ n3 = 0"):
        row.segments(theta, 0.3, (1, 2, 0))


@pytest.mark.parametrize("family", [f for f, row in _REGISTRY.items() if row.winding is None])
def test_family_without_default_winding_refuses_one(family):
    with pytest.raises(ValueError, match="takes no winding"):
        synthesize(family, np.pi, 0.0, (5, 5, 5))


@pytest.mark.parametrize("family", list(_REGISTRY))
def test_family_function_default_winding_is_the_registry_row(family):
    # synthesize is the one function that builds a family; without a winding it takes the row's
    assert inspect.signature(synthesize).parameters["winding"].default is None
    theta = np.pi if family == "alway-jones" else 1.0
    assert synthesize(family, theta).winding == _REGISTRY[family].winding


def test_alway_jones_refuses_theta_other_than_pi():
    for theta in (1.0, np.pi + 1e-15, 0.0):
        with pytest.raises(ValueError, match="must be pi"):
            synthesize("alway-jones", theta)
    assert synthesize("alway-jones", np.pi).theta == np.pi


def thetas(row):
    """theta drawn from a row's domain; an unbounded one over two turns."""
    lo, hi, brackets = row.domain
    if np.isinf(hi):
        return st.floats(lo, 4 * np.pi, exclude_min=brackets[0] == "(")
    return st.floats(lo, hi, exclude_min=brackets[0] == "(", exclude_max=brackets[1] == ")")


@pytest.mark.parametrize("family", list(_REGISTRY))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_synth_wire_verify_round_trip(family, data):
    row = _REGISTRY[family]
    theta = data.draw(thetas(row), label="theta")
    phi = data.draw(st.floats(-1e6, 1e6), label="phi")
    try:
        seq = synthesize(family, theta, phi)
    except SynthesisError as exc:
        # the only refusal inside a domain: SCROFULOUS has no root there
        assert "has no root" in str(exc) and theta > SCROFULOUS_EDGE
        return
    text = dumps(sequence_to_dict(seq))
    back = sequence_from_dict(json.loads(text))
    assert [(p.theta, p.phi) for p in back.pulses] == [(p.theta, p.phi) for p in seq.pulses]
    result = CliRunner().invoke(main, ["verify", "--input", "-"], input=text)
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["tolerance"] == ROBUST_TOL
    for name, channel in report["channels"].items():
        assert channel["declared"] == (name in row.declared)
        assert channel["robust"] or not channel["declared"]
