import json
import math
import os
import subprocess
import sys
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from cpseq.cli import main, parse_angle


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args, **kwargs):
    return runner.invoke(main, args, catch_exceptions=False, **kwargs)


# --------------------------------------------------------- angle parsing

@pytest.mark.parametrize("text,value", [
    ("pi", np.pi),
    ("pi/2", np.pi / 2),
    ("3pi/4", 3 * np.pi / 4),
    ("2*pi/3", 2 * np.pi / 3),
    ("-pi/3", -np.pi / 3),
    ("0.5", 0.5),
    ("1e-3", 1e-3),
    ("2pi", 2 * np.pi),
])
def test_parse_angle(text, value):
    assert abs(parse_angle(text) - value) < 1e-15


angle_texts = st.one_of(
    st.text(),
    st.from_regex(r"\A[+-]?[0-9]*\.?[0-9]*\s?\*?\s?pi\s?(/\s?[0-9]*\.?[0-9]*)?\Z"),
    st.floats().map(repr),
    st.integers().map(str),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(angle_texts)
def test_parse_angle_is_finite_or_bad_parameter(text):
    try:
        value = parse_angle(text)
    except click.BadParameter:
        return
    assert isinstance(value, float) and math.isfinite(value)


def test_negative_theta_is_a_usage_error(runner):
    result = runner.invoke(main, ["synth", "--family", "plain", "--theta", "-pi"])
    assert result.exit_code == 2


# the last one is a pi fraction whose coefficient, 1e308, overflows times pi
NON_FINITE = pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e999", "1" + "0" * 308 + "pi"],
                                     ids=["nan", "inf", "-inf", "1e999", "1e308pi"])


@NON_FINITE
def test_non_finite_theta_is_a_usage_error(runner, text):
    result = runner.invoke(main, ["synth", "--family", "plain", f"--theta={text}"])
    assert result.exit_code == 2
    assert "Invalid value for '--theta'" in result.stderr


@NON_FINITE
def test_non_finite_phi_is_a_usage_error(runner, text):
    result = runner.invoke(main, ["synth", "--family", "plain", "--theta", "1", f"--phi={text}"])
    assert result.exit_code == 2
    assert "Invalid value for '--phi'" in result.stderr


@NON_FINITE
def test_non_finite_phase_exits_2_with_json(runner, text):
    err = _refused_with_json(runner.invoke(main, ["reduce", f"--phases=0.3,{text}"]))
    assert err["type"] == "BadParameter" and "finite" in err["message"]


@pytest.mark.parametrize("command", ["synth", "verify", "phase"])
def test_theta_too_large_to_evaluate_exits_2_with_json(runner, command):
    # the product overflows to NaN, which synthesis must refuse
    err = _refused_with_json(runner.invoke(main, [command, "--family", "plain", "--theta", "1e308"]))
    assert err["type"] == "SynthesisError"


@pytest.mark.parametrize("command", ["synth", "verify", "phase"])
def test_cis_cccp_theta_zero_names_the_domain(runner, command):
    err = _refused_with_json(runner.invoke(main, [command, "--family", "cis-cccp", "--theta", "0"]))
    assert err["type"] == "ValueError" and "(0, 2*pi)" in err["message"]


@pytest.mark.parametrize("command", ["synth", "verify", "phase"])
def test_alway_jones_refuses_theta_other_than_pi(runner, command):
    err = _refused_with_json(runner.invoke(main, [command, "--family", "alway-jones", "--theta", "1"]))
    assert err["type"] == "UsageError" and "must be pi" in err["message"]
    bare = invoke(runner, [command, "--family", "alway-jones"]).output
    assert invoke(runner, [command, "--family", "alway-jones", "--theta", "pi"]).output == bare


# ------------------------------------------------------------------ synth

def test_synth_cis_cccp_emits_nine_pulses(runner):
    result = invoke(runner, ["synth", "--family", "cis-cccp", "--theta", "pi", "--phi", "pi/2"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["family"] == "cis-cccp"
    assert len(doc["pulses"]) == 9
    assert doc["winding"] == [1, 1, 0]
    assert abs(doc["target"]["theta"] - np.pi) < 1e-15


def test_synth_plain_identity(runner):
    result = invoke(runner, ["synth", "--family", "plain", "--theta", "0", "--phi", "0"])
    doc = json.loads(result.output)
    assert doc["pulses"] == [{"theta": 0, "phi": 0}]


def test_synth_corpse_angles(runner):
    result = invoke(runner, ["synth", "--family", "corpse", "--theta", "pi",
                             "--winding", "1,2,1"])
    doc = json.loads(result.output)
    angles = [p["theta"] for p in doc["pulses"]]
    assert np.allclose(angles, [7 * np.pi / 3, 11 * np.pi / 3, 7 * np.pi / 3], atol=1e-12)


def test_synth_deterministic_bytes(runner):
    args = ["synth", "--family", "scrofulous", "--theta", "pi"]
    assert invoke(runner, args).output == invoke(runner, args).output


def test_synth_unsolvable_reports_error_json(runner):
    result = runner.invoke(main, ["synth", "--family", "scrofulous", "--theta", "3.9"])
    assert result.exit_code == 2
    err = json.loads(result.stderr)
    assert err["error"]["type"] == "SynthesisError"


# ----------------------------------------------------------------- verify

def test_synth_verify_roundtrip(runner, tmp_path):
    path = tmp_path / "seq.json"
    result = invoke(runner, ["synth", "--family", "cis-cccp", "--theta", "pi",
                             "--phi", "pi/2", "--output", str(path)])
    assert result.exit_code == 0
    result = invoke(runner, ["verify", "--input", str(path)])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["product_fidelity"] > 1 - 1e-11
    assert doc["channels"]["pulse_length"]["robust"]
    assert doc["channels"]["off_resonance"]["robust"]
    assert doc["channels"]["pulse_length"]["fd_gap"] < 1e-4
    assert doc["passed"]


def test_synth_pipes_into_verify_via_stdin(runner):
    synth_out = invoke(runner, ["synth", "--family", "bb1", "--theta", "pi/2"]).output
    result = invoke(runner, ["verify", "--input", "-"], input=synth_out)
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["product_fidelity"] > 1 - 1e-11 and doc["passed"]


def test_verify_plain_reports_unrobust_channels(runner):
    result = invoke(runner, ["verify", "--family", "plain", "--theta", "pi"])
    assert result.exit_code == 0  # nothing declared, nothing violated
    doc = json.loads(result.output)
    assert not doc["channels"]["pulse_length"]["robust"]
    assert not doc["channels"]["off_resonance"]["robust"]


def test_verify_reverse_concatenation_fixture(runner):
    result = invoke(runner, ["verify", "--family", "scrofulous-in-corpse", "--theta", "pi"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["channels"]["pulse_length"]["robust"]
    assert not doc["channels"]["off_resonance"]["robust"]


def test_verify_fails_on_false_robustness_claim(runner, tmp_path):
    # a file claiming CORPSE but holding a bare pulse must fail verification
    path = tmp_path / "fake.json"
    path.write_text(json.dumps({
        "family": "corpse",
        "target": {"theta": np.pi, "phi": 0.0},
        "winding": [1, 2, 1],
        "pulses": [{"theta": np.pi, "phi": 0.0}],
    }))
    result = invoke(runner, ["verify", "--input", str(path)])
    assert result.exit_code == 3
    doc = json.loads(result.output)
    assert not doc["passed"]


def test_verify_malformed_json_exits_2(runner, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    result = invoke(runner, ["verify", "--input", str(path)])
    assert result.exit_code == 2


def test_verify_bad_schema_exits_2(runner, tmp_path):
    path = tmp_path / "incomplete.json"
    path.write_text(json.dumps({"family": "custom", "pulses": []}))
    result = invoke(runner, ["verify", "--input", str(path)])
    assert result.exit_code == 2


def _refused_with_json(result) -> dict:
    assert result.exit_code == 2
    return json.loads(result.stderr)["error"]


@pytest.mark.parametrize("command", ["verify", "phase", "landscape", "scaling"])
def test_empty_pulse_list_exits_2_with_json(runner, tmp_path, command):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"family": "bb1", "target": {"theta": 1.0, "phi": 0.0},
                                "pulses": []}))
    err = _refused_with_json(invoke(runner, [command, "--input", str(path)]))
    assert "pulses" in err["message"]


@pytest.mark.parametrize("text", [
    "[1, 2]",
    '"corpse"',
    '{"family": "corpse", "target": {"theta": 1, "phi": 0}, "winding": [1], '
    '"pulses": [{"theta": 1, "phi": 0}]}',
    '{"family": "corpse", "target": {"theta": 1, "phi": 0}, "winding": [1, 2, 1, 0], '
    '"pulses": [{"theta": 1, "phi": 0}]}',
    '{"family": "custom", "target": {"theta": NaN, "phi": 0}, "pulses": [{"theta": 1, "phi": 0}]}',
    '{"family": "custom", "target": {"theta": 1, "phi": Infinity}, "pulses": [{"theta": 1, "phi": 0}]}',
    '{"family": "custom", "target": {"theta": 1e308, "phi": 0}, "pulses": [{"theta": 1, "phi": 0}]}',
], ids=["top-level-array", "top-level-string", "winding-of-1", "winding-of-4", "theta-nan",
        "phi-infinity", "theta-overflows"])
def test_verify_malformed_document_exits_2_with_json(runner, tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    err = _refused_with_json(invoke(runner, ["verify", "--input", str(path)]))
    assert err["type"] == "ValueError"


def test_verify_fails_when_pulses_miss_declared_target(runner, tmp_path):
    # pulses synthesized for pi/2, document claims pi: every channel cancels,
    # but the product is the wrong gate
    path = tmp_path / "seq.json"
    invoke(runner, ["synth", "--family", "cis-cccp", "--theta", "pi/2", "--output", str(path)])
    doc = json.loads(path.read_text())
    doc["target"]["theta"] = np.pi
    path.write_text(json.dumps(doc))
    result = invoke(runner, ["verify", "--input", str(path)])
    assert result.exit_code == 3
    report = json.loads(result.output)
    assert report["channels"]["pulse_length"]["robust"]
    assert report["channels"]["off_resonance"]["robust"]
    assert report["product_fidelity"] < 0.8 and not report["passed"]


# -------------------------------------------------------------- landscape

def test_landscape_csv_row_count(runner):
    result = invoke(runner, ["landscape", "--family", "plain", "--theta", "pi",
                             "--phi", "pi/2", "--res", "21"])
    lines = [ln for ln in result.output.split("\n") if ln]
    assert lines[0] == "eps,eps_prime,fidelity"
    assert len(lines) == 1 + 21 * 21


def test_landscape_default_resolution_row_count(runner, tmp_path):
    path = tmp_path / "grid.csv"
    result = invoke(runner, ["landscape", "--family", "plain", "--theta", "pi",
                             "--phi", "pi/2", "--res", "201", "--output", str(path)])
    assert result.exit_code == 0
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + 201 * 201
    assert "\r" not in path.read_text()


def test_landscape_center_value(runner):
    result = invoke(runner, ["landscape", "--family", "corpse", "--theta", "pi",
                             "--res", "3"])
    rows = [ln.split(",") for ln in result.output.strip().split("\n")[1:]]
    center = [r for r in rows if float(r[0]) == 0.0 and float(r[1]) == 0.0]
    assert len(center) == 1 and abs(float(center[0][2]) - 1) < 1e-12


def test_landscape_json_format(runner):
    result = invoke(runner, ["landscape", "--family", "plain", "--theta", "pi",
                             "--res", "5", "--format", "json"])
    doc = json.loads(result.output)
    assert len(doc["eps"]) == 5 and len(doc["fidelity"]) == 5


@pytest.mark.parametrize("option,value", [
    ("--eps-range", "-inf,inf"),
    ("--eps-prime-range", "0,1e999"),
    ("--eps-range", "nan,1"),
])
def test_landscape_non_finite_range_is_a_usage_error(runner, option, value):
    result = runner.invoke(main, ["landscape", "--family", "plain", "--theta", "1", "--res", "3",
                                  f"{option}={value}"])
    assert result.exit_code == 2
    assert "must be finite" in result.stderr


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_landscape_range_too_large_to_evaluate_exits_2_with_json(fmt):
    # run as a process, so that any numpy warning would reach stderr
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "cpseq.cli", "landscape", "--family", "plain",
                           "--theta", "1", "--res", "3", "--eps-range=-1e200,1e200", "--format", fmt],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stdout == ""
    assert json.loads(proc.stderr)["error"]["type"] == "ValueError"


def test_landscape_respects_thread_env(runner, tmp_path):
    args = ["landscape", "--family", "scrofulous", "--theta", "pi", "--res", "31"]
    base = invoke(runner, args, env={"PULSE_THREADS": "1"}).output
    multi = invoke(runner, args, env={"PULSE_THREADS": "3"}).output
    assert base == multi


# ------------------------------------------------------------------ phase

def test_phase_scrofulous_dynamical_vanishes(runner):
    result = invoke(runner, ["phase", "--family", "scrofulous", "--theta", "pi"])
    doc = json.loads(result.output)
    assert not doc["degenerate"]
    for state in doc["states"]:
        assert abs(state["dynamical"]) <= 1e-8


def test_phase_plain_pulse(runner):
    result = invoke(runner, ["phase", "--family", "plain", "--theta", "pi"])
    doc = json.loads(result.output)
    dyn = sorted(s["dynamical"] for s in doc["states"])
    assert np.allclose(dyn, [-np.pi / 2, np.pi / 2], atol=1e-10)


# ---------------------------------------------------------------- scaling

def test_scaling_plain_slope_two(runner):
    result = invoke(runner, ["scaling", "--family", "plain", "--theta", "pi", "--axis", "eps"])
    doc = json.loads(result.output)
    assert abs(doc["slope"] - 2.0) < 0.1
    assert len(doc["points"]) == 5


def test_scaling_unresolved_ladder_exits_2_with_json(runner):
    # BB1 at small theta is so robust on the eps axis that no ladder point
    # rises above the precision floor
    result = invoke(runner, ["scaling", "--family", "bb1", "--theta", "0.1", "--axis", "eps"])
    err = _refused_with_json(result)
    assert err["type"] == "ValueError" and "ladder points" in err["message"]


def test_scaling_corpse_detuning_axis(runner):
    result = invoke(runner, ["scaling", "--family", "corpse", "--theta", "pi",
                             "--axis", "eps-prime"])
    doc = json.loads(result.output)
    assert doc["slope"] >= 3.8


# ----------------------------------------------------------------- reduce

def test_reduce_pair(runner):
    result = invoke(runner, ["reduce", "--phases", "0.3,1.1"])
    doc = json.loads(result.output)
    assert doc["kind"] == "z-rotation"
    assert abs(doc["vector"][2] - 2 * (1.1 - 0.3 + np.pi)) < 1e-12


def test_reduce_single(runner):
    result = invoke(runner, ["reduce", "--phases", "pi/4"])
    doc = json.loads(result.output)
    assert doc["kind"] == "pi-pulse"
    assert abs(doc["phi"] - np.pi / 4) < 1e-12


def test_reduce_overflowing_product_exits_2_with_json(runner):
    err = _refused_with_json(runner.invoke(main, ["reduce", "--phases", "1.7e308,-1.7e308"]))
    assert err["type"] == "ValueError"


def test_reduce_empty_exits_2(runner):
    result = CliRunner().invoke(main, ["reduce", "--phases", ""])
    assert result.exit_code == 2


def test_cli_import_leaves_scipy_unloaded():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", "import sys, cpseq.cli; print('scipy' in sys.modules)"],
                          env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"
