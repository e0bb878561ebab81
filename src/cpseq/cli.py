"""Command-line front end.

Subcommands: synth, verify, landscape, phase, scaling, reduce.  Angles on
the command line accept decimal radians or ``pi`` fractions (``pi``,
``pi/2``, ``3pi/4``, ``-pi/3``, ``2*pi/3``).  All outputs are deterministic:
identical invocations produce identical bytes.  Exit codes: 0 success,
2 usage or parse failure, 3 verification failure.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys

import click
import numpy as np

from . import analysis, error_model, sequences
from .ioutil import dumps
from .su2 import fidelity

_SYNTH_FAMILIES = [f for f in sequences.FAMILIES if f != "custom"]

# Channels each family is designed to compensate, with the norm tolerance
# its verification must meet (concatenated families accumulate more
# round-off, hence the looser bound).
_DECLARED_ROBUST = {
    "corpse": ("off_resonance",),
    "scrofulous": ("pulse_length",),
    "bb1": ("pulse_length",),
    "cis-cccp": ("pulse_length", "off_resonance"),
    "alway-jones": ("pulse_length", "off_resonance"),
}
_VERIFY_TOL = {"cis-cccp": 1e-9, "alway-jones": 1e-9}

_PI_FORM = re.compile(
    r"^(?P<coef>[+-]?(?:\d+\.?\d*|\.\d+)?)\s*\*?\s*pi\s*(?:/\s*(?P<den>\d+\.?\d*))?$",
    re.IGNORECASE,
)


def parse_angle(text: str) -> float:
    """Parse an angle in radians, accepting pi fractions; BadParameter unless finite."""
    text = text.strip()
    match = _PI_FORM.match(text)
    try:
        if match:
            coef = match.group("coef")
            coef = float(coef + "1" if coef in ("", "+", "-") else coef)
            angle = coef * np.pi / float(match.group("den") or 1)
        else:
            angle = float(text)
    except (ValueError, ZeroDivisionError):
        raise click.BadParameter(f"cannot parse angle {text!r}")
    if not math.isfinite(angle):
        raise click.BadParameter(f"angle must be finite, got {text!r}")
    return angle


class AngleParam(click.ParamType):
    name = "angle"

    def __init__(self, nonnegative: bool = False):
        self.nonnegative = nonnegative

    def convert(self, value, param, ctx):
        if isinstance(value, float):
            return value
        angle = parse_angle(value)
        if self.nonnegative and angle < 0:
            self.fail(f"{param.name if param else 'angle'} must be nonnegative, got {value!r}",
                      param, ctx)
        return angle


ANGLE = AngleParam()
NONNEG_ANGLE = AngleParam(nonnegative=True)


class WindingParam(click.ParamType):
    name = "winding"

    def convert(self, value, param, ctx):
        if value is None or isinstance(value, tuple):
            return value
        try:
            parts = tuple(int(p) for p in value.split(","))
        except ValueError:
            self.fail(f"winding must be three comma-separated integers, got {value!r}", param, ctx)
        if len(parts) != 3:
            self.fail(f"winding must have exactly three entries, got {value!r}", param, ctx)
        return parts


class RangeParam(click.ParamType):
    name = "range"

    def convert(self, value, param, ctx):
        if isinstance(value, tuple):
            return value
        try:
            lo, hi = (float(p) for p in value.split(","))
        except ValueError:
            self.fail(f"range must be 'lo,hi', got {value!r}", param, ctx)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            self.fail(f"range bounds must be finite, got {value!r}", param, ctx)
        if not lo < hi:
            self.fail(f"range must be increasing, got {value!r}", param, ctx)
        return lo, hi


def _fail(kind: str, message: str, code: int = 2):
    click.echo(dumps({"error": {"type": kind, "message": message}}), err=True)
    sys.exit(code)


def _emit(text: str, output: str | None):
    if output:
        with open(output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        click.echo(text)


def _synthesize(family: str, theta: float | None, phi: float, winding) -> sequences.PulseSequence:
    if family != "alway-jones" and theta is None:
        raise click.UsageError(f"--theta is required for family {family!r}")
    if family == "alway-jones" and theta not in (None, np.pi):
        _fail("UsageError", f"alway-jones only implements pi rotations; --theta must be pi, got {theta!r}")
    try:
        # angles too large to evaluate leave a NaN product, which synthesis refuses
        with np.errstate(over="ignore", invalid="ignore"):
            return sequences.synthesize(family, theta if theta is not None else np.pi, phi, winding)
    except (sequences.SynthesisError, sequences.WindingError, ValueError) as exc:
        _fail(type(exc).__name__, str(exc))


def _load_or_synth(input_path, family, theta, phi, winding) -> sequences.PulseSequence:
    if input_path is not None:
        try:
            with click.open_file(input_path, encoding="utf-8") as fh:
                doc = json.load(fh)
            return sequences.sequence_from_dict(doc)
        except (OSError, json.JSONDecodeError, ValueError) as exc:
            _fail(type(exc).__name__, str(exc))
    if family is None:
        raise click.UsageError("provide either --input or --family")
    return _synthesize(family, theta, phi, winding)


_COMMON = [
    click.option("--family", type=click.Choice(_SYNTH_FAMILIES), default=None,
                 help="Sequence family to synthesize."),
    click.option("--theta", type=NONNEG_ANGLE, default=None,
                 help="Target rotation angle (radians; pi forms accepted)."),
    click.option("--phi", type=ANGLE, default=0.0, show_default=True,
                 help="Target axis azimuth (radians)."),
    click.option("--winding", type=WindingParam(), default=None,
                 help="Winding integers n1,n2,n3 for CORPSE-based families."),
]


def _with_common(cmd):
    for opt in reversed(_COMMON):
        cmd = opt(cmd)
    return cmd


@click.group()
@click.version_option(version="0.1.0", prog_name="cpseq")
def main():
    """Composite pulse synthesis and robustness verification for SU(2) gates."""


@main.command()
@_with_common
@click.option("--output", type=click.Path(dir_okay=False), default=None,
              help="Write JSON here instead of stdout.")
def synth(family, theta, phi, winding, output):
    """Synthesize a pulse sequence and emit it as JSON."""
    if family is None:
        raise click.UsageError("--family is required")
    seq = _synthesize(family, theta, phi, winding)
    _emit(dumps(sequences.sequence_to_dict(seq)), output)


@main.command()
@_with_common
@click.option("--input", "input_path", type=click.Path(exists=True, dir_okay=False, allow_dash=True), default=None,
              help="Verify a sequence JSON file instead of synthesizing (- for stdin).")
@click.option("--output", type=click.Path(dir_okay=False), default=None)
def verify(family, theta, phi, winding, input_path, output):
    """Check first-order robustness claims; exit 3 when a declared channel fails."""
    seq = _load_or_synth(input_path, family, theta, phi, winding)
    tol = _VERIFY_TOL.get(seq.family, 1e-10)
    report = error_model.first_order_error(seq, error_model.ErrorChannel.combined(0.0, 0.0),
                                           tolerance=tol)
    fd_len = error_model.finite_difference_generator(seq, error_model.ErrorChannel.pulse_length(1.0))
    fd_det = error_model.finite_difference_generator(seq, error_model.ErrorChannel.off_resonance(1.0))
    gap_len = float(np.linalg.norm(report.pulse_length_coefficient - fd_len, ord="fro"))
    gap_det = float(np.linalg.norm(report.off_resonance_coefficient - fd_det, ord="fro"))
    declared = _DECLARED_ROBUST.get(seq.family, ())
    channels = {
        "pulse_length": {
            "norm": report.pulse_length_norm,
            "robust": report.robust_to_pulse_length,
            "declared": "pulse_length" in declared,
            "fd_gap": gap_len,
        },
        "off_resonance": {
            "norm": report.off_resonance_norm,
            "robust": report.robust_to_off_resonance,
            "declared": "off_resonance" in declared,
            "fd_gap": gap_det,
        },
    }
    product_fidelity = fidelity(seq.propagator(), seq.target)
    # A sequence must implement the target it declares before any channel
    # claim means anything; every synthesizer guarantees 1 - 1e-11.
    passed = product_fidelity >= 1 - 1e-10 and all(
        ch["robust"] for ch in channels.values() if ch["declared"])
    doc = {
        "family": seq.family,
        "pulses": len(seq),
        "product_fidelity": product_fidelity,
        "tolerance": tol,
        "channels": channels,
        "passed": passed,
    }
    _emit(dumps(doc), output)
    if not passed:
        sys.exit(3)


@main.command()
@_with_common
@click.option("--eps-range", type=RangeParam(), default=(-0.1, 0.1),
              help="Pulse-length strength range lo,hi.")
@click.option("--eps-prime-range", type=RangeParam(), default=(-0.1, 0.1),
              help="Off-resonance strength range lo,hi.")
@click.option("--res", type=click.IntRange(min=2), default=201, show_default=True,
              help="Samples per axis.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True)
@click.option("--input", "input_path", type=click.Path(exists=True, dir_okay=False, allow_dash=True), default=None)
@click.option("--output", type=click.Path(dir_okay=False), default=None)
def landscape(family, theta, phi, winding, eps_range, eps_prime_range, res, fmt,
              input_path, output):
    """Sample the fidelity landscape over an error-strength rectangle."""
    seq = _load_or_synth(input_path, family, theta, phi, winding)
    try:
        threads = int(os.environ.get("PULSE_THREADS", "0"))
    except ValueError:
        _fail("UsageError", "PULSE_THREADS must be an integer (0 = auto)")
    try:
        grid = analysis.landscape(seq, eps_range, eps_prime_range, res, threads=threads)
    except ValueError as exc:
        _fail(type(exc).__name__, str(exc))
    if fmt == "csv":
        _emit(analysis.landscape_csv(grid), output)
    else:
        doc = {
            "family": grid.family,
            "eps": grid.eps_values,
            "eps_prime": grid.eps_prime_values,
            "fidelity": grid.fidelity,
        }
        _emit(dumps(doc), output)


@main.command()
@_with_common
@click.option("--input", "input_path", type=click.Path(exists=True, dir_okay=False, allow_dash=True), default=None)
@click.option("--output", type=click.Path(dir_okay=False), default=None)
def phase(family, theta, phi, winding, input_path, output):
    """Report total, dynamical and geometric phases of the cyclic states."""
    seq = _load_or_synth(input_path, family, theta, phi, winding)
    rep = analysis.phase_decomposition(seq)
    doc = {
        "family": seq.family,
        "degenerate": rep.degenerate,
        "states": [
            {"total": rep.total[a], "dynamical": rep.dynamical[a], "geometric": rep.geometric[a]}
            for a in range(2)
        ],
    }
    _emit(dumps(doc), output)


@main.command()
@_with_common
@click.option("--axis", type=click.Choice(list(analysis.AXES)), default="eps",
              show_default=True, help="Strength axis for the ladder.")
@click.option("--input", "input_path", type=click.Path(exists=True, dir_okay=False, allow_dash=True), default=None)
@click.option("--output", type=click.Path(dir_okay=False), default=None)
def scaling(family, theta, phi, winding, axis, input_path, output):
    """Fit the log-log infidelity slope along one strength axis."""
    seq = _load_or_synth(input_path, family, theta, phi, winding)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            fit = analysis.infidelity_scaling(seq, axis)
        except ValueError as exc:
            _fail(type(exc).__name__, str(exc))
    doc = {
        "family": seq.family,
        "axis": fit.axis,
        "slope": fit.slope,
        "intercept": fit.intercept,
        "points": [
            {"strength": s, "infidelity": f}
            for s, f in zip(fit.strengths, fit.infidelities)
        ],
        "dropped": list(fit.dropped),
    }
    _emit(dumps(doc), output)


@main.command()
@click.option("--phases", required=True,
              help="Comma-separated azimuths of xy-plane pi pulses, in application order.")
@click.option("--output", type=click.Path(dir_okay=False), default=None)
def reduce(phases, output):
    """Collapse a product of xy-plane pi pulses to a single rotation."""
    try:
        values = [parse_angle(p) for p in phases.split(",") if p.strip()]
        vector = sequences.reduce_pi_pulse_product(values)
    except (ValueError, click.BadParameter) as exc:
        _fail(type(exc).__name__, str(exc))
    if len(values) % 2 == 0:
        doc = {"kind": "z-rotation", "vector": list(vector)}
    else:
        doc = {
            "kind": "pi-pulse",
            "theta": float(np.pi),
            "phi": float(np.arctan2(vector[1], vector[0]) % (2 * np.pi)),
            "vector": list(vector),
        }
    _emit(dumps(doc), output)


if __name__ == "__main__":
    main()
