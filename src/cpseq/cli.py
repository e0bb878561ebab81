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

from . import analysis, error_model, sequences
from .ioutil import dumps

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
            angle = coef * math.pi / float(match.group("den") or 1)
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
        try:
            with open(output, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text if text.endswith("\n") else text + "\n")
        except OSError as exc:
            _fail(type(exc).__name__, str(exc))
    else:
        click.echo(text)


def _synthesize(family: str, theta: float | None, phi: float, winding) -> sequences.PulseSequence:
    if theta is None:
        lo, hi, _ = sequences._REGISTRY[family].domain
        if lo != hi:
            raise click.UsageError(f"--theta is required for family {family!r}")
        theta = lo  # a one-point domain needs no --theta
    try:
        return sequences.synthesize(family, theta, phi, winding)
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
    click.option("--family", type=click.Choice(list(sequences._REGISTRY)), default=None,
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
    row = sequences._REGISTRY.get(seq.family)  # None for a "custom" document
    tol, declared = (row.tolerance, row.declared) if row else (1e-10, ())
    units = {name: getattr(error_model.ErrorChannel, name)(1.0) for name in ("pulse_length", "off_resonance")}
    channels = {}
    for (name, unit), g in zip(units.items(), error_model._generators(seq, units.values())):
        norm, fd = error_model._norm(g), error_model._fd_vector(seq, unit, 1e-5)
        channels[name] = {
            "norm": norm,
            "robust": norm <= tol,
            "declared": name in declared,
            "fd_gap": error_model._norm([a - b for a, b in zip(g, fd)]),
        }
    product_fidelity = seq._fidelity()
    # A sequence must implement the target it declares before any channel
    # claim means anything; synthesis guarantees 1 - 1e-12.
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
    except MemoryError as exc:  # numpy's subclass names itself _ArrayMemoryError
        _fail("MemoryError", str(exc))
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
    rows, _, degenerate = analysis._phases(seq)
    doc = {
        "family": seq.family,
        "degenerate": degenerate,
        "states": [{"total": t, "dynamical": d, "geometric": g} for t, d, g in rows],
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
    try:
        slope, intercept, kept, dropped = analysis._ladder(seq, axis, analysis.DEFAULT_SCALING_LADDER)
    except ValueError as exc:
        _fail(type(exc).__name__, str(exc))
    doc = {
        "family": seq.family,
        "axis": axis,
        "slope": slope,
        "intercept": intercept,
        "points": [{"strength": s, "infidelity": f} for s, f in kept],
        "dropped": list(dropped),
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
        vector = sequences._reduce(values)
    except (ValueError, click.BadParameter) as exc:
        _fail(type(exc).__name__, str(exc))
    if len(values) % 2 == 0:
        doc = {"kind": "z-rotation", "vector": list(vector)}
    else:
        doc = {
            "kind": "pi-pulse",
            "theta": math.pi,
            "phi": sequences._azimuth(math.atan2(vector[1], vector[0])),
            "vector": list(vector),
        }
    _emit(dumps(doc), output)


if __name__ == "__main__":
    main()
