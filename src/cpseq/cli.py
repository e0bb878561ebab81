"""Command-line front end.

Subcommands: synth, verify, landscape, phase, scaling, reduce.  Angles on
the command line accept decimal radians or ``pi`` fractions (``pi``,
``pi/2``, ``3pi/4``, ``-pi/3``, ``2*pi/3``).  All outputs are deterministic:
identical invocations produce identical bytes.  Exit codes: 0 success,
2 usage or parse failure, 3 verification failure.  Each option in
``_OPTIONS`` is given at most once, and takes the next argument as its
value, even one starting with '-'.  ``--input`` excludes the sequence
options ``--family``, ``--theta``, ``--phi`` and ``--winding``.

An option's value is converted, not judged: the library function or the
``open()`` that uses it refuses it, with its own message.  The converters
check only what no library function sees: that an angle parses and is
finite, the shape of a winding, a strength range or a phase list, and the
``--format`` name.

Every command, ``--help`` and ``--version`` included, returns ``(result,
exit code)`` and writes nothing: the result is a JSON document or, for CSV
and usage text, a string.  ``main`` alone renders the result, writes it to
stdout or ``--output``, and refuses: an exception in ``_REFUSALS``
(``UsageError``, ``ValueError``, ``OSError``, ``RecursionError``,
``MemoryError``, ``SynthesisError``) raised while parsing, running,
rendering or writing becomes one JSON document ``{"error": {"type": ...,
"message": ...}}`` on stderr and exit 2.  Any other exception is a bug and
propagates.

A command imports only what it runs: ``synth`` and ``reduce`` load
``sequences`` (with ``su2``) and ``ioutil``; ``verify`` adds
``error_model``; ``phase`` and ``scaling`` add ``analysis``; ``landscape``
adds numpy; ``json`` is loaded only to read ``--input``.
"""

from __future__ import annotations

import math
import re
import sys
from contextlib import nullcontext
from functools import partial
from types import SimpleNamespace

from . import __version__, sequences
from .ioutil import dumps

_PI_FORM = re.compile(
    r"^(?P<coef>[+-]?(?:\d+\.?\d*|\.\d+)?)\s*\*?\s*pi\s*(?:/\s*(?P<den>\d+\.?\d*))?$",
    re.IGNORECASE,
)


class UsageError(Exception):
    """A command line that cannot run as given."""


class BadParameter(UsageError):
    """A command-line value that does not parse."""


# What ``main`` refuses.  MemoryError: a --res grid too large to allocate;
# RecursionError: an --input document nested too deeply to decode.
_REFUSALS = (UsageError, ValueError, OSError, RecursionError, MemoryError, sequences.SynthesisError)


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
        raise BadParameter(f"cannot parse angle {text!r}") from None
    if not math.isfinite(angle):
        raise BadParameter(f"angle must be finite, got {text!r}")
    return angle


# ---- option values: each raises ValueError with the reason it refuses ----------


def _winding(text: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"winding must be three comma-separated integers, got {text!r}") from None
    if len(parts) != 3:
        raise ValueError(f"winding must have exactly three entries, got {text!r}")
    return parts


def _range(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"range must be 'lo,hi', got {text!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"range bounds must be finite, got {text!r}")
    if not lo < hi:
        raise ValueError(f"range must be increasing, got {text!r}")
    return lo, hi


def _choice(text: str, choices) -> str:
    if text not in choices:
        raise ValueError(f"{text!r} is not one of {', '.join(map(repr, choices))}.")
    return text


def _phases(text: str) -> list[float]:
    return [parse_angle(p) for p in text.split(",") if p.strip()]


_SEQUENCE = ("synth", "verify", "landscape", "phase", "scaling")
_DOCUMENT = ("verify", "landscape", "phase", "scaling")

# flag: (converter, default, the commands that take it, help line)
_OPTIONS = {
    "--family": (str, None, _SEQUENCE, f"Sequence family: {', '.join(sequences._REGISTRY)}."),
    "--theta": (parse_angle, None, _SEQUENCE, "Target rotation angle (radians; pi forms accepted)."),
    "--phi": (parse_angle, 0.0, _SEQUENCE, "Target axis azimuth (radians; default 0)."),
    "--winding": (_winding, None, _SEQUENCE, "Winding integers n1,n2,n3 for CORPSE-based families."),
    "--eps-range": (_range, (-0.1, 0.1), ("landscape",), "Pulse-length strength range lo,hi."),
    "--eps-prime-range": (_range, (-0.1, 0.1), ("landscape",), "Off-resonance strength range lo,hi."),
    "--res": (int, 201, ("landscape",), "Samples per axis (default 201)."),
    "--format": (partial(_choice, choices=("csv", "json")), "csv", ("landscape",), "csv (default) or json."),
    "--axis": (str, "eps", ("scaling",), "Strength axis: eps, eps-prime or diagonal (default eps)."),
    "--phases": (_phases, None, ("reduce",), "Comma-separated azimuths of xy-plane pi pulses (required)."),
    "--input": (str, None, _DOCUMENT, "Read the sequence from this JSON file (- for stdin)."),
    "--output": (str, None, (*_SEQUENCE, "reduce"), "Write the result here instead of stdout."),
}


# ---- commands: each takes the parsed options and returns (result, exit code) ---


def _synthesize(family: str, theta: float | None, phi: float, winding) -> sequences.PulseSequence:
    row = sequences._REGISTRY.get(family)  # None: synthesize refuses the name
    if theta is None and row is not None:
        lo, hi, _ = row.domain
        if lo != hi:
            raise UsageError(f"--theta is required for family {family!r}")
        theta = lo  # a one-point domain needs no --theta
    return sequences.synthesize(family, theta, phi, winding)


def _sequence(opts) -> sequences.PulseSequence:
    """The sequence read from ``--input``, or synthesized from ``--family``."""
    if opts.input is not None:
        import json

        if opts.input == "-":
            doc = json.load(sys.stdin)
        else:
            with open(opts.input, encoding="utf-8") as fh:
                doc = json.load(fh)
        return sequences.sequence_from_dict(doc)
    if opts.family is None:
        raise UsageError("provide either --input or --family")
    return _synthesize(opts.family, opts.theta, opts.phi, opts.winding)


def synth(opts):
    """Synthesize a pulse sequence and emit it as JSON."""
    if opts.family is None:
        raise UsageError("--family is required")
    return sequences.sequence_to_dict(_synthesize(opts.family, opts.theta, opts.phi, opts.winding)), 0


def verify(opts):
    """Check first-order robustness claims; exit 3 when a declared channel fails."""
    from . import error_model

    seq = _sequence(opts)
    row = sequences._REGISTRY.get(seq.family)  # None for a "custom" document
    declared = row.declared if row else ()
    units = error_model._UNITS
    channels = {}
    for (name, unit), g in zip(units.items(), error_model._generators(seq, units.values())):
        norm, fd = error_model._norm(g), error_model._fd_vector(seq, unit)
        channels[name] = {
            "norm": norm,
            "robust": norm <= sequences.ROBUST_TOL,
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
        "tolerance": sequences.ROBUST_TOL,
        "channels": channels,
        "passed": passed,
    }
    return doc, 0 if passed else 3


def landscape(opts):
    """Sample the fidelity landscape over an error-strength rectangle."""
    from . import analysis

    grid = analysis.landscape(_sequence(opts), opts.eps_range, opts.eps_prime_range, opts.res)
    if opts.format == "csv":
        return analysis.landscape_csv(grid), 0
    doc = {
        "family": grid.family,
        "eps": grid.eps_values,
        "eps_prime": grid.eps_prime_values,
        "fidelity": grid.fidelity,
    }
    return doc, 0


def phase(opts):
    """Report total, dynamical and geometric phases of the cyclic states."""
    from . import analysis

    seq = _sequence(opts)
    rows, _, degenerate = analysis._phases(seq)
    doc = {
        "family": seq.family,
        "degenerate": degenerate,
        "states": [{"total": t, "dynamical": d, "geometric": g} for t, d, g in rows],
    }
    return doc, 0


def scaling(opts):
    """Fit the log-log infidelity slope along one strength axis."""
    from . import analysis

    seq = _sequence(opts)
    slope, intercept, kept, dropped = analysis._ladder(seq, opts.axis)
    doc = {
        "family": seq.family,
        "axis": opts.axis,
        "slope": slope,
        "intercept": intercept,
        "points": [{"strength": s, "infidelity": f} for s, f in kept],
        "dropped": list(dropped),
    }
    return doc, 0


def reduce(opts):
    """Collapse a product of xy-plane pi pulses to a single rotation."""
    vector = sequences._reduce(opts.phases)
    if len(opts.phases) % 2 == 0:
        doc = {"kind": "z-rotation", "vector": list(vector)}
    else:
        doc = {
            "kind": "pi-pulse",
            "theta": math.pi,
            "phi": sequences._azimuth(math.atan2(vector[1], vector[0])),
            "vector": list(vector),
        }
    return doc, 0


_COMMANDS = {command.__name__: command for command in (synth, verify, landscape, phase, scaling, reduce)}


def _help(prog: str, command: str | None) -> str:
    """The usage of ``command``, or of the program when it is None."""
    if command is None:
        rows = [(name, run.__doc__.splitlines()[0]) for name, run in _COMMANDS.items()]
    else:
        rows = [(flag, line) for flag, (_, _, names, line) in _OPTIONS.items() if command in names]
    width = max(len(key) for key, _ in rows) + 2
    lines = [f"usage: {prog} {command or '[--version] COMMAND'} [--help] [--OPTION VALUE]...", "",
             (_COMMANDS.get(command) or main).__doc__.splitlines()[0], ""]
    return "\n".join(lines + [f"  {key:<{width}}{line}" for key, line in rows])


def _parse(argv, prog: str):
    """The command that ``argv`` runs, bound to its options, and its ``--output``;
    unknown arguments are refused last."""
    command, given, unknown = None, {}, []
    args = iter(argv)
    for arg in args:
        flag, attached, value = arg.partition("=")
        if command is None and not arg.startswith("-"):
            if arg not in _COMMANDS:
                raise UsageError(f"argument COMMAND: invalid choice: {arg!r} "
                                 f"(choose from {', '.join(map(repr, _COMMANDS))})")
            command = arg
        elif arg == "--help" or (arg == "--version" and command is None):
            text = _help(prog, command) if arg == "--help" else f"{prog}, version {__version__}"
            return (lambda: (text, 0)), None
        elif flag in _OPTIONS and command in _OPTIONS[flag][2]:
            if flag in given:
                raise UsageError(f"argument {flag}: given more than once")
            if not attached and (value := next(args, None)) is None:
                raise UsageError(f"argument {flag}: expected one argument")
            try:
                given[flag] = _OPTIONS[flag][0](value)
            except (ValueError, UsageError) as exc:
                raise BadParameter(f"Invalid value for '{flag}': {exc}") from None
        elif arg.startswith("--") and not attached and arg != "--version":
            # an unknown option takes its value too, and is named with it
            unknown.append(arg if (value := next(args, None)) is None else f"{arg}={value}")
        else:
            unknown.append(arg)
    if command is None:
        raise UsageError("the following arguments are required: COMMAND")
    if command == "reduce" and "--phases" not in given:
        raise UsageError("the following arguments are required: --phases")
    if "--input" in given and (flags := [f for f in ("--family", "--theta", "--phi", "--winding") if f in given]):
        raise UsageError(f"provide either --input or --family, not --input with {flags[0]}")
    if unknown:
        raise UsageError(f"unrecognized arguments: {' '.join(unknown)}")
    opts = SimpleNamespace(**{flag[2:].replace("-", "_"): given.get(flag, default)
                              for flag, (_, default, names, _) in _OPTIONS.items() if command in names})
    return partial(_COMMANDS[command], opts), opts.output


def main(args=None, prog_name=None, standalone_mode=True):
    """Composite pulse synthesis and robustness verification for SU(2) gates.

    Runs the command line ``args`` (``sys.argv[1:]`` by default) and exits
    with its code; with ``standalone_mode=False`` returns the code instead.
    """
    try:
        run, output = _parse(sys.argv[1:] if args is None else args, prog_name or "cpseq")
        result, code = run()
        text = result if isinstance(result, str) else dumps(result)
        # the text and its newline are written apart: text + "\n" would copy a landscape's text
        with open(output, "w", encoding="utf-8", newline="\n") if output else nullcontext(sys.stdout) as fh:
            fh.writelines((text, "" if output and text.endswith("\n") else "\n"))
    except _REFUSALS as exc:
        kind = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__  # numpy's is a subclass
        sys.stderr.write(dumps({"error": {"type": kind, "message": str(exc)}}) + "\n")
        code = 2
    if standalone_mode:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
