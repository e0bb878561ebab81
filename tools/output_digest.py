"""One SHA-256 over cpseq's outputs, to show that a change keeps every byte.

    python tools/output_digest.py SRC [--each]

SRC is the directory that holds the ``cpseq`` package (``src`` of a
checkout).  The digest covers a fixed list of items:

- CLI command lines run in process through ``cpseq.cli.main``, each item its
  exit code, stdout and stderr: ``synth``, ``verify`` (also reading ``synth``'s
  document on stdin), ``phase`` and ``scaling`` on all three axes for every
  registry family over a theta grid at two azimuths, CORPSE windings,
  landscapes in CSV and JSON (small ones per family, one at 201^2 and a
  wide-range one at 101^2), ``reduce``, help, version and refusals;
- library arrays, each item its dtype, shape and bytes: the first-order
  report, the finite-difference oracle and the perturbed propagator under
  the unit, combined and a general (f, F) channel, the moment integrals,
  phases, fidelities, propagator and target of each sequence, an empty
  sequence's, and ``rotation_generator`` on floats and on a batch.

Run it on two checkouts: equal digests mean equal bytes for every item.
``--each`` prints each item's own digest and label first, so that two lists
can be compared line by line to find the items that differ.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import sys
from pathlib import Path
from unittest import mock

THETAS = (0.0, 0.3, 1.0, 1.3, math.pi / 2, 2.0, 2.5, 3.0, math.pi, 3.7, 5.0, 2 * math.pi)
PHIS = (0.0, -0.7)
LIBRARY_THETAS = (0.3, 1.3, math.pi, 3.7)
# a channel with every entry of f and F nonzero and no symmetry
GENERAL = ((0.3, -0.2, 0.7), ((0.1, 0.5, -0.3), (0.2, -0.4, 0.6), (0.9, 0.05, -0.15)))


def cli_items(main, registry):
    """(label, bytes) of each command line, run in process."""

    def run(args, stdin=""):
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.object(sys, "stdin", io.StringIO(stdin)), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(args), prog_name="cpseq", standalone_mode=False)
        return code, out.getvalue(), err.getvalue()

    def item(args, stdin=""):
        code, out, err = run(args, stdin)
        label = " ".join(args) + (" < synth" if stdin else "")
        return label, f"{code}\0{out}\0{err}".encode()

    for name, row in registry.items():
        lo, hi, _ = row.domain
        for theta in (lo,) if lo == hi else THETAS:
            for phi in PHIS:
                target = ["--family", name, "--theta", repr(theta), "--phi", repr(phi)]
                yield item(["synth", *target])
                code, document, _ = run(["synth", *target])
                if code == 0:
                    yield item(["verify", "--input", "-"], document)
                yield item(["verify", *target])
                yield item(["phase", *target])
                for axis in ("eps", "eps-prime", "diagonal"):
                    yield item(["scaling", *target, "--axis", axis])
        theta = repr(lo if lo == hi else 1.3)
        for fmt in ("csv", "json"):
            yield item(["landscape", "--family", name, "--theta", theta, "--res", "21", "--format", fmt])
        yield item(["landscape", "--family", name, "--theta", theta, "--res", "17",
                    "--eps-range", "-0.3,0.05", "--eps-prime-range", "0.01,0.2"])
    # the paper's figure at the CLI's default resolution, and a wide grid whose cells fall
    # below 1e-4 into exponent form and whose axes hold values near zero
    for fmt in ("csv", "json"):
        yield item(["landscape", "--family", "cis-cccp", "--theta", "pi", "--res", "201", "--format", fmt])
        yield item(["landscape", "--family", "cis-cccp", "--theta", "pi", "--res", "101", "--format", fmt,
                    "--eps-range", "-1.5,1.5", "--eps-prime-range", "-1.5,1.5"])
    for winding in ("1,2,1", "0,1,1", "2,3,1", "0,0,0"):
        for family in ("corpse", "cis-cccp"):
            yield item(["verify", "--family", family, "--theta", "1.3", "--winding", winding])
    for phases in ("0,pi/2,pi", "0.3,1.2", "pi/3"):
        yield item(["reduce", "--phases", phases])
    for args in (["--help"], ["--version"], ["synth", "--help"],
                 ["synth", "--family", "scrofulous", "--theta", "3.9"],
                 ["verify", "--family", "nope", "--theta", "1"],
                 ["scaling", "--family", "bb1", "--theta", "1", "--axis", "nope"],
                 ["landscape", "--family", "plain", "--theta", "1", "--res", "1"]):
        yield item(args)


def library_items(np):
    """(label, bytes) of each library array."""
    from cpseq import analysis, error_model, sequences, su2

    def item(label, value):
        a = np.ascontiguousarray(np.asarray(value))
        return label, f"{a.dtype.str}{a.shape}\0".encode() + a.tobytes()

    channels = {
        "pulse_length": error_model.ErrorChannel.pulse_length(0.01),
        "off_resonance": error_model.ErrorChannel.off_resonance(-0.02),
        "combined": error_model.ErrorChannel.combined(0.01, -0.02),
        "general": error_model.ErrorChannel(*GENERAL),
    }
    targets = [(name, theta, phi) for name, row in sequences._REGISTRY.items()
               for theta in ((row.domain[0],) if row.domain[0] == row.domain[1] else LIBRARY_THETAS)
               for phi in PHIS if row.admits(theta)]
    sequences_ = [(f"{n} {t!r} {p!r}", sequences.synthesize(n, t, p)) for n, t, p in targets]
    sequences_.append(("empty", sequences.PulseSequence("custom", [], (1.0, 0.0, 0.0, 0.0))))
    for label, seq in sequences_:
        for name, channel in channels.items():
            report = error_model.first_order_error(seq, channel)
            for field in ("generator", "pulse_length_coefficient", "off_resonance_coefficient",
                          "pulse_length_norm", "off_resonance_norm"):
                yield item(f"{label} first_order_error {name} {field}", getattr(report, field))
            yield item(f"{label} finite_difference_generator {name}",
                       error_model.finite_difference_generator(seq, channel))
            yield item(f"{label} perturbed_propagator {name}", error_model.perturbed_propagator(seq, channel))
        moments = error_model.error_moment_integrals(seq)
        yield item(f"{label} first_moment", moments.first_moment)
        yield item(f"{label} second_moment", moments.second_moment)
        phases = analysis.phase_decomposition(seq)
        for field in ("total", "dynamical", "geometric", "states", "degenerate"):
            yield item(f"{label} phase {field}", getattr(phases, field))
        yield item(f"{label} fidelity_under_error",
                   [analysis.fidelity_under_error(seq, e, p) for e, p in ((0.03, -0.02), (0.0, 0.1), (-0.2, 0.0))])
        yield item(f"{label} propagator", seq.propagator())
        yield item(f"{label} target", seq.target)
    vectors = [(0.0, -0.0, 0.0), (-0.0, 0.0, -0.0), (0.3, -1.2, 2.5), (1e154, -3e153, 2e-300)]
    for v in vectors:
        yield item(f"rotation_generator {v!r}", su2.rotation_generator(v))
    yield item("rotation_generator batch", su2.rotation_generator(np.array(vectors).reshape(2, 2, 3)))


def main(argv) -> int:
    args = [a for a in argv if a != "--each"]
    if len(args) != 1:
        sys.stderr.write(__doc__)
        return 2
    src = Path(args[0]).resolve()
    sys.path.insert(0, str(src))
    import numpy as np

    import cpseq
    from cpseq import cli, sequences
    if Path(cpseq.__file__).resolve().parent != src / "cpseq":
        sys.stderr.write(f"cpseq was imported from {cpseq.__file__}, not from {src}\n")
        return 2
    total = hashlib.sha256()
    for label, data in (*cli_items(cli.main, sequences._REGISTRY), *library_items(np)):
        digest = hashlib.sha256(data).hexdigest()
        total.update(f"{label}\0{digest}\n".encode())
        if "--each" in argv:
            print(digest, label)
    print(total.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
