"""The timed units of work and the checks on their outputs.

A ``Bench`` runs CLI commands, atlas items, moment operations and grid items
against the cpseq modules it is given, times only the calls into cpseq, and
checks every output with ``reference`` outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference as ref
from workloads import AXES, Command, GridItem, Target

# Wrong results the ROADMAP already lists under verify strictness, and the
# scaling ladder refusal.  They are counted as failures like any other; only
# a failure outside this list makes a run incorrect.
KNOWN_DEFECTS = {
    "verify-declared-target-mismatch":
        "verify exits 0 for a document whose pulses miss its declared target; expected 3",
    "verify-empty-pulses":
        'verify ends in a traceback (exit 1) for "pulses": []; expected exit 2 with a JSON error',
    "scaling-unresolved-ladder-traceback":
        "scaling ends in a traceback when fewer than 2 ladder points resolve; expected exit 2",
}
LADDER_REFUSAL = "fewer than 2 ladder points"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def auto_threads() -> int:
    """Landscape's threads=0 means min(cpu_count, 4); keep it within nproc."""
    return 0 if min(os.cpu_count() or 1, 4) <= nproc() else nproc()


@dataclass
class Outcome:
    code: int
    stdout: str
    stderr: str
    seconds: float


@dataclass
class Tally:
    """Operations attempted and the named failures among them."""

    attempted: int = 0
    failed: int = 0
    failures: Counter = field(default_factory=Counter)
    examples: dict = field(default_factory=dict)  # failure name -> first inputs that hit it

    def record(self, fails: list[str], what=None):
        self.attempted += 1
        if fails:
            self.failed += 1
            self.failures.update(set(fails))
            for name in set(fails):
                cases = self.examples.setdefault(name, [])
                if len(cases) < 3:
                    cases.append(repr(what))

    @property
    def unexpected(self) -> dict:
        return {k: v for k, v in self.failures.items() if k not in KNOWN_DEFECTS}


class NoTrace:
    """Stand-in for the tracer in untraced runs."""

    def unit(self, item_id: int):
        return contextlib.nullcontext()

    def span(self, name: str):
        return contextlib.nullcontext()

    def count_error(self, layer: str):
        pass


def grid_document(grid) -> dict:
    """The JSON document ``cpseq landscape --format json`` renders."""
    return {
        "family": grid.family,
        "eps": list(grid.eps_values),
        "eps_prime": list(grid.eps_prime_values),
        "fidelity": [list(row) for row in grid.fidelity],
    }


def parse_grid_text(text: str, fmt: str):
    """Axes and fidelity array of a rendered landscape (CSV or JSON)."""
    if fmt == "json":
        doc = json.loads(text)
        return np.array(doc["eps"]), np.array(doc["eps_prime"]), np.array(doc["fidelity"])
    lines = text.split("\n")
    if lines[0] != "eps,eps_prime,fidelity" or lines[-1] != "":
        raise ValueError("not landscape CSV")
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:-1]])
    eps, eps_prime = np.unique(rows[:, 0]), np.unique(rows[:, 1])
    return eps, eps_prime, rows[:, 2].reshape(len(eps), len(eps_prime))


def _error_json(stderr: str) -> bool:
    try:
        return "error" in json.loads(stderr)
    except ValueError:
        return False


class Bench:
    """Runs and checks units of work; keeps the timings each metric needs."""

    def __init__(self, cp, seed: int, root: Path, tracer=None):
        self.cp = cp  # namespace with the cpseq modules, read at call time
        self.root = root
        self.rng = np.random.default_rng(seed)  # picks the cells a check samples
        self.trace = tracer or NoTrace()
        self.tally = Tally()
        self.synth = cp.sequences.synthesize  # unwrapped: used to build check inputs
        self.item_id = 0
        self.item_kind: dict[int, str] = {}
        self.cli_s: list[float] = []
        self.cli_peak_rss_kb = 0
        self.item_s: list[float] = []
        self.moment_ops, self.moment_s = 0, 0.0
        self.tier_cells: Counter = Counter()  # array cells per grid tier
        self.tier_s: Counter = Counter()
        self.text_cells, self.text_s = 0, 0.0
        self._unpaired: dict = {}  # array grids waiting for their other thread count

    def busy(self, *kinds: str) -> float:
        """Seconds spent inside timed units of the given kinds."""
        seconds = {"cli": sum(self.cli_s), "atlas": sum(self.item_s), "moment": self.moment_s,
                   "grid": sum(self.tier_s.values()), "text": self.text_s}
        return sum(seconds[k] for k in kinds)

    def _unit(self, kind: str):
        self.item_id += 1
        self.item_kind[self.item_id] = kind
        return self.trace.unit(self.item_id)

    # ---- CLI ---------------------------------------------------------------

    def _prepare(self, cmd: Command):
        if "document" in cmd.extra:
            Path(cmd.extra["path"]).write_text(json.dumps(cmd.extra["document"]), encoding="utf-8")

    def cli_subprocess(self, cmd: Command, launcher, env: dict):
        """One ``python -m cpseq.cli`` process, started by the launcher."""
        self._prepare(cmd)
        reply = launcher.run([sys.executable, "-m", "cpseq.cli", *cmd.args], str(self.root), env)
        out = Outcome(reply["code"], reply["stdout"], reply["stderr"], reply["seconds"])
        self.cli_peak_rss_kb = reply["peak_rss_kb"]
        self.cli_s.append(out.seconds)
        self.tally.record(self.check_command(cmd, out), cmd.args)

    def cli_inprocess(self, cmd: Command):
        """The same command through cpseq.cli.main(..., standalone_mode=False)."""
        import click

        self._prepare(cmd)
        stdout, stderr = io.StringIO(), io.StringIO()
        crashed = False
        with self._unit("cli"), self.trace.span(f"cli.{cmd.subcommand}"):
            start = time.perf_counter()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    rv = self.cp.cli.main(cmd.args, prog_name="cpseq", standalone_mode=False)
                    code = rv if isinstance(rv, int) else 0
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
                except click.ClickException as exc:
                    exc.show()
                    code = exc.exit_code
                except Exception:
                    traceback.print_exc()
                    code, crashed = 1, True
            seconds = time.perf_counter() - start
        if crashed:
            self.trace.count_error("cli")
        self.cli_s.append(seconds)
        self.tally.record(self.check_command(cmd, Outcome(code, stdout.getvalue(), stderr.getvalue(), seconds)),
                          cmd.args)

    def _vectors_for(self, t: Target) -> list[np.ndarray]:
        seq = self.synth(t.family, t.theta, t.phi)
        vectors = ref.vectors_of(seq)
        if ref.check_sequence(t.family, t.theta, t.phi, vectors):
            raise ValueError("synthesized pulses do not make the target")
        return vectors

    def check_command(self, cmd: Command, out: Outcome) -> list[str]:
        try:
            return self._check_command(cmd, out)
        except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
            return [f"cli-{cmd.kind}-unreadable-{type(exc).__name__}"]

    def _check_command(self, cmd: Command, out: Outcome) -> list[str]:
        kind, t = cmd.kind, cmd.target
        if kind == "defect-mismatch":
            doc = cmd.extra["document"]
            made = ref.product(ref.pulses_of(doc["pulses"]))
            if ref.gate_fidelity(made, ref.rot(ref.xy(t.theta, t.phi))) > 1 - 1e-6:
                return ["defect-mismatch-document-matches"]
            return [] if out.code == 3 else ["verify-declared-target-mismatch"]
        if kind == "defect-empty":
            return [] if out.code == 2 and _error_json(out.stderr) else ["verify-empty-pulses"]
        if kind.startswith("refusal"):
            if not ref.refusal_applies(t.family, t.theta, cmd.extra["winding"]):
                return [f"cli-{kind}-not-out-of-domain"]
            return [] if out.code == 2 and _error_json(out.stderr) else [f"cli-{kind}-exit{out.code}"]
        if kind == "scaling" and out.code != 0 and LADDER_REFUSAL in out.stderr:
            vectors = self._vectors_for(t)
            axis = cmd.extra["axis"]
            fails = ref.check_refusal_of_scaling(t.family, vectors, ref.rot(ref.xy(t.theta, t.phi)), axis)
            if not fails and not (out.code == 2 and _error_json(out.stderr)):
                fails = ["scaling-unresolved-ladder-traceback"]
            return fails
        if out.code != 0:
            return [f"cli-{kind}-exit{out.code}"]

        if kind == "reduce":
            doc = json.loads(out.stdout)
            phases = cmd.extra["phases"]
            if doc["kind"] != ("z-rotation" if len(phases) % 2 == 0 else "pi-pulse"):
                return ["cli-reduce-kind"]
            gap = np.abs(ref.reduced_product(phases) - ref.rot(doc["vector"])).max()
            return [] if gap <= 1e-9 else ["cli-reduce-vector"]
        if kind in ("synth", "synth-output"):
            text = out.stdout if kind == "synth" else Path(cmd.extra["path"]).read_text(encoding="utf-8")
            doc = json.loads(text)
            fails = ref.check_sequence(t.family, t.theta, t.phi, ref.pulses_of(doc["pulses"]))
            if doc["family"] != t.family or doc["target"] != {"theta": t.theta, "phi": t.phi}:
                fails.append(f"cli-{kind}-target")
            return fails
        if kind == "verify-input":
            doc = json.loads(Path(cmd.extra["path"]).read_text(encoding="utf-8"))
            vectors = ref.pulses_of(doc["pulses"])
        else:
            vectors = self._vectors_for(t)
        if kind == "landscape":
            res, fmt = cmd.extra["resolution"], cmd.extra["format"]
            text = out.stdout[:-1] if fmt == "csv" else out.stdout  # echo adds a newline
            eps, eps_prime, F = parse_grid_text(text, fmt)
            return ref.check_grid(t.family, vectors, ref.rot(ref.xy(t.theta, t.phi)), eps, eps_prime,
                                  F, res, self.rng)
        doc = json.loads(out.stdout)
        if kind in ("verify", "verify-input"):
            fails = []
            channels = doc["channels"]
            norms = {ch: channels[ch]["norm"] for ch in ("pulse_length", "off_resonance")}
            fails += ref.check_channels(t.family, vectors, norms)
            own = ref.gate_fidelity(ref.product(vectors), ref.rot(ref.xy(t.theta, t.phi)))
            if doc["pulses"] != len(vectors) or not ref.near(doc["product_fidelity"], own, 1e-12):
                fails.append(f"cli-{kind}-product")
            if any(ch["fd_gap"] > ref.FD_GAP for ch in channels.values()) or doc["passed"] is not True:
                fails.append(f"cli-{kind}-report")
            return fails
        if kind == "phase":
            states = doc["states"]
            return ref.check_phases(t.family, vectors, [s["total"] for s in states],
                                    [s["dynamical"] for s in states], [s["geometric"] for s in states])
        if kind == "scaling":
            pts = doc["points"]
            return ref.check_scaling(t.family, vectors, ref.rot(ref.xy(t.theta, t.phi)), cmd.extra["axis"],
                                     [p["strength"] for p in pts], [p["infidelity"] for p in pts],
                                     doc["slope"])
        raise KeyError(kind)

    # ---- atlas ---------------------------------------------------------------

    def atlas_item(self, t: Target):
        """synthesize -> first-order error -> FD oracle -> phases -> scaling on all axes."""
        em, an = self.cp.error_model, self.cp.analysis
        tol = ref.FAMILIES[t.family].tolerance
        fits = {}
        try:
            with self._unit("atlas"):
                start = time.perf_counter()
                seq = self.cp.sequences.synthesize(t.family, t.theta, t.phi)
                report = em.first_order_error(seq, em.ErrorChannel.combined(0.0, 0.0), tolerance=tol)
                fd_len = em.finite_difference_generator(seq, em.ErrorChannel.pulse_length(1.0))
                fd_det = em.finite_difference_generator(seq, em.ErrorChannel.off_resonance(1.0))
                phases = an.phase_decomposition(seq)
                for axis in AXES:
                    try:
                        fits[axis] = an.infidelity_scaling(seq, axis)
                    except ValueError as exc:
                        fits[axis] = exc
                seconds = time.perf_counter() - start
        except Exception as exc:  # a crash is one failed item, not a failed run
            self.tally.record([f"atlas-{t.family}-{type(exc).__name__}"], t)
            return
        self.item_s.append(seconds)

        vectors = ref.vectors_of(seq)
        target = ref.rot(ref.xy(t.theta, t.phi))
        fails = ref.check_sequence(t.family, t.theta, t.phi, vectors)
        fails += ref.check_channels(
            t.family, vectors,
            {"pulse_length": report.pulse_length_norm, "off_resonance": report.off_resonance_norm},
            coefficients={"pulse_length": report.pulse_length_coefficient,
                          "off_resonance": report.off_resonance_coefficient},
            fd={"pulse_length": fd_len, "off_resonance": fd_det})
        fails += ref.check_phases(t.family, vectors, phases.total, phases.dynamical, phases.geometric)
        for axis, fit in fits.items():
            if isinstance(fit, ValueError):
                if LADDER_REFUSAL in str(fit):
                    fails += ref.check_refusal_of_scaling(t.family, vectors, target, axis)
                else:
                    fails.append(f"{t.family}-scaling-{axis}-error")
            else:
                fails += ref.check_scaling(t.family, vectors, target, axis, fit.strengths,
                                           fit.infidelities, fit.slope)
        self.tally.record(fails, t)

    def moment_op(self, t: Target):
        seq = self.synth(t.family, t.theta, t.phi)
        try:
            with self._unit("moment"):
                start = time.perf_counter()
                moments = self.cp.error_model.error_moment_integrals(seq)
                seconds = time.perf_counter() - start
        except Exception as exc:
            self.tally.record([f"moments-{t.family}-{type(exc).__name__}"], t)
            return
        self.moment_ops += 1
        self.moment_s += seconds
        self.tally.record(ref.check_moments(t.family, ref.vectors_of(seq), moments.first_moment,
                                            moments.second_moment), t)

    # ---- landscape -----------------------------------------------------------

    def grid_item(self, item: GridItem):
        """One landscape call, then robust_area (array item) or rendering (text item)."""
        an = self.cp.analysis
        t = item.target
        seq = self.synth(t.family, t.theta, t.phi)
        threads = auto_threads() if item.threads == 0 else item.threads
        kind = "grid" if item.fmt is None else "text"
        try:
            with self._unit(kind):
                start = time.perf_counter()
                grid = an.landscape(seq, resolution=item.resolution, threads=threads)
                if item.fmt is None:
                    area = an.robust_area(grid, item.threshold)
                elif item.fmt == "csv":
                    text = an.landscape_csv(grid)
                else:
                    text = self.cp.ioutil.dumps(grid_document(grid))
                seconds = time.perf_counter() - start
        except Exception as exc:
            self.tally.record([f"{kind}-{t.family}-{type(exc).__name__}"], item)
            return

        vectors = ref.vectors_of(seq)
        fails = ref.check_grid(t.family, vectors, ref.rot(ref.xy(t.theta, t.phi)), grid.eps_values,
                               grid.eps_prime_values, grid.fidelity, item.resolution, self.rng)
        if item.fmt is None:
            self.tier_cells[item.tier] += grid.fidelity.size
            self.tier_s[item.tier] += seconds
            fails += ref.check_area(t.family, grid.fidelity, item.threshold, area)
            # The same grid at the other thread count must match bit for bit.
            key = (t, item.resolution)
            other = self._unpaired.pop(key, None)
            if other is None:
                self._unpaired[key] = grid.fidelity
            elif not np.array_equal(other, grid.fidelity):
                fails.append(f"{t.family}-grid-threads-differ")
        else:
            self.text_cells += grid.fidelity.size
            self.text_s += seconds
            check = ref.check_csv if item.fmt == "csv" else ref.check_json_grid
            fails += check(t.family, text, grid.eps_values, grid.eps_prime_values, grid.fidelity, self.rng)
        self.tally.record(fails, item)
