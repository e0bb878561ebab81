"""cpseq benchmark: three seeded workloads, checked outputs, one JSON result.

    python3 perfbench/run.py --workload {cli-cold,atlas,landscape} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the benchmark imports ``src/cpseq`` as it
stands and starts CLI commands with ``PYTHONPATH=src``.  With ``--trace 0``
the last line of standard output is the result with every end-to-end
metric; with ``--trace 1`` it holds the per-layer metrics of a traced run.
A copy of each result, the environment it ran in and the traced spans are
written under ``perfbench/_out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from importlib import metadata
from collections import Counter
from itertools import chain, islice
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"

WORKLOADS = ("cli-cold", "atlas", "landscape")
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {
    "setup_s": "s",
    "fail_ratio": "ratio",
    "peak_rss_mb": "MB",
    "cli_p50_ms": "ms",
    "cli_p90_ms": "ms",
    "atlas_items_per_s": "items/s",
    "atlas_item_p50_ms": "ms",
    "atlas_item_p90_ms": "ms",
    "moments_seq_per_s": "seq/s",
    "grid_cells_per_s": "cells/s",
    "text_cells_per_s": "cells/s",
}
FAMILIES = ("plain", "corpse", "scrofulous", "cis-cccp", "bb1", "alway-jones", "scrofulous-in-corpse")
SUBCOMMANDS = ("synth", "verify", "phase", "scaling", "reduce", "landscape")
PER_LAYER = {
    "process.spawn_ms": "ms",
    "import.cpseq_cli_ms": "ms",
    "import.scipy_ms": "ms",
    "import.numpy_ms": "ms",
    **{f"cli.{sub}.ms": "ms" for sub in SUBCOMMANDS},
    **{f"sequences.synthesize.{fam}.ms": "ms" for fam in FAMILIES},
    "sequences.synthesize.calls": "count",
    "sequences.synthesize.refused": "count",
    "error_model.first_order_error.ms": "ms",
    "error_model.finite_difference_generator.ms": "ms",
    "error_model.perturbed_propagator.calls": "count",
    "error_model.error_moment_integrals.ms_per_pulse": "ms",
    "su2.rotation.calls": "count",
    "su2.rotation.calls_per_atlas_item": "count",
    "su2.rotation.calls_per_moment_op": "count",
    "su2.rotation.ms": "ms",
    "su2.eig_unitary.ms": "ms",
    "analysis.infidelity_scaling.ms": "ms",
    "analysis.phase_decomposition.ms": "ms",
    "analysis.landscape.ms": "ms",
    "analysis.landscape.pulse_cells": "count",
    "analysis.landscape.computed_bytes": "B",
    "analysis.landscape_csv.ms": "ms",
    "ioutil.dumps.ms": "ms",
    "ioutil.dumps.bytes": "B",
    **{f"{layer}.self_ms": "ms" for layer in ("cli", "sequences", "error_model", "analysis", "su2", "ioutil")},
    **{f"{layer}.errors": "count"
       for layer in ("process", "cli", "sequences", "error_model", "analysis", "su2", "ioutil")},
    "trace.overhead_ratio": "ratio",
}

SETUP_REPEATS = 3
# A run is a fixed list of units, so its mix and its operation count depend
# only on the workload, the seed and --seconds.  NOMINAL_S is the wall time
# of one unit with its checks on a shared 2-vCPU Xeon VM; it sizes the list
# and is not a measurement.  Units: one CLI command, a round of atlas items,
# moment integrals, array grids or text grids.
NOMINAL_S = {"cli": 0.8, "atlas": 0.05, "moment": 1.6, "grid": 3.4, "text": 1.9}
# Share of the run each kind fills.  Every workload runs every kind, so every
# metric is measured on every workload; its own kinds get most of the time.
SHARES = {
    "cli-cold": {"cli": 0.65, "atlas": 0.05, "moment": 0.1, "grid": 0.1, "text": 0.1},
    "atlas": {"cli": 0.3, "atlas": 0.35, "moment": 0.15, "grid": 0.1, "text": 0.1},
    "landscape": {"cli": 0.3, "atlas": 0.05, "moment": 0.1, "grid": 0.35, "text": 0.2},
}
# The first eleven commands are CLI block 0, which holds the known-defect cases.
MINIMUM = {"cli": 11, "atlas": 1, "moment": 1, "grid": 1, "text": 1}
# Fixed work of a traced run, in the units of SHARES, so that counts repeat
# exactly; the traced run does it twice, once without spans.
TRACE_COUNTS = {
    "cli-cold": {"cli": 30, "atlas": 1, "moment": 1, "grid": 1, "text": 1},
    "atlas": {"cli": 11, "atlas": 8, "moment": 2, "grid": 1, "text": 1},
    "landscape": {"cli": 11, "atlas": 1, "moment": 1, "grid": 2, "text": 2},
}
# Units whose time is mostly Python calls, where the wrappers cost something;
# a landscape call is one span around seconds of numpy.
TRACED_KINDS = ("cli", "atlas", "moment")


def percentile(values, q: int) -> float:
    """q-th percentile, interpolated between closest ranks."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def environment(args, threads: int) -> dict:
    from phases import nproc

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "cpseq").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": nproc(), "cpu_count": os.cpu_count(), "landscape_auto_threads": threads,
        "python": platform.python_version(), "numpy": version("numpy"), "scipy": version("scipy"),
        "click": version("click"), "commit": commit, "src_sha256": digest.hexdigest(),
        **{k: os.environ[k] for k in PINNED},
    }


def child_env(threads: int) -> dict:
    return {**os.environ, "PYTHONPATH": "src", "PULSE_THREADS": str(threads)}


def import_cpseq():
    sys.path.insert(0, str(SRC))
    import cpseq
    import cpseq.cli

    if Path(cpseq.__file__).resolve().parent != SRC / "cpseq":
        raise ImportError(f"imported cpseq from {cpseq.__file__}, not from {SRC}")
    return cpseq


def namespace(cpseq) -> SimpleNamespace:
    return SimpleNamespace(sequences=cpseq.sequences, error_model=cpseq.error_model,
                           analysis=cpseq.analysis, ioutil=cpseq.ioutil, cli=cpseq.cli)


def warm_up(cp, seed: int, workdir: Path):
    """Run one unit of every kind, unmeasured, so lazy imports and caches settle."""
    from phases import Bench
    from workloads import GridItem, Target, atlas_rounds, cli_stream

    bench = Bench(cp, seed, ROOT)
    for cmd in next(cli_stream(seed, workdir)):
        bench.cli_inprocess(cmd)
    bench.atlas_item(next(atlas_rounds(seed, "atlas"))[0])
    target = Target("corpse", 1.0, 0.0)
    bench.moment_op(target)
    for fmt in (None, "csv", "json"):
        bench.grid_item(GridItem(target, 21, fmt=fmt))
    if bench.tally.unexpected:
        raise RuntimeError(f"warm-up failed its checks: {bench.tally.unexpected}")


def measure_setup(args, env: dict) -> float:
    """Median wall time of a fresh interpreter that imports cpseq and warms up."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", args.workload,
                        "--seed", str(args.seed)], cwd=ROOT, env=env, check=True, timeout=120)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# ---- untraced run ------------------------------------------------------------

def plan(workload: str, seconds: float) -> dict[str, int]:
    """Units of each kind in a run: about ``seconds`` of work at nominal cost."""
    return {kind: max(MINIMUM[kind], round(seconds * share / NOMINAL_S[kind]))
            for kind, share in SHARES[workload].items()}


def interleave(units: dict[str, list], late: tuple = ()) -> list[tuple[str, int]]:
    """Spread every kind's units evenly over the run; kinds in ``late`` over
    its second half only.

    Each metric then averages over the whole run, so a slow spell of a
    shared machine moves every metric a little instead of one metric a lot.
    """
    slots = []
    for kind, us in units.items():
        start, width = (0.5, 0.5) if kind in late else (0.0, 1.0)
        slots += [(start + width * (k + 0.5) / len(us), kind, k) for k in range(len(us))]
    return [(kind, k) for _, kind, k in sorted(slots)]


def build_units(seed: int, workdir: Path, counts: dict[str, int]) -> dict[str, list]:
    """The run's units, one per CLI command, atlas item, moment operation or grid.

    Counts are in whole rounds (commands for the CLI), so the mix is fixed."""
    from workloads import atlas_rounds, cli_stream, grid_rounds, text_rounds

    def rounds(stream, n):
        return list(chain.from_iterable(islice(stream, n)))

    return {
        "cli": list(islice(chain.from_iterable(cli_stream(seed, workdir)), counts["cli"])),
        "atlas": rounds(atlas_rounds(seed, "atlas"), counts["atlas"]),
        "moment": rounds(atlas_rounds(seed, "moments"), counts["moment"]),
        "grid": rounds(grid_rounds(seed), counts["grid"]),
        "text": rounds(text_rounds(seed), counts["text"]),
    }


def runner(bench, run_command) -> dict:
    """How to run one unit of each kind."""
    return {"cli": run_command, "atlas": bench.atlas_item, "moment": bench.moment_op,
            "grid": bench.grid_item, "text": bench.grid_item}


def untraced(args, cp, env: dict, workdir: Path, setup_s: float, launcher):
    """The end-to-end metrics of one run."""
    from phases import Bench

    counts = plan(args.workload, args.seconds)
    units = build_units(args.seed, workdir, counts)
    bench = Bench(cp, args.seed, ROOT)
    run = runner(bench, lambda cmd: bench.cli_subprocess(cmd, launcher, env))
    # The atlas workload reads its peak RSS before the first grid runs.
    late = ("grid", "text") if args.workload == "atlas" else ()
    rss = None
    for kind, k in interleave(units, late):
        if kind in late and rss is None:
            rss = peak_rss_mb(resource.RUSAGE_SELF)
        run[kind](units[kind][k])
    if args.workload == "cli-cold":
        rss = bench.cli_peak_rss_kb / 1024  # Linux reports KiB
    elif rss is None:
        rss = peak_rss_mb(resource.RUSAGE_SELF)

    cli_ms = [s * 1e3 for s in bench.cli_s]
    item_ms = [s * 1e3 for s in bench.item_s]
    metrics = {
        "setup_s": setup_s,
        "fail_ratio": bench.tally.failed / bench.tally.attempted,
        "peak_rss_mb": rss,
        "cli_p50_ms": statistics.median(cli_ms),
        "cli_p90_ms": percentile(cli_ms, 90),
        "atlas_items_per_s": len(item_ms) / sum(bench.item_s),
        "atlas_item_p50_ms": statistics.median(item_ms),
        "atlas_item_p90_ms": percentile(item_ms, 90),
        "moments_seq_per_s": bench.moment_ops / bench.moment_s,
        # Each tier weighs the same: small grids measure per-pulse overhead,
        # the large one array traffic.
        "grid_cells_per_s": statistics.geometric_mean(
            [bench.tier_cells[t] / bench.tier_s[t] for t in sorted(bench.tier_cells)]),
        "text_cells_per_s": bench.text_cells / bench.text_s,
    }
    samples = {"cli_commands": len(cli_ms), "atlas_items": len(item_ms), "moment_ops": bench.moment_ops,
               "grid_cells": dict(bench.tier_cells), "text_cells": bench.text_cells,
               "grid_cells_per_s_by_tier": {t: bench.tier_cells[t] / bench.tier_s[t] for t in bench.tier_cells}}
    return metrics, bench.tally, samples, None


# ---- traced run ---------------------------------------------------------------

def traced(args, cpseq, env: dict, workdir: Path):
    """The per-layer metrics of one run."""
    from phases import Bench, Tally
    from tracer import BYTES_PER_PULSE_CELL, Tracer, import_ms, spawn_ms

    spawn, spawn_errors = spawn_ms(env, ROOT)
    imports, import_errors = import_ms(env, ROOT)

    counts = TRACE_COUNTS[args.workload]
    units = build_units(args.seed, workdir, counts)
    cp = namespace(cpseq)
    tracer = Tracer()
    tracer.bind(cpseq)
    plain, spanned = Bench(cp, args.seed, ROOT), Bench(cp, args.seed, ROOT, tracer)
    run_plain = runner(plain, plain.cli_inprocess)
    run_spanned = runner(spanned, spanned.cli_inprocess)

    def run_traced(kind, unit):
        tracer.install()
        try:
            run_spanned[kind](unit)
        finally:
            tracer.uninstall()

    # Every unit runs once plainly and once traced, alternating which goes
    # first, so warm caches favour neither side of trace.overhead_ratio.
    for i, (kind, k) in enumerate(interleave(units)):
        unit = units[kind][k]
        if i % 2:
            run_traced(kind, unit)
            run_plain[kind](unit)
        else:
            run_plain[kind](unit)
            run_traced(kind, unit)

    st = tracer.stats()

    def stat(name, field):
        return st[name][field] if name in st else 0

    def mean_ms(name):
        calls = stat(name, "calls")
        return stat(name, "total_s") / calls * 1e3 if calls else 0.0

    def per_unit(name, kind):
        """Calls of ``name`` per timed unit of ``kind``."""
        kinds = spanned.item_kind
        units = sum(1 for k in kinds.values() if k == kind)
        calls = sum(n for item, n in st[name]["by_item"].items() if kinds.get(item) == kind) if name in st else 0
        return calls / units if units else 0.0

    synth = [name for name in st if name.startswith("sequences.synthesize.")]
    pulse_cells = stat("analysis.landscape", "size")
    moment_pulses = stat("error_model.error_moment_integrals", "size")
    self_ms = Counter()
    for name, s in st.items():
        self_ms[name.split(".")[0]] += s["self_s"] * 1e3

    metrics = {
        "process.spawn_ms": spawn,
        "import.cpseq_cli_ms": imports["cpseq_cli"],
        "import.scipy_ms": imports["scipy"],
        "import.numpy_ms": imports["numpy"],
        **{f"cli.{sub}.ms": mean_ms(f"cli.{sub}") for sub in SUBCOMMANDS},
        **{f"sequences.synthesize.{fam}.ms": mean_ms(f"sequences.synthesize.{fam}") for fam in FAMILIES},
        "sequences.synthesize.calls": sum(st[n]["calls"] for n in synth),
        "sequences.synthesize.refused": sum(st[n]["raised"] for n in synth),
        "error_model.first_order_error.ms": mean_ms("error_model.first_order_error"),
        "error_model.finite_difference_generator.ms": mean_ms("error_model.finite_difference_generator"),
        "error_model.perturbed_propagator.calls": stat("error_model.perturbed_propagator", "calls"),
        "error_model.error_moment_integrals.ms_per_pulse":
            stat("error_model.error_moment_integrals", "total_s") * 1e3 / moment_pulses if moment_pulses else 0.0,
        "su2.rotation.calls": stat("su2.rotation", "calls"),
        "su2.rotation.calls_per_atlas_item": per_unit("su2.rotation", "atlas"),
        "su2.rotation.calls_per_moment_op": per_unit("su2.rotation", "moment"),
        "su2.rotation.ms": mean_ms("su2.rotation"),
        "su2.eig_unitary.ms": mean_ms("su2.eig_unitary"),
        "analysis.infidelity_scaling.ms": mean_ms("analysis.infidelity_scaling"),
        "analysis.phase_decomposition.ms": mean_ms("analysis.phase_decomposition"),
        "analysis.landscape.ms": mean_ms("analysis.landscape"),
        "analysis.landscape.pulse_cells": pulse_cells,
        "analysis.landscape.computed_bytes": pulse_cells * BYTES_PER_PULSE_CELL,
        "analysis.landscape_csv.ms": mean_ms("analysis.landscape_csv"),
        "ioutil.dumps.ms": mean_ms("ioutil.dumps"),
        "ioutil.dumps.bytes": stat("ioutil.dumps", "size"),
        **{f"{layer}.self_ms": self_ms[layer]
           for layer in ("cli", "sequences", "error_model", "analysis", "su2", "ioutil")},
        "process.errors": spawn_errors + import_errors,
        **{f"{layer}.errors": tracer.errors[layer]
           for layer in ("cli", "sequences", "error_model", "analysis", "su2", "ioutil")},
        "trace.overhead_ratio": spanned.busy(*TRACED_KINDS) / plain.busy(*TRACED_KINDS),
    }
    tally = Tally(plain.tally.attempted + spanned.tally.attempted, plain.tally.failed + spanned.tally.failed,
                  plain.tally.failures + spanned.tally.failures)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json.gz"
    tracer.write(spans_path)
    samples = {**{f"{kind}_units": n for kind, n in counts.items()}, "spans": len(tracer.spans)}
    return metrics, tally, samples, str(spans_path.relative_to(ROOT))


# ---- entry point ------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "cpseq" / "__init__.py").is_file():
        print(f"error: no cpseq package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    os.environ.update(PINNED)
    # infidelity_scaling warns for every ladder point below its floor; the
    # checks already compare those points with the reference.
    warnings.filterwarnings("ignore", message="dropping .* ladder point", category=RuntimeWarning)
    sys.path.insert(0, str(HERE))
    if args.setup_only:
        workdir = OUT / f"setup-{os.getpid()}"
        workdir.mkdir(parents=True)
        try:
            warm_up(namespace(import_cpseq()), args.seed, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    from launcher import Launcher

    # Started before numpy and cpseq are imported; see launcher.py.
    launcher = Launcher()
    try:
        return measure(args, launcher)
    finally:
        launcher.close()


def measure(args, launcher) -> int:
    """Set up, run the workload, check it and print the result."""
    from phases import KNOWN_DEFECTS, auto_threads

    cpseq = import_cpseq()
    threads = auto_threads()
    env = child_env(threads)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        cp = namespace(cpseq)
        warm_up(cp, args.seed, workdir)
        if args.trace:
            metrics, tally, samples, spans = traced(args, cpseq, env, workdir)
        else:
            metrics, tally, samples, spans = untraced(args, cp, env, workdir, measure_setup(args, env), launcher)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    if set(metrics) != set(units):
        raise RuntimeError(f"metric names out of step with the tables: {set(metrics) ^ set(units)}")
    known = {k: v for k, v in tally.failures.items() if k in KNOWN_DEFECTS}
    result = {
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {"env": environment(args, threads), "samples": samples, "failures": dict(tally.failures),
              "failure_examples": tally.examples,
              "known_defects": {k: KNOWN_DEFECTS[k] for k in known}, "spans": spans, **result}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")

    for name, unit in units.items():
        print(f"{name:<50} {metrics[name]:>16.6g} {unit}")
    print(f"# samples {json.dumps(samples)}")
    print(f"# env {json.dumps(record['env'])}")
    for name, count in sorted(tally.failures.items()):
        label = "known defect" if name in KNOWN_DEFECTS else "UNEXPECTED"
        print(f"# failure {name} x{count} ({label})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
