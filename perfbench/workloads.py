"""Seeded inputs for the benchmark's streams of work.

Every stream is an endless sequence of rounds (blocks for the CLI).  A
round holds a fixed mix of work, so the cost of a round does not depend on
the seed: the seed picks the order, the angles and the resolutions within
each tier.  Runs are made of whole rounds, so every run measures the same
mix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from reference import FAMILIES, TWO_PI, bb1_pulses, corpse_pulses

FAMILY_NAMES = tuple(FAMILIES)
AXES = ("eps", "eps-prime", "diagonal")

SMALL_GRID = (41, 61)
MID_GRID = (181, 221)
LARGE_GRID = 1001  # the ROADMAP baseline row: cis-cccp at 1001^2
LARGE_FAMILY = "cis-cccp"
TEXT_GRID = 201  # the ROADMAP baseline row for CSV and dumps
CLI_GRID = (11, 51)
THRESHOLDS = (1 - 1e-2, 1 - 1e-3, 1 - 1e-4)


@dataclass(frozen=True)
class Target:
    family: str
    theta: float
    phi: float


def draw_target(rng: random.Random, family: str) -> Target:
    """A rotation inside the family's documented theta-domain, with any axis."""
    spec = FAMILIES[family]
    theta = np.pi if spec.theta is None else rng.uniform(*spec.theta)
    return Target(family, theta, rng.uniform(0.0, TWO_PI))


def _angle_text(rng: random.Random, value: float, lo: float, hi: float) -> tuple[str, float]:
    """Decimal radians, or now and then the nearest pi fraction inside [lo, hi]."""
    if rng.random() < 0.25:
        den = rng.choice((2, 3, 4, 6))
        num = max(1, round(value * den / np.pi))
        frac = float(num) * np.pi / float(den)
        if lo <= frac <= hi:
            return f"{num}pi/{den}", frac
    return repr(value), value


# ---- CLI -------------------------------------------------------------------

@dataclass
class Command:
    """One cpseq invocation and what the benchmark expects of it."""

    kind: str
    args: list[str]
    target: Target | None = None
    extra: dict = field(default_factory=dict)

    @property
    def subcommand(self) -> str:
        return self.args[0]


def _target_args(rng: random.Random, family: str) -> tuple[list[str], Target]:
    t = draw_target(rng, family)
    args = ["--family", family]
    spec = FAMILIES[family]
    if spec.theta is not None:
        text, theta = _angle_text(rng, t.theta, *spec.theta)
        args += ["--theta", text]
        t = Target(family, theta, t.phi)
    return args + ["--phi", repr(t.phi)], t


def _refusal(rng: random.Random) -> Command:
    """An input outside a family's documented domain: cpseq must exit 2."""
    sub = rng.choice(("synth", "verify", "phase"))
    kind = rng.choice(("theta-range", "corpse-winding", "cccp-winding"))
    if kind == "theta-range":
        family = rng.choice(("scrofulous", "cis-cccp"))
        theta, winding = rng.uniform(3.9, TWO_PI - 0.01), None
    elif kind == "corpse-winding":
        family = "corpse"
        theta, winding = rng.uniform(0.01, TWO_PI - 0.01), (rng.randint(0, 2), 0, rng.randint(0, 2))
    else:
        family = "cis-cccp"
        theta = rng.uniform(0.01, 3.8)
        winding = rng.choice([(a, b, c) for a in range(3) for b in range(3) for c in range(3)
                              if a - b + c != 0])
    args = [sub, "--family", family, "--theta", repr(theta)]
    if winding is not None:
        args += ["--winding", ",".join(map(str, winding))]
    return Command(f"refusal-{kind}", args, Target(family, theta, 0.0), extra={"winding": winding})


def _mismatch_document(rng: random.Random) -> tuple[dict, Target]:
    """Pulses for one rotation under a declared target for another."""
    family = rng.choice(("corpse", "bb1"))
    made = rng.uniform(0.01, TWO_PI - 1.6)
    declared = made + rng.uniform(0.5, 1.5)
    phi = rng.uniform(0.0, TWO_PI)
    pulses = corpse_pulses(made, phi) if family == "corpse" else bb1_pulses(made, phi)
    doc = {"family": family, "target": {"theta": declared, "phi": phi}}
    if family == "corpse":
        doc["winding"] = [1, 2, 1]
    doc["pulses"] = [{"theta": t, "phi": p} for t, p in pulses]
    return doc, Target(family, declared, phi)


def cli_block(rng: random.Random, index: int, workdir: Path) -> list[Command]:
    """Ten commands covering all six subcommands.

    Block 0 carries the three known-defect cases (eleven commands); later
    blocks carry two ordinary commands in their place.  Round trips stay
    adjacent.
    """
    fams = rng.sample(FAMILY_NAMES, len(FAMILY_NAMES))
    units: list[list[Command]] = []

    args, t = _target_args(rng, fams[0])
    path = str(workdir / f"roundtrip-{index}.json")
    units.append([Command("synth-output", ["synth", *args, "--output", path], t, extra={"path": path}),
                  Command("verify-input", ["verify", "--input", path], t, extra={"path": path})])
    args, t = _target_args(rng, fams[1])
    units.append([Command("verify", ["verify", *args], t)])
    args, t = _target_args(rng, fams[2])
    units.append([Command("phase", ["phase", *args], t)])
    args, t = _target_args(rng, fams[3])
    axis = rng.choice(AXES)
    units.append([Command("scaling", ["scaling", *args, "--axis", axis], t, extra={"axis": axis})])
    texts, phases = zip(*(_angle_text(rng, rng.uniform(0.0, TWO_PI), 0.0, TWO_PI)
                          for _ in range(rng.randint(1, 6))))
    units.append([Command("reduce", ["reduce", "--phases", ",".join(texts)],
                          extra={"phases": list(phases)})])
    args, t = _target_args(rng, fams[4])
    res, fmt = rng.randint(*CLI_GRID), rng.choice(("csv", "json"))
    units.append([Command("landscape", ["landscape", *args, "--res", str(res), "--format", fmt], t,
                          extra={"resolution": res, "format": fmt})])
    units.append([_refusal(rng)])
    if index == 0:
        doc, t = _mismatch_document(rng)
        path = str(workdir / "defect-mismatch.json")
        units.append([Command("defect-mismatch", ["verify", "--input", path], t,
                              extra={"path": path, "document": doc})])
        t = draw_target(rng, rng.choice(FAMILY_NAMES))
        doc = {"family": t.family, "target": {"theta": t.theta, "phi": t.phi}, "pulses": []}
        path = str(workdir / "defect-empty.json")
        units.append([Command("defect-empty", ["verify", "--input", path], t,
                              extra={"path": path, "document": doc})])
        # BB1 below theta ~ 0.37 is so robust on the eps axis that no ladder
        # point resolves; scaling then refuses, as a traceback.
        t = Target("bb1", rng.uniform(0.01, 0.25), rng.uniform(0.0, TWO_PI))
        units.append([Command("scaling", ["scaling", "--family", "bb1", "--theta", repr(t.theta),
                                          "--phi", repr(t.phi), "--axis", "eps"], t,
                              extra={"axis": "eps"})])
    else:
        args, t = _target_args(rng, fams[5])
        units.append([Command("synth", ["synth", *args], t)])
        args, t = _target_args(rng, fams[6])
        units.append([Command("verify", ["verify", *args], t)])
    rng.shuffle(units)
    return [c for unit in units for c in unit]


def cli_stream(seed: int, workdir: Path):
    rng = random.Random(f"cli-{seed}")
    index = 0
    while True:
        yield cli_block(rng, index, workdir)
        index += 1


# ---- atlas -----------------------------------------------------------------

def atlas_rounds(seed: int, stream: str):
    """One target per family per round, in seeded order."""
    rng = random.Random(f"{stream}-{seed}")
    while True:
        yield [draw_target(rng, f) for f in rng.sample(FAMILY_NAMES, len(FAMILY_NAMES))]


# ---- landscape ---------------------------------------------------------------

@dataclass(frozen=True)
class GridItem:
    """One landscape call: an array item also runs robust_area, a text item
    renders (fmt "csv" or "json").  threads 0 means auto."""

    target: Target
    resolution: int
    threshold: float = THRESHOLDS[0]
    threads: int = 0
    fmt: str | None = None
    tier: str = "text"


def grid_rounds(seed: int):
    """Per round: every family at a small and at a mid grid, and the large
    grid, each at 1 thread and at auto (two items, checked for equal bits)."""
    rng = random.Random(f"grid-{seed}")
    while True:
        grids = [(draw_target(rng, family), rng.randint(*bounds), tier)
                 for tier, bounds in (("small", SMALL_GRID), ("mid", MID_GRID))
                 for family in rng.sample(FAMILY_NAMES, len(FAMILY_NAMES))]
        grids.append((draw_target(rng, LARGE_FAMILY), LARGE_GRID, "large"))
        items = []
        for target, resolution, tier in grids:
            threshold = rng.choice(THRESHOLDS)
            items += [GridItem(target, resolution, threshold, threads, tier=tier) for threads in (1, 0)]
        rng.shuffle(items)
        yield items


def text_rounds(seed: int):
    """Per round: every family rendered at the text grid; CSV takes four of
    the seven formats in even rounds and three in odd ones."""
    rng = random.Random(f"text-{seed}")
    index = 0
    while True:
        csv_count = 4 if index % 2 == 0 else 3
        yield [GridItem(draw_target(rng, family), TEXT_GRID, threads=rng.choice((1, 0)),
                        fmt="csv" if k < csv_count else "json")
               for k, family in enumerate(rng.sample(FAMILY_NAMES, len(FAMILY_NAMES)))]
        index += 1
