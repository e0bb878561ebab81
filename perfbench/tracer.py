"""Per-layer measurement from outside the package.

The tracer replaces every public function of the cpseq modules with a
wrapper that records a span (name, start, end, parent, item id) while a
timed unit of work runs.  The replacement is made in every module that
holds the function, so names bound by ``from .su2 import rotation`` in
``sequences``, ``error_model`` and ``analysis`` are traced too.  Spans stay
in memory until the run ends.  Interpreter start and import cost come from
separate bare-interpreter spawns and ``-X importtime``.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import json
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("su2", "sequences", "error_model", "analysis", "ioutil")
# Bytes the landscape kernel must stream per pulse and cell when the grid
# does not fit in cache: four complex128 accumulators read and written.
# Computed from the array sizes, not measured.
BYTES_PER_PULSE_CELL = 4 * 16 * 2


def _pulse_cells(args, kwargs, grid) -> int:
    seq = args[0]
    return grid.fidelity.size * sum(1 for p in seq.pulses if p.theta != 0.0)


# Optional per-function hooks: a label that splits the span name, and a
# size recorded with each call.
HOOKS = {
    "sequences.synthesize": {"label": lambda args, kwargs: args[0] if args else kwargs["family"]},
    "error_model.error_moment_integrals": {"size": lambda args, kwargs, r: len(args[0])},
    "analysis.landscape": {"size": _pulse_cells},
    "analysis.landscape_csv": {"size": lambda args, kwargs, r: len(r)},
    "ioutil.dumps": {"size": lambda args, kwargs, r: len(r)},
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []  # [name id, start, end, parent index, item id, size, raised]
        self._stack: list[int] = []
        self._item = -1
        self._main = threading.main_thread()
        self.errors: Counter = Counter()
        self._raised: list = []  # keeps counted exceptions alive so ids stay unique
        self._bindings: list = []  # (module, attribute, original, wrapper)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextlib.contextmanager
    def unit(self, item_id: int):
        """Record spans while one timed unit of work runs."""
        self._item = item_id
        try:
            yield
        finally:
            self._item = -1

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around the body; yields the record, or None when idle.

        Only the main thread records, and only inside a timed unit."""
        if self._item < 0 or threading.current_thread() is not self._main:
            yield None
            return
        index = len(self.spans)
        self.spans.append(None)
        record = [self._id(name), 0.0, 0.0, self._stack[-1] if self._stack else -1, self._item, None, False]
        self._stack.append(index)
        record[1] = time.perf_counter()
        try:
            yield record
        except Exception as exc:
            record[6] = True
            self.count_error(name.split(".")[0], exc)
            raise
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
            self.spans[index] = record

    def count_error(self, layer: str, exc: BaseException | None = None):
        """Count an exception once per layer it leaves."""
        if exc is not None:
            if any(e is exc and l == layer for l, e in self._raised):
                return
            self._raised.append((layer, exc))
        self.errors[layer] += 1

    def wrap(self, name: str, fn, label=None, size=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(f"{name}.{label(args, kwargs)}" if label else name) as record:
                result = fn(*args, **kwargs)
            if record is not None and size is not None:
                record[5] = size(args, kwargs, result)
            return result

        return traced

    def bind(self, package):
        """Wrap every public function of the layer modules, wherever it is bound.

        The wrappers take effect between install() and uninstall()."""
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        wrapped = {}
        for layer, module in modules.items():
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and value.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrapped[value] = self.wrap(f"{layer}.{attr}", value, **HOOKS.get(f"{layer}.{attr}", {}))
        self._bindings = [(module, attr, value, wrapped[value])
                          for module in (package, package.cli, *modules.values())
                          for attr, value in vars(module).items()
                          if inspect.isfunction(value) and value in wrapped]

    def install(self):
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    # ---- summaries -----------------------------------------------------------

    def stats(self) -> dict:
        """Per span name: calls, raised, total and self seconds, summed size, and
        calls per item id."""
        child = defaultdict(float)
        for _, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "raised": 0, "total_s": 0.0, "self_s": 0.0,
                                   "size": 0, "by_item": Counter()})
        for index, (name_id, start, end, parent, item, size, raised) in enumerate(self.spans):
            s = out[self.names[name_id]]
            s["calls"] += 1
            s["raised"] += raised
            s["total_s"] += end - start
            s["self_s"] += end - start - child[index]
            s["size"] += size or 0
            s["by_item"][item] += 1
        return out

    def write(self, path: Path):
        origin = self.spans[0][1] if self.spans else 0.0
        doc = {
            "fields": ["name", "start_s", "end_s", "parent", "item", "size", "raised"],
            "names": self.names,
            "spans": [[n, round(a - origin, 9), round(b - origin, 9), p, i, s, r]
                      for n, a, b, p, i, s, r in self.spans],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


# ---- process and import probes ------------------------------------------------

def spawn_ms(env: dict, root: Path, repeats: int = 5) -> tuple[float, int]:
    """Median wall time of a bare interpreter start, and the failures seen."""
    times, errors = [], 0
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", "pass"], cwd=root, env=env, capture_output=True)
        times.append((time.perf_counter() - start) * 1e3)
        errors += proc.returncode != 0
    return statistics.median(times), errors


def parse_importtime(stderr: str) -> list[tuple[int, str, int]]:
    """(depth, module, cumulative us) per line of ``-X importtime`` output."""
    rows = []
    for line in stderr.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if not line.startswith("import time:") or len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2]
        rows.append(((len(name) - len(name.lstrip(" ")) - 1) // 2, name.strip(), int(parts[1])))
    return rows


def subtree_ms(rows, prefix: str) -> float:
    """Cumulative ms of the outermost imports of ``prefix`` and its submodules."""
    total = 0.0
    # importtime prints children before their parent; walk backwards so each
    # entry's ancestors have been seen already.
    ancestors: list[tuple[int, str]] = []
    for depth, name, cumulative in reversed(rows):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        inside = any(a == prefix or a.startswith(prefix + ".") for _, a in ancestors)
        if (name == prefix or name.startswith(prefix + ".")) and not inside:
            total += cumulative / 1e3
        ancestors.append((depth, name))
    return total


def import_ms(env: dict, root: Path, repeats: int = 3) -> tuple[dict, int]:
    """Median ``-X importtime`` cost of ``import cpseq.cli`` and its heavy parts."""
    samples, errors = defaultdict(list), 0
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import cpseq.cli"],
                              cwd=root, env=env, capture_output=True, text=True)
        errors += proc.returncode != 0
        rows = parse_importtime(proc.stderr)
        samples["cpseq_cli"].append(subtree_ms(rows, "cpseq"))
        for lib in ("scipy", "numpy", "click"):
            samples[lib].append(subtree_ms(rows, lib))
    return {k: statistics.median(v) for k, v in samples.items()}, errors
