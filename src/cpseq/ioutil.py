"""Deterministic JSON rendering for CLI artifacts.

The stdlib encoder writes floats with ``repr``, which is round-trip exact
but variable-width; output contracts here call for a fixed 17-significant-
digit rendering and byte-identical output for identical inputs, so this
module renders documents itself.  Key order is insertion order, separators
and the two-space indent are fixed, line endings are LF.  Keys and strings
are escaped as the stdlib's ``encode_basestring`` escapes them (non-ASCII
kept raw), by a ``str.translate`` table.  Every float is written as
``"%.17g"`` writes it.

A row of floats, or a list of equal-length rows, is rendered in one pass.
Once numpy is loaded, a 1-D or 2-D float array, a list of floats or a list
of equal-length float lists, of at least ``_VECTOR_MIN`` values, goes
through the vectorised digit kernel of :mod:`cpseq._digits` in row blocks:
its bytes are those of ``"%.17g"`` for each value.  Shorter rows take
``"%.17g"`` one value at a time, which costs less there.  numpy values are
rendered like the Python values they convert to.  numpy and the kernel are
never imported here before a numpy value exists, so a document rendered
without numpy never loads them, and a command that renders no float array
does not compile the kernel.
"""

from __future__ import annotations

import math
import sys
from itertools import chain

__all__ = ["dumps"]

_ESCAPES = {c: f"\\u{c:04x}" for c in range(32)}
_ESCAPES.update({ord(c): "\\" + e for c, e in zip('"\\\b\t\n\f\r', '"\\btnfr')})

# Fewest floats that _render hands to the vectorised kernel.  The kernel costs
# about 70 us plus 0.1 us a value, "%.17g" about 0.5 us a value: they break
# even at 160 to 190 values (x86-64, numpy 2.4).
_VECTOR_MIN = 192


def _floats(np, obj):
    """``obj`` as a float array when it is one, a list of floats or a list of
    equal-length float lists, with at least ``_VECTOR_MIN`` values in all;
    None otherwise."""
    if isinstance(obj, np.ndarray):
        floats = obj.dtype.kind == "f" and obj.itemsize <= 8  # each converts exactly to a double
        return obj if floats and obj.ndim in (1, 2) and obj.size >= _VECTOR_MIN else None
    if not isinstance(obj, (list, tuple)) or not obj:
        return None
    rows = obj if isinstance(obj[0], (list, tuple)) else [obj]
    size = len(rows) * len(rows[0])
    if (size < _VECTOR_MIN or not all(isinstance(row, (list, tuple)) for row in rows)
            or len(set(map(len, rows))) > 1):
        return None
    if not all(issubclass(kind, float) for kind in set(map(type, chain.from_iterable(rows)))):
        return None
    values = np.fromiter(chain.from_iterable(rows), np.float64, size)
    return values if rows is not obj else values.reshape(len(rows), -1)


def _render(obj, level: int) -> str:
    pad = "  " * (level + 1)
    closing = "  " * level
    np = sys.modules.get("numpy")  # a numpy value exists only once numpy is loaded
    if np is not None:
        values = _floats(np, obj)
        if values is not None:
            finite = np.isfinite(values)
            if not finite.all():
                item = obj
                for i in np.unravel_index(np.argmin(finite), values.shape):
                    item = item[i]
                _render(item, level)  # raises
            from ._digits import json_rows
            return json_rows(values, level)
        if isinstance(obj, (np.ndarray, np.generic)):
            obj = obj.tolist()
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}"{str.translate(k, _ESCAPES)}": {_render(v, level + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + closing + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(issubclass(kind, float) for kind in set(map(type, obj))):  # float and numpy.float64
            text = ", ".join(["%.17g" % x for x in obj])
            if "n" in text:  # of all %.17g renderings only inf and nan contain an "n"
                _render(next(x for x in obj if not math.isfinite(x)), level)  # raises
            return "[" + text + "]"
        rendered = [_render(v, level + 1) for v in obj]
        containers = (dict, list, tuple) if np is None else (dict, list, tuple, np.ndarray)
        if all(not isinstance(v, containers) for v in obj):
            return "[" + ", ".join(rendered) + "]"
        return "[\n" + ",\n".join(pad + r for r in rendered) + "\n" + closing + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"cannot serialize non-finite float {obj!r}")
        return format(obj, ".17g")
    if isinstance(obj, str):
        return f'"{obj.translate(_ESCAPES)}"'
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    """Render ``obj`` as deterministic JSON text (no trailing newline)."""
    return _render(obj, 0)
