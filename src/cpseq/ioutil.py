"""Deterministic JSON rendering for CLI artifacts.

The stdlib encoder writes floats with ``repr``, which is round-trip exact
but variable-width; output contracts here call for a fixed 17-significant-
digit rendering and byte-identical output for identical inputs, so this
module renders documents itself.  Key order is insertion order, separators
and the two-space indent are fixed, line endings are LF.  Keys and strings
are escaped by the stdlib's string encoder, non-ASCII kept raw.  A list or
float array whose items are all floats is rendered in one pass.  numpy
values are rendered like the Python values they convert to; numpy itself is
never imported here.
"""

from __future__ import annotations

import math
import sys
from json.encoder import encode_basestring

__all__ = ["dumps"]


def _render(obj, level: int) -> str:
    pad = "  " * (level + 1)
    closing = "  " * level
    np = sys.modules.get("numpy")  # a numpy value exists only once numpy is loaded
    if np is not None and isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{pad}{encode_basestring(key)}: {_render(val, level + 1)}" for key, val in obj.items()]
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
        return encode_basestring(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    """Render ``obj`` as deterministic JSON text (no trailing newline)."""
    return _render(obj, 0)
