"""Per-cell reference for the text renderers in ``cpseq``.

``landscape_csv`` formats every cell with its own f-string, and ``dumps``
renders every item by the recursive per-type ``_render``.  Nothing is
imported from ``cpseq``, so the one-pass renderers are checked byte for byte
against plain code, never against themselves.
"""

import numpy as np


def landscape_csv(eps_values, eps_prime_values, fidelity) -> str:
    lines = ["eps,eps_prime,fidelity"]
    for i, e in enumerate(eps_values):
        for j, p in enumerate(eps_prime_values):
            lines.append(f"{e:.17g},{p:.17g},{fidelity[i, j]:.17g}")
    return "\n".join(lines) + "\n"


def _render(obj, indent: int, level: int) -> str:
    pad = " " * (indent * (level + 1))
    closing = " " * (indent * level)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}"{key}": {_render(val, indent, level + 1)}' for key, val in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + closing + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        rendered = [_render(v, indent, level + 1) for v in seq]
        if all(not isinstance(v, (dict, list, tuple, np.ndarray)) for v in seq):
            return "[" + ", ".join(rendered) + "]"
        return "[\n" + ",\n".join(pad + r for r in rendered) + "\n" + closing + "]"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not np.isfinite(x):
            raise ValueError(f"cannot serialize non-finite float {x!r}")
        return format(x, ".17g")
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{out}"'
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj, indent: int = 2) -> str:
    return _render(obj, indent, 0)
