"""Composite pulse synthesis and first-order robustness analysis for SU(2) gates.

The package exports the public names (``__all__``) of ``sequences``,
``error_model`` and ``analysis``, and ``eig_unitary`` and
``rotation_generator`` of ``su2``.  Each module is imported when a name
from it is first used (PEP 562), so ``cpseq.synthesize`` loads ``sequences``
and ``su2`` alone.  numpy is loaded only where an array is handed out or a
grid is computed.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("su2", "sequences", "error_model", "analysis", "ioutil", "cli")
_SU2_EXPORTS = ("eig_unitary", "rotation_generator")
_EXPORTING = ("sequences", "error_model", "analysis")  # searched in this order


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name == "__all__":  # read by ``from cpseq import *``
        return [*_SU2_EXPORTS, *(n for home in _EXPORTING for n in __getattr__(home).__all__)]
    for home in ("su2",) if name in _SU2_EXPORTS else _EXPORTING:
        module = __getattr__(home)
        if name in _SU2_EXPORTS or name in module.__all__:
            globals()[name] = value = getattr(module, name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
