"""Composite pulse synthesis and first-order robustness analysis for SU(2) gates.

The package exports the public names (``__all__``) of its modules.  Importing
it does not import numpy: numpy is loaded where an array is handed out or a
grid is computed, and by the matrix constants on first access.
"""

from . import su2
from .su2 import eig_unitary, fidelity, log_rotation, pauli_generator, rotation, rotation_generator
from .sequences import *  # noqa: F403
from .error_model import *  # noqa: F403
from .analysis import *  # noqa: F403

__version__ = "0.1.0"


def __getattr__(name):
    """IDENTITY2 and SIGMA_X/Y/Z of :mod:`cpseq.su2`, built with numpy on first access (PEP 562)."""
    if name in ("IDENTITY2", "SIGMA_X", "SIGMA_Y", "SIGMA_Z"):
        return getattr(su2, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
