"""Composite pulse synthesis and first-order robustness analysis for SU(2) gates.

The package exports the public names (``__all__``) of its modules.  Importing
it does not import numpy: numpy is loaded where an array is handed out or a
grid is computed.
"""

from . import su2
from .su2 import eig_unitary, rotation, rotation_generator
from .sequences import *  # noqa: F403
from .error_model import *  # noqa: F403
from .analysis import *  # noqa: F403

__version__ = "0.1.0"
