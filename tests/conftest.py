"""Shared helpers for the test suite."""

import contextlib
import io
import os
import sys
from types import SimpleNamespace
from unittest import mock

import numpy as np

from cpseq.error_model import _deformation, _transposed
from cpseq.sequences import _REGISTRY
from cpseq.su2 import _components, _frame_average, rotation_generator


def frob(A, B=None) -> float:
    """Frobenius norm of A, or of A - B."""
    A = np.asarray(A, dtype=complex)
    if B is not None:
        A = A - np.asarray(B, dtype=complex)
    return float(np.linalg.norm(A, ord="fro"))


def random_su2(rng: np.random.Generator) -> np.ndarray:
    """Haar-uniform SU(2) via a random unit quaternion."""
    v = rng.normal(size=4)
    a, b, c, d = v / np.linalg.norm(v)
    return np.array([[a + 1j * b, c + 1j * d], [-c + 1j * d, a - 1j * b]])


def random_xy_vector(rng: np.random.Generator, lo: float = 0.05, hi: float = 2 * np.pi) -> np.ndarray:
    """Rotation vector of a random xy-plane pulse."""
    theta = rng.uniform(lo, hi)
    phi = rng.uniform(0, 2 * np.pi)
    return np.array([theta * np.cos(phi), theta * np.sin(phi), 0.0])


def pulse_generator(m, channel) -> np.ndarray:
    """dm . sigma / 2: the channel's deformation of the pulse m, from the package's kernel."""
    return rotation_generator(_deformation(*_components(m), channel))


def averaged_generator(m, channel) -> np.ndarray:
    """A(m)^T dm . sigma / 2: the package's closed-form toggling-frame average
    of :func:`pulse_generator`, on Python floats for one vector."""
    m = _components(m)
    return rotation_generator(_transposed(_frame_average(*m), _deformation(*m, channel)))


def theta_for(family: str, theta: float) -> float:
    """``theta``, or the one angle a family with a one-point domain makes."""
    lo, hi, _ = _REGISTRY[family].domain
    return theta if lo != hi else lo


class _Tee(io.StringIO):
    """A captured stream that also copies what it is given to ``shared``."""

    def __init__(self, shared: io.StringIO):
        super().__init__()
        self.shared = shared

    def write(self, text: str) -> int:
        self.shared.write(text)
        return super().write(text)


class CliRunner:
    """Runs a CLI entry point in process, as ``main(args, prog_name=..., standalone_mode=False)``.

    ``invoke`` returns ``exit_code``, ``stdout``, ``stderr``, ``output`` (both
    streams in the order written) and ``exception``: an exception the command
    raised, which propagates instead when ``catch_exceptions`` is false.
    """

    def invoke(self, main, args=(), input=None, env=None, catch_exceptions=True):
        output = io.StringIO()
        stdout, stderr = _Tee(output), _Tee(output)
        exception = None
        with mock.patch.dict(os.environ, env or {}), mock.patch.object(sys, "stdin", io.StringIO(input or "")), \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                exit_code = main(list(args), prog_name="cpseq", standalone_mode=False)
            except Exception as exc:
                if not catch_exceptions:
                    raise
                exit_code, exception = 1, exc
        return SimpleNamespace(exit_code=exit_code, stdout=stdout.getvalue(), stderr=stderr.getvalue(),
                               output=output.getvalue(), exception=exception)
