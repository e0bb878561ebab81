"""Shared helpers for the test suite."""

import numpy as np

from cpseq.sequences import _REGISTRY


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


def theta_for(family: str, theta: float) -> float:
    """``theta``, or the one angle a family with a one-point domain makes."""
    lo, hi, _ = _REGISTRY[family].domain
    return theta if lo != hi else lo
