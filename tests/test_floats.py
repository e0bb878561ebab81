"""One kernel for Python floats and for arrays.

The per-sequence layer runs the su2 and error-model kernels on Python floats
with ``math``; grids run the same kernels on numpy arrays.  Given the same
inputs both must give the same bits.  That holds where ``math.sin`` and
``math.cos`` agree with ``np.sin`` and ``np.cos`` bit for bit, as they do
with glibc and numpy 2 on x86-64.  ``ULPS`` is measured before the tests run:
0 where the elementary functions agree on a fixed sample, else a bound of a
few ulp per kernel, which the test ids state.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cpseq.analysis import AXES, _DIRECTIONS, _infidelities, infidelity_scaling
from cpseq.sequences import _REGISTRY, synthesize
from cpseq.su2 import _bloch, _frame_average, _half_angle, _matrix, _product, _quaternion, rotation_generator

from conftest import theta_for

_SAMPLE = np.random.default_rng(7).uniform(-50.0, 50.0, 20000)
ULPS = 0 if (np.sin(_SAMPLE).tolist() == [math.sin(x) for x in _SAMPLE.tolist()]
             and np.cos(_SAMPLE).tolist() == [math.cos(x) for x in _SAMPLE.tolist()]) else 4
BOUND = pytest.mark.parametrize("ulps", [ULPS], ids=[f"ulps={ULPS}"])


def ulp_gap(floats, arrays) -> int:
    """Largest distance in ulp between matching entries."""
    a = np.asarray(floats, dtype=float)
    b = np.asarray(arrays, dtype=float).reshape(a.shape)
    return int(np.max(np.abs(np.where(a == b, 0.0, (a - b) / np.spacing(np.maximum(abs(a), abs(b)))))))


angles = st.floats(-50.0, 50.0)
axes = st.tuples(*[st.floats(-5.0, 5.0)] * 3)


@BOUND
@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.tuples(angles, axes), min_size=1, max_size=6))
def test_half_angle_and_product_are_one_kernel(ulps, rotations):
    floats, planes = [], []
    for angle, (x, y, z) in rotations:
        length = math.sqrt(x * x + y * y + z * z)
        angle, length = (angle, length) if length else (0.0, 1.0)  # a zero axis turns by nothing
        for quaternions, pair, lib in ((floats, (angle, length), math),
                                       (planes, (np.array([angle]), np.array([length])), np)):
            w, scale = _half_angle(*pair, lib)
            quaternions.append((w, x * scale, y * scale, z * scale))
        assert ulp_gap(floats[-1], planes[-1]) <= ulps
    assert ulp_gap(_product(floats), _product(planes)) <= ulps


@BOUND
@settings(max_examples=200, deadline=None, derandomize=True)
@given(axes)
def test_frame_average_and_bloch_rotation_are_one_kernel(ulps, m):
    vector = [np.array([v]) for v in m]
    assert ulp_gap(_frame_average(*m), _frame_average(*vector, np)) <= ulps
    assert ulp_gap(_bloch(*_quaternion(*m)), _bloch(*_quaternion(*vector, np))) <= ulps


@BOUND
@pytest.mark.parametrize("family", list(_REGISTRY))
@settings(max_examples=15, deadline=None, derandomize=True)
@given(theta=st.floats(0.1, 3.5), phi=st.floats(0.0, 2 * np.pi), axis=st.sampled_from(AXES))
def test_scaling_ladder_cells_are_the_array_infidelities(ulps, family, theta, phi, axis):
    seq = synthesize(family, theta_for(family, theta), phi)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            fit = infidelity_scaling(seq, axis)
        except ValueError:
            return  # no ladder resolves above the precision floor
    de, dp = _DIRECTIONS[axis]
    grid = _infidelities(seq, de * fit.strengths[:, None], dp * fit.strengths[:, None], np)
    assert ulp_gap(fit.infidelities, grid) <= ulps


# complex entries up to about 1e154, where the squares of a rotation vector overflow
entries = st.floats(-2e154, 2e154)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.tuples(*[entries] * 4))
@example((0.0, -0.0, 0.0, -0.0))
@example((-0.0, 0.0, -0.0, 0.0))
@example((1e154, -1e154, 3e153, -0.0))
def test_matrix_and_rotation_generator_of_floats_have_the_array_bits(q):
    # no elementary function here: Python's complex arithmetic and numpy's give the same bits everywhere
    one = [np.array([c]) for c in q]
    assert _matrix(*q).tobytes() == _matrix(*one)[0].tobytes()
    assert rotation_generator(q[1:]).tobytes() == rotation_generator(np.array([q[1:]]))[0].tobytes()
