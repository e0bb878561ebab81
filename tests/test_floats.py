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
from hypothesis import given, settings
from hypothesis import strategies as st

from cpseq.analysis import AXES, _DIRECTIONS, _infidelities, infidelity_scaling
from cpseq.error_model import _frame_average
from cpseq.sequences import _REGISTRY, synthesize
from cpseq.su2 import _bloch, _half_angle, _product, _quaternion

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
        angle = angle if length else 0.0
        floats.append(_half_angle(angle, x, y, z, length))
        planes.append(_half_angle(*(np.array([v]) for v in (angle, x, y, z, length))))
        assert ulp_gap(floats[-1], planes[-1]) <= ulps
    assert ulp_gap(_product(floats), _product(planes)) <= ulps


@BOUND
@settings(max_examples=200, deadline=None, derandomize=True)
@given(axes)
def test_frame_average_and_bloch_rotation_are_one_kernel(ulps, m):
    vector = [np.array([v]) for v in m]
    assert ulp_gap(_frame_average(*m), _frame_average(*vector)) <= ulps
    assert ulp_gap(_bloch(*_quaternion(*m)), _bloch(*_quaternion(*vector))) <= ulps


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
    grid = _infidelities(seq, de * fit.strengths[:, None], dp * fit.strengths[:, None])
    assert ulp_gap(fit.infidelities, grid) <= ulps
