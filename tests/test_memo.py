"""A sequence's float work is invisible.

A ``PulseSequence`` is immutable and carries the float work that depends
only on its pulses from construction.  Every analysis must give the same
bits whether it runs first or after the other analyses, on a copy, a deep
copy or a pickle of the sequence; ``repr`` must not show that work, and the
arrays the public functions return must be fresh on each call, so that no
caller can change what a sequence carries.
"""

import copy
import pickle
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from cpseq.analysis import AXES, fidelity_under_error, infidelity_scaling, landscape, phase_decomposition
from cpseq.error_model import (
    ErrorChannel,
    error_moment_integrals,
    finite_difference_generator,
    first_order_error,
    perturbed_propagator,
)
from cpseq.sequences import _REGISTRY, synthesize

from conftest import theta_for

THETAS = (0.3, 1.3, 2.9)
TARGETS = [(family, theta) for family in _REGISTRY
           for theta in dict.fromkeys(theta_for(family, t) for t in THETAS)]
# the ladder's floor warning, set once per test: warnings.catch_warnings is not
# thread-safe, so the threads of the last test must not change the filters
pytestmark = pytest.mark.filterwarnings("ignore:dropping:RuntimeWarning")
CHANNELS = (ErrorChannel.pulse_length(1.0), ErrorChannel.off_resonance(1.0),
            ErrorChannel((0.1, -0.2, 0.3), ((0.1, 0.2, 0.0), (0.0, -0.1, 0.3), (0.2, 0.0, 0.1))))


def _report(channel):
    def run(seq):
        r = first_order_error(seq, channel)
        return [r.generator, r.pulse_length_coefficient, r.off_resonance_coefficient, r.pulse_length_norm,
                r.off_resonance_norm, r.robust_to_pulse_length, r.robust_to_off_resonance, r.tolerance]
    return run


def _scaling(axis):
    def run(seq):
        try:
            fit = infidelity_scaling(seq, axis)
        except ValueError as exc:  # no ladder resolves above the precision floor
            return [str(exc)]
        return [fit.axis, fit.slope, fit.intercept, fit.strengths, fit.infidelities, fit.dropped]
    return run


def _phases(seq):
    r = phase_decomposition(seq)
    return [r.total, r.dynamical, r.geometric, r.states, r.degenerate]


def _moments(seq):
    r = error_moment_integrals(seq)
    return [r.first_moment, r.second_moment]


def _landscape(threads):
    # 91^2 cells make two row blocks, so two threads do run a pool
    return lambda seq: [landscape(seq, (-0.2, 0.1), (-0.1, 0.15), resolution=91, threads=threads).fidelity]


# each analysis of a sequence, as a list of its results
ANALYSES = {
    **{f"first_order_error-{i}": _report(ch) for i, ch in enumerate(CHANNELS)},
    **{f"finite_difference_generator-{i}": (lambda ch: lambda seq: [finite_difference_generator(seq, ch)])(ch)
       for i, ch in enumerate(CHANNELS)},
    **{f"perturbed_propagator-{i}": (lambda ch: lambda seq: [perturbed_propagator(seq, ch)])(ch)
       for i, ch in enumerate(CHANNELS)},
    "phase_decomposition": _phases,
    **{f"infidelity_scaling-{axis}": _scaling(axis) for axis in AXES},
    "error_moment_integrals": _moments,
    "landscape-1": _landscape(1),
    "landscape-2": _landscape(2),
    "fidelity_under_error": lambda seq: [fidelity_under_error(seq, 0.03, -0.02)],
    "sequence": lambda seq: [seq.propagator(), seq.target, seq._fidelity(), [p.vector for p in seq.pulses]],
}


def _bits(value):
    """A value as comparable bits: arrays by dtype, shape and bytes, floats by their bytes."""
    if isinstance(value, (list, tuple)):
        return [type(value).__name__, *map(_bits, value)]
    if isinstance(value, (np.ndarray, float)):
        a = np.asarray(value)
        return type(value).__name__, a.dtype.str, a.shape, a.tobytes()
    return type(value).__name__, value


def _fresh(family, theta):
    """Each analysis on a sequence of its own, synthesized for it."""
    return {name: _bits(run(synthesize(family, theta, 0.4))) for name, run in ANALYSES.items()}


def _all(seq):
    return {name: _bits(run(seq)) for name, run in ANALYSES.items()}


@pytest.mark.parametrize("family,theta", TARGETS)
def test_a_sequence_gives_the_same_bits_after_every_other_analysis(family, theta):
    seq = synthesize(family, theta, 0.4)
    for run in reversed(ANALYSES.values()):  # the analyses in the other order
        run(seq)
    assert _all(seq) == _fresh(family, theta)


@pytest.mark.parametrize("family,theta", TARGETS)
@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda seq: pickle.loads(pickle.dumps(seq))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_of_a_sequence_with_a_filled_memo_give_the_same_bits(family, theta, clone):
    seq = synthesize(family, theta, 0.4)
    _all(seq)
    assert _all(clone(seq)) == _fresh(family, theta)


@pytest.mark.parametrize("family,theta", TARGETS)
def test_repr_does_not_show_the_memo(family, theta):
    seq = synthesize(family, theta, 0.4)
    before = repr(seq)
    _all(seq)
    assert repr(seq) == before == repr(synthesize(family, theta, 0.4)) and "memo" not in before


@pytest.mark.parametrize("family,theta", TARGETS)
def test_public_arrays_are_fresh_on_each_call(family, theta):
    seq = synthesize(family, theta, 0.4)
    want = _fresh(family, theta)
    for name, run in ANALYSES.items():
        for value in run(seq):
            for array in (value if isinstance(value, list) else [value]):
                if isinstance(array, np.ndarray):
                    array[...] = 7  # numeric dtypes only: states are complex, the rest float
        assert _bits(run(seq)) == want[name], name


def test_threads_that_share_a_fresh_sequence_give_the_same_bits():
    # more threads than cores run every analysis on one sequence at once;
    # each reads what the sequence carries and writes nothing to it
    family, theta = "cis-cccp", 1.3
    want = _fresh(family, theta)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            seq = synthesize(family, theta, 0.4)
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(_all, seq) for _ in range(8)]
                results = [f.result(timeout=60) for f in futures]
            assert all(r == want for r in results)
    finally:
        sys.setswitchinterval(interval)
