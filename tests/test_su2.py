import math
import warnings

import numpy as np
import pytest

from cpseq.error_model import ErrorChannel, perturbed_propagator
from cpseq.sequences import Pulse, PulseSequence, synthesize
from cpseq.su2 import (
    _bloch,
    _frame_average,
    _half_angle,
    _hamilton,
    _matrix,
    _product,
    _quaternion,
    _shares,
    eig_unitary,
    is_unitary,
    rotation_generator,
)

from conftest import frob, random_su2
import loop_reference as ref
from loop_reference import I2, SX, SY, SZ

PAULIS = (SX, SY, SZ)


def planes(a):
    """The components of an array of vectors, unpacked from its last axis."""
    return tuple(np.moveaxis(np.asarray(a, dtype=float), -1, 0))


def rotation(m) -> np.ndarray:
    """R(m) for vectors m (..., 3) through the kernel: ``_quaternion``, then ``_matrix``."""
    return _matrix(*_quaternion(*planes(m)))


def test_pauli_generator_definition():
    # the generators tau_mu = sigma_mu / 2 are rotation_generator of the unit vectors
    assert frob(rotation_generator([0.0, 0.0, 1.0]), np.diag([0.5, -0.5])) < 1e-15
    assert frob(rotation_generator([1.0, 0.0, 0.0]), SX / 2) < 1e-15


def test_pauli_orthogonality_and_normalisation():
    t1, t2 = rotation_generator([1.0, 0.0, 0.0]), rotation_generator([0.0, 1.0, 0.0])
    assert abs(np.trace(t1 @ t2)) < 1e-15
    assert abs(np.trace(t1 @ t1) - 0.5) < 1e-15


def test_rotation_identity():
    assert frob(rotation([0, 0, 0]), I2) == 0.0


def test_rotation_pi_about_x():
    assert frob(rotation([np.pi, 0, 0]), -1j * SX) < 1e-15


def test_rotation_two_pi_is_minus_identity():
    assert frob(rotation([0, 0, 2 * np.pi]), -I2) < 1e-15


def test_rotation_group_property():
    rng = np.random.default_rng(2)
    for _ in range(50):
        U = rotation(rng.normal(size=3)) @ rotation(rng.normal(size=3))
        assert frob(U.conj().T @ U, I2) < 1e-12
        assert abs(np.linalg.det(U) - 1) < 1e-12


def test_rotation_commuting_composition():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, b = rng.uniform(-2 * np.pi, 2 * np.pi, size=2)
        lhs = rotation([a, 0, 0]) @ rotation([b, 0, 0])
        assert frob(lhs, rotation([a + b, 0, 0])) < 1e-12


def test_rotation_generator_roundtrip():
    rng = np.random.default_rng(4)
    m = rng.normal(size=3)
    H = rotation_generator(m)
    assert frob(H, H.conj().T) <= 1e-12 and abs(np.trace(H)) <= 1e-12
    # m_mu = Tr(H sigma_mu) recovers the vector
    assert np.allclose([np.trace(H @ s).real for s in PAULIS], m, atol=1e-14)


# the phase-blind fidelity |Tr(T^dag U)| / 2 of a sequence to its target

def test_fidelity_self_and_global_phase():
    rng = np.random.default_rng(6)
    a, b = (Pulse(rng.uniform(0.1, 2 * np.pi), rng.uniform(0, 2 * np.pi)) for _ in range(2))
    U = ref.rotation(b.vector) @ ref.rotation(a.vector)
    assert abs(PulseSequence("custom", (a, b), U)._fidelity() - 1) < 1e-14
    for _ in range(10):
        alpha = rng.uniform(0, 2 * np.pi)
        assert abs(PulseSequence("custom", (a, b), np.exp(1j * alpha) * U)._fidelity() - 1) < 1e-12


def test_fidelity_examples():
    assert abs(PulseSequence("custom", (), -I2)._fidelity() - 1) < 1e-15
    assert PulseSequence("custom", (Pulse(np.pi, 0.0),), I2)._fidelity() < 1e-15


def test_eig_unitary_diagonal_example():
    U = np.diag([np.exp(1j * np.pi / 4), np.exp(-1j * np.pi / 4)])
    (g0, v0), (g1, v1) = eig_unitary(U)
    assert abs(g0 + np.pi / 4) < 1e-14 and abs(g1 - np.pi / 4) < 1e-14
    assert abs(abs(v0 @ np.array([0, 1])) - 1) < 1e-12
    assert abs(abs(v1 @ np.array([1, 0])) - 1) < 1e-12


def test_eig_unitary_pi_pulse():
    (g0, v0), (g1, v1) = eig_unitary(-1j * SX)
    assert abs(g0 + np.pi / 2) < 1e-14 and abs(g1 - np.pi / 2) < 1e-14
    plus = np.array([1, 1]) / np.sqrt(2)
    minus = np.array([1, -1]) / np.sqrt(2)
    assert abs(abs(np.vdot(plus, v0)) - 1) < 1e-12
    assert abs(abs(np.vdot(minus, v1)) - 1) < 1e-12
    # eigen-relation and orthonormality
    U = -1j * SX
    assert np.linalg.norm(U @ v0 - np.exp(1j * g0) * v0) < 1e-12
    assert abs(np.vdot(v0, v1)) < 1e-12


def test_eig_unitary_degenerate_convention():
    pairs = eig_unitary(I2)
    assert pairs[0][0] == 0.0 and pairs[1][0] == 0.0
    assert np.allclose(pairs[0][1], [1, 0]) and np.allclose(pairs[1][1], [0, 1])


def test_eig_unitary_random_eigenrelation():
    rng = np.random.default_rng(7)
    for _ in range(25):
        U = random_su2(rng)
        for g, v in eig_unitary(U):
            assert np.linalg.norm(U @ v - np.exp(1j * g) * v) < 1e-12


def test_eig_unitary_property_random_u2_down_to_near_degeneracy():
    # random U(2): global phase times a rotation whose angle is log-uniform
    # down to 1e-11, taken near I and near -I
    rng = np.random.default_rng(11)
    worst = 0.0
    for k in range(4000):
        axis = rng.normal(size=3)
        angle = 10 ** rng.uniform(-11, np.log10(np.pi))
        if k % 2:
            angle = 2 * np.pi - angle
        U = np.exp(1j * rng.uniform(-np.pi, np.pi)) * ref.rotation(angle * axis / np.linalg.norm(axis))
        (g0, v0), (g1, v1) = eig_unitary(U)
        assert -np.pi < g0 <= g1 <= np.pi
        worst = max(worst,
                    np.linalg.norm(U @ v0 - np.exp(1j * g0) * v0),
                    np.linalg.norm(U @ v1 - np.exp(1j * g1) * v1),
                    abs(np.vdot(v0, v1)),
                    abs(np.linalg.norm(v0) - 1),
                    abs(np.linalg.norm(v1) - 1))
    assert worst < 1e-12


def test_eig_unitary_phases_match_eigvals():
    rng = np.random.default_rng(12)
    for _ in range(200):
        U = np.exp(1j * rng.uniform(-np.pi, np.pi)) * random_su2(rng)
        phases = [g for g, _ in eig_unitary(U)]
        lam = np.linalg.eigvals(U)
        for g in phases:
            assert np.min(np.abs(lam - np.exp(1j * g))) < 1e-12


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_is_unitary_of_a_non_finite_matrix_is_false(value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for U in (np.full((2, 2), value), [[value, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1j * value]]):
            assert not is_unitary(U)


def test_eig_unitary_degenerate_keeps_global_phase():
    pairs = eig_unitary(np.exp(0.7j) * I2)
    assert abs(pairs[0][0] - 0.7) < 1e-15 and abs(pairs[1][0] - 0.7) < 1e-15
    pairs = eig_unitary(-I2)
    assert pairs[0][0] == pairs[1][0] == np.pi
    assert np.allclose(pairs[0][1], [1, 0]) and np.allclose(pairs[1][1], [0, 1])


# ------------------------------------------------------- quaternion kernel

def test_quaternion_of_zero_and_pi_pulse():
    assert np.array_equal(_quaternion(*planes([0.0, 0.0, 0.0])), [1.0, 0.0, 0.0, 0.0])
    assert np.allclose(_quaternion(*planes([np.pi, 0.0, 0.0])), [0.0, 1.0, 0.0, 0.0], atol=1e-16)


def test_axis_angle_broadcasts_and_matches_the_loop():
    rng = np.random.default_rng(12)
    angle = rng.uniform(-7.0, 7.0, size=(3, 1))
    n = rng.normal(size=(4, 3))
    n /= np.linalg.norm(n, axis=-1, keepdims=True)
    length = rng.uniform(0.5, 2.0, size=4)
    w, scale = _half_angle(angle, length)
    q = np.stack(np.broadcast_arrays(w, *(c * scale for c in length * n.T)), axis=-1)
    assert q.shape == (3, 4, 4)
    for i, j in np.ndindex(3, 4):
        assert frob(_matrix(*q[i, j]), ref.rotation(angle[i, 0] * n[j])) < 1e-15
    assert _half_angle(0.0, 1.0) == (1.0, 0.0)


def test_rotation_of_a_batch_matches_the_loop():
    rng = np.random.default_rng(13)
    ms = rng.normal(scale=3.0, size=(4, 5, 3))
    Us = rotation(ms)
    assert Us.shape == (4, 5, 2, 2)
    for index in np.ndindex(4, 5):
        assert frob(Us[index], ref.rotation(ms[index])) < 1e-15


def test_product_of_no_factors_is_identity():
    assert _product([]) == (1.0, 0.0, 0.0, 0.0)


def test_product_accepts_a_generator_of_batched_factors():
    # batched factors fold plane by plane, and bit for bit as each column alone
    rng = np.random.default_rng(14)
    ms = rng.normal(size=(5, 3, 2, 3))
    factors = np.stack(_quaternion(*planes(ms)), axis=1)
    full = np.stack(_product(q for q in factors), axis=-1)
    for index in np.ndindex(3, 2):
        column = [q[(slice(None), *index)].tolist() for q in factors]
        assert full[index].tolist() == list(_product(column))


def adjoint(U) -> np.ndarray:
    """O[mu, rho] of U^dag sigma_mu U = sum_rho O[mu, rho] sigma_rho, from the matrix U."""
    return np.array([[np.trace(U.conj().T @ PAULIS[mu] @ U @ PAULIS[rho]).real / 2 for rho in range(3)]
                     for mu in range(3)])


def test_frames_are_the_products_before_each_factor():
    # one walk: the share A(m_i) O(V_{i-1}) of each pulse, V_{i-1} the product
    # of the pulses before it, and the last frame, the whole product
    rng = np.random.default_rng(15)
    ms = rng.normal(size=(6, 3))
    shares, product = _shares([tuple(m) for m in ms.tolist()])
    assert len(shares) == 6 and frob(_matrix(*product), ref.product(ms)) < 1e-14
    nodes, weights = np.polynomial.legendre.leggauss(40)  # A(m) = integral_0^1 O(R(x m)) dx
    for i, (m, share) in enumerate(zip(ms, shares)):
        A = sum(w / 2 * adjoint(ref.rotation((x + 1) / 2 * m)) for x, w in zip(nodes, weights))
        assert np.abs(np.reshape(share, (3, 3)) - A @ adjoint(ref.product(ms[:i]))).max() < 1e-14


def hexes(floats) -> list:
    """Each float's bits, the sign of a zero included."""
    return [float(x).hex() for x in floats]


def test_walk_of_no_pulses_is_the_identity():
    assert _shares([]) == ((), (1.0, 0.0, 0.0, 0.0))


@pytest.mark.parametrize("m", [(0.7, -1.2, 0.4), (-0.0, 0.0, 0.0)], ids=["one-pulse", "zero-angle"])
def test_walk_of_one_pulse_is_its_rotation_and_its_frame_average(m):
    shares, product = _shares([m])
    assert hexes(product) == hexes(_quaternion(*m))
    assert shares == (_frame_average(*m),)  # A(m) O(V_0), O(V_0) = I


def test_zero_angle_pulse_with_cos_phi_below_zero_keeps_its_signed_zeros():
    # theta = 0 at cos phi < 0 makes the x component -0.0; the walk starts its
    # frame from q_0 itself, as _product does, so that zero keeps its sign
    seq = PulseSequence("custom", (Pulse(0.0, 2.5), Pulse(1.0, 0.4), Pulse(0.0, 3.5)), (1.0, 0.0, 0.0, 0.0))
    assert math.copysign(1.0, _quaternion(*seq._vectors[0])[1]) == -1.0
    assert hexes(seq._product) == hexes(_product(_quaternion(*m) for m in seq._vectors))


def test_compose_broadcasts_batch_axes():
    rng = np.random.default_rng(16)
    p = _quaternion(*planes(rng.normal(size=(3, 1, 3))))
    q = _quaternion(*planes(rng.normal(size=(4, 3))))
    pq = np.stack(np.broadcast_arrays(*_hamilton(p, q)), axis=-1)
    assert pq.shape == (3, 4, 4)
    assert frob(_matrix(*pq[2, 1]), _matrix(*(c[2, 0] for c in p)) @ _matrix(*(c[1] for c in q))) < 1e-14


def test_rotation_matrix_is_the_adjoint_action():
    rng = np.random.default_rng(17)
    for _ in range(20):
        q = _quaternion(*rng.normal(size=3))
        U, O = _matrix(*q), np.reshape(_bloch(*q), (3, 3))
        for mu in range(3):
            back = U.conj().T @ PAULIS[mu] @ U
            assert frob(back, sum(O[mu, rho] * PAULIS[rho] for rho in range(3))) < 1e-14
        assert frob(O @ O.T, np.eye(3)) < 1e-14 and abs(np.linalg.det(O) - 1) < 1e-14


# one vector as a float triple and as a 1-D array, and batches of vectors
_VECTOR = np.random.default_rng(62).normal(size=3)
FORMS = {
    "float-triple": tuple(_VECTOR.tolist()),
    "1-d": _VECTOR,
    "k-batch": np.random.default_rng(63).normal(size=(4, 3)),
    "k-m-batch": np.random.default_rng(64).normal(size=(2, 5, 3)),
}


@pytest.mark.parametrize("form", FORMS)
def test_rotation_generator_of_each_input_form(form):
    m = FORMS[form]
    G = rotation_generator(m)
    assert G.dtype == np.complex128 and G.shape == np.shape(m)[:-1] + (2, 2)
    assert np.array_equal(G, np.einsum("...k,kij->...ij", np.asarray(m), np.array(ref.TAUS)))
    for index in np.ndindex(np.shape(m)[:-1]):  # each entry is its own vector's generator, on floats
        assert np.array_equal(G[index], rotation_generator(tuple(np.asarray(m)[index].tolist())))


@pytest.mark.parametrize("form", ["float-triple", "k-batch", "k-m-batch"])
def test_matrix_of_quaternion_planes_is_each_float_quaternion_matrix(form):
    q = _quaternion(*planes(FORMS[form]))
    M = _matrix(*q)
    assert M.dtype == np.complex128 and M.shape == np.shape(FORMS[form])[:-1] + (2, 2)
    for index in np.ndindex(M.shape[:-2]):
        assert np.array_equal(M[index], _matrix(*(float(np.asarray(c)[index]) for c in q)))


@pytest.mark.parametrize("form", ["float-quaternion", "1-d", "matrix"])
def test_sequence_target_and_propagator_are_complex_2x2(form):
    q = _quaternion(*FORMS["float-triple"])
    target = {"float-quaternion": q, "1-d": np.array(q), "matrix": ref.rotation(_VECTOR)}[form]
    seq = PulseSequence("custom", (Pulse(1.1, 0.3), Pulse(0.4, 2.0)), target)
    for M, want in ((seq.target, ref.rotation(_VECTOR)), (seq.propagator(), ref.product(ref.vectors_of(seq)))):
        assert M.dtype == np.complex128 and M.shape == (2, 2) and frob(M, want) < 1e-14
    if form != "matrix":  # a quaternion target is kept as given
        assert np.array_equal(seq.target, _matrix(*q))


def test_perturbed_propagator_of_a_sequence_is_complex_2x2():
    seq = synthesize("bb1", 1.1, 0.3)
    U = perturbed_propagator(seq, ErrorChannel.combined(0.02, -0.03))
    assert U.dtype == np.complex128 and U.shape == (2, 2)
    assert frob(U, ref.product(ref.deform(ref.vectors_of(seq), 0.02, -0.03))) < 1e-14
