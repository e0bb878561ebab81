import numpy as np
import pytest

from cpseq.su2 import (
    IDENTITY2,
    PAULIS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    axis_angle,
    compose,
    eig_unitary,
    fidelity,
    frames,
    product,
    quaternion,
    rotation_matrix,
    to_matrix,
    is_hermitian_traceless,
    log_rotation,
    pauli_generator,
    rotation,
    rotation_generator,
    generator_vector,
)

from conftest import frob, random_su2
import loop_reference as ref


def test_pauli_generator_definition():
    assert frob(pauli_generator(3), np.diag([0.5, -0.5])) < 1e-15
    assert frob(pauli_generator(1), SIGMA_X / 2) < 1e-15


def test_pauli_orthogonality_and_normalisation():
    t1, t2 = pauli_generator(1), pauli_generator(2)
    assert abs(np.trace(t1 @ t2)) < 1e-15
    assert abs(np.trace(t1 @ t1) - 0.5) < 1e-15


@pytest.mark.parametrize("bad", [0, 4, -1])
def test_pauli_generator_rejects_bad_index(bad):
    with pytest.raises(ValueError):
        pauli_generator(bad)


def test_rotation_identity():
    assert frob(rotation([0, 0, 0]), IDENTITY2) == 0.0


def test_rotation_pi_about_x():
    assert frob(rotation([np.pi, 0, 0]), -1j * SIGMA_X) < 1e-15


def test_rotation_two_pi_is_minus_identity():
    assert frob(rotation([0, 0, 2 * np.pi]), -IDENTITY2) < 1e-15


def test_rotation_group_property():
    rng = np.random.default_rng(2)
    for _ in range(50):
        U = rotation(rng.normal(size=3)) @ rotation(rng.normal(size=3))
        assert frob(U.conj().T @ U, IDENTITY2) < 1e-12
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
    assert is_hermitian_traceless(H)
    assert np.allclose(generator_vector(H), m, atol=1e-14)


def test_log_rotation_identity_and_pi_pulse():
    assert np.allclose(log_rotation(IDENTITY2), 0.0)
    assert np.allclose(log_rotation(-1j * SIGMA_X), [np.pi, 0, 0], atol=1e-12)


def test_log_rotation_minus_identity_convention():
    assert np.allclose(log_rotation(-IDENTITY2), [0, 0, 2 * np.pi])


def test_log_rotation_roundtrip_100_random():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = rng.normal(size=3)
        m = n / np.linalg.norm(n) * rng.uniform(0.05, 2 * np.pi - 0.05)
        back = log_rotation(rotation(m))
        assert np.max(np.abs(back - m)) < 1e-9
        assert fidelity(rotation(back), rotation(m)) > 1 - 1e-10


def test_log_rotation_rejects_non_unitary():
    with pytest.raises(ValueError):
        log_rotation(np.array([[1.0, 0.1], [0.0, 1.0]]))


def test_fidelity_self_and_global_phase():
    rng = np.random.default_rng(6)
    U = random_su2(rng)
    assert abs(fidelity(U, U) - 1) < 1e-14
    for _ in range(10):
        alpha = rng.uniform(0, 2 * np.pi)
        assert abs(fidelity(U, np.exp(1j * alpha) * U) - 1) < 1e-12


def test_fidelity_examples():
    assert abs(fidelity(IDENTITY2, -IDENTITY2) - 1) < 1e-15
    assert fidelity(IDENTITY2, rotation([np.pi, 0, 0])) < 1e-15


def test_eig_unitary_diagonal_example():
    U = np.diag([np.exp(1j * np.pi / 4), np.exp(-1j * np.pi / 4)])
    (g0, v0), (g1, v1) = eig_unitary(U)
    assert abs(g0 + np.pi / 4) < 1e-14 and abs(g1 - np.pi / 4) < 1e-14
    assert abs(abs(v0 @ np.array([0, 1])) - 1) < 1e-12
    assert abs(abs(v1 @ np.array([1, 0])) - 1) < 1e-12


def test_eig_unitary_pi_pulse():
    (g0, v0), (g1, v1) = eig_unitary(-1j * SIGMA_X)
    assert abs(g0 + np.pi / 2) < 1e-14 and abs(g1 - np.pi / 2) < 1e-14
    plus = np.array([1, 1]) / np.sqrt(2)
    minus = np.array([1, -1]) / np.sqrt(2)
    assert abs(abs(np.vdot(plus, v0)) - 1) < 1e-12
    assert abs(abs(np.vdot(minus, v1)) - 1) < 1e-12
    # eigen-relation and orthonormality
    U = -1j * SIGMA_X
    assert np.linalg.norm(U @ v0 - np.exp(1j * g0) * v0) < 1e-12
    assert abs(np.vdot(v0, v1)) < 1e-12


def test_eig_unitary_degenerate_convention():
    pairs = eig_unitary(IDENTITY2)
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
        U = np.exp(1j * rng.uniform(-np.pi, np.pi)) * rotation(angle * axis / np.linalg.norm(axis))
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


def test_eig_unitary_degenerate_keeps_global_phase():
    pairs = eig_unitary(np.exp(0.7j) * IDENTITY2)
    assert abs(pairs[0][0] - 0.7) < 1e-15 and abs(pairs[1][0] - 0.7) < 1e-15
    pairs = eig_unitary(-IDENTITY2)
    assert pairs[0][0] == pairs[1][0] == np.pi
    assert np.allclose(pairs[0][1], [1, 0]) and np.allclose(pairs[1][1], [0, 1])


# ------------------------------------------------------- quaternion kernel

def test_quaternion_of_zero_and_pi_pulse():
    assert np.array_equal(quaternion([0.0, 0.0, 0.0]), [1.0, 0.0, 0.0, 0.0])
    assert np.allclose(quaternion([np.pi, 0.0, 0.0]), [0.0, 1.0, 0.0, 0.0], atol=1e-16)


def test_axis_angle_broadcasts_and_matches_the_loop():
    rng = np.random.default_rng(12)
    angle = rng.uniform(-7.0, 7.0, size=(3, 1))
    n = rng.normal(size=(4, 3))
    n /= np.linalg.norm(n, axis=-1, keepdims=True)
    length = rng.uniform(0.5, 2.0, size=4)
    q = axis_angle(angle, *(length * n.T), length)
    assert q.shape == (3, 4, 4)
    for i, j in np.ndindex(3, 4):
        assert frob(to_matrix(q[i, j]), ref.rotation(angle[i, 0] * n[j])) < 1e-15
    assert np.array_equal(axis_angle(0.0, 0.0, 0.0, 0.0, 0.0), [1.0, 0.0, 0.0, 0.0])


def test_rotation_of_a_batch_matches_the_loop():
    rng = np.random.default_rng(13)
    ms = rng.normal(scale=3.0, size=(4, 5, 3))
    Us = rotation(ms)
    assert Us.shape == (4, 5, 2, 2)
    for index in np.ndindex(4, 5):
        assert frob(Us[index], ref.rotation(ms[index])) < 1e-15


def test_product_of_no_factors_is_identity():
    assert np.array_equal(product(np.zeros((0, 4))), [1.0, 0.0, 0.0, 0.0])


def test_product_accepts_a_generator_of_batched_factors():
    rng = np.random.default_rng(14)
    ms = rng.normal(size=(5, 3, 2, 3))
    qs = quaternion(ms)
    assert np.array_equal(product(q for q in qs), product(qs))


def test_frames_are_the_products_before_each_factor():
    rng = np.random.default_rng(15)
    ms = rng.normal(size=(6, 3))
    V = frames(quaternion(ms))
    assert np.array_equal(V[0], [1.0, 0.0, 0.0, 0.0])
    for i in range(1, 6):
        assert frob(to_matrix(V[i]), ref.product(ms[:i])) < 1e-14


def test_compose_broadcasts_batch_axes():
    rng = np.random.default_rng(16)
    p = quaternion(rng.normal(size=(3, 1, 3)))
    q = quaternion(rng.normal(size=(4, 3)))
    pq = compose(p, q)
    assert pq.shape == (3, 4, 4)
    assert frob(to_matrix(pq[2, 1]), to_matrix(p[2, 0]) @ to_matrix(q[1])) < 1e-14


def test_rotation_matrix_is_the_adjoint_action():
    rng = np.random.default_rng(17)
    for _ in range(20):
        q = quaternion(rng.normal(size=3))
        U, O = to_matrix(q), rotation_matrix(q)
        for mu in range(3):
            back = U.conj().T @ PAULIS[mu] @ U
            assert frob(back, sum(O[mu, rho] * PAULIS[rho] for rho in range(3))) < 1e-14
        assert frob(O @ O.T, np.eye(3)) < 1e-14 and abs(np.linalg.det(O) - 1) < 1e-14

