"""Plain-loop reference for the quaternion kernel in ``cpseq.su2``.

Every rotation here is the closed-form 2x2 matrix
cos(|m|/2) I - i sin(|m|/2) (m/|m|) . sigma, and every product is ``@`` in
a Python loop, one pulse (or one quadrature node) at a time.  Nothing is
imported from ``cpseq``, so the kernel is never checked against itself.
"""

import numpy as np

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
TAUS = [SX / 2, SY / 2, SZ / 2]


def rotation(m) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    angle = float(np.linalg.norm(m))
    if angle == 0.0:
        return I2.copy()
    n = m / angle
    c, s = np.cos(angle / 2), np.sin(angle / 2)
    return np.array([
        [c - 1j * s * n[2], -1j * s * (n[0] - 1j * n[1])],
        [-1j * s * (n[0] + 1j * n[1]), c + 1j * s * n[2]],
    ])


def xy(theta: float, phi: float) -> np.ndarray:
    return np.array([theta * np.cos(phi), theta * np.sin(phi), 0.0])


def vectors_of(seq) -> list[np.ndarray]:
    """Rotation vectors from a sequence's (theta, phi) pulse fields."""
    return [xy(p.theta, p.phi) for p in seq.pulses]


def product(vectors) -> np.ndarray:
    U = I2.copy()
    for m in vectors:
        U = rotation(m) @ U
    return U


def deform(vectors, eps: float, eps_prime: float) -> list[np.ndarray]:
    """Pulse-length error scales m; off-resonance error adds eps' |m| e_z."""
    return [m * (1 + eps) + np.array([0.0, 0.0, eps_prime * np.linalg.norm(m)]) for m in vectors]


def fidelity(T, U) -> float:
    return float(min(abs(np.trace(np.conj(T).T @ U)) / 2, 1.0))


def trace_fidelity(T, q) -> np.ndarray:
    """|Tr(T^dag U)| / 2, clipped into [0, 1], of the matrices U = w I - i (x, y, z) . sigma
    of quaternion planes q = (w, x, y, z), written out on the entries of T."""
    (a, b), (c, d) = np.conj(np.asarray(T, dtype=complex))
    w, x, y, z = q
    tr = (a + d) * w - 1j * (b + c) * x + (c - b) * y + 1j * (d - a) * z
    return np.minimum(np.abs(tr) / 2, 1.0)


def interaction_quadrature(m, G, nodes: int) -> np.ndarray:
    """Gauss-Legendre toggling-frame average, one node at a time."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    out = np.zeros((2, 2), dtype=complex)
    for xi, wi in zip(0.5 * (x + 1.0), 0.5 * w):
        E = rotation(-xi * np.asarray(m, dtype=float))
        out += wi * (E @ G @ E.conj().T)
    return out


def moments(vectors, subdivisions: int) -> tuple[np.ndarray, np.ndarray]:
    """First and second moments by a node-by-node, trace-by-trace loop."""
    x, w = np.polynomial.legendre.leggauss(subdivisions)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    total_angle = sum(np.linalg.norm(m) for m in vectors)
    first, second = np.zeros((3, 3)), np.zeros((3, 3, 3))
    V = I2.copy()
    for m in vectors:
        angle = np.linalg.norm(m)
        if angle == 0.0:
            continue
        for xi, wi in zip(x, w):
            U = rotation(xi * m) @ V
            for mu in range(3):
                tt = U.conj().T @ TAUS[mu] @ U
                coeff = np.array([2 * np.trace(tt @ t).real for t in TAUS])
                first[mu] += wi * (angle / total_angle) * coeff
                second[mu] += wi * np.outer(m, coeff)
        V = rotation(m) @ V
    return first, second
