"""Plain-loop reference for the quaternion kernel in ``cpseq.su2``.

Every rotation here is the closed-form 2x2 matrix
cos(|m|/2) I - i sin(|m|/2) (m/|m|) . sigma, and every product is ``@`` in
a Python loop, one pulse (or one quadrature node) at a time.  Nothing is
imported from ``cpseq``, so the kernel is never checked against itself.

The per-pulse kernel at the end is the other kind of reference: the
landscape and ladder arithmetic written out plainly, one rotation evaluated
per pulse, a fold that starts from the identity and the whole overlap
quaternion, for tests that require the package's kernel to give its exact
bits.
"""

import math

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


def product_error_split(vectors) -> tuple[np.ndarray, np.ndarray]:
    """Split a 3-pulse sequence's product-frame error into channel parts.

    Returns (length_part, detuning_part) such that

        U G = eps * R(m3) @ length_part + eps_prime * detuning_part

    holds exactly against the accumulated generator G of the combined
    channel, for any strengths.  A matrix derivation independent of the
    package's toggling-frame accumulation.  A sequence compensates the
    pulse-length error iff length_part = 0 and the off-resonance error iff
    detuning_part = 0.
    """
    if len(vectors) != 3:
        raise ValueError(f"product error split needs exactly 3 pulses, got {len(vectors)}")
    R1, R2, R3 = (rotation(m) for m in vectors)
    W1, W2, W3 = (sum(c * t for c, t in zip(m, TAUS)) for m in vectors)
    s1, s2, s3 = (np.sin(np.linalg.norm(m) / 2) for m in vectors)
    length_part = W3 @ R2 @ R1 + R2 @ W2 @ R1 + R2 @ R1 @ W1
    detuning_part = s3 * SZ @ R2 @ R1 + s2 * R3 @ SZ @ R1 + s1 * R3 @ R2 @ SZ
    return length_part, detuning_part


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


# ---- the per-pulse kernel --------------------------------------------------


def _lib(x):
    return math if isinstance(x, (float, int)) else np


def _hamilton(p, q):
    pw, px, py, pz = p
    qw, qx, qy, qz = q
    return (
        pw * qw - px * qx - py * qy - pz * qz,
        pw * qx + px * qw + py * qz - pz * qy,
        pw * qy + py * qw + pz * qx - px * qz,
        pw * qz + pz * qw + px * qy - py * qx,
    )


def _half_angle(angle, x, y, z, length):
    lib = _lib(angle)
    half = angle / 2
    scale = lib.sin(half) / (length + (length == 0.0))
    return lib.cos(half), x * scale, y * scale, z * scale


def per_pulse_overlap(pulses, target, eps, eps_prime) -> tuple:
    """T^dag U = (w, x, y, z) for the (theta, phi) pulses deformed by (eps, eps'),
    against the target quaternion (w, x, y, z); floats or broadcast arrays."""
    stretch = 1.0 + eps
    r = _lib(stretch).sqrt(stretch * stretch + eps_prime * eps_prime)
    acc = (1.0, 0.0, 0.0, 0.0)
    for theta, phi in pulses:
        acc = _hamilton(_half_angle(theta * r, stretch * math.cos(phi), stretch * math.sin(phi),
                                    eps_prime, r), acc)
    w, x, y, z = target
    return _hamilton((w, -x, -y, -z), acc)


def per_pulse_landscape(pulses, target, eps_values, eps_prime_values) -> np.ndarray:
    """Fidelity cells min(|w|, 1) over the outer product of the two axes."""
    w = per_pulse_overlap(pulses, target, eps_values[:, None], eps_prime_values[None, :])[0]
    return np.broadcast_to(np.minimum(np.abs(w), 1.0), (eps_values.size, eps_prime_values.size))


def per_pulse_infidelity(pulses, target, eps: float, eps_prime: float) -> float:
    """1 - F = |v|^2 / (1 + |w|) for T^dag U = (w, v), on Python floats."""
    w, x, y, z = per_pulse_overlap(pulses, target, eps, eps_prime)
    return (x * x + y * y + z * z) / (1 + abs(w))


def ladder_slope(points) -> float:
    """Least-squares slope of log f against log s over (s, f) points."""
    xs, ys = [math.log(s) for s, _ in points], [math.log(f) for _, f in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) * (x - mx) for x in xs))
