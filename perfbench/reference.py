"""Independent reference for checking cpseq outputs.

Nothing here imports cpseq.  Every check compares what cpseq returned with
plain-numpy 2x2 algebra written out below, and with the family table that
the README and the synthesizer docstrings declare.  A check returns a list
of failure names; an empty list means the output is correct.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

TWO_PI = 2 * np.pi
I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
TAUS = (SX / 2, SY / 2, SZ / 2)

LADDER = (1e-3, 2e-3, 4e-3, 8e-3, 1e-2)
# cpseq drops ladder points with 1 - F at or below this floor.
PRECISION_FLOOR = 1e-14
# A difference of two products computed in another order can move 1 - F by
# a few ulps of 1, so points this close to the floor may fall either side.
FLOOR_SLACK = 10.0

# Central differences with this step leave O(step^2) truncation and
# O(eps_machine / step) rounding.  Against cpseq's analytic generators the
# largest gap seen over 300 random inputs per family was 6e-9.
FD_STEP = 1e-5
FD_GAP = 1e-7
# A first-order generator this large is clearly not cancelled.
UNCANCELLED = 1e-4
PRODUCT_TOL = 1e-10
PHASE_TOL = 1e-8
CELL_TOL = 1e-12
MOMENT_TOL = 1e-9


@dataclass(frozen=True)
class Family:
    """What the README and the synthesizer docstrings declare for a family."""

    pulses: int
    theta: tuple[float, float] | None  # None: the family only makes pi rotations
    cancels: tuple[str, ...]
    tolerance: float
    uncancelled: tuple[str, ...] = ()  # channels that must stay first order


FAMILIES = {
    "plain": Family(1, (0.01, TWO_PI - 0.01), (), 1e-10, ("pulse_length", "off_resonance")),
    "corpse": Family(3, (0.01, TWO_PI), ("off_resonance",), 1e-10),
    # SCROFULOUS is solvable only up to about 3.8383 rad.
    "scrofulous": Family(3, (0.01, 3.8), ("pulse_length",), 1e-10),
    "cis-cccp": Family(9, (0.01, 3.8), ("pulse_length", "off_resonance"), 1e-9),
    "bb1": Family(4, (0.01, TWO_PI), ("pulse_length",), 1e-10),
    "alway-jones": Family(8, None, ("pulse_length", "off_resonance"), 1e-9),
    # Negative control: the reverse concatenation leaves detuning first order.
    "scrofulous-in-corpse": Family(9, (0.01, TWO_PI - 0.01), ("pulse_length",), 1e-10,
                                   ("off_resonance",)),
}
# Largest rotation angle SCROFULOUS can make: sin(t)/t reaches its minimum
# -0.2172336 at t = 4.4934, so (2/pi) cos(theta/2) must stay above it.
SCROFULOUS_MAX_THETA = 2 * np.arccos(-0.21723362821122166 * np.pi / 2)


def rot(m) -> np.ndarray:
    """exp(-i m.sigma/2) written out in closed form."""
    m = np.asarray(m, dtype=float)
    angle = float(np.sqrt(m @ m))
    if angle == 0.0:
        return I2.copy()
    n = m / angle
    c, s = np.cos(angle / 2), np.sin(angle / 2)
    return c * I2 - 1j * s * (n[0] * SX + n[1] * SY + n[2] * SZ)


def xy(theta: float, phi: float) -> np.ndarray:
    return np.array([theta * np.cos(phi), theta * np.sin(phi), 0.0])


def product(vectors) -> np.ndarray:
    """Ideal product R(m_k) ... R(m_1); vectors[0] is applied first."""
    U = I2.copy()
    for m in vectors:
        U = rot(m) @ U
    return U


def gate_fidelity(U, V) -> float:
    return float(min(abs(np.trace(np.conj(U).T @ V)) / 2, 1.0))


def deform(vectors, eps: float, eps_prime: float) -> list[np.ndarray]:
    """Pulse-length error scales m; off-resonance error adds eps' |m| e_z."""
    return [m * (1 + eps) + np.array([0.0, 0.0, eps_prime * np.sqrt(m @ m)]) for m in vectors]


def fd_generator(vectors, eps_dir: float, eps_prime_dir: float) -> np.ndarray:
    """Accumulated first-order generator by central differences of the product."""
    U0 = product(vectors)
    Up = product(deform(vectors, FD_STEP * eps_dir, FD_STEP * eps_prime_dir))
    Um = product(deform(vectors, -FD_STEP * eps_dir, -FD_STEP * eps_prime_dir))
    G = 1j * np.conj(U0).T @ (Up - Um) / (2 * FD_STEP)
    return (G + np.conj(G).T) / 2


def axis_strengths(axis: str, s: float) -> tuple[float, float]:
    return {"eps": (s, 0.0), "eps-prime": (0.0, s), "diagonal": (s, s)}[axis]


def ladder_infidelities(vectors, target, axis: str) -> np.ndarray:
    return np.array([1.0 - gate_fidelity(target, product(deform(vectors, *axis_strengths(axis, s))))
                     for s in LADDER])


def pulses_of(doc_pulses) -> list[np.ndarray]:
    return [xy(float(p["theta"]), float(p["phi"])) for p in doc_pulses]


def vectors_of(seq) -> list[np.ndarray]:
    """Rotation vectors from a cpseq PulseSequence's public (theta, phi) fields."""
    return [xy(p.theta, p.phi) for p in seq.pulses]


def near(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def same_phase(a: float, b: float, tol: float = PHASE_TOL) -> bool:
    return abs(np.exp(1j * a) - np.exp(1j * b)) <= tol


# ---- sequences -------------------------------------------------------------

def check_sequence(family: str, theta: float, phi: float, vectors) -> list[str]:
    """Pulse count and exact product of a synthesized sequence."""
    fails = []
    spec = FAMILIES[family]
    if len(vectors) != spec.pulses:
        fails.append(f"{family}-pulse-count")
    if gate_fidelity(product(vectors), rot(xy(theta, phi))) < 1 - PRODUCT_TOL:
        fails.append(f"{family}-product")
    return fails


def check_channels(family: str, vectors, norms: dict, coefficients: dict | None = None,
                   fd: dict | None = None) -> list[str]:
    """Declared-channel cancellation against the reference FD oracle.

    ``norms`` holds cpseq's Frobenius norms per channel; ``coefficients`` and
    ``fd`` optionally hold cpseq's analytic and finite-difference generators.
    """
    fails = []
    spec = FAMILIES[family]
    for channel, direction in (("pulse_length", (1.0, 0.0)), ("off_resonance", (0.0, 1.0))):
        ref = fd_generator(vectors, *direction)
        ref_norm = float(np.linalg.norm(ref))
        if not near(norms[channel], ref_norm, FD_GAP):
            fails.append(f"{family}-{channel}-norm")
        if channel in spec.cancels and (norms[channel] > spec.tolerance or ref_norm > FD_GAP):
            fails.append(f"{family}-{channel}-not-cancelled")
        if channel in spec.uncancelled and ref_norm < UNCANCELLED:
            fails.append(f"{family}-{channel}-negative-control")
        if coefficients is not None and np.linalg.norm(coefficients[channel] - ref) > FD_GAP:
            fails.append(f"{family}-{channel}-generator")
        if fd is not None and np.linalg.norm(fd[channel] - ref) > FD_GAP:
            fails.append(f"{family}-{channel}-fd-oracle")
    return fails


def dynamical_phase(vectors, psi) -> float:
    """-sum_i <psi_i| W_i |psi_i> along the cyclic state psi."""
    acc, V = 0.0, I2.copy()
    for m in vectors:
        state = V @ psi
        W = (m[0] * SX + m[1] * SY + m[2] * SZ) / 2
        acc -= float(np.real(np.conj(state) @ W @ state))
        V = rot(m) @ V
    return acc


def check_phases(family: str, vectors, total, dynamical, geometric) -> list[str]:
    """Eigenphases of the product and the dynamical phase along each cyclic state."""
    lam, vecs = np.linalg.eig(product(vectors))
    ref = np.angle(lam)
    states = [(float(t), float(d), float(g)) for t, d, g in zip(total, dynamical, geometric)]
    if any(not same_phase(t, d + g) for t, d, g in states):
        return [f"{family}-phase-sum"]
    if abs(lam[0] - lam[1]) <= 1e-6:
        ok = all(same_phase(t, ref[0], 1e-5) for t, _, _ in states)
        return [] if ok else [f"{family}-phase-total"]
    for k in range(2):
        match = [s for s in states if same_phase(s[0], ref[k])]
        if len(match) != 1:
            return [f"{family}-phase-total"]
        if not same_phase(match[0][1], dynamical_phase(vectors, vecs[:, k])):
            return [f"{family}-phase-dynamical"]
    return []


def ladder_outcome(vectors, target, axis: str) -> tuple[np.ndarray, bool, bool]:
    """Reference infidelities and whether a fit may resolve or refuse."""
    infid = ladder_infidelities(vectors, target, axis)
    may_resolve = int(np.sum(infid > PRECISION_FLOOR / FLOOR_SLACK)) >= 2
    may_refuse = int(np.sum(infid > PRECISION_FLOOR * FLOOR_SLACK)) < 2
    return infid, may_resolve, may_refuse


def check_scaling(family: str, vectors, target, axis: str, strengths, infidelities,
                  slope: float) -> list[str]:
    """Kept ladder points and the log-log slope of a fit that cpseq made."""
    ref, may_resolve, _ = ladder_outcome(vectors, target, axis)
    if not may_resolve:
        return [f"{family}-scaling-{axis}-unexpected-fit"]
    ref_at = dict(zip(LADDER, ref))
    points = [(float(s), float(f)) for s, f in zip(strengths, infidelities)]
    if any(s not in ref_at or abs(f - ref_at[s]) > 1e-13 + 1e-6 * ref_at[s] for s, f in points):
        return [f"{family}-scaling-{axis}-infidelity"]
    # Near the floor the logarithms carry percent-level noise; compare the
    # slope only where every kept point is well above it.
    if min(f for _, f in points) > 1e-11:
        ref_slope = np.polyfit(np.log([s for s, _ in points]), np.log([f for _, f in points]), 1)[0]
        if abs(ref_slope - slope) > 1e-4:
            return [f"{family}-scaling-{axis}-slope"]
    return []


def check_refusal_of_scaling(family: str, vectors, target, axis: str) -> list[str]:
    """A 'fewer than 2 ladder points' refusal is correct only if the reference agrees."""
    _, _, may_refuse = ladder_outcome(vectors, target, axis)
    return [] if may_refuse else [f"{family}-scaling-{axis}-wrong-refusal"]


def moment_reference(vectors, nodes: int = 64) -> tuple[np.ndarray, np.ndarray]:
    """First and second interaction-picture moments by batched Gauss-Legendre."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    angles = [float(np.sqrt(m @ m)) for m in vectors]
    total = sum(angles)
    first, second = np.zeros((3, 3)), np.zeros((3, 3, 3))
    V = I2.copy()
    for m, angle in zip(vectors, angles):
        if angle == 0.0:
            continue
        U = np.array([rot(xi * m) @ V for xi in x])
        Ud = np.conj(np.transpose(U, (0, 2, 1)))
        for mu, tau in enumerate(TAUS):
            tt = Ud @ tau @ U
            coeff = np.stack([2 * np.einsum("nij,ji->n", tt, t).real for t in TAUS], axis=1)
            first[mu] += (angle / total) * (w @ coeff)
            second[mu] += np.outer(m, w @ coeff)
        V = rot(m) @ V
    return first, second


def check_moments(family: str, vectors, first, second) -> list[str]:
    ref_first, ref_second = moment_reference(vectors)
    fails = []
    if np.max(np.abs(np.asarray(first) - ref_first)) > MOMENT_TOL:
        fails.append(f"{family}-moment-first")
    if np.max(np.abs(np.asarray(second) - ref_second)) > MOMENT_TOL:
        fails.append(f"{family}-moment-second")
    return fails


# ---- landscapes -------------------------------------------------------------

def cell_fidelity(vectors, target, eps: float, eps_prime: float) -> float:
    return gate_fidelity(target, product(deform(vectors, eps, eps_prime)))


def check_grid(family: str, vectors, target, eps_values, eps_prime_values, fidelity,
               resolution: int, rng: np.random.Generator, samples: int = 12,
               eps_range=(-0.1, 0.1)) -> list[str]:
    """Axes, shape and randomly sampled cells of a fidelity grid."""
    fails = []
    F = np.asarray(fidelity)
    axis = np.linspace(eps_range[0], eps_range[1], resolution)
    if F.shape != (resolution, resolution):
        return [f"{family}-grid-shape"]
    if not (np.array_equal(np.asarray(eps_values), axis)
            and np.array_equal(np.asarray(eps_prime_values), axis)):
        fails.append(f"{family}-grid-axes")
    for i, j in rng.integers(0, resolution, size=(samples, 2)):
        if abs(F[i, j] - cell_fidelity(vectors, target, axis[i], axis[j])) > CELL_TOL:
            fails.append(f"{family}-grid-cell")
            break
    return fails


def check_area(family: str, fidelity, threshold: float, area: float) -> list[str]:
    ref = float(np.count_nonzero(np.asarray(fidelity) >= threshold)) / np.asarray(fidelity).size
    return [] if near(area, ref, 1e-15) else [f"{family}-robust-area"]


def check_csv(family: str, text: str, eps_values, eps_prime_values, fidelity,
              rng: np.random.Generator, samples: int = 12) -> list[str]:
    """Header, row count and sampled rows of landscape CSV text."""
    lines = text.split("\n")
    n = len(eps_values)
    m = len(eps_prime_values)
    if lines[0] != "eps,eps_prime,fidelity" or lines[-1] != "" or len(lines) != n * m + 2:
        return [f"{family}-csv-rows"]
    F = np.asarray(fidelity)
    for i, j in zip(rng.integers(0, n, samples), rng.integers(0, m, samples)):
        row = [float(x) for x in lines[1 + i * m + j].split(",")]
        if row != [float(eps_values[i]), float(eps_prime_values[j]), float(F[i, j])]:
            return [f"{family}-csv-value"]
    return []


def check_json_grid(family: str, text: str, eps_values, eps_prime_values, fidelity,
                    rng: np.random.Generator, samples: int = 12) -> list[str]:
    """Keys, row count and sampled cells of the landscape JSON document."""
    doc = json.loads(text)
    F = np.asarray(fidelity)
    if (list(doc) != ["family", "eps", "eps_prime", "fidelity"] or doc["family"] != family
            or len(doc["fidelity"]) != len(eps_values)
            or any(len(row) != len(eps_prime_values) for row in doc["fidelity"])):
        return [f"{family}-json-rows"]
    if doc["eps"] != [float(e) for e in eps_values]:
        return [f"{family}-json-axes"]
    for i, j in zip(rng.integers(0, F.shape[0], samples), rng.integers(0, F.shape[1], samples)):
        if doc["fidelity"][i][j] != float(F[i, j]):
            return [f"{family}-json-value"]
    return []


# ---- closed forms used to build wire documents ------------------------------

def corpse_pulses(theta: float, phi: float, winding=(1, 2, 1)) -> list[tuple[float, float]]:
    kappa = np.arcsin(np.sin(theta / 2) / 2)
    n1, n2, n3 = winding
    return [(theta / 2 - kappa + TWO_PI * n1, phi), (-2 * kappa + TWO_PI * n2, phi + np.pi),
            (theta / 2 - kappa + TWO_PI * n3, phi)]


def bb1_pulses(theta: float, phi: float) -> list[tuple[float, float]]:
    c = np.arccos(-theta / (4 * np.pi))
    return [(theta, phi), (np.pi, phi + c), (TWO_PI, phi + 3 * c), (np.pi, phi + c)]


def refusal_applies(family: str, theta: float, winding) -> bool:
    """Whether the family's documented domain excludes (theta, winding)."""
    if winding is not None:
        if family == "cis-cccp" and winding[0] - winding[1] + winding[2] != 0:
            return True
        if family in ("corpse", "cis-cccp"):
            if any(a < 0 for a, _ in corpse_pulses(theta, 0.0, winding)):
                return True
    if family in ("scrofulous", "cis-cccp"):
        return theta > SCROFULOUS_MAX_THETA
    return False


def reduced_product(phases) -> np.ndarray:
    return product([xy(np.pi, p) for p in phases])
