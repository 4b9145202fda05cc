"""Test-only helpers: random inputs, reference formulas and witnesses.

The random draws feed seeded tests; ``bob_marginal``,
``average_recovery`` and ``grid_max_average_fidelity`` are independent
formulas and searches the package's array code is checked against.
``recovery_amplitude`` and the two Bloch-mean bounds are the closed-form
witnesses of the recovery law and of the universal detection ceiling.
"""
import numpy as np

from qsslab.adversary import AttackPlan
from qsslab.errors import ValidationError
from qsslab.linalg import (PAULI_X, PAULI_Y, PAULI_Z, TOL, bloch_from_density, density_from_bloch,
                           fidelity, is_pure, state_fidelity)
from qsslab.nonces import NonceSet, SECRETS, share_state, validate_secret


def haar_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random pure state of the given dimension."""
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def haar_unitaries(n: int, rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    """Stack of n Haar-random dim x dim unitaries, shape (n, dim, dim)."""
    g = rng.normal(size=(n, dim, dim)) + 1j * rng.normal(size=(n, dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


def random_density(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    """Random full-rank density matrix (normalized Ginibre square)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def bob_marginal(state) -> np.ndarray:
    """Reduced state of Bob's (second) qubit for a pure two-qubit state."""
    a = np.asarray(state, dtype=complex).reshape(2, 2)
    return a.T @ a.conj()


def average_recovery(plan: AttackPlan, nonce_set: NonceSet, s: str) -> float:
    """Average over nonces of the probability that Stage III yields s."""
    n = SECRETS.index(validate_secret(s))
    plan.validate_for(nonce_set)
    total = 0.0
    for i, psi in enumerate(nonce_set.states):
        total += state_fidelity(share_state(psi, s), plan.steered[i, n])
    return total / len(nonce_set)


def recovery_amplitude(overlap_sq: float) -> float:
    """Recovery probability at x = |<s|psi>|^2: x (3 - 4x)^2, the exact
    |<s| U_psi U_s |psi>|^2 for any pure psi with that overlap.  It reaches
    1 only at x = 1/4 and at the degenerate x = 1."""
    x = float(overlap_sq)
    if not 0.0 <= x <= 1.0 + TOL:
        raise ValidationError(f"overlap_sq must lie in [0, 1], got {x}")
    return x * (3.0 - 4.0 * x) ** 2


def _pure_blochs(states) -> np.ndarray:
    mats = np.asarray(states, dtype=complex)
    if not is_pure(mats).all():
        raise ValidationError("the Bloch-mean bounds require pure states")
    return bloch_from_density(mats)


def bloch_mean_bound(states) -> float:
    """Average fidelity of pure qubit states against their Bloch mean: (1 +
    |mean|^2)/2, which drops to 1/2 for balanced collections."""
    gamma = density_from_bloch(_pure_blochs(states).mean(axis=0))
    return float(np.mean([fidelity(np.asarray(s, dtype=complex), gamma) for s in states]))


def bloch_mean_distance_bound(states) -> float:
    """(1/k) sum_i (1 - |b_i - mean|^2 / 4) = 3/4 + |mean|^2 / 4 >= 3/4, the
    Euclidean bound the Bloch mean attains: no point of the ball does better."""
    blochs = _pure_blochs(states)
    return float(np.mean(1.0 - 0.25 * ((blochs - blochs.mean(axis=0)) ** 2).sum(axis=1)))


_GRID_STEP = 0.1


def _ball_objective(points: np.ndarray, b_mean: np.ndarray, c_mean: float) -> np.ndarray:
    """Average qubit fidelity at each Bloch point: 1/2 + (p . b)/2 + c sqrt(1 - |p|^2)."""
    root = np.sqrt(np.maximum(1.0 - (points * points).sum(axis=-1), 0.0))
    return 0.5 + 0.5 * (points @ b_mean) + c_mean * root


def _project_to_ball(points: np.ndarray) -> np.ndarray:
    norms = np.sqrt((points * points).sum(axis=-1, keepdims=True))
    return points / np.maximum(norms, 1.0)


def grid_max_average_fidelity(sigmas) -> tuple[float, np.ndarray]:
    """Numerical maximizer of the average fidelity against ``sigmas`` over
    single-qubit states: (value, optimizer density matrix).

    The objective's coefficients are computed state by state: the mean
    Bloch vector from Pauli traces and the mean sqrt(det sigma), with a
    pure sigma contributing 0.  The search scans a lattice over the Bloch
    ball (step 0.1, about 4.2k points), then refines by pattern search:
    poll a local grid at a fixed step until no move improves the (concave)
    objective, then shrink the step.  Unlike plain step-halving this does
    not bound the total travel, which matters when the optimum sits on the
    sphere and the lattice argmax is off in angle.
    """
    sigmas = [np.asarray(s, dtype=complex) for s in sigmas]
    b_mean = np.mean([[np.trace(s @ pauli).real for pauli in (PAULI_X, PAULI_Y, PAULI_Z)]
                      for s in sigmas], axis=0)
    c_mean = float(np.mean([0.0 if is_pure(s) else np.sqrt(max(np.linalg.det(s).real, 0.0))
                            for s in sigmas]))
    xs = np.linspace(-1.0, 1.0, int(round(2.0 / _GRID_STEP)) + 1)
    pts = np.stack(np.meshgrid(xs, xs, xs, indexing="ij"), axis=-1).reshape(-1, 3)
    pts = pts[(pts * pts).sum(axis=1) <= 1.0 + 1e-12]
    values = _ball_objective(pts, b_mean, c_mean)
    best = int(values.argmax())
    p, value = pts[best], float(values[best])
    offsets = np.stack(
        np.meshgrid(*([np.arange(-2, 3)] * 3), indexing="ij"), axis=-1
    ).reshape(-1, 3).astype(float)
    step = _GRID_STEP
    while step > 1e-9:
        for _ in range(10_000):
            local = _project_to_ball(p + offsets * step)
            vals = _ball_objective(local, b_mean, c_mean)
            j = int(vals.argmax())
            if vals[j] <= value:
                break
            p, value = local[j], float(vals[j])
        step /= 2.0
    return value, density_from_bloch(p)
