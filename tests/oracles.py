"""Test-only helpers: random inputs and reference formulas.

The random draws feed seeded tests; ``bob_marginal``,
``average_recovery`` and ``grid_max_average_fidelity`` are independent
formulas and searches the package's array code is checked against.
"""
import numpy as np

from qsslab.adversary import AttackPlan
from qsslab.linalg import PAULI_X, PAULI_Y, PAULI_Z, density_from_bloch, is_pure, state_fidelity
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
