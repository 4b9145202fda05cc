"""Test-only helpers: random inputs and reference formulas.

The random draws feed seeded tests; ``bob_marginal`` and
``average_recovery`` are independent formulas the package's array code is
checked against.
"""
import numpy as np

from qsslab.adversary import AttackPlan
from qsslab.linalg import state_fidelity
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
