"""Exact complex linear algebra for one- and two-qubit states.

Everything here works on plain numpy arrays: state vectors are 1-D complex
arrays of length 2 or 4 (two-qubit basis order 00, 01, 10, 11 with the
first tensor factor held by Eve), density matrices and unitaries are 2-D
complex arrays.  All operations are pure functions; inputs are never
mutated.

Tolerance: TOL (1e-9) for algebraic identities that hold exactly at these
dimensions.
"""
from __future__ import annotations

import numpy as np

from .errors import UnsupportedCaseError, ValidationError

TOL = 1e-9

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def validate_state(v, *, dim: int | None = None, tol: float = 1e-6,
                   what: str = "state") -> np.ndarray:
    """Check finiteness and normalization; return a fresh complex array.

    States within `tol` of unit norm are renormalized exactly; anything
    further off is rejected.
    """
    arr = np.asarray(v, dtype=complex).reshape(-1)
    # Amplitudes of a normalized state have modulus <= 1 (NaN fails the
    # comparison too); checking that first keeps the norm from overflowing.
    modulus = np.abs(arr)
    if not (modulus <= 1.0 + tol).all():
        if not np.isfinite(arr).all():
            raise ValidationError(f"{what} contains non-finite amplitudes")
        raise ValidationError(
            f"{what} is not normalized (an amplitude has modulus {modulus.max():.9g})")
    if dim is not None and arr.shape[0] != dim:
        raise ValidationError(f"{what} must have dimension {dim}, got {arr.shape[0]}")
    if arr.shape[0] not in (2, 4):
        raise ValidationError(f"{what} must have dimension 2 or 4, got {arr.shape[0]}")
    norm = np.linalg.norm(arr)
    if abs(norm - 1.0) > tol:
        raise ValidationError(f"{what} is not normalized (norm {norm:.9g})")
    return arr / norm


def validate_unitary(u, *, dim: int | None = None, tol: float = 1e-6,
                     names=None) -> np.ndarray:
    """Check a unitary, or a stack of unitaries along the leading axes.

    A failure in a stack names its first bad matrix: ``names[j]`` for the
    j-th matrix in row-major order when given, else ``matrix j``.
    """
    mat = np.asarray(u, dtype=complex)
    if mat.ndim < 2 or mat.shape[-1] != mat.shape[-2]:
        raise ValidationError("unitary must be square")
    if dim is not None and mat.shape[-1] != dim:
        raise ValidationError(f"unitary must be {dim}x{dim}, got {mat.shape[-2]}x{mat.shape[-1]}")
    # Entries of a unitary have modulus <= 1; this also rejects NaN and Inf,
    # and keeps the product below from overflowing.
    bad_entries = ~(np.abs(mat).max(axis=(-2, -1), initial=0.0) <= 1.0 + tol)
    safe = np.where(bad_entries[..., None, None], 0.0, mat)
    gram = np.einsum("...ji,...jk->...ik", safe.conj(), safe) - np.eye(mat.shape[-1])
    bad = bad_entries | (np.abs(gram).max(axis=(-2, -1), initial=0.0) > tol)
    if bad.any():
        j = int(np.argmax(bad.reshape(-1)))
        reason = ("unitary has non-finite entries or entries above 1 in modulus"
                  if bad_entries.reshape(-1)[j] else "matrix is not unitary")
        if mat.ndim > 2:
            reason = f"{names[j] if names is not None else f'matrix {j}'}: {reason}"
        raise ValidationError(reason)
    return mat


def tensor(a, b) -> np.ndarray:
    """Tensor product of two single-qubit states; basis index 2*i(a) + i(b)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != (2,) or b.shape != (2,):
        raise ValidationError("tensor expects two single-qubit state vectors")
    return np.kron(a, b)


def pure_density(v) -> np.ndarray:
    """|v><v| for a state vector."""
    v = np.asarray(v, dtype=complex)
    return np.outer(v, v.conj())


def partial_trace_E(rho) -> np.ndarray:
    """Trace out the first (Eve-side) qubit of a two-qubit density matrix."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValidationError("partial_trace_E expects a 4x4 density matrix")
    return rho[:2, :2] + rho[2:, 2:]


def bob_marginal(state) -> np.ndarray:
    """Reduced state of Bob's (second) qubit for a pure two-qubit state."""
    a = np.asarray(state, dtype=complex).reshape(2, 2)
    return a.T @ a.conj()


def is_pure(rho, tol: float = TOL):
    """``|Tr rho^2 - 1| <= tol``; elementwise over leading axes of a stack."""
    rho = np.asarray(rho, dtype=complex)
    return np.abs(np.einsum("...ab,...ba->...", rho, rho).real - 1.0) <= tol


def state_fidelity(a, b) -> float:
    """|<a|b>|^2 for two pure states of equal dimension."""
    return float(abs(np.vdot(np.asarray(a), np.asarray(b))) ** 2)


def _dominant_eigvec(rho) -> np.ndarray:
    vals, vecs = np.linalg.eigh(rho)
    return vecs[:, -1]


def fidelity(rho, sigma) -> float:
    """Squared-convention fidelity, F(pure, pure) = |<a|b>|^2.

    Dimension 2 uses the qubit closed form
        F = Tr(rho sigma) + 2 sqrt(det rho * det sigma),
    with the determinant term exactly 0 when either argument passes
    ``is_pure``; its float-noise determinant would otherwise add up to
    about 1e-8.
    Dimension 4 requires at least one pure argument and evaluates
    <pure| other |pure>; the mixed-mixed two-qubit case is rejected.
    """
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    if rho.shape != sigma.shape:
        raise ValidationError("fidelity requires equal dimensions")
    if rho.shape == (2, 2):
        if is_pure(rho) or is_pure(sigma):
            cross = 0.0
        else:
            cross = np.linalg.det(rho).real * np.linalg.det(sigma).real
        val = np.trace(rho @ sigma).real + 2.0 * np.sqrt(max(cross, 0.0))
        return float(min(max(val, 0.0), 1.0))
    if rho.shape != (4, 4):
        raise ValidationError("fidelity supports dimensions 2 and 4 only")
    if is_pure(rho):
        v = _dominant_eigvec(rho)
        return float(min(max(np.vdot(v, sigma @ v).real, 0.0), 1.0))
    if is_pure(sigma):
        v = _dominant_eigvec(sigma)
        return float(min(max(np.vdot(v, rho @ v).real, 0.0), 1.0))
    raise UnsupportedCaseError("fidelity of two mixed two-qubit states is not supported")


def bloch_from_density(rho) -> np.ndarray:
    """Bloch vector (x, y, z) = Tr(rho X), Tr(rho Y), Tr(rho Z) of a
    single-qubit density matrix; a stack gives one vector per matrix.

    The traces are written out entrywise: (rho01 + rho10, i(rho01 - rho10),
    rho00 - rho11), the same floating-point sums as the matrix products;
    adding 0.0 turns an exact -0 into +0, as the products do.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (2, 2):
        raise ValidationError("bloch_from_density expects a 2x2 density matrix")
    r01, r10 = rho[..., 0, 1], rho[..., 1, 0]
    return np.stack([
        r01.real + r10.real,
        -r01.imag + r10.imag,
        rho[..., 0, 0].real - rho[..., 1, 1].real,
    ], axis=-1) + 0.0


def density_from_bloch(v) -> np.ndarray:
    """Density matrix (I + v . sigma) / 2 for a Bloch vector inside the ball."""
    v = np.asarray(v, dtype=float).reshape(3)
    if np.linalg.norm(v) > 1.0 + TOL:
        raise ValidationError(f"Bloch vector has norm {np.linalg.norm(v):.9g} > 1")
    return 0.5 * (np.eye(2, dtype=complex)
                  + v[0] * PAULI_X + v[1] * PAULI_Y + v[2] * PAULI_Z)


def svd_2x2(m):
    """SVD of a 2x2 complex matrix: m = U diag(s) W^dagger, s descending.

    A single matrix gives ``(U, (s0, s1), W)`` with float singular values;
    a stack along leading axes gives ``(U, s, W)`` with ``s`` of shape
    ``(..., 2)``.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape[-2:] != (2, 2):
        raise ValidationError("svd_2x2 expects a 2x2 matrix")
    u, s, wh = np.linalg.svd(m)
    w = wh.conj().swapaxes(-1, -2)
    if m.ndim == 2:
        return u, (float(s[0]), float(s[1])), w
    return u, s, w


def sqrtm_psd(rho) -> np.ndarray:
    """Matrix square root of a Hermitian PSD matrix via eigendecomposition."""
    vals, vecs = np.linalg.eigh(np.asarray(rho, dtype=complex))
    return vecs @ np.diag(np.sqrt(np.maximum(vals, 0.0))) @ vecs.conj().T


def canonical_purification(rho_b) -> np.ndarray:
    """Two-qubit purification of a single-qubit state, Eve's qubit first.

    Uses the canonical form whose 2x2 coefficient matrix (row = Eve index,
    column = Bob index) is sqrt(rho_b) transposed, so that tracing out Eve
    recovers rho_b exactly.
    """
    rho_b = np.asarray(rho_b, dtype=complex)
    if rho_b.shape != (2, 2):
        raise ValidationError("canonical_purification expects a 2x2 density matrix")
    coeff = sqrtm_psd(rho_b).T
    psi = coeff.reshape(-1)
    return psi / np.linalg.norm(psi)


def max_overlap_unitary(alpha, target):
    """Best Eve-side unitary steering `alpha` toward `target`.

    Maximizes |<target| (V x I) |alpha>|^2 over single-qubit unitaries V
    acting on the first (Eve) factor.  Writing both states as 2x2
    coefficient matrices A, B (row = Eve index, column = Bob index), the
    overlap is Tr(V A B^dagger), maximized by V = W U^dagger from the SVD
    of A B^dagger; the optimum equals (s1 + s2)^2, which by Uhlmann's
    theorem is the fidelity of the Bob-side reduced states.

    ``alpha`` and ``target`` broadcast over leading axes: two single states
    give ``(V, float)``, stacks give ``(V of shape (..., 2, 2), values)``.
    """
    alpha = np.asarray(alpha, dtype=complex)
    target = np.asarray(target, dtype=complex)
    a = alpha.reshape(alpha.shape[:-1] + (2, 2))
    b = target.reshape(target.shape[:-1] + (2, 2))
    u, s, w = svd_2x2(a @ b.conj().swapaxes(-1, -2))
    v = w @ u.conj().swapaxes(-1, -2)
    if isinstance(s, tuple):
        return v, float((s[0] + s[1]) ** 2)
    # float_power rounds like the scalar path's C pow; a numpy square (x * x)
    # differs from it in the last bit for about 1 value in 1000.
    return v, np.float_power(s[..., 0] + s[..., 1], 2.0)


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
