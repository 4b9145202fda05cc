"""Exact complex linear algebra for one- and two-qubit states.

Everything here works on plain numpy arrays: state vectors are 1-D complex
arrays of length 2 or 4 (two-qubit basis order 00, 01, 10, 11 with the
first tensor factor held by Eve), density matrices and unitaries are 2-D
complex arrays.  All operations are pure functions; inputs are never
mutated.  Steering (``max_overlap_unitary``) is a closed-form polar factor,
and the qubit determinant and square root are written out too: no call reaches LAPACK.

Tolerance: TOL (1e-9) for algebraic identities that hold exactly at these
dimensions; INPUT_TOL (1e-6) for the checks on given states and unitaries.
"""
from __future__ import annotations

import numpy as np

from .errors import UnsupportedCaseError, ValidationError

TOL = 1e-9
INPUT_TOL = 1e-6
# One division leaves a norm within 2 eps of 1 (the worst of 4e5 Haar states at dims 2 and 4;
# first-order rounding bounds it by 4 eps), so keeping a norm this close is idempotent.
_UNIT_NORM_TOL = 4 * np.finfo(float).eps

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_EYE2 = np.broadcast_to(np.eye(2, dtype=complex), (2, 2))  # a read-only identity
_ADJ_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])


def validate_state(v, *, dim: int | None = None, what: str = "state") -> np.ndarray:
    """Check finiteness and normalization; return a fresh complex array.

    A norm within ``_UNIT_NORM_TOL`` of 1 keeps the bytes, one within ``INPUT_TOL`` is
    divided out and one further off is rejected, so validating twice changes nothing.
    """
    arr = np.array(v, dtype=complex).reshape(-1)
    # Amplitudes of a normalized state have modulus <= 1 (NaN fails the
    # comparison too); checking that first keeps the norm from overflowing.
    modulus = np.abs(arr)
    if not (modulus <= 1.0 + INPUT_TOL).all():
        if not np.isfinite(arr).all():
            raise ValidationError(f"{what} contains non-finite amplitudes")
        raise ValidationError(
            f"{what} is not normalized (an amplitude has modulus {modulus.max():.9g})")
    if dim is not None and arr.shape[0] != dim:
        raise ValidationError(f"{what} must have dimension {dim}, got {arr.shape[0]}")
    if arr.shape[0] not in (2, 4):
        raise ValidationError(f"{what} must have dimension 2 or 4, got {arr.shape[0]}")
    norm = np.linalg.norm(arr)
    if abs(norm - 1.0) > INPUT_TOL:
        raise ValidationError(f"{what} is not normalized (norm {norm:.9g})")
    return arr if abs(norm - 1.0) <= _UNIT_NORM_TOL else arr / norm


def validate_unitary(u, *, dim: int | None = None, names=None) -> np.ndarray:
    """Check a unitary, or a stack of unitaries along the leading axes.

    A failure in a stack names its first bad matrix: the j-th of ``names`` (any
    iterable, read only on failure) for the j-th matrix in row-major order, else ``matrix j``.
    """
    mat = np.asarray(u, dtype=complex)
    if mat.ndim < 2 or mat.shape[-1] != mat.shape[-2]:
        raise ValidationError("unitary must be square")
    if dim is not None and mat.shape[-1] != dim:
        raise ValidationError(f"unitary must be {dim}x{dim}, got {mat.shape[-2]}x{mat.shape[-1]}")
    # Entries of a unitary have modulus <= 1; this also rejects NaN and Inf,
    # and keeps the product below from overflowing.
    bad_entries = ~(np.abs(mat).max(axis=(-2, -1), initial=0.0) <= 1.0 + INPUT_TOL)
    safe = np.where(bad_entries[..., None, None], 0.0, mat)
    gram = np.einsum("...ji,...jk->...ik", safe.conj(), safe) - np.eye(mat.shape[-1])
    bad = bad_entries | (np.abs(gram).max(axis=(-2, -1), initial=0.0) > INPUT_TOL)
    if bad.any():
        j = int(np.argmax(bad.reshape(-1)))
        reason = ("unitary has non-finite entries or entries above 1 in modulus"
                  if bad_entries.reshape(-1)[j] else "matrix is not unitary")
        if mat.ndim > 2:
            reason = f"{[*names][j] if names is not None else f'matrix {j}'}: {reason}"
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
    """|v><v| for a state vector; a stack gives one matrix per vector."""
    v = np.asarray(v, dtype=complex)
    return v[..., :, None] * v[..., None, :].conj()


def partial_trace_E(rho) -> np.ndarray:
    """Trace out the first (Eve-side) qubit of a 4x4 density matrix or a stack."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValidationError("partial_trace_E expects a 4x4 density matrix")
    return rho[..., :2, :2] + rho[..., 2:, 2:]


def is_pure(rho):
    """``|Tr rho^2 - 1| <= TOL``; elementwise over leading axes of a stack."""
    rho = np.asarray(rho, dtype=complex)
    return np.abs(np.einsum("...ab,...ba->...", rho, rho).real - 1.0) <= TOL


def _det(rho):
    """det of a Hermitian 2x2 matrix, or of each in a stack, written out:
    rho00 rho11 - |rho01|^2 from the real diagonal and re^2 + im^2."""
    r01 = rho[..., 0, 1]
    return rho[..., 0, 0].real * rho[..., 1, 1].real - (np.square(r01.real) + np.square(r01.imag))


def _root_det(rho):
    """sqrt(det) of a qubit density matrix or a stack; exactly 0 where Tr rho^2 =
    (Tr rho)^2 - 2 det rho is within TOL of 1, not its float noise (about 3e-9)."""
    det = _det(rho)
    pure = np.abs(np.square(rho[..., 0, 0].real + rho[..., 1, 1].real) - 2.0 * det - 1.0) <= TOL
    return np.sqrt(np.where(pure, 0.0, np.maximum(det, 0.0)))


def fidelity_terms(sigmas) -> tuple[np.ndarray, np.ndarray]:
    """Bloch vectors and sqrt(det) of a stack of qubit density matrices, the
    per-matrix terms of their average fidelity; sqrt(det) as ``_root_det``."""
    sigmas = np.asarray(sigmas, dtype=complex)
    return bloch_from_density(sigmas), _root_det(sigmas)


def state_fidelity(a, b) -> float:
    """|<a|b>|^2 for two pure states of equal dimension."""
    return float(abs(np.vdot(np.asarray(a), np.asarray(b))) ** 2)


def fidelity(rho, sigma) -> float:
    """Squared-convention fidelity F = Tr(rho sigma) + 2 sqrt(det rho) sqrt(det sigma), the
    second term for qubits only, each sqrt(det) ``_root_det``'s; F(pure, pure) = |<a|b>|^2.

    A pure rho = |v><v| makes Tr(rho sigma) = <v|sigma|v>, the whole fidelity, so two-qubit
    states need one pure argument; two mixed ones raise ``UnsupportedCaseError``.
    """
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    if rho.shape != sigma.shape:
        raise ValidationError("fidelity requires equal dimensions")
    if rho.shape not in ((2, 2), (4, 4)):
        raise ValidationError("fidelity supports dimensions 2 and 4 only")
    if rho.shape == (4, 4) and not (is_pure(rho) or is_pure(sigma)):
        raise UnsupportedCaseError("fidelity of two mixed two-qubit states is not supported")
    cross = 2.0 * _root_det(rho) * _root_det(sigma) if rho.shape == (2, 2) else 0.0
    return float(min(max(np.trace(rho @ sigma).real + cross, 0.0), 1.0))


def bloch_from_density(rho) -> np.ndarray:
    """Bloch vector (x, y, z) = Tr(rho X), Tr(rho Y), Tr(rho Z) of a
    single-qubit density matrix; a stack gives one vector per matrix.

    The traces are written out entrywise into one array, (rho01 + rho10,
    i(rho01 - rho10), rho00 - rho11), the same sums as the matrix products
    (b - a is -a + b); adding 0.0 turns an exact -0 into +0, as they do.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (2, 2):
        raise ValidationError("bloch_from_density expects a 2x2 density matrix")
    r01, r10 = rho[..., 0, 1], rho[..., 1, 0]
    out = np.empty(rho.shape[:-2] + (3,))
    np.add(r01.real, r10.real, out=out[..., 0])
    np.subtract(r10.imag, r01.imag, out=out[..., 1])
    np.subtract(rho[..., 0, 0].real, rho[..., 1, 1].real, out=out[..., 2])
    return np.add(out, 0.0, out=out)


def density_from_bloch(v) -> np.ndarray:
    """Density matrix (I + v . sigma) / 2 for a Bloch vector inside the ball."""
    v = np.asarray(v, dtype=float).reshape(3)
    if (norm := np.sqrt(v.dot(v))) > 1.0 + TOL:  # np.linalg.norm's value for a real vector
        raise ValidationError(f"Bloch vector has norm {norm:.9g} > 1")
    return 0.5 * (_EYE2 + v[0] * PAULI_X + v[1] * PAULI_Y + v[2] * PAULI_Z)


def canonical_purification(rho_b) -> np.ndarray:
    """Two-qubit purification of a single-qubit state, Eve's qubit first.

    Uses the canonical form whose 2x2 coefficient matrix (row = Eve index,
    column = Bob index) is sqrt(rho_b) transposed, so that tracing out Eve
    recovers rho_b exactly.  For a 2x2 density matrix, by Cayley-Hamilton,

        sqrt(rho) = (rho + sqrt(det rho) I) / sqrt(Tr rho + 2 sqrt(det rho)),

    and the scalar is the Frobenius norm of the numerator, so the state is
    the numerator normalized.  sqrt(det) is ``_root_det``'s, so a pure rho_b
    gives exactly its rank-1 purification rho_b^T / ||rho_b||.
    """
    rho_b = np.asarray(rho_b, dtype=complex)
    if rho_b.shape != (2, 2):
        raise ValidationError("canonical_purification expects a 2x2 density matrix")
    psi = (rho_b + _root_det(rho_b) * _EYE2).T.reshape(-1)
    return psi / np.linalg.norm(psi)


_MIXED = density_from_bloch(np.zeros(3))  # I/2
# I/2's purification, the read-only Bell state with 1/sqrt(2) correctly rounded.
_MIXED_PURIFICATION = np.broadcast_to(np.sqrt(0.5) * np.array([1, 0, 0, 1], dtype=complex), (4,))


def max_overlap_unitary(alpha, target):
    """Best Eve-side unitary steering `alpha` toward `target`.

    Maximizes |<target| (V x I) |alpha>|^2 over single-qubit unitaries V
    acting on the first (Eve) factor.  Writing both states as 2x2
    coefficient matrices A, M (row = Eve index, column = Bob index), the
    overlap is Tr(V X) with X = A M^dagger.  Its maximum is (s1 + s2)^2 for
    the singular values of X, which by Uhlmann's theorem is the fidelity of
    the Bob-side reduced states.  For 2x2 matrices, with e^{i phi} = det X / |det X|,

        (s1 + s2)^2 = ||X||_F^2 + 2 |det X|,   V = (X^dagger + e^{-i phi} adj X) / (s1 + s2),

    the inverse of X's polar factor.  Where det X is exactly 0, X has rank
    at most 1 and V's phase on its null direction is free: e^{i phi} = 1
    there, and V = I where X = 0.

    ``alpha`` and ``target`` broadcast over leading axes: two single states
    give ``(V, float)``, stacks give ``(V of shape (..., 2, 2), values)``.
    Every step is elementwise, so a pair gives the same bits alone as in a stack.
    """
    alpha = np.asarray(alpha, dtype=complex)
    target = np.asarray(target, dtype=complex)
    terms = (alpha.reshape(alpha.shape[:-1] + (2, 1, 2)).conj()
             * target.reshape(target.shape[:-1] + (1, 2, 2)))
    xc = terms[..., 0] + terms[..., 1]  # conj(X)
    det = xc[..., 0, 0] * xc[..., 1, 1] - xc[..., 0, 1] * xc[..., 1, 0]  # conj(det X)
    size = np.abs(det)
    phase = np.divide(det, size, out=np.ones_like(det), where=size > 0)  # e^{-i phi}
    sq = np.square(xc.real) + np.square(xc.imag)
    value = (sq[..., 0, 0] + sq[..., 0, 1]) + (sq[..., 1, 0] + sq[..., 1, 1]) + 2.0 * size
    # V^T = conj(X) + e^{-i phi} (adj X)^T; (adj X)^T is X half-turned, off-diagonal negated.
    vt = xc + (phase[..., None, None] * _ADJ_SIGNS) * xc[..., ::-1, ::-1].conj()
    scale = np.sqrt(value)[..., None, None]
    v = np.empty(vt.shape, dtype=complex)
    v[...] = _EYE2
    np.divide(vt.swapaxes(-1, -2), scale, out=v, where=scale > 0)
    return v, value
