"""The closed-form 2x2 kernels against the LAPACK and BLAS forms they replace.

``linalg.fidelity_terms`` and ``linalg.fidelity`` write det rho out as
rho00 rho11 - |rho01|^2 (``np.linalg.det`` is the oracle);
``linalg.canonical_purification`` takes sqrt(rho) as (rho + sqrt(det) I)
normalized (``oracles.eigh_purification`` is the oracle); ``adversary.steer``
writes V A out elementwise (the batched ``@`` is the oracle).  On a pure
rho the closed forms are exact where the eigendecomposition is not.
"""
import numpy as np
import pytest

from qsslab.adversary import steer
from qsslab.linalg import (canonical_purification, density_from_bloch, fidelity, fidelity_terms,
                           is_pure, partial_trace_E, pure_density)
from oracles import eigh_purification, haar_state, haar_unitaries, random_density

TOL_KERNEL = 1e-14


def _mixed() -> list:
    rng = np.random.default_rng(71)
    fixed = [density_from_bloch(np.zeros(3)), np.diag([0.75, 0.25]).astype(complex)]
    return fixed + [random_density(rng) for _ in range(200)]


def _pure() -> list:
    rng = np.random.default_rng(72)
    blochs = rng.normal(size=(200, 3))
    out = [density_from_bloch(v / np.linalg.norm(v)) for v in blochs]
    return out + list(pure_density(np.array([haar_state(2, rng) for _ in range(200)])))


def test_determinant_term_matches_lapack():
    sigmas = np.array(_mixed())
    blochs, root_dets = fidelity_terms(sigmas)
    want = np.sqrt(np.maximum(np.linalg.det(sigmas).real, 0.0))
    assert np.abs(root_dets - want).max() <= TOL_KERNEL
    assert root_dets[:2].tolist() == [0.5, np.sqrt(0.75 * 0.25)]
    rng = np.random.default_rng(73)
    for rho, sigma in zip(sigmas, sigmas[rng.permutation(len(sigmas))]):
        lapack = (np.trace(rho @ sigma).real
                  + 2.0 * np.sqrt(max(np.linalg.det(rho).real * np.linalg.det(sigma).real, 0.0)))
        assert abs(fidelity(rho, sigma) - min(lapack, 1.0)) <= TOL_KERNEL


def test_purification_matches_the_eigendecomposition():
    for rho in _mixed():
        psi = canonical_purification(rho)
        assert np.abs(psi - eigh_purification(rho)).max() <= TOL_KERNEL
        assert np.abs(partial_trace_E(pure_density(psi)) - rho).max() <= TOL_KERNEL


def test_pure_states_take_the_exact_rank_one_purification():
    pure = np.array(_pure())
    assert is_pure(pure).all()
    assert (fidelity_terms(pure)[1] == 0.0).all()
    worst_eigh = 0.0
    for rho in pure:
        want = rho.T.reshape(-1) / np.linalg.norm(rho)
        assert np.array_equal(canonical_purification(rho), want)
        worst_eigh = max(worst_eigh, np.abs(eigh_purification(rho) - want).max())
    # The eigendecomposition's square root of a rank-1 matrix is off by
    # about sqrt(eps); that is what the guarded closed form removes.
    assert worst_eigh > 1e-10


@pytest.mark.parametrize("k", range(1, 65))
def test_steer_matches_the_matrix_product(k):
    rng = np.random.default_rng([74, k])
    alpha = haar_state(4, rng)
    unitaries = haar_unitaries(4 * k, rng).reshape(k, 4, 2, 2)
    want = (unitaries @ alpha.reshape(2, 2)).reshape(-1, 4, 4)
    got = steer(alpha, unitaries)
    assert got.shape == (k, 4, 4)
    assert np.abs(got - want).max() <= TOL_KERNEL
