"""The closed-form steering unitary of ``linalg.max_overlap_unitary``
against the LAPACK SVD it replaced, its rank-deficient branches, and the
free phase those branches fix."""
import numpy as np
import pytest

from qsslab.adversary import AttackPlan, ifr_strategy, policy_target, synthesize_plan
from qsslab.linalg import max_overlap_unitary
from qsslab.nonces import SECRETS, builtin_nonce_set
from qsslab.protocol import outcome_distribution
from oracles import haar_state, svd_2x2, svd_overlap_unitary
from test_array_forms import _matrices

EYE2 = np.eye(2)
# With M = I, X = A M^dagger is alpha's coefficient matrix itself.
IDENTITY_TARGET = np.array([1, 0, 0, 1], dtype=complex)


def _pairs(kind: str) -> list:
    rng = np.random.default_rng(27)
    if kind == "haar":
        return [(haar_state(4, rng), haar_state(4, rng)) for _ in range(200)]
    return [(m.reshape(4), IDENTITY_TARGET) for m in _matrices(rng, 70)]


@pytest.mark.parametrize("kind", ["haar", "rank-deficient and zero X"])
def test_unitary_attains_the_svd_value(kind):
    for n, (alpha, target) in enumerate(_pairs(kind)):
        v, value = max_overlap_unitary(alpha, target)
        assert np.abs(v.conj().T @ v - EYE2).max() <= 1e-12, n
        assert abs(value - svd_overlap_unitary(alpha, target)[1]) <= 1e-12, n
        attained = abs(np.vdot(target, (v @ alpha.reshape(2, 2)).reshape(4))) ** 2
        assert abs(attained - value) <= 1e-12, n


def test_zero_overlap_matrix_steers_by_the_identity():
    # A = |0><0| and M = |0><1|: X = A M^dagger = 0.
    v, value = max_overlap_unitary([1, 0, 0, 0], [0, 1, 0, 0])
    assert value == 0.0
    assert np.array_equal(v, EYE2)


def test_singular_overlap_matrix_takes_unit_phase():
    # X = [[0.6, 0.8i], [0, 0]] has det X = 0 exactly.  The unit phase makes
    # V = (X^dagger + adj X) / |X|; any other phase e^{i phi} would multiply
    # its second column by e^{-i phi}.
    v, value = max_overlap_unitary([0.6, 0.8j, 0, 0], IDENTITY_TARGET)
    assert abs(value - 1.0) <= 1e-15
    assert np.abs(v - np.array([[0.6, -0.8j], [-0.8j, 0.6]])).max() <= 1e-15
    v, value = max_overlap_unitary([0, 1, 0, 0], [0, 0, 0, 1])  # X = [[0, 1], [0, 0]]
    assert value == 1.0
    assert np.array_equal(v, np.array([[0, -1], [1, 0]]))


@pytest.mark.parametrize("policy, want", [("target-secret", 0.25), ("target-01", 0.5)])
def test_proposed_detection_ignores_the_null_direction_phase(policy, want):
    """Every overlap matrix of proposed-J's plans has rank 1, so each
    steering unitary's phase on the null direction of X^dagger is free;
    no choice of it moves the detection probability."""
    ns = builtin_nonce_set("proposed-J")
    plan = synthesize_plan(ns, policy)
    a = plan.alpha.reshape(2, 2)
    rng = np.random.default_rng(2027)
    for _ in range(20):
        unitaries = np.array(plan.unitaries)
        for i, n in np.ndindex(len(ns), len(SECRETS)):
            m = ns.share_stack[i, SECRETS.index(policy_target(policy, SECRETS[n]))].reshape(2, 2)
            u, s, _ = svd_2x2(a @ m.conj().T)
            assert s[1] <= 1e-12
            null = u[:, 1:] @ u[:, 1:].conj().T
            unitaries[i, n] = unitaries[i, n] @ (EYE2 + (np.exp(2j * np.pi * rng.random()) - 1) * null)
        p = outcome_distribution(ns, ifr_strategy(AttackPlan(plan.alpha, unitaries, policy), ns)).p_detect
        assert abs(p - want) <= 1e-12
