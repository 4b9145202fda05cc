"""No package call reaches LAPACK.

Every ``numpy.linalg`` routine but ``norm`` is replaced by one that raises,
then fidelity, ``certify``, plan synthesis and the exact tables run on both
builtins and a k = 8 phase set.  The package's 2x2 kernels are written out
(``linalg._det``, ``_root_det``, the polar-factor steering), and a pure
two-qubit argument makes fidelity a trace.
"""
import numpy as np
import pytest

from qsslab import adversary, analysis, protocol
from qsslab.linalg import fidelity, pure_density
from qsslab.nonces import builtin_nonce_set
from oracles import haar_state, phase_set, random_density

LAPACK = ("eigh", "eigvalsh", "eig", "svd", "det", "slogdet", "inv", "solve", "qr", "cholesky",
          "pinv")


@pytest.fixture
def no_lapack(monkeypatch):
    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"numpy.linalg.{name} was called")
        return call
    for name in LAPACK:
        monkeypatch.setattr(np.linalg, name, refuse(name))


def _pairs(dim: int, rng) -> list:
    mixed = [random_density(rng, dim) for _ in range(4)]
    pure = [pure_density(haar_state(dim, rng)) for _ in range(4)]
    pairs = list(zip(pure, mixed)) + list(zip(mixed, pure)) + list(zip(pure, pure[1:]))
    if dim == 2:  # two mixed two-qubit states are rejected
        pairs += list(zip(mixed, mixed[1:]))
    return pairs


def test_fidelity_reaches_no_lapack(no_lapack):
    rng = np.random.default_rng(81)
    for dim in (2, 4):
        for rho, sigma in _pairs(dim, rng):
            assert 0.0 <= fidelity(rho, sigma) <= 1.0


@pytest.mark.parametrize("name", ["hsu-I", "proposed-J", "phase-8"])
def test_certify_plans_and_tables_reach_no_lapack(no_lapack, name):
    if name == "phase-8":
        phases = np.random.default_rng(82).uniform(0.0, 2.0 * np.pi, size=(8, 4))
        ns = phase_set(phases, name)
    else:
        ns = builtin_nonce_set(name)
    assert analysis.certify(ns).all_passed
    strategies = [adversary.honest_strategy(), adversary.imr_guess_strategy("uniform-random", ns)]
    for policy in (adversary.POLICY_TARGET_SECRET, adversary.POLICY_TARGET_01):
        strategies.append(adversary.ifr_strategy(adversary.synthesize_plan(ns, policy), ns))
    for strategy in strategies:
        assert 0.0 <= protocol.outcome_distribution(ns, strategy).p_detect <= 1.0
