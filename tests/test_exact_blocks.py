"""Whole-set exact blocks against the per-nonce ``exact_branches`` path.

The exact engine takes one ``exact_block`` per (mode, s) from the builtin
honest and intercept-fake-resend strategies, and one block per nonce from
any other strategy.  Both routes must give the same table, verdict masses
and Eve's hit probability bit for bit (``==``, not approx).  The bounds of
``detection_bounds``, a closed form that builds no plan, strategy or
table, must equal the same way those read from the exact tables of the
plans' IFR strategies.
"""
import numpy as np
import pytest

from qsslab import adversary, protocol
from qsslab.adversary import (POLICIES, AttackPlan, honest_strategy, ifr_strategy, plan_arrays,
                              synthesize_plan)
from qsslab.analysis import detection_bounds
from qsslab.linalg import max_overlap_unitary, validate_state
from qsslab.nonces import NonceSet, SECRETS, builtin_nonce_set
from qsslab.protocol import RETIRED, outcome_distribution
from oracles import haar_state, haar_unitaries, phase_set

PRIORS = (0.0, 0.3, 0.5, 1.0)


class _BranchesOnly:
    """The wrapped strategy seen only through ``exact_branches``."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name

    def exact_branches(self, nonce_set, i, s):
        return self.inner.exact_branches(nonce_set, i, s)


def _phase_sets(count: int) -> list:
    """Seeded 1/2 e^{i phi} sets with k = 1..64."""
    out = []
    for n in range(count):
        k = 1 + (n * 5) % 64
        phases = np.random.default_rng([11, n]).uniform(0.0, 2.0 * np.pi, size=(k, 4))
        out.append(phase_set(phases, f"phase-{n}"))
    return out


def _assert_bitwise_same(got, want, where):
    assert got.table == want.table, where
    assert got.verdict_probs == want.verdict_probs, where
    assert got.p_detect == want.p_detect, where
    assert got.p_eve_knows_secret == want.p_eve_knows_secret, where


@pytest.mark.parametrize("label", ["honest", "ifr:target-secret", "ifr:target-01"])
def test_block_path_equals_branch_path(label):
    sets = [builtin_nonce_set("hsu-I"), builtin_nonce_set("proposed-J")] + _phase_sets(52)
    assert {len(ns) for ns in sets} >= {1, 64}
    for ns in sets:
        if label == "honest":
            strat = honest_strategy()
        else:
            strat = ifr_strategy(synthesize_plan(ns, label[4:]), ns)
        for prior in PRIORS:
            _assert_bitwise_same(outcome_distribution(ns, strat, mode_prior=prior),
                                 outcome_distribution(ns, _BranchesOnly(strat), mode_prior=prior),
                                 f"{ns.name} k={len(ns)} prior={prior}")


@pytest.mark.parametrize("prior", PRIORS)
def test_detection_bounds_equal_the_strategy_route(prior):
    sets = [builtin_nonce_set("hsu-I"), builtin_nonce_set("proposed-J")] + _phase_sets(64)
    assert {len(ns) for ns in sets} >= set(range(1, 65))
    for ns in sets:
        where = f"{ns.name} k={len(ns)} prior={prior}"
        dists = {policy: outcome_distribution(ns, ifr_strategy(synthesize_plan(ns, policy), ns),
                                              mode_prior=prior)
                 for policy in ("target-secret", "target-01")}
        per_policy = {policy: dist.p_detect for policy, dist in dists.items()}
        success01 = dists["target-01"].verdict_probs[RETIRED] / prior if prior > 0.0 else 0.0
        bounds = detection_bounds(ns, prior)
        assert bounds["per_policy"] == per_policy, where
        assert bounds["floor"] == min(per_policy.values()), where
        assert bounds["ceiling"] == 1.0 - prior * success01, where


def test_detection_bounds_need_no_engine(monkeypatch):
    # The == test above would hold trivially if detection_bounds ran the engine.
    sets = [builtin_nonce_set("hsu-I"), builtin_nonce_set("proposed-J")]
    want = [detection_bounds(ns) for ns in sets]

    def refuse(*args, **kwargs):
        raise AssertionError("detection_bounds reached the exact engine or a plan object")

    for owner, name in ((protocol, "outcome_distribution"), (protocol, "ExactDistribution"),
                        (adversary, "AttackPlan"), (adversary, "IfrStrategy"),
                        (adversary, "ifr_strategy"), (adversary, "synthesize_plan")):
        monkeypatch.setattr(owner, name, refuse)
    assert [detection_bounds(ns) for ns in sets] == want


def test_fixed_target_plans_equal_the_full_stack_svd():
    # A target-<t> plan takes one SVD per nonce; it must equal the SVD of
    # every (nonce, secret) target share, byte for byte.
    sets = [builtin_nonce_set("hsu-I"), builtin_nonce_set("proposed-J")] + _phase_sets(64)
    assert {len(ns) for ns in sets} >= set(range(1, 65))
    forced = haar_state(4, np.random.default_rng(13))
    for ns in sets:
        for policy in (p for p in POLICIES if p != "target-secret"):
            t = SECRETS.index(policy.removeprefix("target-"))
            for alpha in (None, forced):
                given = plan_arrays(ns, policy)[0] if alpha is None else validate_state(alpha, dim=4)
                want, _ = max_overlap_unitary(given, ns.share_stack[:, [t] * 4])
                plan = synthesize_plan(ns, policy, alpha=alpha)
                where = f"{ns.name} k={len(ns)} {policy} forced={alpha is not None}"
                assert plan.unitaries.tobytes() == want.tobytes(), where
                # V A written out as V's columns times A's rows, elementwise.
                a = plan.alpha.reshape(2, 2)
                steered = (want[..., :, 0, None] * a[0] + want[..., :, 1, None] * a[1])
                assert plan.steered.tobytes() == steered.reshape(-1, 4, 4).tobytes(), where


@pytest.mark.parametrize("k", [1, 3, 16])
def test_block_path_sums_several_outcomes_alike(k):
    # On a non-recoverable set Eve's recovery has several outcomes per
    # nonce, so each grid cell sums several branches, some of weight 0 on
    # the block path.
    rng = np.random.default_rng([12, k])
    ns = NonceSet(name=f"haar-{k}", states=tuple(haar_state(4, rng) for _ in range(k)))
    units = haar_unitaries(4 * k, rng)
    plan = AttackPlan(haar_state(4, rng), units.reshape(k, 4, 2, 2))
    strat = ifr_strategy(plan, ns)
    weights, _, _ = strat.exact_block(ns, "01")
    assert ((weights > 0).sum(axis=1) > 1).all()
    for prior in PRIORS:
        _assert_bitwise_same(outcome_distribution(ns, strat, mode_prior=prior),
                             outcome_distribution(ns, _BranchesOnly(strat), mode_prior=prior),
                             f"{ns.name} prior={prior}")


def test_block_shapes():
    # Blocks carry Stage III outcome probabilities, not joint states.
    ns = _phase_sets(8)[7]
    k = len(ns)
    weights, outcomes, learned = honest_strategy().exact_block(ns, "10")
    assert (weights.shape, outcomes.shape, learned.shape) == ((k, 1), (k, 1, 4), (k, 1))
    assert all(secret is None for secret in learned.ravel())
    assert outcomes.tobytes() == ns.recovery_stack[:, [SECRETS.index("10")]].tobytes()
    strat = ifr_strategy(synthesize_plan(ns, "target-01"), ns)
    weights, outcomes, learned = strat.exact_block(ns, "10")
    assert (weights.shape, outcomes.shape, learned.shape) == ((k, 4), (k, 4, 4), (k, 4))
    # Eve's steered states do not depend on s: every s reads one stack.
    assert all(strat.exact_block(ns, s)[1] is outcomes for s in SECRETS)
    np.testing.assert_allclose(outcomes.sum(axis=-1), 1.0, atol=1e-12)
    # A recoverable set: Eve's recovery yields the dealer's s with certainty.
    np.testing.assert_allclose(weights[:, SECRETS.index("10")], 1.0, atol=1e-12)
    assert (weights.sum(axis=1) == weights[:, SECRETS.index("10")]).all()
    assert (learned == np.array(SECRETS)).all()
