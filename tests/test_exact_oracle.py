"""The array-form exact engine against a scalar reference.

``reference_distribution`` is the branch-by-outcome loop the exact engine
used to run, kept here as an oracle: one ``stage_iv_verdict`` call and one
dict update per (branch, outcome).  ``outcome_distribution`` must give the
same table keys and the same numbers within 1e-12.
"""
from types import SimpleNamespace

import numpy as np
import pytest

from qsslab.adversary import honest_strategy, ifr_strategy, imr_guess_strategy, synthesize_plan
from qsslab.nonces import SECRETS, builtin_nonce_set, share_state
from qsslab.protocol import (
    DETECT,
    EAVESDROPPER_DETECTED,
    MODE_SECRETS,
    SECRET,
    VERDICTS,
    ExactDistribution,
    outcome_distribution,
    stage_iv_verdict,
)
from oracles import phase_set

PRIORS = (0.0, 0.3, 0.5, 1.0)
ORACLE_TOL = 1e-12


def reference_distribution(nonce_set, strategy, mode_prior=0.5) -> SimpleNamespace:
    """The four fields of an ``ExactDistribution``, from the scalar loop."""
    k = len(nonce_set)
    table = {}
    p_eve = 0.0
    verdict_probs = {v: 0.0 for v in VERDICTS}
    for mode, p_mode in ((SECRET, mode_prior), (DETECT, 1.0 - mode_prior)):
        if p_mode == 0.0:
            continue
        for s in MODE_SECRETS[mode]:
            for i in range(k):
                base = p_mode * 0.5 / k
                for p_branch, joint, learned in strategy.exact_branches(nonce_set, i, s):
                    if p_branch <= 0.0:
                        continue
                    out = nonce_set.reflections[i] @ np.asarray(joint, dtype=complex)
                    probs = np.abs(out) ** 2
                    if learned == s:
                        p_eve += base * p_branch
                    for bi, pb in enumerate(probs):
                        if pb <= 0.0:
                            continue
                        b = SECRETS[bi]
                        w = base * p_branch * float(pb)
                        key = (mode, s, i + 1, b)
                        table[key] = table.get(key, 0.0) + w
                        verdict_probs[stage_iv_verdict(mode, s, b)[0]] += w
    return SimpleNamespace(
        table=table,
        p_detect=verdict_probs[EAVESDROPPER_DETECTED],
        p_eve_knows_secret=p_eve,
        verdict_probs=verdict_probs,
    )


class _ReplaceBobStrategy:
    """Eve keeps her qubit and hands Bob |0>; two pure branches per draw."""

    name = "replace-bob"

    def exact_branches(self, nonce_set, i, s):
        coeff = share_state(nonce_set.states[i], s).reshape(2, 2)
        branches = []
        for outcome in (0, 1):
            col = coeff[:, outcome]
            p = float(np.linalg.norm(col) ** 2)
            if p <= 1e-30:
                continue
            joint = np.zeros(4, dtype=complex)
            joint[0], joint[2] = col / np.sqrt(p)
            branches.append((p, joint, None))
        return branches


class _OddBranchesStrategy:
    """Branches the engine must filter or pass through as given: plain-list
    states, zero and negative probabilities, learned secrets that match s
    and that do not."""

    name = "odd-branches"

    def exact_branches(self, nonce_set, i, s):
        share = share_state(nonce_set.states[i], s)
        swapped = share.reshape(2, 2).T.reshape(4)
        return [
            (0.25, list(share), s),
            (0.0, [np.nan] * 4, s),
            (-0.5, share, s),
            (0.5, swapped, "00"),
            (0.25, np.roll(share, 1), None),
        ]


def _random_sets(count: int) -> list:
    """Seeded 1/2 e^{i phi} sets with k = 1..64."""
    out = []
    for n in range(count):
        k = 1 + n % 64
        phases = np.random.default_rng([7, n]).uniform(0.0, 2.0 * np.pi, size=(k, 4))
        out.append(phase_set(phases, f"phase-{n}"))
    return out


def _cases():
    """(set, prior) pairs: every prior on the builtins, and one prior per
    random set in rotation, so each prior meets sets across k = 1..64."""
    cases = [(builtin_nonce_set(name), prior)
             for name in ("hsu-I", "proposed-J") for prior in PRIORS]
    cases += [(ns, PRIORS[n % len(PRIORS)]) for n, ns in enumerate(_random_sets(104))]
    return cases


CASES = _cases()


def _strategy(label, ns):
    if label == "honest":
        return honest_strategy()
    if label == "imr-uniform":
        return imr_guess_strategy("uniform-random", ns)
    if label == "imr-fixed":
        return imr_guess_strategy(len(ns) // 2, ns)
    if label.startswith("ifr:"):
        return ifr_strategy(synthesize_plan(ns, label[4:]), ns)
    return {"replace-bob": _ReplaceBobStrategy, "odd-branches": _OddBranchesStrategy}[label]()


def _assert_same(got: ExactDistribution, want: SimpleNamespace, where: str) -> None:
    assert set(got.table) == set(want.table), where
    for key, p in want.table.items():
        assert abs(got.table[key] - p) <= ORACLE_TOL, (where, key)
    for v in VERDICTS:
        assert abs(got.verdict_probs[v] - want.verdict_probs[v]) <= ORACLE_TOL, (where, v)
    assert abs(got.p_detect - want.p_detect) <= ORACLE_TOL, where
    assert abs(got.p_eve_knows_secret - want.p_eve_knows_secret) <= ORACLE_TOL, where


@pytest.mark.parametrize("label", [
    "honest", "imr-uniform", "imr-fixed", "ifr:target-secret", "ifr:target-01",
    "replace-bob", "odd-branches",
])
def test_matches_scalar_reference(label):
    checked = 0
    for ns, prior in CASES:
        # The reference spends O(k^2) Python steps per draw on a uniform
        # guess; sets above k = 16 are covered by the fixed guess.
        if label == "imr-uniform" and len(ns) > 16:
            continue
        strat = _strategy(label, ns)
        _assert_same(outcome_distribution(ns, strat, mode_prior=prior),
                     reference_distribution(ns, strat, mode_prior=prior),
                     f"{ns.name} k={len(ns)} prior={prior}")
        checked += 1
    assert checked >= 30


class _FiveBranchesStrategy:
    """Five positive branches for one nonce: more than the 4k rows of the
    engine's verdict view when k = 1, so the engine must widen it."""

    name = "five-branches"

    def exact_branches(self, nonce_set, i, s):
        share = share_state(nonce_set.states[i], s)
        return [(0.2, np.roll(share, n), SECRETS[n % 4]) for n in range(5)]


@pytest.mark.parametrize("prior", PRIORS)
def test_more_branches_than_rows(prior):
    ns = phase_set([np.arange(4)], "one")
    strat = _FiveBranchesStrategy()
    _assert_same(outcome_distribution(ns, strat, mode_prior=prior),
                 reference_distribution(ns, strat, mode_prior=prior), f"prior={prior}")
