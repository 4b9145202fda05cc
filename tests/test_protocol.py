import numpy as np
import pytest

from qsslab.adversary import honest_strategy, ifr_strategy, imr_guess_strategy, synthesize_plan
from qsslab.errors import ProtocolError, ValidationError
from qsslab.nonces import PLUS, NonceSet, SECRETS, share_state, tensor
from qsslab.protocol import (
    DETECT,
    EAVESDROPPER_DETECTED,
    RETIRED,
    ROUND_DROPPED,
    SECRET,
    RoundConfig,
    estimate_detection,
    outcome_distribution,
    run_round,
    run_rounds,
    stage_iv_verdict,
)


def reference_verdict(mode, s, b):
    """Literal transliteration of the reconciliation stage's case listing."""
    b_e, b_b = b[0], b[1]
    if b_e != b_b:
        # the parties consider b the regenerated secret and retire; if the
        # dealer was in DETECT mode he expected an announcement and flags
        # an eavesdropper
        return RETIRED if mode == SECRET else EAVESDROPPER_DETECTED
    # b_e == b_b: the parties announce b
    if mode == DETECT and s == b:
        return ROUND_DROPPED
    return EAVESDROPPER_DETECTED


class TestStageIvVerdict:
    def test_all_32_combinations(self):
        for mode in (SECRET, DETECT):
            for s in SECRETS:
                for b in SECRETS:
                    verdict, bit = stage_iv_verdict(mode, s, b)
                    assert verdict == reference_verdict(mode, s, b), (mode, s, b)
                    if verdict == RETIRED:
                        assert bit == int(b[0])
                    else:
                        assert bit is None

    def test_rejects_bad_mode(self):
        with pytest.raises(ValidationError):
            stage_iv_verdict("OTHER", "01", "01")


class TestHonestRounds:
    def test_secret_mode_round_trips_secret_bit(self, proposed_set):
        for bit in (0, 1):
            cfg = RoundConfig(nonce_set=proposed_set, secret_bit=bit, rng_seed=5, mode_prior=1.0)
            for r in range(20):
                t = run_round(cfg, honest_strategy(), round_index=r)
                assert t.mode == SECRET
                assert t.verdict == RETIRED
                assert t.measured_b == t.s
                assert t.recovered_secret_bit == bit

    def test_detect_mode_drops(self, proposed_set):
        cfg = RoundConfig(nonce_set=proposed_set, rng_seed=6, mode_prior=0.0)
        for r in range(20):
            t = run_round(cfg, honest_strategy(), round_index=r)
            assert t.mode == DETECT
            assert t.verdict == ROUND_DROPPED
            assert t.measured_b == t.s

    def test_honest_completeness_exact(self, hsu_set, proposed_set):
        # b = s with probability 1 for every mode, secret and nonce
        for ns in (hsu_set, proposed_set):
            dist = outcome_distribution(ns, honest_strategy())
            assert dist.p_detect == pytest.approx(0.0, abs=1e-12)
            for (mode, s, i, b), p in dist.table.items():
                if p > 1e-12:
                    assert b == s

    def test_zero_detection_monte_carlo(self, proposed_set):
        cfg = RoundConfig(nonce_set=proposed_set, rng_seed=7)
        p, stderr = estimate_detection(cfg, honest_strategy(), 3000)
        assert p == 0.0
        assert stderr == 0.0


class TestDeterminism:
    def test_identical_seeds_identical_transcripts(self, proposed_set):
        plan = synthesize_plan(proposed_set, "target-secret")
        cfg = RoundConfig(nonce_set=proposed_set, rng_seed=99)
        first = [t.to_json_dict() for t in run_rounds(cfg, ifr_strategy(plan, proposed_set), 200)]
        second = [t.to_json_dict() for t in run_rounds(cfg, ifr_strategy(plan, proposed_set), 200)]
        assert first == second

    def test_different_seeds_differ(self, proposed_set):
        a = [t.to_json_dict() for t in run_rounds(
            RoundConfig(nonce_set=proposed_set, rng_seed=1), honest_strategy(), 50)]
        b = [t.to_json_dict() for t in run_rounds(
            RoundConfig(nonce_set=proposed_set, rng_seed=2), honest_strategy(), 50)]
        assert a != b

    def test_rounds_independent_of_order(self, proposed_set):
        cfg = RoundConfig(nonce_set=proposed_set, rng_seed=4)
        t5 = run_round(cfg, honest_strategy(), round_index=5)
        again = run_round(cfg, honest_strategy(), round_index=5)
        assert t5.to_json_dict() == again.to_json_dict()


class _BadStrategy:
    name = "bad"
    learned_secret = None

    def intercept(self, share, rng):
        return share * 0.5

    def nonce_announced(self, i, rng):
        return None


class _ReplaceBobStrategy:
    """Test double: Eve keeps her qubit, hands Bob |0> instead.

    Discarding Bob's true qubit leaves Eve's marginal mixed; measuring the
    discarded qubit in the computational basis reproduces the same
    statistics, which keeps every branch pure.
    """

    name = "replace-bob"
    learned_secret = None

    def intercept(self, share, rng):
        coeff = np.asarray(share).reshape(2, 2)
        probs = np.abs(coeff) ** 2
        p_bob = probs.sum(axis=0)
        outcome = 0 if rng.random() < p_bob[0] else 1
        eve = coeff[:, outcome] / np.linalg.norm(coeff[:, outcome])
        joint = np.zeros(4, dtype=complex)
        joint[2 * 0 + 0] = eve[0]
        joint[2 * 1 + 0] = eve[1]
        return joint

    def nonce_announced(self, i, rng):
        return None

    def exact_branches(self, nonce_set, i, s):
        coeff = share_state(nonce_set.states[i], s).reshape(2, 2)
        branches = []
        for outcome in (0, 1):
            col = coeff[:, outcome]
            p = float(np.linalg.norm(col) ** 2)
            if p <= 1e-30:
                continue
            eve = col / np.sqrt(p)
            joint = np.zeros(4, dtype=complex)
            joint[0], joint[2] = eve[0], eve[1]
            branches.append((p, joint, None))
        return branches


class _HooksOnlyStrategy:
    """The documented strategy contract and nothing more: forwards the
    share and learns nothing."""

    learned_secret = None

    def intercept(self, share, rng):
        return share

    def nonce_announced(self, i, rng):
        return None

    def exact_branches(self, nonce_set, i, s):
        return [(1.0, share_state(nonce_set.states[i], s), None)]


class TestStrategyContract:
    def test_hooks_only_strategy_runs_in_both_engines(self, proposed_set):
        exact = outcome_distribution(proposed_set, _HooksOnlyStrategy())
        assert exact == outcome_distribution(proposed_set, honest_strategy())
        cfg = RoundConfig(nonce_set=proposed_set, rng_seed=3)
        assert (estimate_detection(cfg, _HooksOnlyStrategy(), 500)
                == estimate_detection(cfg, honest_strategy(), 500))

    def test_non_normalized_state_raises(self, proposed_set):
        cfg = RoundConfig(nonce_set=proposed_set, rng_seed=0)
        with pytest.raises(ProtocolError):
            run_round(cfg, _BadStrategy())

    def test_replace_bob_strategy_mc_matches_exact(self):
        ns = NonceSet(name="plusplus", states=(tensor(PLUS, PLUS),))
        dist = outcome_distribution(ns, _ReplaceBobStrategy())
        assert dist.p_detect > 0.1  # tampering this crude is visibly detected
        cfg = RoundConfig(nonce_set=ns, rng_seed=8)
        p, stderr = estimate_detection(cfg, _ReplaceBobStrategy(), 20000)
        assert abs(p - dist.p_detect) <= 4 * max(stderr, 1e-12)


class TestExactDistribution:
    def test_probabilities_sum_to_one(self, proposed_set):
        for strat in (honest_strategy(), imr_guess_strategy("uniform-random", proposed_set)):
            dist = outcome_distribution(proposed_set, strat)
            assert sum(dist.table.values()) == pytest.approx(1.0, abs=1e-9)

    def test_mode_prior_propagates(self, proposed_set):
        dist = outcome_distribution(proposed_set, honest_strategy(), mode_prior=0.25)
        secret_mass = sum(p for (m, s, i, b), p in dist.table.items() if m == SECRET)
        assert secret_mass == pytest.approx(0.25, abs=1e-12)

    def test_verdict_probs_consistent(self, proposed_set):
        plan = synthesize_plan(proposed_set, "target-01")
        dist = outcome_distribution(proposed_set, ifr_strategy(plan, proposed_set))
        assert sum(dist.verdict_probs.values()) == pytest.approx(1.0, abs=1e-9)
        assert dist.verdict_probs[EAVESDROPPER_DETECTED] == pytest.approx(dist.p_detect, abs=1e-12)

    def test_compares_only_with_distributions_and_names_p_detect(self, proposed_set):
        dist = outcome_distribution(proposed_set, honest_strategy())
        assert dist.__eq__(dist.table) is NotImplemented and dist != dist.table
        assert f"p_detect={dist.p_detect!r}" in repr(dist)


class TestMonteCarloVsExact:
    @pytest.mark.parametrize("set_name", ["hsu-I", "proposed-J"])
    @pytest.mark.parametrize("strategy_name", [
        "honest", "imr-uniform", "imr-0", "ifr-target-secret", "ifr-target-01",
    ])
    def test_agreement_within_4_sigma(self, set_name, strategy_name, hsu_set, proposed_set):
        ns = hsu_set if set_name == "hsu-I" else proposed_set

        def make():
            if strategy_name == "honest":
                return honest_strategy()
            if strategy_name == "imr-uniform":
                return imr_guess_strategy("uniform-random", ns)
            if strategy_name == "imr-0":
                return imr_guess_strategy(0, ns)
            policy = strategy_name.split("ifr-", 1)[1]
            return ifr_strategy(synthesize_plan(ns, policy), ns)

        exact = outcome_distribution(ns, make()).p_detect
        rounds = 4000
        cfg = RoundConfig(nonce_set=ns, rng_seed=123)
        p, stderr = estimate_detection(cfg, make(), rounds)
        slack = 4 * max(stderr, np.sqrt(exact * (1 - exact) / rounds), 1e-12)
        assert abs(p - exact) <= slack


class TestRoundConfigValidation:
    def test_bad_mode_prior(self, proposed_set):
        with pytest.raises(ValidationError):
            RoundConfig(nonce_set=proposed_set, mode_prior=1.5)

    def test_bad_secret_bit(self, proposed_set):
        with pytest.raises(ValidationError):
            RoundConfig(nonce_set=proposed_set, secret_bit=2)

    def test_rounds_must_be_positive(self, proposed_set):
        cfg = RoundConfig(nonce_set=proposed_set)
        with pytest.raises(ValidationError):
            estimate_detection(cfg, honest_strategy(), 0)


class _StageTwoStrategy:
    """Forwards the share, then hands the engine a given Stage II operator."""

    name = "stage-two"
    learned_secret = None

    def __init__(self, operator):
        self.operator = operator

    def intercept(self, share, rng):
        return share

    def nonce_announced(self, i, rng):
        return self.operator


class TestStageTwoContract:
    @pytest.mark.parametrize("operator, message", [
        (np.eye(3), "must be 2x2"),
        (2.0 * np.eye(2), "broke normalization"),
    ])
    def test_bad_operator_raises(self, proposed_set, operator, message):
        cfg = RoundConfig(nonce_set=proposed_set, rng_seed=0)
        with pytest.raises(ProtocolError, match=message):
            run_round(cfg, _StageTwoStrategy(operator))

    def test_exact_engine_refuses_bad_mode_prior(self, proposed_set):
        with pytest.raises(ValidationError, match="mode_prior"):
            outcome_distribution(proposed_set, honest_strategy(), mode_prior=1.5)
