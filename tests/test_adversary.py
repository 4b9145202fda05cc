import copy
import pickle
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from qsslab.adversary import (
    POLICIES,
    AttackPlan,
    honest_strategy,
    ifr_strategy,
    imr_guess_strategy,
    load_plan,
    plan_overlaps,
    policy_target,
    save_plan,
    synthesize_plan,
)
from qsslab.analysis import r_of_s
from qsslab.errors import CertificationError, PlanIncompleteError, ValidationError
from qsslab.jsonio import complex_to_json
from qsslab.linalg import (
    TOL,
    partial_trace_E,
    pure_density,
    state_fidelity,
    validate_state,
)
from qsslab.nonces import NonceSet, SECRETS, builtin_nonce_set, share_state
from qsslab.protocol import RoundConfig, outcome_distribution, run_rounds
from oracles import average_recovery, haar_state, haar_unitaries, phase_set, phase_states

S2 = 1.0 / np.sqrt(2.0)
EYE2 = np.eye(2, dtype=complex)
PSI_PLUS = np.array([0, 1, 1, 0], dtype=complex) * S2


def _plan_json(v_table: dict, policy: str = "target-01") -> dict:
    """A plan file's JSON, each ``"<nonce>,<secret>"`` entry encoded."""
    return {"alpha": complex_to_json([1, 0, 0, 0]), "policy": policy,
            "v_table": {key: complex_to_json(v) for key, v in v_table.items()}}


class TestHonest:
    def test_forwards_unchanged(self, proposed_set, rng):
        strat = honest_strategy()
        share = share_state(proposed_set.states[1], "10")
        out = strat.intercept(share, rng)
        np.testing.assert_allclose(out, share)
        assert strat.nonce_announced(1, rng) is None
        assert strat.learned_secret is None


class TestSynthesis:
    def test_hsu_target_secret_is_perfect(self, hsu_set):
        plan = synthesize_plan(hsu_set, "target-secret")
        overlaps = plan_overlaps(plan, hsu_set)
        assert len(overlaps) == 64
        assert all(abs(v - 1.0) < TOL for v in overlaps.values())
        for s in SECRETS:
            assert average_recovery(plan, hsu_set, s) == pytest.approx(1.0, abs=TOL)

    def test_hsu_alpha_is_purification_of_center(self, hsu_set):
        plan = synthesize_plan(hsu_set, "target-secret")
        bell = np.array([1, 0, 0, 1], dtype=complex) * S2
        assert state_fidelity(plan.alpha, bell) == pytest.approx(1.0, abs=TOL)

    def test_proposed_target_secret_is_half(self, proposed_set):
        plan = synthesize_plan(proposed_set, "target-secret")
        overlaps = plan_overlaps(plan, proposed_set)
        assert len(overlaps) == 16
        assert all(abs(v - 0.5) < TOL for v in overlaps.values())

    def test_achieved_overlap_matches_r_of_s(self, hsu_set, proposed_set):
        for ns in (hsu_set, proposed_set):
            for s in SECRETS:
                plan = synthesize_plan(ns, "target-secret")
                value, _ = r_of_s(ns, s)
                assert average_recovery(plan, ns, s) == pytest.approx(value, abs=TOL)

    def test_refuses_non_recoverable_set(self):
        ns = NonceSet(name="basis00", states=(np.array([1, 0, 0, 0], dtype=complex),))
        with pytest.raises(CertificationError):
            synthesize_plan(ns, "target-secret")

    def test_target_01_table_ignores_learned_secret(self, proposed_set):
        plan = synthesize_plan(proposed_set, "target-01")
        for i in range(len(proposed_set)):
            base = plan.v_table[(i, "00")]
            for s in SECRETS:
                np.testing.assert_allclose(plan.v_table[(i, s)], base, atol=TOL)

    def test_fixed_target_policy(self, proposed_set):
        plan = synthesize_plan(proposed_set, "target-10")
        target = share_state(proposed_set.states[0], "10")
        steered = np.kron(plan.v_table[(0, "00")], EYE2) @ plan.alpha
        assert state_fidelity(steered, target) == pytest.approx(0.5, abs=TOL)

    @staticmethod
    def _phase_sets(n):
        """Seeded 1/2 e^{i phi} sets on which the per-target R(s) optimizers
        coincide for every policy below: each nonce comes with its copy
        under Z on Bob's qubit.  Z commutes with every U_s and negates x and
        y of each share's Bob-side Bloch vector, whose z is 0 on these sets,
        so each target's optimizer is I/2."""
        for seed in range(n):
            rng = np.random.default_rng(900 + seed)
            half = phase_states(rng.uniform(0, 2 * np.pi, (1 + seed % 8, 4)))
            yield NonceSet(name=f"phase-{seed}",
                           states=tuple(half) + tuple(psi * [1, -1, 1, -1] for psi in half))

    def test_alpha_marginal_is_common_r_of_s_optimizer(self, hsu_set, proposed_set):
        """Where every target's R(s) optimizer is the same state, the committed
        alpha purifies it.  target-01 has one target, so it is checked on the
        raw (unpaired) random sets as well."""
        cases = [(ns, pol) for ns in (hsu_set, proposed_set, *self._phase_sets(50))
                 for pol in ("target-secret", "target-01")]
        for seed in range(50):
            rng = np.random.default_rng(1900 + seed)
            phases = rng.uniform(0, 2 * np.pi, (1 + seed % 16, 4))
            cases.append((phase_set(phases, f"raw-{seed}"), "target-01"))
        for ns, policy in cases:
            optimizers = [r_of_s(ns, policy_target(policy, s))[1] for s in SECRETS]
            for rho in optimizers[1:]:
                assert np.abs(rho - optimizers[0]).max() <= 1e-12, ns.name
            alpha = synthesize_plan(ns, policy).alpha
            marginal = partial_trace_E(pure_density(alpha))
            assert np.abs(marginal - optimizers[0]).max() <= 1e-12, (ns.name, policy)


class TestKnownAttackReproduction:
    def test_forced_alpha_reproduces_attack(self, hsu_set):
        plan = synthesize_plan(hsu_set, "target-secret", alpha=PSI_PLUS)
        for i, psi in enumerate(hsu_set.states):
            for s in SECRETS:
                steered = np.kron(plan.v_table[(i, s)], EYE2) @ plan.alpha
                target = share_state(psi, s)
                assert state_fidelity(steered, target) == pytest.approx(1.0, abs=TOL)

    def test_zero_detection_exact(self, hsu_set):
        plan = synthesize_plan(hsu_set, "target-secret", alpha=PSI_PLUS)
        dist = outcome_distribution(hsu_set, ifr_strategy(plan, hsu_set))
        assert dist.p_detect == pytest.approx(0.0, abs=1e-12)
        assert dist.p_eve_knows_secret == pytest.approx(1.0, abs=1e-12)

    def test_eve_always_learns_secret(self, hsu_set):
        plan = synthesize_plan(hsu_set, "target-secret", alpha=PSI_PLUS)
        strat = ifr_strategy(plan, hsu_set)
        cfg = RoundConfig(nonce_set=hsu_set, rng_seed=31)
        for t in run_rounds(cfg, strat, 300):
            assert t.eve_learned_secret == t.s
            assert t.verdict != "EAVESDROPPER_DETECTED"


class TestIfrStrategy:
    def test_learned_secret_always_matches(self, proposed_set):
        plan = synthesize_plan(proposed_set, "target-01")
        strat = ifr_strategy(plan, proposed_set)
        cfg = RoundConfig(nonce_set=proposed_set, rng_seed=17)
        for t in run_rounds(cfg, strat, 400):
            assert t.eve_learned_secret == t.s
            assert t.stage_two_unitary_applied

    def test_missing_entry_raises(self, proposed_set):
        plan = synthesize_plan(proposed_set, "target-secret")
        data = plan.to_json_dict()
        del data["v_table"]["3,01"]
        with pytest.raises(PlanIncompleteError, match="nonce 3, secret 01"):
            AttackPlan.from_json_dict(data)
        with pytest.raises(TypeError):
            del plan.v_table[(2, "01")]

    def test_wrong_size_plan_rejected(self, hsu_set, proposed_set):
        plan = synthesize_plan(proposed_set, "target-secret")
        with pytest.raises(ValidationError):
            ifr_strategy(plan, hsu_set)


class TestReadOnlyPlan:
    """A plan validates its table once; nothing can edit it afterwards."""

    def test_arrays_are_read_only(self, proposed_set):
        plan = synthesize_plan(proposed_set, "target-01")
        for arr in (plan.alpha, plan.unitaries, plan.steered, plan.v_table[(1, "10")]):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_table_and_fields_cannot_be_reassigned(self, proposed_set):
        plan = synthesize_plan(proposed_set, "target-01")
        with pytest.raises(TypeError):
            plan.v_table[(0, "00")] = EYE2
        with pytest.raises(FrozenInstanceError):
            plan.alpha = PSI_PLUS

    def test_arrays_agree_with_table(self, proposed_set):
        plan = synthesize_plan(proposed_set, "target-secret")
        assert len(plan) == len(proposed_set)
        assert plan.unitaries.shape == (4, 4, 2, 2) and plan.steered.shape == (4, 4, 4)
        assert list(plan.v_table) == [(i, s) for i in range(4) for s in SECRETS]
        for (i, s), v in plan.v_table.items():
            n = SECRETS.index(s)
            assert np.shares_memory(v, plan.unitaries) and (v == plan.unitaries[i, n]).all()
            np.testing.assert_allclose(plan.steered[i, n], np.kron(v, EYE2) @ plan.alpha,
                                       atol=1e-15)

    def test_gap_names_first_missing_nonce(self):
        data = _plan_json({f"{i},{s}": EYE2 for i in (1, 3) for s in SECRETS})
        with pytest.raises(PlanIncompleteError, match="nonce 2, secret 00"):
            AttackPlan.from_json_dict(data)

    def test_negative_index_refused(self):
        # A plan file's keys are 1-based, so nonce index -1 is written 0.
        for bad in ("0,00", "-1,00"):
            data = _plan_json({f"{i},{s}": EYE2 for i in (1, 2) for s in SECRETS})
            data["v_table"][bad] = complex_to_json(EYE2)
            with pytest.raises(ValidationError, match=f"v_table key '{bad}' must read"):
                AttackPlan.from_json_dict(data)

    def test_plan_smaller_than_set_refused(self, proposed_set, hsu_set):
        plan = synthesize_plan(proposed_set, "target-01")
        with pytest.raises(PlanIncompleteError, match="covers 4 nonces, fewer than the 16"):
            average_recovery(plan, hsu_set, "01")
        with pytest.raises(PlanIncompleteError):
            ifr_strategy(plan, hsu_set)

    def test_bound_plan_cannot_be_rewritten(self, hsu_set):
        # Overwriting a bound plan's table once let the exact engine's two
        # paths disagree (4.6e-33 against 0.625); no edit gets through now.
        plan = synthesize_plan(hsu_set, "target-secret")
        strat = ifr_strategy(plan, hsu_set)
        for key in list(plan.v_table):
            with pytest.raises(TypeError):
                plan.v_table[key] = EYE2
            with pytest.raises(ValueError):
                plan.v_table[key][...] = EYE2
        assert outcome_distribution(hsu_set, strat).p_detect == pytest.approx(0.0, abs=1e-12)


class TestPlanOptimality:
    def test_random_plans_never_beat_r_of_s(self, proposed_set):
        rng = np.random.default_rng(97)
        k = len(proposed_set)
        value, _ = r_of_s(proposed_set, "01")
        shares = [share_state(psi, "01") for psi in proposed_set.states]
        for trial in range(1000):
            alpha = haar_state(4, rng)
            vs = haar_unitaries(k, rng)
            avg = np.mean([
                state_fidelity(shares[i], np.kron(vs[i], EYE2) @ alpha)
                for i in range(k)
            ])
            assert avg <= value + TOL

    def test_synthesized_plan_attains_bound(self, proposed_set):
        for s in SECRETS:
            plan = synthesize_plan(proposed_set, f"target-{s}")
            value, _ = r_of_s(proposed_set, s)
            assert average_recovery(plan, proposed_set, s) == pytest.approx(value, abs=TOL)


class TestImrGuess:
    def test_correct_guess_invisible(self, proposed_set):
        # guess index 0 on a set containing only that nonce: always correct
        ns_single = NonceSet(name="j1", states=(proposed_set.states[0],))
        dist = outcome_distribution(ns_single, imr_guess_strategy(0, ns_single))
        assert dist.p_detect == pytest.approx(0.0, abs=1e-12)
        assert dist.p_eve_knows_secret == pytest.approx(1.0, abs=1e-12)

    def test_success_probability_equals_overlap(self, proposed_set):
        # P(s' = s | nonce i, guess j) = |<psi_j|psi_i>|^2
        k = len(proposed_set)
        for j in range(k):
            strat = imr_guess_strategy(j, proposed_set)
            for i in range(k):
                expected = abs(np.vdot(proposed_set.states[j], proposed_set.states[i])) ** 2
                for s in SECRETS:
                    got = sum(
                        p for p, state, learned in strat.exact_branches(proposed_set, i, s)
                        if learned == s
                    )
                    assert got == pytest.approx(expected, abs=TOL)

    def test_empirical_overlap_law(self, proposed_set):
        # Monte Carlo check on one pair: guess psi_1 while nonce psi_3 is
        # dealt, expected success 1/4
        ns_single = NonceSet(name="j3", states=(proposed_set.states[2],))
        rng = np.random.default_rng(5)
        hits = 0
        rounds = 4000
        strat = imr_guess_strategy(0, proposed_set)
        for r in range(rounds):
            share = share_state(proposed_set.states[2], "01")
            strat.intercept(share, rng)
            if strat.learned_secret == "01":
                hits += 1
        p = hits / rounds
        sigma = np.sqrt(0.25 * 0.75 / rounds)
        assert abs(p - 0.25) <= 4 * sigma

    def test_out_of_range_guess(self, proposed_set):
        for guess in (9, len(proposed_set), -1):
            with pytest.raises(ValidationError, match="out of range"):
                imr_guess_strategy(guess, proposed_set)

    def test_uniform_random_draws_fresh_guess(self, proposed_set):
        strat = imr_guess_strategy("uniform-random", proposed_set)
        rng = np.random.default_rng(6)
        seen = set()
        for _ in range(60):
            strat.intercept(share_state(proposed_set.states[0], "01"), rng)
            seen.add(strat._round_guess)
        assert len(seen) == len(proposed_set)


class TestPlanSerialization:
    def test_round_trip(self, proposed_set, tmp_path):
        plan = synthesize_plan(proposed_set, "target-01")
        path = tmp_path / "plan.json"
        save_plan(plan, path)
        loaded = load_plan(path)
        assert loaded.policy == plan.policy
        np.testing.assert_allclose(loaded.alpha, plan.alpha, atol=0)
        assert set(loaded.v_table) == set(plan.v_table)
        for key in plan.v_table:
            np.testing.assert_allclose(loaded.v_table[key], plan.v_table[key], atol=0)

    def test_round_trip_is_lossless_through_exact_engine(self, proposed_set, tmp_path):
        plan = synthesize_plan(proposed_set, "target-secret")
        path = tmp_path / "plan.json"
        save_plan(plan, path)
        loaded = load_plan(path)
        d1 = outcome_distribution(proposed_set, ifr_strategy(plan, proposed_set))
        d2 = outcome_distribution(proposed_set, ifr_strategy(loaded, proposed_set))
        assert d1.p_detect == d2.p_detect

    def test_rejects_non_unitary_entry(self):
        with pytest.raises(ValidationError, match="^v_table entry 1,00: matrix is not unitary"):
            AttackPlan.from_json_dict(_plan_json({"1,00": np.array([[1, 1], [0, 1]])}))

    def test_rejects_nan_entry(self):
        stack = np.full((1, 4, 2, 2), np.nan, dtype=complex)
        with pytest.raises(ValidationError, match="^v_table entry 1,00: unitary has non-finite"):
            AttackPlan(np.array([1, 0, 0, 0], dtype=complex), stack, "target-01")
        # A plan file cannot hold NaN, so its decoder refuses it first.
        with pytest.raises(ValidationError, match="^v_table entry 1,00: entries must be finite"):
            AttackPlan.from_json_dict(_plan_json({"1,00": stack[0, 0]}))

    def test_rejects_bad_policy(self):
        with pytest.raises(ValidationError, match="policy must be one of"):
            AttackPlan.from_json_dict(_plan_json({}, policy="nope"))

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"alpha": "nope"}')
        with pytest.raises(ValidationError):
            load_plan(path)

    @pytest.mark.parametrize("name", ["hsu-I", "proposed-J"])
    @pytest.mark.parametrize("policy", POLICIES)
    def test_every_policy_round_trips(self, name, policy, tmp_path):
        """A plan file names its own target: read back, it scores and plays
        under its policy with no other input."""
        ns = builtin_nonce_set(name)
        plan = synthesize_plan(ns, policy)
        save_plan(plan, tmp_path / "plan.json")
        loaded = load_plan(tmp_path / "plan.json")
        assert plan_overlaps(loaded, ns) == plan_overlaps(plan, ns)
        assert ifr_strategy(loaded, ns).name == f"ifr:{policy}"
        if name == "proposed-J" and policy != "target-secret":
            t = policy.removeprefix("target-")
            assert average_recovery(loaded, ns, t) == pytest.approx(r_of_s(ns, t)[0], abs=TOL)


class TestStrategyRebind:
    def test_imr_guess_refuses_other_set(self, hsu_set, proposed_set):
        strat = imr_guess_strategy("uniform-random", proposed_set)
        with pytest.raises(ValidationError, match="hsu-I"):
            strat.exact_branches(hsu_set, 0, "00")
        assert strat.nonce_set is proposed_set

    def test_imr_guess_accepts_equal_contents(self, proposed_set):
        # builtin_nonce_set returns a fresh object each call
        strat = imr_guess_strategy(1, builtin_nonce_set("proposed-J"))
        fresh = outcome_distribution(builtin_nonce_set("proposed-J"), strat)
        assert fresh.p_detect == outcome_distribution(
            proposed_set, imr_guess_strategy(1, proposed_set)).p_detect

    def test_ifr_refuses_other_set_of_same_size(self, proposed_set):
        plan = synthesize_plan(proposed_set, "target-01")
        other = NonceSet(name="shuffled", states=proposed_set.states[::-1])
        strat = ifr_strategy(plan, proposed_set)
        with pytest.raises(ValidationError, match="shuffled"):
            outcome_distribution(other, strat)

    def test_ifr_exact_block_refuses_other_set(self, proposed_set):
        plan = synthesize_plan(proposed_set, "target-secret")
        other = NonceSet(name="shuffled", states=proposed_set.states[::-1])
        strat = ifr_strategy(plan, proposed_set)
        with pytest.raises(ValidationError, match="shuffled"):
            strat.exact_block(other, "01")
        strat.exact_block(builtin_nonce_set("proposed-J"), "01")  # equal contents

    @staticmethod
    def _rewrapped_pair():
        """A seeded 1/2 e^{i phi} set and its re-wrapped copy, which
        renormalizes every state again and so differs in last bits."""
        phases = np.random.default_rng([11, 1]).uniform(0.0, 2.0 * np.pi, size=(6, 4))
        ns = phase_set(phases, "phase-6")
        copy = NonceSet(ns.name, ns.states)
        assert not np.array_equal(copy.states, ns.states)
        return ns, copy

    def test_rewrapped_set_accepted(self):
        ns, copy = self._rewrapped_pair()
        imr = imr_guess_strategy(2, ns)
        assert imr.exact_branches(copy, 0, "01")
        ifr = ifr_strategy(synthesize_plan(ns, "target-secret"), ns)
        weights, _, _ = ifr.exact_block(copy, "01")
        assert weights.shape == (len(ns), len(SECRETS))

    def test_reversed_set_still_refused(self):
        ns, _ = self._rewrapped_pair()
        reversed_set = NonceSet(name="reversed", states=ns.states[::-1])
        imr = imr_guess_strategy(2, ns)
        with pytest.raises(ValidationError, match="reversed"):
            imr.exact_branches(reversed_set, 0, "01")
        ifr = ifr_strategy(synthesize_plan(ns, "target-secret"), ns)
        with pytest.raises(ValidationError, match="reversed"):
            ifr.exact_block(reversed_set, "01")


COPIES = {"deepcopy": copy.deepcopy, "pickle": lambda obj: pickle.loads(pickle.dumps(obj))}


def _assert_same_read_only(got, want):
    assert (got == want).all() and not got.flags.writeable


class TestCopies:
    """deepcopy and pickle keep a set's or a plan's validated arrays as
    they are: equal bit for bit, read-only, and not validated again."""

    @pytest.mark.parametrize("how", COPIES)
    @pytest.mark.parametrize("name", ["hsu-I", "proposed-J"])
    def test_nonce_set(self, name, how):
        ns = builtin_nonce_set(name)
        twin = COPIES[how](ns)
        for got, want in ((twin.states, ns.states), (twin.reflections, ns.reflections),
                          (twin.share_stack, ns.share_stack),
                          (twin.reduced_share_stack, ns.reduced_share_stack),
                          (twin.recovery_stack, ns.recovery_stack)):
            _assert_same_read_only(got, want)
        assert twin.to_json_dict() == ns.to_json_dict()

    @pytest.mark.parametrize("how", COPIES)
    @pytest.mark.parametrize("policy", ["target-secret", "target-01"])
    @pytest.mark.parametrize("name", ["hsu-I", "proposed-J"])
    def test_bound_ifr_strategy(self, name, policy, how):
        ns = builtin_nonce_set(name)
        strat = ifr_strategy(synthesize_plan(ns, policy), ns)
        twin_set, twin = COPIES[how]((ns, strat))
        plan, twin_plan = strat.plan, twin.plan
        for attr in ("alpha", "unitaries", "steered"):
            _assert_same_read_only(getattr(twin_plan, attr), getattr(plan, attr))
        assert list(twin_plan.v_table) == list(plan.v_table)
        for v in twin_plan.v_table.values():
            assert np.shares_memory(v, twin_plan.unitaries) and not v.flags.writeable
        assert twin_plan.to_json_dict() == plan.to_json_dict()
        for prior in (0.3, 0.5):
            assert (outcome_distribution(twin_set, twin, mode_prior=prior)
                    == outcome_distribution(ns, strat, mode_prior=prior))

    @pytest.mark.parametrize("how", COPIES)
    def test_alpha_kept_bit_for_bit(self, how):
        # Find a plan whose alpha moves a last bit when normalized again.
        rng = np.random.default_rng(31)
        while True:
            plan = AttackPlan(haar_state(4, rng), np.broadcast_to(EYE2, (1, 4, 2, 2)))
            if not np.array_equal(validate_state(plan.alpha), plan.alpha):
                break
        assert np.array_equal(COPIES[how](plan).alpha, plan.alpha)


class TestPlanOverlaps:
    def test_scores_the_sets_nonces(self, hsu_set):
        plan = synthesize_plan(hsu_set, "target-secret")
        small = NonceSet(name="first-two", states=hsu_set.states[:2])
        overlaps = plan_overlaps(plan, small)
        assert list(overlaps) == [(i, s) for i in range(2) for s in SECRETS]
        assert overlaps == {key: v for key, v in plan_overlaps(plan, hsu_set).items()
                            if key[0] < 2}

    def test_plan_smaller_than_set_refused(self, proposed_set, hsu_set):
        plan = synthesize_plan(proposed_set, "target-01")
        with pytest.raises(PlanIncompleteError, match="covers 4 nonces, fewer than the 16"):
            plan_overlaps(plan, hsu_set)
