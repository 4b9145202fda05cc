"""Stacked (array-form) helpers against their one-matrix calls, and the
exact engine's memory on a large guess table."""
import dataclasses
import tracemalloc

import numpy as np
import pytest

from qsslab import analysis
from qsslab.adversary import AttackPlan, ifr_strategy, imr_guess_strategy, synthesize_plan
from qsslab.errors import ValidationError
from qsslab.jsonio import complex_to_json
from qsslab.linalg import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    bloch_from_density,
    is_pure,
    max_overlap_unitary,
    partial_trace_E,
    pure_density,
    svd_2x2,
    validate_unitary,
)
from qsslab.nonces import NonceSet, SECRETS, builtin_nonce_set, reflection, share_state
from qsslab.protocol import outcome_distribution
from oracles import haar_state, haar_unitaries, random_density


def _plan_json(v_table: dict) -> dict:
    """A plan file's JSON, each ``"<nonce>,<secret>"`` entry encoded."""
    return {"alpha": complex_to_json([1, 0, 0, 0]), "policy": "target-01",
            "v_table": {key: complex_to_json(v) for key, v in v_table.items()}}


def _phase_set(k: int, seed: int) -> NonceSet:
    phases = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, size=(k, 4))
    return NonceSet(name=f"phase-k{k}", states=tuple(0.5 * np.exp(1j * p) for p in phases))


def _bitwise_equal(a, b) -> bool:
    """Equal values and equal signs of zero."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a.real), np.signbit(b.real))
            and np.array_equal(np.signbit(a.imag), np.signbit(b.imag)))


def _matrices(rng, n: int) -> np.ndarray:
    """Random 2x2 complex matrices, with rank-deficient and zero ones mixed in."""
    m = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
    m[::5, 1] = m[::5, 0] * (0.5 - 2j)
    m[::7] = 0.0
    return m


class TestStackedSvd:
    def test_svd_2x2_matches_per_matrix_bit_for_bit(self):
        m = _matrices(np.random.default_rng(1), 60).reshape(3, 20, 2, 2)
        u, s, w = svd_2x2(m)
        assert u.shape == w.shape == (3, 20, 2, 2) and s.shape == (3, 20, 2)
        for idx in np.ndindex(3, 20):
            u1, (s0, s1), w1 = svd_2x2(m[idx])
            assert isinstance(s0, float) and isinstance(s1, float)
            assert _bitwise_equal(u[idx], u1) and _bitwise_equal(w[idx], w1)
            assert s[idx][0] == s0 and s[idx][1] == s1

    def test_max_overlap_unitary_matches_per_pair_bit_for_bit(self):
        rng = np.random.default_rng(2)
        alpha = haar_state(4, rng)
        targets = np.array([haar_state(4, rng) for _ in range(40)])
        v, values = max_overlap_unitary(alpha, targets)
        alphas = np.array([haar_state(4, rng) for _ in range(40)]).reshape(5, 8, 4)
        v2, values2 = max_overlap_unitary(alphas, targets.reshape(5, 8, 4))
        for n, target in enumerate(targets):
            v1, value1 = max_overlap_unitary(alpha, target)
            assert isinstance(value1, float)
            assert _bitwise_equal(v[n], v1) and values[n] == value1
            v1, value1 = max_overlap_unitary(alphas.reshape(40, 4)[n], target)
            assert _bitwise_equal(v2.reshape(40, 2, 2)[n], v1)
            assert values2.reshape(40)[n] == value1

    def test_builtin_targets_match_per_pair(self):
        for name in ("hsu-I", "proposed-J"):
            ns = builtin_nonce_set(name)
            alpha = np.array([0.5, 0.5j, -0.5, 0.5], dtype=complex)
            v, _ = max_overlap_unitary(alpha, ns.share_stack())
            for i, psi in enumerate(ns.states):
                for n, s in enumerate(SECRETS):
                    assert _bitwise_equal(v[i, n], max_overlap_unitary(alpha, share_state(psi, s))[0])


class TestStackedStates:
    @pytest.mark.parametrize("ns", [builtin_nonce_set("hsu-I"), builtin_nonce_set("proposed-J"),
                                    _phase_set(9, 3)], ids=lambda ns: ns.name)
    def test_reflections_and_shares_match_scalar_builders(self, ns):
        assert ns.reflections.shape == (len(ns), 4, 4)
        shares = ns.share_stack()
        assert shares.shape == (len(ns), 4, 4)
        for i, psi in enumerate(ns.states):
            assert _bitwise_equal(ns.reflections[i], reflection(psi))
            for n, s in enumerate(SECRETS):
                assert _bitwise_equal(shares[i, n], share_state(psi, s))

    @pytest.mark.parametrize("ns", [builtin_nonce_set("hsu-I"), builtin_nonce_set("proposed-J"),
                                    _phase_set(11, 12)], ids=lambda ns: ns.name)
    def test_share_density_and_reduction_match_one_state_calls(self, ns):
        shares = np.stack([share_state(ns.states, s) for s in SECRETS], axis=1)
        dens = pure_density(shares)
        reduced = partial_trace_E(dens)
        assert dens.shape == (len(ns), 4, 4, 4) and reduced.shape == (len(ns), 4, 2, 2)
        for n, s in enumerate(SECRETS):
            bob = analysis.bob_reduced_shares(ns, s)
            for i, psi in enumerate(ns.states):
                one = share_state(psi, s)
                assert _bitwise_equal(shares[i, n], one)
                assert _bitwise_equal(dens[i, n], pure_density(one))
                assert _bitwise_equal(reduced[i, n], partial_trace_E(pure_density(one)))
                assert _bitwise_equal(bob[i], reduced[i, n])

    @pytest.mark.parametrize("shape", [(2, 2), (4, 2), (16,), (3, 2, 2), (4, 4, 2), (2, 4, 4, 3)])
    def test_partial_trace_rejects_other_trailing_shapes(self, shape):
        with pytest.raises(ValidationError, match="expects a 4x4 density matrix"):
            partial_trace_E(np.zeros(shape, dtype=complex))

    def test_bloch_from_density_equals_pauli_traces_bit_for_bit(self):
        rng = np.random.default_rng(4)
        mats = [random_density(rng) for _ in range(200)]
        mats += [pure_density(haar_state(2, rng)) for _ in range(200)]
        for name in ("hsu-I", "proposed-J"):
            for s in SECRETS:
                mats += list(analysis.bob_reduced_shares(builtin_nonce_set(name), s))
        stacked = bloch_from_density(np.array(mats))
        for rho, got in zip(mats, stacked):
            want = np.array([np.trace(rho @ p).real for p in (PAULI_X, PAULI_Y, PAULI_Z)])
            assert _bitwise_equal(got, want)
            assert _bitwise_equal(bloch_from_density(rho), want)

    def test_objective_coeffs_match_per_state_path(self):
        rng = np.random.default_rng(5)
        collections = [np.array([random_density(rng) for _ in range(n)]) for n in (1, 3, 17)]
        collections += [np.array([pure_density(haar_state(2, rng)) for _ in range(n)]) for n in (1, 8)]
        collections += [analysis.bob_reduced_shares(ns, s) for s in SECRETS
                        for ns in (builtin_nonce_set("hsu-I"), builtin_nonce_set("proposed-J"),
                                   _phase_set(16, 6))]
        for sigmas in collections:
            b_mean, c_mean = analysis._objective_coeffs(sigmas)
            blochs = np.array([bloch_from_density(s) for s in sigmas])
            dets = [0.0 if is_pure(s) else max(np.linalg.det(s).real, 0.0) for s in sigmas]
            assert np.abs(b_mean - blochs.mean(axis=0)).max() <= 1e-15
            assert abs(c_mean - float(np.sqrt(dets).mean())) <= 1e-15

    def test_bob_reduced_shares_trace_out_eve(self):
        ns = _phase_set(6, 7)
        for s in SECRETS:
            shares = analysis.bob_reduced_shares(ns, s)
            assert shares.shape == (6, 2, 2)
            for i, psi in enumerate(ns.states):
                rho = pure_density(share_state(psi, s))
                assert _bitwise_equal(shares[i], rho[:2, :2] + rho[2:, 2:])


class TestStackedUnitaryCheck:
    def test_accepts_stack_and_names_first_bad_matrix(self):
        stack = haar_unitaries(6, np.random.default_rng(8))
        assert validate_unitary(stack, dim=2) is not None
        bad = stack.copy()
        bad[4] = [[1, 1], [0, 1]]
        bad[2, 0, 0] = np.nan
        with pytest.raises(ValidationError, match="^third: unitary has non-finite"):
            validate_unitary(bad, dim=2, names=["first", "second", "third", "4", "5", "6"])
        bad[2] = stack[2]
        with pytest.raises(ValidationError, match="^matrix 4: matrix is not unitary"):
            validate_unitary(bad, dim=2)

    def test_plan_names_bad_entry_one_based(self):
        table = {f"{i},{s}": np.eye(2) for i in range(1, 5) for s in SECRETS}
        table["3,01"] = np.array([[1, 1], [0, 1]])
        with pytest.raises(ValidationError, match="^v_table entry 3,01: matrix is not unitary"):
            AttackPlan.from_json_dict(_plan_json(table))

    def test_synthesized_stack_validates_like_a_table(self):
        plan = synthesize_plan(_phase_set(5, 12), "target-secret")
        twin = AttackPlan.from_json_dict(plan.to_json_dict())
        assert twin.unitaries.tobytes() == plan.unitaries.tobytes()
        bad = plan.unitaries.copy()
        bad[2, 1] = [[1, 1], [0, 1]]
        with pytest.raises(ValidationError, match="^v_table entry 3,01: matrix is not unitary"):
            AttackPlan(plan.alpha, bad, plan.policy)

    @pytest.mark.parametrize("unitaries", [
        {(0, "00"): np.eye(2)},
        np.broadcast_to(np.eye(2), (4, 2, 2)),
        np.zeros((1, 4, 2, 2, 1)),
        np.broadcast_to(np.eye(2), (1, 2, 2, 2)),
        [[[[1, 0], [0, 1, 0]]] * 4],
        "eye",
        None,
    ], ids=["dict", "3d", "5d", "two-secrets", "ragged", "string", "none"])
    def test_plan_refuses_a_non_stack(self, unitaries):
        with pytest.raises(ValidationError, match=r"^unitaries must be a numeric \(K, 4, 2, 2\)"):
            AttackPlan(np.array([1, 0, 0, 0], dtype=complex), unitaries)

    def test_replace_builds_the_plan_again_from_its_table(self):
        plan = synthesize_plan(builtin_nonce_set("proposed-J"), "target-secret")
        other = dataclasses.replace(plan, policy="target-01")
        assert other.policy == "target-01"
        assert other.unitaries.tobytes() == plan.unitaries.tobytes()

    @pytest.mark.parametrize("key, message", [
        ("3,10", "^v_table entry 3,10: matrix is not unitary"),
        ("0,00", "^v_table key '0,00' must read"),
    ], ids=["beyond", "negative"])
    def test_plan_names_a_bad_stray_entry(self, key, message):
        table = {f"{i},{s}": np.eye(2) for i in (1, 2) for s in SECRETS}
        table[key] = np.array([[1, 1], [0, 1]])
        with pytest.raises(ValidationError, match=message):
            AttackPlan.from_json_dict(_plan_json(table))

    def test_plan_with_empty_v_table_constructs(self):
        plan = AttackPlan.from_json_dict(_plan_json({}))
        assert plan.v_table == {} and plan.unitaries.shape == (0, 4, 2, 2)

    @pytest.mark.parametrize("entry", [
        [[[1, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]]],
        complex_to_json(np.eye(3)),
        complex_to_json(np.eye(4).reshape(4, 2, 2)),
        complex_to_json([1, 0, 0, 1]),
        "eye",
    ], ids=["ragged", "3x3", "4x2x2", "flat", "string"])
    def test_plan_rejects_misshaped_entry(self, entry):
        data = _plan_json({"1,00": np.eye(2)})
        data["v_table"]["1,01"] = entry
        with pytest.raises(ValidationError, match="^v_table entry 1,01: expected 2"):
            AttackPlan.from_json_dict(data)


def test_exact_engine_memory_on_uniform_guess_table():
    ns = _phase_set(64, 9)
    strat = imr_guess_strategy("uniform-random", ns)
    ns.reflections  # the cached stack is not part of the engine's working set
    tracemalloc.start()
    try:
        outcome_distribution(ns, strat)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, f"peak {peak / 1e6:.2f} MB"


def test_exact_engine_memory_on_ifr_table():
    ns = _phase_set(64, 10)
    strat = ifr_strategy(synthesize_plan(ns, "target-secret"), ns)
    ns.reflections  # the cached stack is not part of the engine's working set
    tracemalloc.start()
    try:
        outcome_distribution(ns, strat)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # About 0.25 MB, mostly the table dict; one (k, 4k, 4) complex array
    # alone would be 1 MB.
    assert peak < 500_000, f"peak {peak / 1e6:.2f} MB"
