import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsslab.errors import ValidationError
from qsslab.linalg import TOL, partial_trace_E, pure_density, state_fidelity, tensor
from qsslab.nonces import (
    MINUS,
    MINUS_I,
    PLUS,
    PLUS_I,
    SECRETS,
    NonceSet,
    basis_state,
    builtin_nonce_set,
    load_nonce_set,
    nonce_set_from_json_dict,
    reflection,
    sample_outcome,
    share_state,
)
from oracles import haar_state, phase_set

EYE4 = np.eye(4, dtype=complex)

# Share states U_s|psi_i> for the proposed four-nonce set, by secret then
# nonce, as (sign, eve_qubit, bob_qubit).
SHARE_TABLE = {
    "00": [(-1, PLUS, MINUS), (-1, MINUS, PLUS), (-1, PLUS_I, MINUS_I), (-1, MINUS_I, PLUS_I)],
    "01": [(1, MINUS, MINUS), (1, PLUS, PLUS), (1, MINUS_I, MINUS_I), (1, PLUS_I, PLUS_I)],
    "10": [(1, PLUS, PLUS), (1, MINUS, MINUS), (1, PLUS_I, PLUS_I), (1, MINUS_I, MINUS_I)],
    "11": [(1, MINUS, PLUS), (1, PLUS, MINUS), (1, MINUS_I, PLUS_I), (1, PLUS_I, MINUS_I)],
}

# Bob's reduced share states for the same set: the single-qubit projector
# onto this state, by secret then nonce.
REDUCED_TABLE = {
    "00": [MINUS, PLUS, MINUS_I, PLUS_I],
    "01": [MINUS, PLUS, MINUS_I, PLUS_I],
    "10": [PLUS, MINUS, PLUS_I, MINUS_I],
    "11": [PLUS, MINUS, PLUS_I, MINUS_I],
}


class TestBuiltinSets:
    def test_sizes(self, hsu_set, proposed_set):
        assert len(hsu_set) == 16
        assert len(proposed_set) == 4

    def test_proposed_first_nonce(self, proposed_set):
        np.testing.assert_allclose(proposed_set.states[0], 0.5 * np.array([1, 1, -1, 1]), atol=TOL)

    def test_proposed_third_nonce(self, proposed_set):
        np.testing.assert_allclose(proposed_set.states[2], 0.5 * np.array([1, 1j, -1j, -1]), atol=TOL)

    def test_hsu_contains_plus_plus(self, hsu_set):
        np.testing.assert_allclose(hsu_set.states[0], 0.5 * np.ones(4), atol=TOL)

    def test_hsu_is_lexicographic_product(self, hsu_set):
        order = (PLUS, MINUS, PLUS_I, MINUS_I)
        for ix, x in enumerate(order):
            for iy, y in enumerate(order):
                np.testing.assert_allclose(hsu_set.states[4 * ix + iy], tensor(x, y), atol=TOL)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            builtin_nonce_set("nope")

    def test_all_normalized(self, hsu_set, proposed_set):
        for ns in (hsu_set, proposed_set):
            for v in ns.states:
                assert abs(np.linalg.norm(v) - 1.0) < TOL


class TestReflection:
    def test_basis_reflection(self):
        np.testing.assert_allclose(reflection(basis_state("00")), np.diag([-1, 1, 1, 1]), atol=TOL)

    def test_grover_identity_all_secrets(self):
        # -U_c U_s |c> = |s> for the uniform two-qubit state c
        c = tensor(PLUS, PLUS)
        u_c = reflection(c)
        for s in ("00", "01", "10", "11"):
            out = -u_c @ share_state(c, s)
            assert state_fidelity(out, basis_state(s)) == pytest.approx(1.0, abs=TOL)
            np.testing.assert_allclose(out, basis_state(s), atol=TOL)

    def test_orthogonal_fixed_point(self):
        np.testing.assert_allclose(reflection(PLUS) @ MINUS, MINUS, atol=TOL)

    def test_negates_axis(self):
        v = haar_state(4, np.random.default_rng(1))
        np.testing.assert_allclose(reflection(v) @ v, -v, atol=TOL)

    @given(st.integers(0, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_involution_and_structure(self, seed):
        v = haar_state(4, np.random.default_rng(seed))
        u = reflection(v)
        assert np.abs(u @ u - EYE4).max() < 1e-9
        assert np.abs(u - u.conj().T).max() < 1e-9
        assert np.linalg.det(u).real == pytest.approx(-1.0, abs=1e-9)

    def test_involution_bulk(self):
        rng = np.random.default_rng(55)
        for _ in range(1000):
            u = reflection(haar_state(4, rng))
            assert np.abs(u @ u - EYE4).max() < 1e-9
            assert np.abs(u.conj().T @ u - EYE4).max() < 1e-9


class TestShareState:
    def test_flips_one_amplitude(self, proposed_set):
        share = share_state(proposed_set.states[0], "10")
        np.testing.assert_allclose(share, 0.5 * np.array([1, 1, 1, 1]), atol=TOL)

    def test_share_equals_reflection_action(self, proposed_set):
        for s in ("00", "01", "10", "11"):
            u_s = reflection(basis_state(s))
            for psi in proposed_set.states:
                np.testing.assert_allclose(share_state(psi, s), u_s @ psi, atol=TOL)

    def test_plus_plus_share(self):
        share = share_state(tensor(PLUS, PLUS), "11")
        np.testing.assert_allclose(share, np.array([0.5, 0.5, 0.5, -0.5]), atol=TOL)

    def test_first_nonce_examples(self, proposed_set):
        share01 = share_state(proposed_set.states[0], "01")
        assert state_fidelity(share01, tensor(MINUS, MINUS)) == pytest.approx(1.0, abs=TOL)
        share00 = share_state(proposed_set.states[0], "00")
        np.testing.assert_allclose(share00, -tensor(PLUS, MINUS), atol=TOL)

    def test_rejects_bad_secret(self, proposed_set):
        with pytest.raises(ValidationError):
            share_state(proposed_set.states[0], "2")


class TestShareTables:
    def test_share_table_reproduced(self, proposed_set):
        for s, row in SHARE_TABLE.items():
            for i, (sign, eve, bob) in enumerate(row):
                expected = sign * tensor(eve, bob)
                got = share_state(proposed_set.states[i], s)
                assert state_fidelity(got, expected) == pytest.approx(1.0, abs=TOL)
                # the sign convention actually matches exactly, not just up to phase
                np.testing.assert_allclose(got, expected, atol=1e-9)

    def test_reduced_table_reproduced(self, proposed_set):
        for s, row in REDUCED_TABLE.items():
            for i, bob in enumerate(row):
                got = partial_trace_E(pure_density(share_state(proposed_set.states[i], s)))
                assert np.abs(got - pure_density(bob)).max() < 1e-9


class TestNonceSetArrays:
    """A set owns its states, reflections and share stack: built once with
    the set, read-only, and independent of the caller's input."""

    def test_arrays_are_read_only(self, proposed_set):
        for arr in (proposed_set.states, proposed_set.reflections, proposed_set.share_stack,
                    proposed_set.reduced_share_stack, proposed_set.recovery_stack):
            with pytest.raises(ValueError):
                arr[0, 0] = 0.0

    def test_share_stack_built_once(self, proposed_set):
        assert proposed_set.share_stack is proposed_set.share_stack

    def test_reduced_and_recovery_stacks_match_fresh_kernels(self):
        rng = np.random.default_rng(41)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=(13, 4))
        sets = [builtin_nonce_set("hsu-I"), builtin_nonce_set("proposed-J"),
                phase_set(phases, "phase"),
                NonceSet(name="haar", states=tuple(haar_state(4, rng) for _ in range(7)))]
        for ns in sets:
            shares = ns.share_stack
            reduced = partial_trace_E(pure_density(shares))
            recovery = np.stack([np.abs(ns.reflections @ shares[:, n, :, None])[..., 0] ** 2
                                 for n in range(len(SECRETS))], axis=1)
            for got, want in ((ns.reduced_share_stack, reduced), (ns.recovery_stack, recovery)):
                assert got.shape == want.shape and got.dtype == want.dtype, ns.name
                assert got.tobytes() == want.tobytes(), ns.name

    def test_caller_input_copied(self):
        vecs = [0.5 * np.ones(4, dtype=complex), 0.5 * np.array([1, 1, -1, -1], dtype=complex)]
        ns = NonceSet(name="two", states=vecs)
        before = (ns.states.copy(), ns.reflections.copy(), ns.share_stack.copy())
        vecs[0][:] = [1, 0, 0, 0]
        vecs[1][0] = -0.5
        for arr, want in zip((ns.states, ns.reflections, ns.share_stack), before):
            assert np.array_equal(arr, want)

    def test_array_input_builds_same_set(self, proposed_set):
        from_array = NonceSet(name="rev", states=proposed_set.states[::-1])
        from_tuple = NonceSet(name="rev", states=tuple(proposed_set.states[::-1]))
        assert from_array.states.shape == (4, 4)
        for attr in ("states", "reflections"):
            assert np.array_equal(getattr(from_array, attr), getattr(from_tuple, attr))
        assert np.array_equal(from_array.share_stack, from_tuple.share_stack)


class TestNonceSetJson:
    def test_round_trip(self, proposed_set, tmp_path):
        path = tmp_path / "set.json"
        path.write_text(json.dumps(proposed_set.to_json_dict()))
        loaded = load_nonce_set(path)
        assert loaded.name == "proposed-J"
        for a, b in zip(loaded.states, proposed_set.states):
            np.testing.assert_allclose(a, b, atol=TOL)

    def test_loader_normalizes_small_drift(self):
        amps = [[0.5 + 3e-7, 0.0], [0.5, 0.0], [0.5, 0.0], [0.5, 0.0]]
        ns = nonce_set_from_json_dict({"name": "x", "states": [amps]})
        assert abs(np.linalg.norm(ns.states[0]) - 1.0) < 1e-12

    def test_loader_rejects_beyond_tolerance(self):
        amps = [[0.52, 0.0], [0.5, 0.0], [0.5, 0.0], [0.5, 0.0]]
        with pytest.raises(ValidationError, match="state 1"):
            nonce_set_from_json_dict({"name": "x", "states": [amps]})

    def test_loader_names_offending_index(self):
        good = [[0.5, 0.0]] * 4
        bad = [[0.9, 0.0], [0.1, 0.0], [0.0, 0.0], [0.0, 0.0]]
        with pytest.raises(ValidationError, match="state 2"):
            nonce_set_from_json_dict({"name": "x", "states": [good, bad]})

    def test_parse_error_has_line_context(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"name": "x",\n  "states": [oops]}')
        with pytest.raises(ValidationError, match="line 2"):
            load_nonce_set(path)

    def test_missing_keys(self):
        with pytest.raises(ValidationError):
            nonce_set_from_json_dict({"states": []})

    def test_empty_set_rejected(self):
        with pytest.raises(ValidationError):
            NonceSet(name="empty", states=())

    def test_custom_single_nonce_accepted(self):
        ns = NonceSet(name="one", states=(np.array([1, 0, 0, 0], dtype=complex),))
        assert len(ns) == 1


class _FixedDraw:
    """An rng double whose only draw is a fixed number; counts its calls."""

    def __init__(self, u):
        self.u = u
        self.calls = 0

    def random(self):
        self.calls += 1
        return self.u


class TestSampleOutcome:
    def test_inverse_cdf_boundaries(self):
        state = np.array([0.5, 0.5, 0.5, 0.5], dtype=complex)
        for u, expected in ((0.0, "00"), (0.2499, "00"), (0.25, "01"), (0.6, "10"), (0.99, "11")):
            rng = _FixedDraw(u)
            assert sample_outcome(state, rng) == expected
            assert rng.calls == 1

    def test_falls_back_to_11(self):
        # a draw above the last partial sum lands on index 3, even at zero weight
        assert sample_outcome(np.array([1, 0, 0, 0], dtype=complex), _FixedDraw(1.0)) == "11"
