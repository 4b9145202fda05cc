import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsslab.errors import UnsupportedCaseError, ValidationError
from qsslab.linalg import (
    TOL,
    bloch_from_density,
    canonical_purification,
    density_from_bloch,
    fidelity,
    max_overlap_unitary,
    partial_trace_E,
    pure_density,
    state_fidelity,
    tensor,
    validate_state,
    validate_unitary,
)
from qsslab.nonces import MINUS, PLUS, PLUS_I
from oracles import bob_marginal, haar_state, haar_unitaries, random_density, svd_2x2

S2 = 1.0 / np.sqrt(2.0)
KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
EYE2 = np.eye(2, dtype=complex)


def seeded(seed):
    return np.random.default_rng(seed)


class TestTensor:
    def test_basis_product(self):
        np.testing.assert_allclose(tensor(KET0, KET0), [1, 0, 0, 0], atol=TOL)

    def test_plus_minus(self):
        np.testing.assert_allclose(tensor(PLUS, MINUS), 0.5 * np.array([1, -1, 1, -1]), atol=TOL)

    def test_plus_i_squared(self):
        # hand expansion of (|0> + i|1>)/sqrt2 tensored with itself
        np.testing.assert_allclose(tensor(PLUS_I, PLUS_I), 0.5 * np.array([1, 1j, 1j, -1]), atol=TOL)

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValidationError):
            tensor(np.ones(4) / 2.0, KET0)

    def test_index_convention(self):
        # basis index of |e>|b> is 2e + b
        joint = tensor(KET1, KET0)
        assert joint[2] == 1.0


class TestPartialTrace:
    def test_product_state(self):
        rho = pure_density(tensor(KET0, KET0))
        np.testing.assert_allclose(partial_trace_E(rho), pure_density(KET0), atol=TOL)

    def test_bell_is_maximally_mixed(self):
        bell = np.array([0, 1, 1, 0], dtype=complex) * S2
        np.testing.assert_allclose(partial_trace_E(pure_density(bell)), EYE2 / 2, atol=TOL)

    def test_share_state_reduces_to_minus(self, proposed_set):
        from qsslab.nonces import share_state
        rho = pure_density(share_state(proposed_set.states[0], "01"))
        np.testing.assert_allclose(partial_trace_E(rho), pure_density(MINUS), atol=TOL)

    def test_trace_preserved(self):
        rho = pure_density(haar_state(4, seeded(3)))
        assert abs(np.trace(partial_trace_E(rho)).real - 1.0) < TOL

    def test_bob_marginal_matches(self):
        v = haar_state(4, seeded(4))
        np.testing.assert_allclose(bob_marginal(v), partial_trace_E(pure_density(v)), atol=TOL)


class TestFidelity:
    def test_identical_pure(self):
        assert fidelity(pure_density(KET0), pure_density(KET0)) == pytest.approx(1.0, abs=TOL)

    def test_pure_vs_maximally_mixed(self):
        assert fidelity(pure_density(PLUS), EYE2 / 2) == pytest.approx(0.5, abs=TOL)

    def test_mixed_mixed_qubit(self):
        assert fidelity(EYE2 / 2, EYE2 / 2) == pytest.approx(1.0, abs=TOL)

    def test_squared_convention(self):
        a, b = haar_state(2, seeded(5)), haar_state(2, seeded(6))
        expected = abs(np.vdot(a, b)) ** 2
        assert fidelity(pure_density(a), pure_density(b)) == pytest.approx(expected, abs=TOL)

    def test_dim4_pure_vs_mixed(self):
        v = haar_state(4, seeded(7))
        rho = 0.7 * pure_density(haar_state(4, seeded(8))) + 0.3 * np.eye(4) / 4
        expected = np.vdot(v, rho @ v).real
        assert fidelity(pure_density(v), rho) == pytest.approx(expected, abs=TOL)
        assert fidelity(rho, pure_density(v)) == pytest.approx(expected, abs=TOL)

    def test_dim4_mixed_mixed_rejected(self):
        rho = np.eye(4, dtype=complex) / 4
        with pytest.raises(UnsupportedCaseError):
            fidelity(rho, rho)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            fidelity(EYE2 / 2, np.eye(4) / 4)

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, seed):
        rng = seeded(seed)
        r, s = random_density(rng), random_density(rng)
        assert abs(fidelity(r, s) - fidelity(s, r)) < TOL

    def test_pure_argument_has_no_determinant_noise(self):
        rng = seeded(11)
        worst = 0.0
        for _ in range(2000):
            psi = haar_state(2, rng)
            rho = random_density(rng)
            exact = np.vdot(psi, rho @ psi).real
            worst = max(worst, abs(fidelity(pure_density(psi), rho) - exact),
                        abs(fidelity(rho, pure_density(psi)) - exact))
        assert worst <= 1e-12

    def test_unit_iff_equal(self):
        rng = seeded(9)
        for _ in range(50):
            rho = random_density(rng)
            assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-7)
            other = random_density(rng)
            if np.abs(rho - other).max() > 1e-3:
                assert fidelity(rho, other) < 1.0 - 1e-9


class TestBloch:
    def test_north_pole(self):
        np.testing.assert_allclose(bloch_from_density(pure_density(KET0)), [0, 0, 1], atol=TOL)

    def test_center(self):
        np.testing.assert_allclose(bloch_from_density(EYE2 / 2), [0, 0, 0], atol=TOL)

    def test_plus_i_on_y_axis(self):
        np.testing.assert_allclose(bloch_from_density(pure_density(PLUS_I)), [0, 1, 0], atol=TOL)

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, seed):
        rho = random_density(seeded(seed))
        back = density_from_bloch(bloch_from_density(rho))
        assert np.abs(back - rho).max() < TOL

    def test_rejects_outside_ball(self):
        with pytest.raises(ValidationError):
            density_from_bloch([1.0, 1.0, 0.0])

    def test_purity_matches_norm(self):
        v = bloch_from_density(pure_density(haar_state(2, seeded(10))))
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=TOL)

    def test_fidelity_bloch_identity(self):
        # Exact qubit identity: F = 1 - |d|^2/4 - (sqrt(1-a) - sqrt(1-b))^2/4
        # with d the Bloch difference and a, b the squared Bloch norms.  It
        # gives F = 1 - |d|^2/4 exactly when the purities match (so for any
        # two pure states) and F below that bound otherwise; F >= (1 + l1.l2)/2
        # always.
        rng = seeded(11)
        for trial in range(1000):
            r, s = random_density(rng), random_density(rng)
            f = fidelity(r, s)
            l1, l2 = bloch_from_density(r), bloch_from_density(s)
            bound = 1.0 - 0.25 * np.sum((l1 - l2) ** 2)
            a, b = np.sum(l1 ** 2), np.sum(l2 ** 2)
            refined = bound - 0.25 * (np.sqrt(1 - a) - np.sqrt(1 - b)) ** 2
            assert abs(f - refined) < 1e-9
            assert f <= bound + 1e-9
            assert f >= 0.5 * (1.0 + l1 @ l2) - 1e-9

    def test_equality_when_both_pure(self):
        rng = seeded(12)
        for trial in range(200):
            r = pure_density(haar_state(2, rng))
            s = pure_density(haar_state(2, rng))
            l1, l2 = bloch_from_density(r), bloch_from_density(s)
            bound = 1.0 - 0.25 * np.sum((l1 - l2) ** 2)
            assert abs(fidelity(r, s) - bound) < 1e-9


class TestSvd2x2:
    def test_identity(self):
        _, (s0, s1), _ = svd_2x2(EYE2)
        assert (s0, s1) == pytest.approx((1.0, 1.0), abs=TOL)

    def test_diag(self):
        _, (s0, s1), _ = svd_2x2(np.diag([2.0, 0.0]))
        assert (s0, s1) == pytest.approx((2.0, 0.0), abs=TOL)

    @given(st.integers(0, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_reconstruction(self, seed):
        rng = seeded(seed)
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        u, (s0, s1), w = svd_2x2(m)
        assert s0 >= s1 >= 0
        rebuilt = u @ np.diag([s0, s1]) @ w.conj().T
        assert np.abs(rebuilt - m).max() < 1e-9
        assert np.abs(u.conj().T @ u - EYE2).max() < 1e-9
        assert np.abs(w.conj().T @ w - EYE2).max() < 1e-9


class TestCanonicalPurification:
    def test_pure_state(self):
        psi = canonical_purification(pure_density(KET0))
        assert state_fidelity(psi, [1, 0, 0, 0]) == pytest.approx(1.0, abs=TOL)

    def test_maximally_mixed(self):
        psi = canonical_purification(EYE2 / 2)
        bell = np.array([1, 0, 0, 1], dtype=complex) * S2
        assert state_fidelity(psi, bell) == pytest.approx(1.0, abs=TOL)

    def test_diagonal(self):
        psi = canonical_purification(np.diag([0.75, 0.25]).astype(complex))
        expected = np.array([np.sqrt(0.75), 0, 0, np.sqrt(0.25)], dtype=complex)
        assert state_fidelity(psi, expected) == pytest.approx(1.0, abs=TOL)

    @given(st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, seed):
        rho = random_density(seeded(seed))
        psi = canonical_purification(rho)
        assert np.abs(partial_trace_E(pure_density(psi)) - rho).max() < TOL


class TestMaxOverlapUnitary:
    def test_self_overlap(self):
        v = haar_state(4, seeded(13))
        u, achieved = max_overlap_unitary(v, v)
        assert achieved == pytest.approx(1.0, abs=TOL)
        # optimal unitary is the identity up to a global phase
        phase = u[0, 0] / abs(u[0, 0])
        assert np.abs(u / phase - EYE2).max() < 1e-6

    def test_hao_case_reaches_entangled_share(self):
        # steering the |01>+|10> fake state onto an original-set share state
        from qsslab.nonces import share_state
        alpha = np.array([0, 1, 1, 0], dtype=complex) * S2
        target = share_state(tensor(PLUS, PLUS), "01")
        v, achieved = max_overlap_unitary(alpha, target)
        assert achieved == pytest.approx(1.0, abs=TOL)
        steered = np.kron(v, EYE2) @ alpha
        assert state_fidelity(steered, target) == pytest.approx(1.0, abs=TOL)

    def test_product_target_from_bell(self):
        # reduced-state fidelity F(|-><-|, I/2) = 1/2 caps the overlap
        alpha = np.array([0, 1, 1, 0], dtype=complex) * S2
        target = tensor(MINUS, MINUS)
        _, achieved = max_overlap_unitary(alpha, target)
        assert achieved == pytest.approx(0.5, abs=TOL)

    def test_product_alpha(self):
        _, achieved = max_overlap_unitary(tensor(KET0, KET0), tensor(MINUS, MINUS))
        assert achieved == pytest.approx(0.5, abs=TOL)

    def test_achieved_equals_reduced_fidelity(self):
        rng = seeded(14)
        for _ in range(100):
            alpha, target = haar_state(4, rng), haar_state(4, rng)
            v, achieved = max_overlap_unitary(alpha, target)
            assert np.abs(v.conj().T @ v - EYE2).max() < TOL
            red = fidelity(bob_marginal(target), bob_marginal(alpha))
            assert abs(achieved - red) < TOL
            attained = state_fidelity(target, np.kron(v, EYE2) @ alpha)
            assert abs(achieved - attained) < TOL

    def test_beats_haar_sampling(self):
        rng = seeded(15)
        vs = haar_unitaries(2000, seeded(16))
        for _ in range(20):
            alpha, target = haar_state(4, rng), haar_state(4, rng)
            _, achieved = max_overlap_unitary(alpha, target)
            m = alpha.reshape(2, 2) @ target.reshape(2, 2).conj().T
            brute = float((np.abs(np.einsum("nij,ji->n", vs, m)) ** 2).max())
            assert brute <= achieved + TOL


class TestValidateState:
    def test_renormalizes_small_drift(self):
        v = np.array([1 + 1e-8, 0], dtype=complex)
        out = validate_state(v, dim=2)
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_large_drift(self):
        with pytest.raises(ValidationError):
            validate_state([0.5, 0.5], dim=2)

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            validate_state([np.nan, 1.0], dim=2)

    def test_rejects_wrong_dim(self):
        with pytest.raises(ValidationError):
            validate_state([1, 0], dim=4)


class TestValidateUnitary:
    @pytest.mark.parametrize("bad", [
        np.full((2, 2), np.inf, dtype=complex),
        np.array([[1e300 + 1e300j, 0], [0, 1]]),  # finite, but U^dagger U overflows to NaN
    ])
    def test_rejects_non_finite_or_overflowing(self, bad):
        with pytest.raises(ValidationError):
            validate_unitary(bad, dim=2)
