import numpy as np
import pytest

from qsslab import analysis
from qsslab.adversary import synthesize_plan
from qsslab.analysis import (
    certify,
    check_imr,
    check_recoverability,
    check_secrecy,
    detection_bounds,
    format_certification,
    max_average_fidelity,
    r_of_s,
)
from qsslab.errors import CertificationError, ValidationError
from qsslab.linalg import (
    TOL,
    bloch_from_density,
    density_from_bloch,
    fidelity,
    is_pure,
    pure_density,
)
from qsslab.nonces import (
    MINUS,
    MINUS_I,
    PLUS,
    PLUS_I,
    NonceSet,
    SECRETS,
    basis_state,
    builtin_nonce_set,
    reflection,
)
from oracles import (
    bloch_mean_bound,
    bloch_mean_distance_bound,
    density_imr,
    density_secrecy,
    grid_max_average_fidelity,
    haar_state,
    label_qubit_state,
    phase_set,
    phase_states,
    random_density,
    recoverability_pairs,
    recovery_amplitude,
)

EYE2 = np.eye(2, dtype=complex)
BASIS_00_SET = NonceSet(name="basis00", states=(np.array([1, 0, 0, 0], dtype=complex),))


def state_with_overlap(s_vec, overlap, rng):
    """Random two-qubit pure state with |<s|psi>| equal to `overlap`."""
    raw = haar_state(4, rng)
    perp = raw - np.vdot(s_vec, raw) * s_vec
    perp = perp / np.linalg.norm(perp)
    phase = np.exp(2j * np.pi * rng.random())
    return overlap * phase * s_vec + np.sqrt(1.0 - overlap**2) * perp


def direct_recovery_probability(psi, s_vec):
    share = reflection(s_vec) @ psi
    return float(abs(np.vdot(s_vec, reflection(psi) @ share)) ** 2)


class TestRecoverability:
    def test_hsu_all_64_overlaps(self, hsu_set):
        report = check_recoverability(hsu_set)
        assert report.passed
        assert len(report.pairs) == 64
        assert report.worst_overlap_deviation < TOL
        assert report.worst_recovery_deviation < TOL

    def test_proposed_all_16_overlaps(self, proposed_set):
        report = check_recoverability(proposed_set)
        assert report.passed
        assert len(report.pairs) == 16
        assert all(abs(p.overlap - 0.5) < TOL for p in report.pairs)
        assert all(abs(p.recovery_probability - 1.0) < TOL for p in report.pairs)

    def test_entangled_quantum_secret_supported(self, proposed_set):
        # (|00> + i|11>)/sqrt(2) overlaps every nonce of the proposed set by
        # exactly 1/2, so it is a valid non-classical secret
        secret = np.array([1, 0, 0, 1j], dtype=complex) / np.sqrt(2)
        for psi in proposed_set.states:
            assert abs(abs(np.vdot(secret, psi)) - 0.5) < TOL
        report = check_recoverability(proposed_set, secrets=[secret])
        assert report.passed
        assert all(abs(p.recovery_probability - 1.0) < TOL for p in report.pairs)
        assert all(p.secret == "custom" for p in report.pairs)

    def test_degenerate_and_failing_sets(self):
        report = check_recoverability(BASIS_00_SET)
        assert not report.passed

    def test_report_matches_the_pairwise_oracle(self, hsu_set, proposed_set):
        # Overlaps, verdict and worst deviation byte for byte; the recovery
        # probabilities, from one einsum over the stacks, within 1e-15.
        rng = np.random.default_rng(47)
        quantum = np.array([1, 0, 0, 1j], dtype=complex) / np.sqrt(2)
        cases = [(ns, None) for ns in (hsu_set, proposed_set, BASIS_00_SET)]
        cases += [(phase_set(rng.uniform(0.0, 2.0 * np.pi, size=(k, 4)), f"phase-{k}"), None)
                  for k in (1, 3, 8, 17, 64)]
        haar = [NonceSet(name=f"haar-{k}", states=tuple(haar_state(4, rng) for _ in range(k)))
                for k in (1, 5, 32)]
        cases += [(ns, None) for ns in haar]
        cases += [(ns, ["01", quantum, haar_state(4, rng), "11"]) for ns in (proposed_set, *haar)]
        for ns, secrets in cases:
            report = check_recoverability(ns, secrets)
            want, passed, worst = recoverability_pairs(ns, secrets)
            assert report.passed is passed
            assert report.worst_overlap_deviation.hex() == worst.hex()
            got = report.pairs
            assert got == report.pairs and got is not report.pairs
            assert [(p.nonce_index, p.secret, p.overlap.hex()) for p in got] == \
                [(p.nonce_index, p.secret, p.overlap.hex()) for p in want]
            assert max(abs(g.recovery_probability - w.recovery_probability)
                       for g, w in zip(got, want)) <= 1e-15, ns.name

    def test_equivalence_forward(self, rng):
        # overlap exactly 1/2 implies recovery probability 1
        s_vec = basis_state("01")
        for _ in range(1000):
            psi = state_with_overlap(s_vec, 0.5, rng)
            assert direct_recovery_probability(psi, s_vec) == pytest.approx(1.0, abs=1e-9)

    def test_equivalence_reverse(self, rng):
        # overlap away from 1/2 (and 1) leaves recovery strictly below 1,
        # and the closed-form amplitude matches the engine exactly
        s_vec = basis_state("10")
        for _ in range(1000):
            overlap = rng.uniform(0.0, 0.95)
            if abs(overlap - 0.5) < 0.05:
                continue
            psi = state_with_overlap(s_vec, overlap, rng)
            prob = direct_recovery_probability(psi, s_vec)
            assert prob < 1.0 - 1e-6
            assert prob == pytest.approx(recovery_amplitude(overlap**2), abs=1e-9)


class TestRecoveryAmplitude:
    def test_quarter_gives_one(self):
        assert recovery_amplitude(0.25) == pytest.approx(1.0, abs=TOL)

    def test_degenerate_one(self):
        assert recovery_amplitude(1.0) == pytest.approx(1.0, abs=TOL)

    def test_half(self, rng):
        assert recovery_amplitude(0.5) == pytest.approx(0.5, abs=TOL)
        s_vec = basis_state("11")
        psi = state_with_overlap(s_vec, np.sqrt(0.5), rng)
        assert direct_recovery_probability(psi, s_vec) == pytest.approx(0.5, abs=1e-9)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            recovery_amplitude(1.5)


class TestSecrecyAndImr:
    def test_proposed_secrecy(self, proposed_set):
        devs = check_secrecy(proposed_set)
        assert set(devs) == {1, 2, 3, 4}
        assert all(d < 1e-12 for d in devs.values())

    def test_hsu_secrecy(self, hsu_set):
        devs = check_secrecy(hsu_set)
        assert all(d < 1e-12 for d in devs.values())

    def test_basis_set_fails_secrecy(self):
        devs = check_secrecy(BASIS_00_SET)
        assert max(devs.values()) > 0.1

    def test_imr_builtin_sets(self, hsu_set, proposed_set):
        assert check_imr(hsu_set) < 1e-12
        assert check_imr(proposed_set) < 1e-12

    def test_imr_basis_set_fails(self):
        assert check_imr(BASIS_00_SET) > 0.1

    def test_populations_equal_the_share_density_definition(self):
        rng = np.random.default_rng(212)
        sets = [builtin_nonce_set(name) for name in ("hsu-I", "proposed-J")]
        sets += [NonceSet(name=f"haar-{k}", states=tuple(haar_state(4, rng) for _ in range(k)))
                 for k in (1, 2, 5, 16, 33)]
        sets += [phase_set(rng.uniform(0, 2 * np.pi, (k, 4)), f"phase-{k}") for k in (1, 3, 8, 16, 64)]
        for ns in sets:
            got, want = check_secrecy(ns), density_secrecy(ns)
            assert got.keys() == want.keys(), ns.name
            assert max(abs(got[i] - want[i]) for i in got) <= 1e-15, ns.name
            assert abs(check_imr(ns) - density_imr(ns)) <= 1e-15, ns.name
        assert max(check_secrecy(sets[2]).values()) > 0.1  # a Haar set is not secret

    def test_builtins_read_exactly_zero(self, hsu_set, proposed_set):
        for ns in (hsu_set, proposed_set):
            assert set(check_secrecy(ns).values()) == {0.0} and check_imr(ns) == 0.0, ns.name

    def test_secrecy_implies_imr(self, rng):
        # whenever the per-nonce average is I/4 for every nonce, the grand
        # average is too; spot-check on randomly scrambled recoverable sets
        for name in ("hsu-I", "proposed-J"):
            ns = builtin_nonce_set(name)
            if all(d < TOL for d in check_secrecy(ns).values()):
                assert check_imr(ns) < TOL


class TestRofS:
    def test_hsu_value_one(self, hsu_set):
        for s in SECRETS:
            value, opt = r_of_s(hsu_set, s)
            assert value == pytest.approx(1.0, abs=TOL)
            assert np.abs(opt - EYE2 / 2).max() < 1e-6

    def test_proposed_value_half(self, proposed_set):
        for s in SECRETS:
            value, opt = r_of_s(proposed_set, s)
            assert value == pytest.approx(0.5, abs=TOL)
            assert np.abs(opt - EYE2 / 2).max() < 1e-6

    def test_single_nonce_perfect(self):
        ns = NonceSet(name="pp", states=(0.5 * np.ones(4, dtype=complex),))
        value, opt = r_of_s(ns, "01")
        assert value == pytest.approx(1.0, abs=TOL)

    def test_grid_path_matches_fast_path_builtin(self, proposed_set):
        for s in SECRETS:
            fast, _ = r_of_s(proposed_set, s)
            grid, _ = grid_max_average_fidelity(analysis.bob_reduced_shares(proposed_set, s))
            assert abs(fast - grid) < 1e-6

    def test_hsu_grid_path(self, hsu_set):
        value, _ = grid_max_average_fidelity(analysis.bob_reduced_shares(hsu_set, "00"))
        assert value == pytest.approx(1.0, abs=TOL)

    def test_grid_vs_analytic_random_pure_sets(self, rng):
        for trial in range(200):
            k = int(rng.integers(1, 9))
            sigmas = [pure_density(haar_state(2, rng)) for _ in range(k)]
            fast, _ = max_average_fidelity(sigmas)
            grid, _ = grid_max_average_fidelity(sigmas)
            assert abs(fast - grid) < 1e-6

    def test_optimizer_attains_value(self, rng):
        for trial in range(50):
            k = int(rng.integers(1, 6))
            sigmas = [pure_density(haar_state(2, rng)) for _ in range(k)]
            value, opt = max_average_fidelity(sigmas)
            attained = np.mean([fidelity(s, opt) for s in sigmas])
            assert attained == pytest.approx(value, abs=1e-9)

    def test_mixed_inputs_grid(self, rng):
        # optimizer of mixed collections is still the argmax over the ball
        sigmas = [0.6 * pure_density(haar_state(2, rng)) + 0.4 * EYE2 / 2 for _ in range(3)]
        value, opt = max_average_fidelity(sigmas)
        attained = np.mean([fidelity(s, opt) for s in sigmas])
        assert attained == pytest.approx(value, abs=1e-8)
        for _ in range(300):
            probe = density_from_bloch(bloch_from_density(opt) + rng.normal(scale=0.02, size=3) * 0.5) \
                if np.linalg.norm(bloch_from_density(opt)) < 0.5 else density_from_bloch(
                    bloch_from_density(opt) * (1 - 1e-3))
            probe_val = np.mean([fidelity(s, probe) for s in sigmas])
            assert probe_val <= value + 1e-7


class TestBlochMeanBound:
    def test_single_state(self, rng):
        rho = pure_density(haar_state(2, rng))
        assert bloch_mean_bound([rho]) == pytest.approx(1.0, abs=TOL)
        assert bloch_mean_distance_bound([rho]) == pytest.approx(1.0, abs=TOL)

    def test_equatorial_quartet_mean_is_half(self):
        # the reduced-share quartet has zero Bloch mean: true average
        # fidelity at the mean (and over the whole ball) is only 1/2, while
        # the Euclidean surrogate the mean provably optimizes stays at 3/4
        quartet = [pure_density(v) for v in (PLUS, MINUS, PLUS_I, MINUS_I)]
        assert bloch_mean_bound(quartet) == pytest.approx(0.5, abs=TOL)
        assert max_average_fidelity(quartet)[0] == pytest.approx(0.5, abs=TOL)
        assert bloch_mean_distance_bound(quartet) == pytest.approx(0.75, abs=TOL)

    def test_distance_bound_floor(self, rng):
        for trial in range(1000):
            k = int(rng.integers(1, 17))
            states = [pure_density(haar_state(2, rng)) for _ in range(k)]
            assert bloch_mean_distance_bound(states) >= 0.75 - 1e-9

    def test_distance_bound_equals_formula(self, rng):
        for trial in range(100):
            k = int(rng.integers(1, 17))
            states = [pure_density(haar_state(2, rng)) for _ in range(k)]
            mean = np.mean([bloch_from_density(s) for s in states], axis=0)
            expected = 0.75 + 0.25 * float(mean @ mean)
            assert bloch_mean_distance_bound(states) == pytest.approx(expected, abs=1e-9)

    def test_mean_is_distance_optimal(self, rng):
        # no point in the ball has smaller average squared distance
        for trial in range(50):
            k = int(rng.integers(2, 9))
            blochs = np.array([bloch_from_density(pure_density(haar_state(2, rng)))
                               for _ in range(k)])
            mean = blochs.mean(axis=0)
            best = ((blochs - mean) ** 2).sum(axis=1).mean()
            for _ in range(50):
                probe = mean + rng.normal(scale=0.1, size=3)
                if np.linalg.norm(probe) > 1:
                    probe = probe / np.linalg.norm(probe)
                assert ((blochs - probe) ** 2).sum(axis=1).mean() >= best - 1e-12

    def test_rejects_mixed(self):
        with pytest.raises(ValidationError):
            bloch_mean_bound([EYE2 / 2])


class TestDetectionBounds:
    def test_proposed_floor_and_ceiling(self, proposed_set):
        bounds = detection_bounds(proposed_set)
        assert bounds["floor"] == pytest.approx(0.25, abs=TOL)
        assert bounds["floor"] >= 0.25 - TOL
        assert bounds["ceiling"] <= 0.625 + TOL
        assert bounds["per_policy"]["target-secret"] == pytest.approx(0.25, abs=TOL)
        assert bounds["per_policy"]["target-01"] == pytest.approx(0.5, abs=TOL)

    def test_hsu_floor_zero(self, hsu_set):
        bounds = detection_bounds(hsu_set)
        assert bounds["floor"] == pytest.approx(0.0, abs=1e-12)
        assert bounds["ceiling"] <= 0.625 + TOL

    def test_refuses_non_recoverable_set(self):
        with pytest.raises(CertificationError, match="not recoverable"):
            detection_bounds(BASIS_00_SET)

    @pytest.mark.parametrize("prior", [1.5, float("nan")])
    def test_rejects_mode_prior_outside_unit_interval(self, proposed_set, prior):
        with pytest.raises(ValidationError, match="mode_prior must be in"):
            detection_bounds(proposed_set, mode_prior=prior)


class TestCertify:
    def test_proposed_passes_everything(self, proposed_set):
        report = certify(proposed_set)
        assert report.all_passed
        assert report.recoverable and report.secret and report.imr_protected
        assert all(v == pytest.approx(0.5, abs=TOL) for v in report.r_of_s.values())
        assert report.detection_bounds is not None

    def test_hsu_passes_certification_but_is_attackable(self, hsu_set):
        report = certify(hsu_set)
        assert report.all_passed
        assert all(v == pytest.approx(1.0, abs=TOL) for v in report.r_of_s.values())
        assert report.detection_bounds["floor"] == pytest.approx(0.0, abs=1e-12)

    def test_basis_set_fails(self):
        report = certify(BASIS_00_SET)
        assert not report.all_passed
        assert not report.recoverable
        assert report.detection_bounds is None

    def test_json_dict_round_trips_through_json(self, proposed_set):
        import json
        report = certify(proposed_set)
        blob = json.dumps(report.to_json_dict(), sort_keys=True)
        assert json.loads(blob)["all_passed"] is True

    def test_format_mentions_reduced_states(self, proposed_set):
        report = certify(proposed_set)
        text = format_certification(proposed_set, report)
        assert "|-><-|" in text and "|+i><+i|" in text
        assert "recoverable" in text and "PASS" in text

    def test_share_labels_equal_the_per_share_labeller(self):
        # The six named qubits, shares 1e-7 and 7e-7 (labelled), 1.3e-6 and 1e-5 (not) off
        # each, by shrinking or tilting the Bloch vector, Haar shares, and a -0.0004 component.
        rng = np.random.default_rng(25)
        rhos = []
        for n in (sign * axis for axis in np.eye(3) for sign in (1.0, -1.0)):
            tilt = np.roll(n, 1)
            rhos.append(density_from_bloch(n))
            for delta in (1e-7, 7e-7, 1.3e-6, 1e-5):  # <v|rho|v> = 1 - delta
                theta = 2.0 * np.arcsin(np.sqrt(delta))
                rhos += [density_from_bloch((1.0 - 2.0 * delta) * n),
                         density_from_bloch(np.cos(theta) * n + np.sin(theta) * tilt)]
        rhos += [pure_density(haar_state(2, rng)) for _ in range(50)]
        rhos += [random_density(rng) for _ in range(50)]
        rhos.append(density_from_bloch([-0.0004, 0.3, 0.2]))
        got = [analysis._qubit_label(*r) for r in bloch_from_density(np.array(rhos)).tolist()]
        assert got == [label_qubit_state(rho) for rho in rhos]
        assert got[:9] == ["|+><+|"] * 5 + [f"bloch(+1.000,+0.00{y},+0.000)" for y in "0206"]
        assert got[-1] == "bloch(-0.000,+0.300,+0.200)"

    def test_one_recoverability_threshold(self):
        # Seeded 1/2 e^{i phi} sets with one amplitude's modulus moved off
        # 1/2, so the overlap deviation runs from about 1e-12 to 1e-6, across TOL.
        verdicts = set()
        for seed, exponent in enumerate(np.linspace(-12.0, -6.0, 25)):
            rng = np.random.default_rng(seed)
            states = np.array(phase_states(rng.uniform(0, 2 * np.pi, (int(rng.integers(1, 9)), 4))))
            states[0, 0] *= 1.0 + 2.0 * 10.0 ** exponent
            ns = NonceSet(name=f"near-{seed}", states=tuple(states))
            report = certify(ns)
            try:
                synthesize_plan(ns, "target-secret")
                accepted = True
            except CertificationError:
                accepted = False
            assert report.recoverable == accepted == (report.detection_bounds is not None), seed
            verdicts.add(report.recoverable)
        assert verdicts == {True, False}


def _random_collection(rng, kind: str) -> list:
    """Single-qubit states: all pure, a pure/mixed mix, or a b = 0 set
    (every state paired with its Bloch antipode I - sigma)."""
    k = int(rng.integers(1, 9))

    def draw():
        if kind == "pure" or rng.random() < 0.5:
            return pure_density(haar_state(2, rng))
        return random_density(rng)

    sigmas = [draw() for _ in range(k)]
    if kind == "zero-mean":
        sigmas += [EYE2 - s for s in sigmas]
    return sigmas


def _attained(sigmas, rho) -> float:
    """Average fidelity against rho; <psi|rho|psi> for pure sigmas, which
    avoids the float noise of the qubit closed form's det term."""
    return float(np.mean([
        np.trace(s @ rho).real if is_pure(s) else fidelity(s, rho) for s in sigmas
    ]))


class TestClosedForm:
    @pytest.mark.parametrize("kind", ["pure", "mixed", "zero-mean"])
    def test_matches_grid_oracle(self, kind):
        rng = np.random.default_rng({"pure": 1, "mixed": 2, "zero-mean": 3}[kind])
        for trial in range(70):
            sigmas = _random_collection(rng, kind)
            value, opt = max_average_fidelity(sigmas)
            grid, _ = grid_max_average_fidelity(sigmas)
            assert abs(value - grid) <= 1e-6, (kind, trial)
            assert abs(_attained(sigmas, opt) - value) <= 1e-9, (kind, trial)

    def test_zero_mean_collection_takes_maximally_mixed(self):
        rng = np.random.default_rng(4)
        sigmas = _random_collection(rng, "zero-mean")
        value, opt = max_average_fidelity(sigmas)
        assert np.abs(opt - EYE2 / 2).max() < 1e-12
        c_mean = np.mean([0.0 if is_pure(s) else np.sqrt(np.linalg.det(s).real)
                          for s in sigmas])
        assert value == pytest.approx(0.5 + c_mean, abs=1e-12)

    def test_certify_never_scans_a_grid(self):
        rng = np.random.default_rng(16)
        random_set = phase_set(rng.uniform(0, 2 * np.pi, (16, 4)), "random-k16")
        for ns in (builtin_nonce_set("hsu-I"), builtin_nonce_set("proposed-J"), random_set):
            report = certify(ns)
            assert report.all_passed, ns.name
            assert all(0.5 - TOL <= v <= 1.0 + TOL for v in report.r_of_s.values())
        assert report.detection_bounds["floor"] <= report.detection_bounds["ceiling"]
