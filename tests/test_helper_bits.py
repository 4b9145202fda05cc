"""The lean helpers against the plain forms kept in ``tests/oracles.py``,
byte for byte (``tobytes``, so signed zeros count).

The Bloch helpers write into one array and reuse a read-only identity;
the R(s) means divide a sum by the stack's length; the tie-case optimum
I/2 is built once and copied, and its purification is the read-only Bell
state every target-secret plan commits to.
"""
import itertools

import numpy as np
import pytest

from qsslab import adversary, analysis
from qsslab.errors import ValidationError
from qsslab.linalg import (_MIXED_PURIFICATION, TOL, bloch_from_density, canonical_purification,
                           density_from_bloch, fidelity_terms, pure_density, validate_state)
from qsslab.nonces import SECRETS, NonceSet, builtin_nonce_set
from oracles import (haar_state, mean_objective_coeffs, pauli_sum_density, phase_set,
                     random_density, stacked_bloch)

BUILTINS = ("hsu-I", "proposed-J")
# (|00> + |11>)/sqrt(2) with 1/sqrt(2) correctly rounded, as validate_state leaves it.
_BELL = np.array([1, 0, 0, 1], dtype=complex) * float.fromhex("0x1.6a09e667f3bcdp-1")


def _phase_set(k: int, seed: int) -> NonceSet:
    phases = np.random.default_rng([23, seed]).uniform(0.0, 2.0 * np.pi, size=(k, 4))
    return phase_set(phases, f"phase-{k}")


def _signed_zero_matrices() -> np.ndarray:
    """2x2 matrices whose every real and imaginary part is +0.0 or -0.0,
    each of the 2^8 sign patterns once."""
    signs = np.array(list(itertools.product((0.0, -0.0), repeat=8)))
    return signs.view(complex).reshape(-1, 2, 2)


def _density_stacks() -> list:
    rng = np.random.default_rng(41)
    mixed = np.array([random_density(rng) for _ in range(64)])
    pure = pure_density(np.array([haar_state(2, rng) for _ in range(64)]))
    zeros = _signed_zero_matrices()
    # Exact -0.0 in the off-diagonal and diagonal parts of physical states.
    basis = np.array([[[1, 0], [0, 0]], [[0, 0], [0, 1]], [[0.5, 0], [0, 0.5]]], dtype=complex)
    signed = basis + zeros[:, None].conj()
    stacks = [mixed, pure, zeros, signed.reshape(-1, 2, 2), np.concatenate([mixed, pure])]
    stacks += [ns.reduced_share_stack for ns in map(builtin_nonce_set, BUILTINS)]
    return stacks + [_phase_set(16, 1).reduced_share_stack]


def _bytes_equal(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def test_bloch_vectors_byte_for_byte():
    stacks = _density_stacks()
    # Some x sums are -0.0, which only the + 0.0 turns into +0.0.
    x_sums = [s[..., 0, 1].real + s[..., 1, 0].real for s in stacks]
    assert any((np.signbit(x) & (x == 0.0)).any() for x in x_sums)
    for stack in stacks:
        assert _bytes_equal(bloch_from_density(stack), stacked_bloch(stack))
        for rho in stack.reshape(-1, 2, 2):
            assert _bytes_equal(bloch_from_density(rho), stacked_bloch(rho))


def _bloch_vectors() -> list:
    rng = np.random.default_rng(42)
    units = rng.normal(size=(64, 3))
    units /= np.linalg.norm(units, axis=1, keepdims=True)
    inside = units * rng.uniform(0.0, 1.0, size=(64, 1))
    signed_zeros = np.array(list(itertools.product((0.0, -0.0), repeat=3)))
    axes = np.concatenate([np.eye(3), -np.eye(3)])
    mixed_signs = axes[:, None] * 0.5 + signed_zeros[None] * (1 - np.abs(axes))[:, None]
    return [*units, *inside, *signed_zeros, *axes, *mixed_signs.reshape(-1, 3),
            np.zeros(3), units[0] * (1.0 + 5e-10)]


def test_density_from_bloch_byte_for_byte():
    vectors = _bloch_vectors()
    assert any(np.signbit(v).any() and not np.abs(v).any() for v in vectors)
    for v in vectors:
        assert _bytes_equal(density_from_bloch(v), pauli_sum_density(v))
        assert _bytes_equal(density_from_bloch(list(v)), pauli_sum_density(list(v)))


@pytest.mark.parametrize("v", [[1.0, 1.0, 0.0], [0.6, 0.8, 1e-4], [3.0, -4.0, 12.0]])
def test_density_from_bloch_names_the_same_norm(v):
    with pytest.raises(ValidationError) as want:
        pauli_sum_density(v)
    with pytest.raises(ValidationError) as got:
        density_from_bloch(v)
    assert str(got.value) == str(want.value)


def _share_stacks() -> list:
    rng = np.random.default_rng(43)
    stacks = [np.array([random_density(rng) for _ in range(n)]) for n in range(1, 34)]
    stacks += [pure_density(np.array([haar_state(2, rng) for _ in range(n)])) for n in (1, 7, 8)]
    sets = [builtin_nonce_set(name) for name in BUILTINS] + [_phase_set(k, k) for k in (1, 5, 11, 64)]
    return stacks + [ns.reduced_share_stack[:, n] for ns in sets for n in range(4)]


def test_objective_means_byte_for_byte():
    for sigmas in _share_stacks():
        b_mean, c_mean = analysis._objective_coeffs(sigmas)
        want_b, want_c = mean_objective_coeffs(*fidelity_terms(sigmas))
        assert _bytes_equal(b_mean, want_b) and c_mean.hex() == want_c.hex()
        value, rho = analysis.max_average_fidelity(sigmas)
        want_value, want_rho = analysis.fidelity_optimum(want_b, want_c)
        assert value.hex() == want_value.hex() and _bytes_equal(rho, want_rho)


def test_objective_means_of_secret_columns_byte_for_byte():
    # certify takes every secret's b and c from one (k, 4, 2, 2) stack; each
    # column's must equal the column's alone.
    stacks = [np.stack([s, s[::-1], np.roll(s, 1, axis=0), s.conj()], axis=1)
              for s in _share_stacks()]
    stacks += [ns.reduced_share_stack for ns in map(builtin_nonce_set, BUILTINS)]
    stacks += [_phase_set(k, k).reduced_share_stack for k in (1, 5, 8, 9, 64)]
    for stack in stacks:
        b_means, c_means = analysis._objective_coeffs(stack)
        for n in range(4):
            want_b, want_c = analysis._objective_coeffs(stack[:, n])
            assert _bytes_equal(b_means[n], want_b) and c_means[n].hex() == want_c.hex()


def _r_sets() -> list:
    rng = np.random.default_rng(48)
    sets = [builtin_nonce_set(name) for name in BUILTINS]
    sets += [_phase_set(1 + i % 64, 100 + i) for i in range(96)]
    return sets + [NonceSet(name=f"haar-{k}", states=tuple(haar_state(4, rng) for _ in range(k)))
                   for k in (1, 2, 7, 16, 64)]


def test_certify_r_of_s_byte_for_byte():
    # One pass over the reduced-share stack, with no optimizer built, gives
    # every secret's r_of_s value.
    for ns in _r_sets():
        report = analysis.certify(ns)
        for s in SECRETS:
            assert report.r_of_s[s].hex() == analysis.r_of_s(ns, s)[0].hex(), (ns.name, s)


def test_committed_states_byte_for_byte():
    # A fixed-target plan commits to R(t)'s purified optimum, target-secret
    # to I/2's purification, built once and normalized as a plan stores alpha.
    sets = [builtin_nonce_set(name) for name in BUILTINS]
    sets += [_phase_set(k, k) for k in (1, 3, 4, 7, 13, 64)]
    for ns in sets:
        for policy in adversary.POLICIES:
            alpha, _ = adversary.plan_arrays(ns, policy)
            if policy == adversary.POLICY_TARGET_SECRET:
                want = _MIXED_PURIFICATION
            else:
                want = canonical_purification(analysis.r_of_s(ns, policy.removeprefix("target-"))[1])
            assert _bytes_equal(alpha, want), (ns.name, policy)
    assert _bytes_equal(_MIXED_PURIFICATION, _BELL)
    assert _bytes_equal(validate_state(_MIXED_PURIFICATION), _BELL)
    assert _bytes_equal(validate_state(canonical_purification(pauli_sum_density(np.zeros(3)))), _BELL)
    assert not _MIXED_PURIFICATION.flags.writeable


def _near_proposed(eps: float) -> NonceSet:
    """proposed-J with moduli |psi| + eps (1, -1, 1, -1), phases kept, renormalized."""
    psi = builtin_nonce_set("proposed-J").states
    states = (np.abs(psi) + eps * np.array([1, -1, 1, -1])) * np.exp(1j * np.angle(psi))
    return NonceSet(name="near-proposed-J",
                    states=tuple(states / np.linalg.norm(states, axis=1, keepdims=True)))


def test_target_secret_keeps_a_quarter_at_the_tolerance_edge():
    # The overlap deviation, 6e-10, is below TOL, so the set is recoverable,
    # but the mean of its reduced shares is I/2 plus a Bloch vector longer
    # than TOL: a maximizer of that mean is a pure state along the noise.
    ns = _near_proposed(6e-10)
    assert 5e-10 < analysis.overlap_deviation(ns) < TOL
    alpha, _ = adversary.plan_arrays(ns, adversary.POLICY_TARGET_SECRET)
    assert _bytes_equal(alpha, _MIXED_PURIFICATION)
    bounds = analysis.detection_bounds(ns)
    assert abs(bounds["per_policy"][adversary.POLICY_TARGET_SECRET] - 0.25) <= 1e-12
    assert abs(bounds["floor"] - 0.25) <= 1e-12


def test_tie_case_tables_are_copied():
    # proposed-J's R(s) and every secret set's target-secret state are I/2.
    proposed = builtin_nonce_set("proposed-J")
    first = analysis.r_of_s(proposed, "00")[1]
    assert _bytes_equal(first, pauli_sum_density(np.zeros(3)))
    first[:] = 7.0
    assert _bytes_equal(analysis.r_of_s(proposed, "00")[1], pauli_sum_density(np.zeros(3)))
    mixed = density_from_bloch(np.zeros(3))
    want = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2.0)  # (I/2 + I/2)^T, normalized
    psi = canonical_purification(mixed)
    assert _bytes_equal(psi, want) and psi.flags.writeable
    psi[:] = 7.0
    assert _bytes_equal(canonical_purification(mixed), want)
