"""Library input checks that raise ValidationError, one row each.

Each row calls the library with one bad argument and names the message the
check must give.  The rows cover the checks no other test reaches.
"""
import numpy as np
import pytest

from qsslab import adversary, analysis, linalg, protocol
from qsslab.errors import ValidationError
from qsslab.nonces import SECRETS, builtin_nonce_set
from oracles import svd_2x2

PROPOSED = builtin_nonce_set("proposed-J")
EYE2, EYE3, EYE4 = np.eye(2), np.eye(3), np.eye(4)


def _ifr_announced_first():
    strat = adversary.ifr_strategy(adversary.synthesize_plan(PROPOSED, "target-01"), PROPOSED)
    return strat.nonce_announced(0, np.random.default_rng(0))


def _ifr_announced_twice():
    strat = adversary.ifr_strategy(adversary.synthesize_plan(PROPOSED, "target-01"), PROPOSED)
    rng = np.random.default_rng(0)
    strat.intercept(PROPOSED.share_stack[0, 0], rng)
    strat.nonce_announced(0, rng)
    return strat.nonce_announced(0, rng)


CHECKS = {
    "adversary: guess of the wrong type": (
        lambda: adversary.imr_guess_strategy(1.5, PROPOSED), "guess must be an index"),
    "adversary: bool as a guess": (
        lambda: adversary.imr_guess_strategy(True, PROPOSED), "guess must be an index"),
    "adversary: IFR announcement before interception": (
        _ifr_announced_first, "nonce announced before interception"),
    "adversary: second IFR announcement of one interception": (
        _ifr_announced_twice, "nonce announced before interception"),
    "adversary: unknown policy": (
        lambda: adversary.policy_target("nope", SECRETS[0]), "unknown policy 'nope'"),
    "analysis: recoverability of no secrets": (
        lambda: analysis.check_recoverability(PROPOSED, secrets=[]), "need at least one secret"),
    "analysis: no states": (
        lambda: analysis.max_average_fidelity([]), "need at least one state"),
    "protocol: negative seed": (
        lambda: protocol.RoundConfig(nonce_set=PROPOSED, rng_seed=-1),
        "rng_seed must be a non-negative integer, got -1"),
    "protocol: fractional seed": (
        lambda: protocol.RoundConfig(nonce_set=PROPOSED, rng_seed=1.5),
        "rng_seed must be a non-negative integer, got 1.5"),
    "protocol: bool as a seed": (
        lambda: protocol.RoundConfig(nonce_set=PROPOSED, rng_seed=True),
        "rng_seed must be a non-negative integer, got True"),
    "linalg: state of neither 2 nor 4 amplitudes": (
        lambda: linalg.validate_state(EYE3[0]), "must have dimension 2 or 4, got 3"),
    "linalg: unitary not square": (
        lambda: linalg.validate_unitary(np.ones((2, 3))), "unitary must be square"),
    "linalg: unitary not 2x2": (
        lambda: linalg.validate_unitary(EYE4, dim=2), "unitary must be 2x2, got 4x4"),
    "linalg: partial trace of a 2x2 matrix": (
        lambda: linalg.partial_trace_E(EYE2 / 2), "expects a 4x4 density matrix"),
    "linalg: fidelity in dimension 3": (
        lambda: linalg.fidelity(EYE3 / 3, EYE3 / 3), "supports dimensions 2 and 4 only"),
    "linalg: Bloch vector of a 4x4 matrix": (
        lambda: linalg.bloch_from_density(EYE4 / 4), "expects a 2x2 density matrix"),
    "linalg: SVD of a 3x3 matrix": (
        lambda: svd_2x2(EYE3), "expects a 2x2 matrix"),
    "linalg: purification of a 4x4 matrix": (
        lambda: linalg.canonical_purification(EYE4 / 4), "expects a 2x2 density matrix"),
}


@pytest.mark.parametrize("check", CHECKS)
def test_input_check_raises(check):
    call, message = CHECKS[check]
    with pytest.raises(ValidationError, match=message):
        call()
