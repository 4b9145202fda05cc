"""The detection bounds against their closed forms on recoverable sets.

Each recoverable nonce is psi_i = 1/2 sum_s e^{i phi_{i,s}}|s>.  With
Delta_i = phi_{i,00} + phi_{i,11} - phi_{i,01} - phi_{i,10}, C_i =
|cos(Delta_i / 2)| and C their mean over the k nonces, ``target-secret``
detects with probability (1 - p)/2 (1 - C) at SECRET-mode prior p (the
proof is in the ``qsslab.analysis`` docstring).  So the floor is at most
(1 - p)/2.  At p = 1/2, target-01 detects with probability at most 5/8; at
p = 0 it can reach 1, so that bound is checked at 1/2 only.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qsslab.adversary import POLICY_TARGET_01, POLICY_TARGET_SECRET
from qsslab.analysis import detection_bounds
from oracles import phase_set

PRIORS = (0.0, 0.25, 0.5, 0.9, 1.0)
TOL_FORM = 1e-12

_closed = settings(max_examples=96, deadline=None, derandomize=True, database=None)
# k = 1..16 nonces, four phases each, as a (k, 4) array.
_phases = st.lists(st.lists(st.floats(0.0, 2.0 * np.pi), min_size=4, max_size=4),
                   min_size=1, max_size=16).map(np.array)


def _mean_concurrence(phases: np.ndarray) -> float:
    delta = phases[:, 0] + phases[:, 3] - phases[:, 1] - phases[:, 2]
    return float(np.mean(np.abs(np.cos(delta / 2.0))))


@_closed
@given(_phases)
def test_target_secret_and_floor_follow_the_concurrence(phases):
    ns = phase_set(phases, f"phase-{len(phases)}")
    c_mean = _mean_concurrence(phases)
    for p in PRIORS:
        bounds = detection_bounds(ns, p)
        want = (1.0 - p) / 2.0 * (1.0 - c_mean)
        assert abs(bounds["per_policy"][POLICY_TARGET_SECRET] - want) <= TOL_FORM, p
        assert bounds["floor"] <= (1.0 - p) / 2.0 + TOL_FORM, p


@_closed
@given(_phases)
def test_target_01_at_most_five_eighths_at_an_even_prior(phases):
    bounds = detection_bounds(phase_set(phases, f"phase-{len(phases)}"), 0.5)
    assert bounds["per_policy"][POLICY_TARGET_01] <= 5.0 / 8.0 + TOL_FORM
