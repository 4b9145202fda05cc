"""``nonces.stage_iii``, the one kernel for Stage III's outcome probabilities.

Every exact path reads |<b| U_psi_i |chi>|^2 from it: the recovery stack,
the IFR outcome stack, ``detection_bounds``, the exact engine's per-nonce
adapter and the IMR guess's branch weights.  They agree bit for bit only
if a state gives the same bytes alone as in any stack, so that is checked
at n = 1, 4 and 4k states per nonce, on contiguous, broadcast and strided
stacks.
"""
import numpy as np
import pytest

from qsslab.nonces import NonceSet, builtin_nonce_set, stage_iii
from oracles import haar_state, phase_set

SIZES = (1, 2, 3, 5, 8, 13, 21, 34, 55, 64)


def _sets() -> list:
    sets = [builtin_nonce_set("hsu-I"), builtin_nonce_set("proposed-J")]
    for k in SIZES:
        phases = np.random.default_rng([61, k]).uniform(0.0, 2.0 * np.pi, size=(k, 4))
        sets.append(phase_set(phases, f"phase-{k}"))
    for k in SIZES[:7]:
        rng = np.random.default_rng([62, k])
        sets.append(NonceSet(name=f"haar-{k}", states=tuple(haar_state(4, rng) for _ in range(k))))
    return sets


def _stacks(ns: NonceSet) -> dict:
    """(k, n, 4) stacks of states entering Stage III, n = 1, 4 and 4k."""
    k = len(ns)
    rng = np.random.default_rng([63, k])
    haar = np.array([haar_state(4, rng) for _ in range(8 * k)]).reshape(k, 8, 4)
    every_share = np.broadcast_to(ns.share_stack.reshape(1, 4 * k, 4), (k, 4 * k, 4))
    return {
        "one haar state": haar[:, :1],
        "one shared state": np.broadcast_to(haar[0, 0], (k, 1, 4)),
        "shares": ns.share_stack,
        "strided haar": haar[:, ::2],
        "every share, broadcast": every_share,
        "every share, contiguous": np.ascontiguousarray(every_share),
    }


@pytest.mark.parametrize("ns", _sets(), ids=lambda ns: ns.name)
def test_a_state_alone_equals_its_row_in_any_stack(ns):
    for label, joints in _stacks(ns).items():
        stack = stage_iii(ns.reflections, joints)
        assert stack.shape == joints.shape and stack.dtype == np.float64, label
        for i in range(len(ns)):
            refl = ns.reflections[i:i + 1]
            for j in range(joints.shape[1]):
                alone = stage_iii(refl, joints[i:i + 1, j:j + 1])
                assert alone.tobytes() == stack[i, j].tobytes(), (label, i, j)


@pytest.mark.parametrize("ns", _sets(), ids=lambda ns: ns.name)
def test_recovery_stack_is_the_kernel_on_the_shares(ns):
    want = stage_iii(ns.reflections, ns.share_stack)
    assert ns.recovery_stack.shape == want.shape and ns.recovery_stack.dtype == want.dtype
    assert ns.recovery_stack.tobytes() == want.tobytes()


def test_one_state_broadcasts_over_the_nonces():
    ns = builtin_nonce_set("hsu-I")
    share = ns.share_stack[5, 2]
    stack = stage_iii(ns.reflections, share[None, None])
    assert stack.shape == (len(ns), 1, 4)
    for i in range(len(ns)):
        assert stack[i, 0].tobytes() == stage_iii(ns.reflections[i:i + 1],
                                                  share[None, None])[0, 0].tobytes()
    # The share of nonce 5 for secret 10 is recovered as 10 with certainty.
    assert stack[5, 0].tolist() == pytest.approx([0.0, 0.0, 1.0, 0.0], abs=1e-15)
