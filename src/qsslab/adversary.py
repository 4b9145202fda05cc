"""Adversary strategies: honest baseline, intercept-measure-resend with a
nonce guess, and intercept-fake-resend driven by attack plans.

Each strategy implements three hooks and may add a fourth; these, and
the ``learned_secret`` attribute, are all the protocol engines use:

* ``intercept(share, rng)``      -- receives the dealer's in-flight joint
  state (Eve's qubit first) and returns the joint state that survives to
  Stage III;
* ``nonce_announced(i, rng)``    -- Stage II; may return one single-qubit
  unitary to apply to the Eve-side factor;
* ``exact_branches(nonce_set, i, s)`` -- the same behaviour expressed as a
  finite list of ``(probability, joint_state, learned_secret)`` branches,
  consumed by the exact enumeration engine;
* ``exact_block(nonce_set, s)``   -- optional: every nonce's branches at once
  for secret s, as ``(weights, outcomes, learned)`` arrays of shapes ``(k, n)``,
  ``(k, n, 4)`` (Stage III's outcome probabilities) and ``(k, n)``; a branch
  of weight 0 never happens.  The exact engine prefers it to
  ``exact_branches``.  The honest and intercept-fake-resend strategies have it.

``learned_secret`` is whatever 2-bit string Eve has reconstructed this
round, or None; the Monte Carlo engine reads it once both hooks of the
round have run.  An ``AttackPlan`` is read-only once built, and the
intercept-fake-resend strategy reads its arrays without keeping a copy.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from . import analysis
from .errors import CertificationError, PlanIncompleteError, ValidationError
from .jsonio import complex_from_json, complex_to_json, load_json, write_json
from .linalg import (
    _MIXED_PURIFICATION,
    TOL,
    canonical_purification,
    max_overlap_unitary,
    partial_trace_E,  # noqa: F401 -- benchmarks/traced.py wraps adversary.partial_trace_E
    state_fidelity,
    validate_state,
    validate_unitary,
)
from .nonces import (NonceSet, SECRETS, sample_outcome, set_frozen, share_state, stage_iii,
                     validate_secret)

# A plan steers toward the secret Eve learned, or toward one fixed secret t.
POLICY_TARGET_SECRET = "target-secret"
POLICY_TARGET_01 = "target-01"
POLICIES = (POLICY_TARGET_SECRET, *(f"target-{t}" for t in SECRETS))


# Measurement outcomes of probability at or below this never happen.
MIN_OUTCOME_P = 1e-30
# The secret each recovery outcome b teaches Eve, as one row of branches.
_LEARNED = np.array([SECRETS])


def _check_same_set(bound: NonceSet, given: NonceSet) -> None:
    """Refuse exact tables for a set other than the one the strategy plays.

    Sets are compared by content, states equal within ``TOL``:
    ``builtin_nonce_set`` returns a fresh object on every call.
    """
    if given is bound:
        return
    if (given.states.shape != bound.states.shape
            or np.abs(given.states - bound.states).max() > TOL):
        raise ValidationError(
            f"strategy is bound to nonce set {bound.name!r}; "
            f"refusing exact branches for a different set {given.name!r}"
        )


class HonestStrategy:
    """No tampering: forwards Bob's qubit unchanged, learns nothing."""

    name = "honest"
    learned_secret = None

    def intercept(self, share, rng):
        return share

    def nonce_announced(self, i, rng):
        return None

    def exact_branches(self, nonce_set, i, s):
        return [(1.0, nonce_set.share_stack[i, int(validate_secret(s), 2)], None)]

    def exact_block(self, nonce_set, s):
        outcomes = nonce_set.recovery_stack[:, SECRETS.index(validate_secret(s)), None]
        return np.ones(outcomes.shape[:2]), outcomes, np.full(outcomes.shape[:2], None)


class ImrGuessStrategy:
    """Intercept-measure-resend based on a guess of the nonce.

    Eve intercepts both qubits, applies the reflection about her guessed
    nonce, measures to obtain s', and resends the reconstruction
    U_{s'}|psi_guess>, keeping its Eve-side qubit for Stage III.  The guess
    is a fixed 0-based index into ``nonce_set`` or "uniform-random" for a
    fresh draw per round.
    """

    def __init__(self, guess: int | str, nonce_set: NonceSet):
        if guess != "uniform-random":
            # bool is an int subclass, but True is no nonce index.
            if isinstance(guess, bool) or not isinstance(guess, (int, np.integer)):
                raise ValidationError(f"guess must be an index or 'uniform-random', got {guess!r}")
            if not 0 <= guess < len(nonce_set):
                raise ValidationError(
                    f"guess index {guess} out of range for nonce set of size {len(nonce_set)}")
        self.guess = guess
        self.nonce_set = nonce_set
        self.learned_secret = None
        self._round_guess = None
        self.name = f"imr-guess:{guess if guess == 'uniform-random' else int(guess) + 1}"

    def intercept(self, share, rng):
        j = self.guess
        if j == "uniform-random":
            j = int(rng.integers(0, len(self.nonce_set)))
        self._round_guess = j
        s_prime = sample_outcome(self.nonce_set.reflections[j] @ share, rng)
        self.learned_secret = s_prime
        return share_state(self.nonce_set.states[j], s_prime)

    def nonce_announced(self, i, rng):
        return None

    def exact_branches(self, nonce_set, i, s):
        _check_same_set(self.nonce_set, nonce_set)
        share = nonce_set.share_stack[i, int(validate_secret(s), 2)]
        if self.guess == "uniform-random":
            first, stop = 0, len(nonce_set)
        else:
            first, stop = int(self.guess), int(self.guess) + 1
        p_guess = 1.0 / (stop - first)
        probs = stage_iii(nonce_set.reflections[first:stop], share[None, None])[:, 0].tolist()
        return [(p_guess * p, nonce_set.share_stack[j, b], SECRETS[b])
                for j, ps in enumerate(probs, first) for b, p in enumerate(ps) if p > MIN_OUTCOME_P]


def steer(alpha: np.ndarray, unitaries: np.ndarray) -> np.ndarray:
    """(V x I)|alpha> for each V of a (..., 2, 2) stack: shape (..., 4); ``alpha`` (..., 4)
    broadcasts.  That is V A for alpha's 2x2 A (row = Eve index), as V's columns times A's rows."""
    return (unitaries[..., :1] * alpha[..., None, :2] + unitaries[..., 1:] * alpha[..., None, 2:]
            ).reshape(*unitaries.shape[:-2], 4)


@dataclass(frozen=True, eq=False)
class AttackPlan:
    """Eve's committed fake state plus her stack of steering unitaries.

    ``unitaries[i, n]`` is the 2x2 unitary Eve applies to her half of
    ``alpha`` once she has reconstructed s = SECRETS[n] of nonce i (0-based)
    at Stage II; the (K, 4, 2, 2) stack covers nonces 0..K-1.  Validated
    once into read-only arrays ``alpha``, ``unitaries`` and ``steered``
    (K, 4, 4), the states (V x I)|alpha>.  ``v_table`` is the same stack
    keyed by (nonce, secret), the form plan files store.
    """

    alpha: np.ndarray = field(repr=False)
    unitaries: np.ndarray = field(repr=False)
    policy: str = POLICY_TARGET_SECRET
    steered: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        alpha = validate_state(self.alpha, dim=4, what="alpha")
        if self.policy not in POLICIES:
            raise ValidationError(f"policy must be one of {POLICIES}, got {self.policy!r}")
        try:
            # A C-ordered copy, so that v_table's entries are views into it.
            unitaries = np.array(self.unitaries, dtype=complex, order="C")
            if unitaries.shape[1:] != (4, 2, 2):
                raise ValueError
        except (TypeError, ValueError):
            raise ValidationError("unitaries must be a numeric (K, 4, 2, 2) stack") from None
        validate_unitary(unitaries, dim=2, names=(  # formatted only on failure
            f"v_table entry {i + 1},{s}" for i in range(len(unitaries)) for s in SECRETS))
        self.__setstate__({"alpha": alpha, "unitaries": unitaries, "steered": steer(alpha, unitaries)})

    def __setstate__(self, state):
        """Set the validated arrays, read-only; ``copy`` and ``pickle`` restore a plan here."""
        set_frozen(self, **state)

    @property
    def v_table(self) -> MappingProxyType:
        """Read-only views of ``unitaries`` by (0-based nonce, secret), in order."""
        order = [(i, s) for i in range(len(self)) for s in SECRETS]
        return MappingProxyType(dict(zip(order, self.unitaries.reshape(-1, 2, 2))))

    def __len__(self) -> int:
        return len(self.unitaries)

    def validate_for(self, nonce_set: NonceSet) -> None:
        if len(self) < len(nonce_set):
            raise PlanIncompleteError(f"attack plan covers {len(self)} nonces, fewer than "
                                      f"the {len(nonce_set)} of nonce set {nonce_set.name!r}")

    def to_json_dict(self) -> dict:
        return {
            "alpha": complex_to_json(self.alpha),
            "policy": self.policy,
            "v_table": {f"{i + 1},{s}": complex_to_json(v) for (i, s), v in self.v_table.items()},
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "AttackPlan":
        """The plan of a plan file, whose ``v_table`` covers nonces 1..K; a bad
        matrix is named by its key, even at a key beyond the plan."""
        if not isinstance(data, dict) or not {"alpha", "policy", "v_table"} <= data.keys():
            raise ValidationError('attack-plan JSON must have "alpha", "policy" and "v_table" keys')
        if not isinstance(data["v_table"], dict):
            raise ValidationError(
                f'"v_table" must be an object, got {type(data["v_table"]).__name__}')
        entries = {}
        count = len(data["v_table"])
        for key, rows in data["v_table"].items():
            i_str, _, s = key.partition(",")
            # One spelling per index: "01,00" would overwrite "1,00" unseen.
            if not (i_str.isascii() and i_str.isdecimal() and i_str[0] != "0"):
                raise ValidationError(f'v_table key {key!r} must read "<nonce>,<secret>"'
                                      " with a 1-based nonce index and no leading zeros")
            # A valid index is at most the key count, so it has no more
            # digits; checking that first keeps int() off unbounded strings.
            if len(i_str) > len(str(count)):
                raise ValidationError(
                    f"v_table key {key!r} names a nonce beyond the {count} keys of the table")
            entries[(int(i_str) - 1, validate_secret(s))] = complex_from_json(
                rows, (2, 2), f"v_table entry {key}")
        alpha = complex_from_json(data["alpha"], (4,), "alpha")
        validate_unitary(np.reshape(list(entries.values()), (-1, 2, 2)), dim=2,
                         names=[f"v_table entry {i + 1},{s}" for i, s in entries])
        # k nonces take 4k keys, so a hole or a stray key leaves a gap below k.
        order = [(i, s) for i in range(-(-len(entries) // 4)) for s in SECRETS]
        gap = next((key for key in order if key not in entries), None)
        if gap is not None:
            raise PlanIncompleteError(
                f"attack plan has no unitary for nonce {gap[0] + 1}, secret {gap[1]}")
        return cls(alpha, np.reshape([entries[key] for key in order], (-1, 4, 2, 2)),
                   data["policy"])


def save_plan(plan: AttackPlan, path) -> None:
    write_json(path, plan.to_json_dict())


def load_plan(path) -> AttackPlan:
    return load_json(path, AttackPlan.from_json_dict)


class IfrStrategy:
    """Intercept-fake-resend: retain the dealer's pair, share a committed
    fake state, then steer it with the plan's unitary once the nonce is out.

    At Stage II Eve runs the recovery procedure on the retained pair; for a
    recoverable nonce set the measurement yields the dealer's s with
    certainty, so ``learned_secret`` always equals s there.
    """

    def __init__(self, plan: AttackPlan, nonce_set: NonceSet):
        plan.validate_for(nonce_set)
        self.plan = plan
        self.learned_secret = None
        self._retained = None
        # The engine announces only an index, so the strategy keeps the (public)
        # nonce set it plays.  Stage III's outcomes [i, b, b'] do not depend on s.
        self._nonce_set = nonce_set
        self.name = f"ifr:{plan.policy}"
        self._outcomes = stage_iii(nonce_set.reflections, plan.steered[:len(nonce_set)])

    def intercept(self, share, rng):
        self._retained = np.array(share, dtype=complex)
        return self.plan.alpha

    def nonce_announced(self, i, rng):
        # Each interception serves one announcement.
        retained, self._retained = self._retained, None
        if retained is None:
            raise ValidationError("nonce announced before interception")
        self.learned_secret = sample_outcome(self._nonce_set.reflections[i] @ retained, rng)
        return self.plan.unitaries[i, SECRETS.index(self.learned_secret)]

    def exact_branches(self, nonce_set, i, s):
        _check_same_set(self._nonce_set, nonce_set)
        probs = nonce_set.recovery_stack[i, SECRETS.index(validate_secret(s))].tolist()
        return [(p, self.plan.steered[i, b], SECRETS[b])
                for b, p in enumerate(probs) if p > MIN_OUTCOME_P]

    def exact_block(self, nonce_set, s):
        """``exact_branches`` for every nonce at once: branch b of nonce i
        learns SECRETS[b] with the recovery probability of outcome b."""
        _check_same_set(self._nonce_set, nonce_set)
        probs = nonce_set.recovery_stack[:, SECRETS.index(validate_secret(s))]
        weights = np.where(probs > MIN_OUTCOME_P, probs, 0.0)
        return weights, self._outcomes, _LEARNED.repeat(len(weights), axis=0)


honest_strategy = HonestStrategy
imr_guess_strategy = ImrGuessStrategy
ifr_strategy = IfrStrategy


def policy_target(policy: str, s: str) -> str:
    """The 2-bit string a plan steers toward, given the secret Eve learned."""
    if policy == POLICY_TARGET_SECRET:
        return s
    if policy in POLICIES:
        return policy.removeprefix("target-")
    raise ValidationError(f"unknown policy {policy!r}")


def require_recoverable(nonce_set: NonceSet) -> None:
    """Refuse a nonce set whose overlap deviation is not below ``TOL``."""
    deviation = analysis.overlap_deviation(nonce_set)
    if not deviation < TOL:
        raise CertificationError(
            "nonce set is not recoverable (worst overlap deviation "
            f"{deviation:.3g}); attack synthesis assumes recoverability"
        )


def _plan_alpha(nonce_set: NonceSet, policy: str, alpha=None) -> tuple[np.ndarray, tuple]:
    """A plan's alpha and the targets it steers toward: target-secret's four, or one fixed."""
    targets = SECRETS if policy == POLICY_TARGET_SECRET else (policy_target(policy, SECRETS[0]),)
    if alpha is not None:
        return validate_state(alpha, dim=4, what="alpha"), targets
    if policy == POLICY_TARGET_SECRET:
        return _MIXED_PURIFICATION, targets
    return canonical_purification(analysis.r_of_s(nonce_set, targets[0])[1]), targets


def plan_arrays(nonce_set: NonceSet, policy: str,
                alpha: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The ``alpha`` and ``unitaries`` of ``synthesize_plan``, unwrapped and
    with no recoverability check; a fixed target takes one steering unitary per nonce."""
    alpha, targets = _plan_alpha(nonce_set, policy, alpha)
    v, _ = max_overlap_unitary(alpha, nonce_set.share_stack[:, [int(t, 2) for t in targets]])
    return alpha, v.repeat(4 // len(targets), axis=1)


def steered_columns(nonce_set: NonceSet, policies) -> tuple[np.ndarray, list]:
    """The policies' plans in one steering pass, with ``plan_arrays``' bits: (V x I)|alpha> toward
    each plan's distinct targets, (k, n, 4), and each policy's column per learned secret."""
    alphas, targets, columns = [], [], []
    for policy in policies:
        alpha, distinct = _plan_alpha(nonce_set, policy)
        columns.append([*range(len(targets), len(targets) + len(distinct))] * (4 // len(distinct)))
        alphas += [alpha] * len(distinct)
        targets += [int(t, 2) for t in distinct]
    alphas = np.array(alphas)
    v, _ = max_overlap_unitary(alphas, nonce_set.share_stack[:, targets])
    return steer(alphas, v), columns


def synthesize_plan(nonce_set: NonceSet, policy: str,
                    alpha: np.ndarray | None = None) -> AttackPlan:
    """Construct the fidelity-optimal intercept-fake-resend plan.

    Refuses non-recoverable nonce sets.  ``alpha`` (any normalized two-qubit
    state) defaults to the canonical purification of R(t)'s optimizer for
    ``target-<t>``, of I/2 (the mean reduced share) for ``target-secret``;
    each steering unitary is Uhlmann-optimal toward the policy's target share.
    """
    require_recoverable(nonce_set)
    return AttackPlan(*plan_arrays(nonce_set, policy, alpha), policy)


def plan_overlaps(plan: AttackPlan, nonce_set: NonceSet) -> dict:
    """Achieved |<psi_{i,target}| (V x I) |alpha>|^2 per (nonce, secret) of
    ``nonce_set``, which the plan must cover."""
    plan.validate_for(nonce_set)
    targets = [SECRETS.index(policy_target(plan.policy, s)) for s in SECRETS]
    return {(i, s): state_fidelity(nonce_set.share_stack[i, t], plan.steered[i, n])
            for i in range(len(nonce_set)) for n, (s, t) in enumerate(zip(SECRETS, targets))}

