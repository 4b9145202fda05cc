"""State machine for the four-stage (2,2) secret-sharing protocol.

A round runs as follows.  Stage I: the dealer draws a mode (SECRET with
probability ``mode_prior``), derives the 2-bit string s (01/10 encodes the
secret bit in SECRET mode, 00/11 is drawn uniformly in DETECT mode), draws
a nonce uniformly, prepares U_s|psi_i> and sends Eve the first qubit and
Bob the second; the adversary's interception hook sees the joint in-flight
state and returns whatever joint state actually reaches Stage III.
Stage II: the nonce index is announced; the adversary may return one
single-qubit unitary which is applied to the Eve-side factor.  Stage III:
the parties apply the reflection about the announced nonce and measure
both qubits in the standard basis, yielding b.  Stage IV reconciles:

* b in {01, 10} and mode SECRET: the parties retire with secret bit b_E;
* b in {01, 10} and mode DETECT: the parties announce nothing, so the
  dealer declares an eavesdropper;
* b in {00, 11}: the parties announce b; in DETECT mode a match with s
  drops the round and a mismatch flags an eavesdropper; in SECRET mode
  any announcement flags an eavesdropper.

All per-round randomness comes from one generator seeded with
``[rng_seed, round_index]``, consumed in a fixed order (mode, secret draw,
nonce draw, strategy randomness, measurement), so transcripts are
bit-reproducible and rounds are independent across seeds, which makes the
engine safe to fan out over parallel workers with one strategy instance
per worker.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ProtocolError, ValidationError
from .jsonio import complex_to_json
from .linalg import INPUT_TOL
from .nonces import NonceSet, SECRETS, sample_outcome, share_state, validate_secret

SECRET = "SECRET"
DETECT = "DETECT"
MODES = (SECRET, DETECT)

RETIRED = "RETIRED"
ROUND_DROPPED = "ROUND_DROPPED"
EAVESDROPPER_DETECTED = "EAVESDROPPER_DETECTED"
VERDICTS = (RETIRED, ROUND_DROPPED, EAVESDROPPER_DETECTED)

# Stage I: the strings s each mode draws from.  In SECRET mode the dealer's
# secret bit indexes the pair; in DETECT mode s is drawn uniformly from it.
MODE_SECRETS = {SECRET: ("01", "10"), DETECT: ("00", "11")}


def stage_iv_verdict(mode: str, s: str, b: str) -> tuple[str, int | None]:
    """Reconciliation verdict and (for RETIRED) the recovered secret bit.

    Pure function of (mode, s, b), total over all 2 x 4 x 4 combinations.
    """
    if mode not in MODES:
        raise ValidationError(f"mode must be one of {MODES}, got {mode!r}")
    validate_secret(s)
    validate_secret(b)
    if b in MODE_SECRETS[SECRET]:
        if mode == SECRET:
            return RETIRED, int(b[0])
        # DETECT mode: the parties retired silently, the dealer expected an
        # announcement and therefore flags an eavesdropper.
        return EAVESDROPPER_DETECTED, None
    if mode == DETECT and b == s:
        return ROUND_DROPPED, None
    return EAVESDROPPER_DETECTED, None


@dataclass(frozen=True)
class RoundConfig:
    """Per-run protocol parameters."""

    nonce_set: NonceSet
    secret_bit: int | None = None
    rng_seed: int = 0
    mode_prior: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.mode_prior <= 1.0:
            raise ValidationError(f"mode_prior must be in [0, 1], got {self.mode_prior}")
        if self.secret_bit not in (None, 0, 1):
            raise ValidationError(f"secret_bit must be 0, 1 or None, got {self.secret_bit}")
        # numpy seeds need a non-negative int; bool is an int subclass.
        if (isinstance(self.rng_seed, bool) or not isinstance(self.rng_seed, (int, np.integer))
                or self.rng_seed < 0):
            raise ValidationError(
                f"rng_seed must be a non-negative integer, got {self.rng_seed!r}")


@dataclass
class RoundTranscript:
    """Full record of one protocol round; nonce indices are 1-based.

    ``forwarded_to_bob`` holds the joint two-qubit state left in play after
    interception; Bob's qubit is the second tensor factor.
    """

    round_index: int
    mode: str
    s: str
    nonce_index: int
    announced_nonce: int
    forwarded_to_bob: np.ndarray = field(repr=False)
    eve_learned_secret: str | None
    stage_two_unitary_applied: bool
    measured_b: str
    verdict: str
    recovered_secret_bit: int | None

    def to_json_dict(self) -> dict:
        body = dict(vars(self), forwarded_to_bob=complex_to_json(self.forwarded_to_bob))
        return {"round": body.pop("round_index"), **body}


def _draw_secret(cfg: RoundConfig, mode: str, rng: np.random.Generator) -> str:
    bit = cfg.secret_bit if mode == SECRET else None
    if bit is None:
        bit = int(rng.integers(0, 2))
    return MODE_SECRETS[mode][bit]


def run_round(cfg: RoundConfig, strategy, round_index: int = 0) -> RoundTranscript:
    """Execute one protocol round against an adversary strategy.

    The round calls ``strategy.intercept``, then
    ``strategy.nonce_announced``, then reads ``strategy.learned_secret``;
    those hooks are all it calls (see ``qsslab.adversary``), and an
    optional ``name`` only labels its errors.
    """
    rng = np.random.default_rng([cfg.rng_seed, round_index])
    nonce_set = cfg.nonce_set
    k = len(nonce_set)

    mode = SECRET if rng.random() < cfg.mode_prior else DETECT
    s = _draw_secret(cfg, mode, rng)
    i = int(rng.integers(0, k))

    share = share_state(nonce_set.states[i], s)
    joint = np.asarray(strategy.intercept(share, rng), dtype=complex)
    if joint.shape != (4,) or abs(np.linalg.norm(joint) - 1.0) > INPUT_TOL:
        raise ProtocolError(
            f"strategy {getattr(strategy, 'name', strategy)!r} returned a "
            "non-normalized or mis-shaped state at interception"
        )

    v = strategy.nonce_announced(i, rng)
    applied = v is not None
    if applied:
        v = np.asarray(v, dtype=complex)
        if v.shape != (2, 2):
            raise ProtocolError("stage-II unitary must be 2x2")
        joint = np.kron(v, np.eye(2, dtype=complex)) @ joint
        if abs(np.linalg.norm(joint) - 1.0) > INPUT_TOL:
            raise ProtocolError("stage-II operator broke normalization")

    recovered = nonce_set.reflections[i] @ joint
    b = sample_outcome(recovered, rng)
    verdict, bit = stage_iv_verdict(mode, s, b)

    return RoundTranscript(
        round_index=round_index,
        mode=mode,
        s=s,
        nonce_index=i + 1,
        announced_nonce=i + 1,
        forwarded_to_bob=joint,
        eve_learned_secret=strategy.learned_secret,
        stage_two_unitary_applied=applied,
        measured_b=b,
        verdict=verdict,
        recovered_secret_bit=bit,
    )


def run_rounds(cfg: RoundConfig, strategy, rounds: int):
    """Yield transcripts for rounds 0..rounds-1 in order."""
    for r in range(rounds):
        yield run_round(cfg, strategy, round_index=r)


def tally_rounds(cfg: RoundConfig, strategy, rounds: int,
                 on_round=None) -> tuple[dict, int]:
    """Run rounds 0..rounds-1 and count their verdicts.

    Returns ``(verdict_counts, eve_hits)``: rounds per verdict, and rounds in
    which Eve's learned secret equals the dealer's s.  ``on_round``, when
    given, receives each transcript as soon as its round has run.
    """
    counts = {v: 0 for v in VERDICTS}
    eve_hits = 0
    for t in run_rounds(cfg, strategy, rounds):
        counts[t.verdict] += 1
        if t.eve_learned_secret == t.s:
            eve_hits += 1
        if on_round is not None:
            on_round(t)
    return counts, eve_hits


def detection_rate(verdict_counts: dict) -> tuple[float, float]:
    """Detected share of the counted rounds and its binomial standard error."""
    rounds = sum(verdict_counts.values())
    p = verdict_counts[EAVESDROPPER_DETECTED] / rounds
    return p, float(np.sqrt(p * (1.0 - p) / rounds))


def estimate_detection(cfg: RoundConfig, strategy, rounds: int) -> tuple[float, float]:
    """Monte Carlo detection probability and its binomial standard error."""
    if rounds < 1:
        raise ValidationError("rounds must be >= 1")
    return detection_rate(tally_rounds(cfg, strategy, rounds)[0])


class ExactDistribution:
    """Exact outcome table and the security margins derived from it.

    ``table`` maps (mode, s, nonce_index, b) -> probability with 1-based
    nonce indices; entries sum to 1.  It is built on first access from the
    nonzero cells of the engine's (mode, s, nonce, b) probability ``grid``.
    Two distributions are equal when their tables, margins and verdict
    masses are.
    """

    def __init__(self, grid: np.ndarray, p_detect: float, p_eve_knows_secret: float,
                 verdict_probs: dict):
        self._grid = grid
        self.p_detect = p_detect
        self.p_eve_knows_secret = p_eve_knows_secret
        self.verdict_probs = verdict_probs

    @cached_property
    def table(self) -> dict:
        cells = np.nonzero(self._grid)
        return {(MODES[m], SECRETS[s], i + 1, SECRETS[b]): p
                for m, s, i, b, p in zip(*(idx.tolist() for idx in cells),
                                         self._grid[cells].tolist())}

    def _fields(self) -> tuple:
        return self.table, self.p_detect, self.p_eve_knows_secret, self.verdict_probs

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        return (f"ExactDistribution(p_detect={self.p_detect!r}, "
                f"p_eve_knows_secret={self.p_eve_knows_secret!r}, "
                f"verdict_probs={self.verdict_probs!r})")


# Stage IV verdict of every (mode, s, b) as an index into VERDICTS, axes
# ordered as MODES, SECRETS, SECRETS.
VERDICT_INDEX = np.array([
    [[VERDICTS.index(stage_iv_verdict(mode, s, b)[0]) for b in SECRETS] for s in SECRETS]
    for mode in MODES
])


def _exact_blocks(nonce_set: NonceSet, strategy, s: str):
    """Yield ``(first, weights, outcomes, learned)`` blocks covering every
    nonce for secret s: nonce ``first + r`` has branches ``weights[r]`` (each
    branch's probability), ``outcomes[r]`` (the probabilities of Stage III's
    four outcomes on each branch) and ``learned[r]`` (Eve's learned secret).

    A strategy with ``exact_block`` gives one block for the whole set.  Any
    other gets one block per nonce from ``exact_branches``, without the
    branches of probability <= 0 (NaN is kept); a nonce left with none
    yields no block.
    """
    whole = getattr(strategy, "exact_block", None)
    if whole is not None:
        yield (0, *whole(nonce_set, s))
        return
    for i in range(len(nonce_set)):
        branches = [br for br in strategy.exact_branches(nonce_set, i, s) if not br[0] <= 0.0]
        if branches:
            p_branch, joints, learned = zip(*branches)
            # (1, 1, 4, 4) @ (1, n, 4, 1): one matrix-vector product per branch.
            out = nonce_set.reflections[i:i + 1, None] @ np.array([joints], complex)[..., None]
            yield (i, np.array([p_branch]), np.abs(out[..., 0]) ** 2,
                   np.array([learned], dtype=object))


def outcome_distribution(nonce_set: NonceSet, strategy, mode_prior: float = 0.5) -> ExactDistribution:
    """Exact verdict statistics by enumerating every discrete draw.

    The strategy must expose ``exact_branches(nonce_set, i, s)`` returning
    ``(probability, joint_state_entering_stage_III, learned_secret)``
    triples, or ``exact_block(nonce_set, s)`` giving every nonce's branches
    at once, with Stage III's outcome probabilities for the joint states
    (see ``qsslab.adversary``).  Within SECRET mode the dealer's secret bit
    is averaged uniformly, matching a RoundConfig with ``secret_bit=None``.

    Each block of draws weights its outcome probabilities into (nonce,
    branch, b) probability mass.  Its sums over branches fill rows of a (mode, s,
    nonce, b) grid, from which the table is read; ``np.add.at`` adds the
    block to the verdict masses through ``VERDICT_INDEX``, and Eve's hits
    are added one by one, all in the (mode, s, nonce, branch, b) order of a
    scalar loop, so sums round alike however the draws are blocked.  A
    branch of weight 0 adds exact zeros.
    """
    if not 0.0 <= mode_prior <= 1.0:
        raise ValidationError(f"mode_prior must be in [0, 1], got {mode_prior}")
    k = len(nonce_set)
    grid = np.zeros((len(MODES), len(SECRETS), k, len(SECRETS)))
    masses = np.zeros(len(VERDICTS))
    p_eve = 0.0
    for m, (mode, p_mode) in enumerate(((SECRET, mode_prior), (DETECT, 1.0 - mode_prior))):
        if p_mode == 0.0:
            continue
        base = p_mode * 0.5 / k
        for s in MODE_SECRETS[mode]:
            row = grid[m, SECRETS.index(s)]
            verdict_of_b = VERDICT_INDEX[m, SECRETS.index(s)][None]
            for first, p_branch, outcomes, learned in _exact_blocks(nonce_set, strategy, s):
                weights = np.multiply(base, p_branch)
                block = weights[..., None] * outcomes
                block.sum(axis=1, out=row[first:first + len(p_branch)])
                flat = block.reshape(-1, 4)
                np.add.at(masses, verdict_of_b.repeat(len(flat), axis=0), flat)
                for w in weights[np.asarray(learned) == s].tolist():
                    p_eve += w
    verdict_probs = {v: float(masses[n]) for n, v in enumerate(VERDICTS)}
    return ExactDistribution(
        grid,
        p_detect=verdict_probs[EAVESDROPPER_DETECTED],
        p_eve_knows_secret=p_eve,
        verdict_probs=verdict_probs,
    )
