"""Certification of nonce sets and computation of the attack-fidelity
ceiling R(s).

A usable nonce set must be *recoverable* (every |<s|psi>| equals 1/2, so
the honest parties regenerate s with certainty), *secret* (Eve's reduced
share averaged over secrets is maximally mixed for every nonce) and
*IMR-protected* (the grand average over nonces and secrets is maximally
mixed).  R(s) is the largest average fidelity any single-qubit fake share
can achieve against Bob's true reduced shares; it upper-bounds the
probability that an intercept-fake-resend attack forces s to be recovered,
and the bound is attained constructively via Uhlmann's theorem (see
``adversary.synthesize_plan``).

Operator deviations are reported in entrywise max-norm.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .linalg import (
    TOL,
    bloch_from_density,
    density_from_bloch,
    fidelity,
    is_pure,
    partial_trace_E,  # noqa: F401 -- benchmarks/traced.py wraps analysis.partial_trace_E
    pure_density,
    validate_state,
)
from .nonces import (
    MINUS,
    MINUS_I,
    NonceSet,
    PLUS,
    PLUS_I,
    SECRETS,
    basis_state,
    reflection,
    share_state,  # noqa: F401 -- benchmarks/traced.py wraps analysis.share_state
    validate_secret,
)


# ---------------------------------------------------------------------------
# Recoverability (including arbitrary two-qubit quantum secrets)

@dataclass
class PairOverlap:
    nonce_index: int            # 1-based
    secret: str
    overlap: float              # |<s|psi>|
    recovery_probability: float


@dataclass
class RecoverabilityReport:
    pairs: list
    passed: bool
    worst_overlap_deviation: float
    worst_recovery_deviation: float


def _labelled_secrets(secrets) -> tuple[list, np.ndarray]:
    """Labels of ``secrets`` (default: the four classical ones) and their
    state vectors as an (m, 4) array."""
    labelled = [(s, basis_state(s)) if isinstance(s, str)
                else ("custom", validate_state(s, dim=4, what="quantum secret"))
                for s in (SECRETS if secrets is None else secrets)]
    return labelled, np.array([vec for _, vec in labelled]).reshape(-1, 4)


def _overlaps(s_vecs: np.ndarray, states: np.ndarray) -> np.ndarray:
    """|<s|psi>| for every secret row of ``s_vecs`` and nonce row of ``states``:
    shape (m, k)."""
    # Moduli by hypot, which rounds like the scalar abs; numpy's vectorized
    # complex abs can differ in the last bit.
    amp = s_vecs.conj() @ states.T
    return np.hypot(amp.real, amp.imag)


def _worst_deviation(values: np.ndarray, target: float) -> float:
    return float(np.abs(values - target).max(initial=0.0))


def overlap_deviation(nonce_set: NonceSet) -> float:
    """Worst | |<s|psi>| - 1/2 | over the classical secrets and every nonce:
    the deviation ``check_recoverability`` tests, without building its
    report."""
    _, s_vecs = _labelled_secrets(None)
    return _worst_deviation(_overlaps(s_vecs, nonce_set.states), 0.5)


def check_recoverability(nonce_set: NonceSet, secrets=None) -> RecoverabilityReport:
    """Check |<s|psi>| = 1/2 for every pair, and verify the recovery chain.

    ``secrets`` may mix 2-bit strings and normalized two-qubit state
    vectors; it defaults to the four classical secrets.  The recovery
    probability |<s| U_psi U_s |psi>|^2 is computed directly as well, so
    the report witnesses both sides of the equivalence.  The set passes
    when the worst overlap deviation is below ``TOL``, the threshold at
    which ``synthesize_plan`` accepts it.
    """
    labelled, s_vecs = _labelled_secrets(secrets)                       # s_vecs: (m, 4)
    if not labelled:
        raise ValidationError("need at least one secret")
    states = nonce_set.states                                           # (k, 4)
    overlaps = _overlaps(s_vecs, states)                                # (m, k)
    shares = reflection(s_vecs)[:, None] @ states[:, :, None]           # (m, k, 4, 1)
    recovered = (s_vecs.conj()[:, None, None, :] @ (nonce_set.reflections @ shares))[..., 0, 0]
    probs = np.hypot(recovered.real, recovered.imag) ** 2
    pairs = [
        PairOverlap(i + 1, label, overlap, prob)
        for (label, _), row_o, row_p in zip(labelled, overlaps.tolist(), probs.tolist())
        for i, (overlap, prob) in enumerate(zip(row_o, row_p))
    ]
    worst_overlap = _worst_deviation(overlaps, 0.5)
    return RecoverabilityReport(
        pairs=pairs,
        passed=bool(worst_overlap < TOL),
        worst_overlap_deviation=worst_overlap,
        worst_recovery_deviation=_worst_deviation(probs, 1.0),
    )


def recovery_amplitude(overlap_sq: float) -> float:
    """Recovery probability as a function of x = |<s|psi>|^2: x (3 - 4x)^2.

    Equals the exact |<s| U_psi U_s |psi>|^2 for any pure psi with that
    overlap; it reaches 1 only at x = 1/4 and at the degenerate x = 1.
    """
    x = float(overlap_sq)
    if not 0.0 <= x <= 1.0 + TOL:
        raise ValidationError(f"overlap_sq must lie in [0, 1], got {x}")
    return x * (3.0 - 4.0 * x) ** 2


# ---------------------------------------------------------------------------
# Secrecy and intercept-measure-resend protection

def _max_norm(delta: np.ndarray) -> np.ndarray:
    return np.abs(delta).max(axis=(-2, -1))


def check_secrecy(nonce_set: NonceSet) -> dict:
    """Max-norm deviation of (1/4) sum_s |psi_{i,s}><psi_{i,s}| from I/4, per nonce.

    Keys are 1-based nonce indices.
    """
    avg = pure_density(nonce_set.share_stack()).sum(axis=1) / 4.0
    devs = _max_norm(avg - np.eye(4, dtype=complex) / 4.0)
    return {i + 1: float(dev) for i, dev in enumerate(devs)}


def check_imr(nonce_set: NonceSet) -> float:
    """Max-norm deviation of the grand share average from I/4."""
    avg = pure_density(nonce_set.share_stack()).reshape(-1, 4, 4).sum(axis=0) / (4.0 * len(nonce_set))
    return float(_max_norm(avg - np.eye(4, dtype=complex) / 4.0))


# ---------------------------------------------------------------------------
# R(s): the optimal average fidelity of a single-qubit fake share

def _objective_coeffs(sigmas) -> tuple[np.ndarray, float]:
    """Average qubit fidelity against the stack ``sigmas`` at Bloch point p
    reads 1/2 + (p . b_mean)/2 + c_mean * sqrt(1 - |p|^2).

    A pure sigma contributes exactly 0 to c_mean; its float-noise
    determinant would otherwise add about 3e-9 per state."""
    sigmas = np.asarray(sigmas, dtype=complex)
    dets = np.where(is_pure(sigmas), 0.0, np.maximum(np.linalg.det(sigmas).real, 0.0))
    return bloch_from_density(sigmas).mean(axis=0), float(np.sqrt(dets).mean())


def max_average_fidelity(sigmas) -> tuple[float, np.ndarray]:
    """Maximize (1/k) sum_i F(sigma_i, rho) over single-qubit states rho.

    Returns (value, optimizer density matrix).  At Bloch point p the
    average fidelity is 1/2 + (p . b)/2 + c sqrt(1 - |p|^2), with b the
    mean Bloch vector of ``sigmas`` and c the mean of sqrt(det sigma_i);
    a sigma_i that passes ``is_pure`` contributes exactly 0 to c.  By
    Cauchy-Schwarz the maximum is

        R = 1/2 + sqrt(|b|^2 + 4 c^2) / 2   at   p* = b / sqrt(|b|^2 + 4 c^2).

    Tie policy: when R - (1/2 + c) <= TOL the maximally mixed state
    (p* = 0) is returned with value 1/2 + c.
    """
    if len(sigmas) == 0:
        raise ValidationError("need at least one state")
    b_mean, c_mean = _objective_coeffs(sigmas)
    radius = float(np.sqrt(b_mean @ b_mean + 4.0 * c_mean * c_mean))
    value = 0.5 + 0.5 * radius
    center = float(0.5 + c_mean)
    if value - center <= TOL:
        return center, density_from_bloch(np.zeros(3))
    return value, density_from_bloch(b_mean / radius)


def bob_reduced_shares(nonce_set: NonceSet, s: str) -> np.ndarray:
    """Bob-side reduced density matrices of every share state for secret s:
    shape (k, 2, 2), Eve's qubit traced out; a read-only view into
    ``nonce_set.reduced_share_stack()``."""
    return nonce_set.reduced_share_stack()[:, SECRETS.index(validate_secret(s))]


def r_of_s(nonce_set: NonceSet, s: str) -> tuple[float, np.ndarray]:
    """R(s) and an attaining fake share for the given nonce set."""
    return max_average_fidelity(bob_reduced_shares(nonce_set, s))


# ---------------------------------------------------------------------------
# The Bloch-mean construction behind the universal detection ceiling

def bloch_mean_bound(states) -> float:
    """Average fidelity of pure single-qubit states against their Bloch mean.

    Requires pure inputs; mixed collections are served by
    ``max_average_fidelity``.  Note the value is (1 + |mean|^2)/2, which can
    drop to 1/2 for balanced collections; the quantity the mean provably
    keeps above 3/4 is the Bloch-distance surrogate, see
    ``bloch_mean_distance_bound``.
    """
    blochs = _pure_blochs(states)
    mean = blochs.mean(axis=0)
    gamma = density_from_bloch(mean)
    return float(np.mean([fidelity(np.asarray(s, dtype=complex), gamma) for s in states]))


def bloch_mean_distance_bound(states) -> float:
    """(1/k) sum_i (1 - |b_i - mean|^2 / 4) = 3/4 + |mean|^2 / 4 >= 3/4.

    This is the Euclidean bound the Bloch mean attains: no other point in
    the ball gives a smaller average squared distance to the input vectors.
    """
    blochs = _pure_blochs(states)
    mean = blochs.mean(axis=0)
    sq = ((blochs - mean) ** 2).sum(axis=1)
    return float(np.mean(1.0 - 0.25 * sq))


def _pure_blochs(states) -> np.ndarray:
    if len(states) == 0:
        raise ValidationError("need at least one state")
    mats = np.asarray(states, dtype=complex)
    if mats.shape[1:] != (2, 2):
        raise ValidationError("expected single-qubit density matrices")
    if not is_pure(mats).all():
        raise ValidationError("bloch_mean_bound requires pure states")
    return bloch_from_density(mats)


# ---------------------------------------------------------------------------
# Detection bounds and the certification report

def detection_bounds(nonce_set: NonceSet, mode_prior: float = 0.5) -> dict:
    """Exact detection floor/ceiling over the shipped attack policies.

    ``ceiling`` is 1 - (probability of a SECRET-mode round) times the
    probability that the fixed-target plan forces an opposite-bit outcome;
    ``floor`` is the smallest exact detection probability among the shipped
    plan policies.  Requires a recoverable nonce set.
    """
    from . import adversary
    from .protocol import RETIRED, outcome_distribution

    per_policy = {}
    success01 = 0.0
    for policy in (adversary.POLICY_TARGET_SECRET, adversary.POLICY_TARGET_01):
        plan = adversary.synthesize_plan(nonce_set, policy)
        strat = adversary.ifr_strategy(plan, nonce_set)
        dist = outcome_distribution(nonce_set, strat, mode_prior=mode_prior)
        per_policy[policy] = dist.p_detect
        if policy == adversary.POLICY_TARGET_01 and mode_prior > 0.0:
            # RETIRED is exactly a SECRET-mode round that measured 01 or 10.
            success01 = dist.verdict_probs[RETIRED] / mode_prior
    return {
        "floor": min(per_policy.values()),
        "ceiling": 1.0 - mode_prior * success01,
        "per_policy": per_policy,
    }


@dataclass
class CertificationReport:
    """Certification verdicts and deviations for one nonce set."""

    nonce_set_name: str
    recoverable: bool
    recoverable_deviation: float
    secret: bool
    secrecy_deviation: float
    secrecy_per_nonce: dict = field(repr=False)
    imr_protected: bool
    imr_deviation: float
    r_of_s: dict
    detection_bounds: dict | None

    @property
    def all_passed(self) -> bool:
        return self.recoverable and self.secret and self.imr_protected

    def to_json_dict(self) -> dict:
        return {
            "nonce_set_name": self.nonce_set_name,
            "recoverable": self.recoverable,
            "recoverable_deviation": self.recoverable_deviation,
            "secret": self.secret,
            "secrecy_deviation": self.secrecy_deviation,
            "secrecy_per_nonce": {str(k): v for k, v in self.secrecy_per_nonce.items()},
            "imr_protected": self.imr_protected,
            "imr_deviation": self.imr_deviation,
            "r_of_s": dict(self.r_of_s),
            "detection_bounds": self.detection_bounds,
            "all_passed": self.all_passed,
        }


def certify(nonce_set: NonceSet) -> CertificationReport:
    """Run every certification, each verdict at ``TOL``; detection bounds
    only for recoverable sets, which ``synthesize_plan`` accepts."""
    recov = check_recoverability(nonce_set)
    per_nonce = check_secrecy(nonce_set)
    secrecy_dev = max(per_nonce.values())
    imr_dev = check_imr(nonce_set)
    r_values = {s: r_of_s(nonce_set, s)[0] for s in SECRETS}
    bounds = detection_bounds(nonce_set) if recov.passed else None
    return CertificationReport(
        nonce_set_name=nonce_set.name,
        recoverable=recov.passed,
        recoverable_deviation=recov.worst_overlap_deviation,
        secret=bool(secrecy_dev < TOL),
        secrecy_deviation=secrecy_dev,
        secrecy_per_nonce=per_nonce,
        imr_protected=bool(imr_dev < TOL),
        imr_deviation=imr_dev,
        r_of_s=r_values,
        detection_bounds=bounds,
    )


# ---------------------------------------------------------------------------
# Plain-text rendering in the layout of the share/reduced-share tables

_NAMED_QUBITS = {
    "|+>": PLUS,
    "|->": MINUS,
    "|+i>": PLUS_I,
    "|-i>": MINUS_I,
    "|0>": np.array([1, 0], dtype=complex),
    "|1>": np.array([0, 1], dtype=complex),
}


def _label_qubit_state(rho: np.ndarray) -> str:
    for label, vec in _NAMED_QUBITS.items():
        if abs(np.vdot(vec, rho @ vec).real - 1.0) < 1e-6:
            return label + "<" + label[1:-1] + "|"
    x, y, z = bloch_from_density(rho)
    return f"bloch({x:+.3f},{y:+.3f},{z:+.3f})"


def format_certification(nonce_set: NonceSet, report: CertificationReport) -> str:
    """Human-readable summary plus a secrets-by-nonces reduced-share table."""
    lines = [f"nonce set: {report.nonce_set_name} (k={len(nonce_set)})"]
    for label, ok, dev in (
        ("recoverable", report.recoverable, report.recoverable_deviation),
        ("secret", report.secret, report.secrecy_deviation),
        ("imr-protected", report.imr_protected, report.imr_deviation),
    ):
        lines.append(f"  {label:<14} {'PASS' if ok else 'FAIL'}   max deviation {dev:.3e}")
    lines.append("  R(s): " + "  ".join(f"{s}={report.r_of_s[s]:.9f}" for s in SECRETS))
    if report.detection_bounds is not None:
        b = report.detection_bounds
        lines.append(f"  detection floor={b['floor']:.9f}  ceiling={b['ceiling']:.9f}")
    lines.append("")
    lines.append("Bob-side reduced share states (rows: s, columns: nonces)")
    width = 22
    header = " " * 6 + "".join(f"psi_{i + 1:<2}".ljust(width) for i in range(len(nonce_set)))
    lines.append(header)
    for s in SECRETS:
        cells = "".join(_label_qubit_state(rho).ljust(width)
                        for rho in bob_reduced_shares(nonce_set, s))
        lines.append(f"s={s}  " + cells)
    return "\n".join(lines) + "\n"
