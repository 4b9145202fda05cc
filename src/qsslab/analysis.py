"""Certification of nonce sets and computation of the attack-fidelity
ceiling R(s).

A usable nonce set must be *recoverable* (every |<s|psi>| equals 1/2, so
the honest parties regenerate s with certainty), *secret* (Eve's reduced
share averaged over secrets is maximally mixed for every nonce) and
*IMR-protected* (the grand average over nonces and secrets is maximally
mixed).  R(s) is the largest average fidelity any single-qubit fake share
can achieve against Bob's true reduced shares; it upper-bounds the
probability that an intercept-fake-resend attack forces s to be recovered,
and for every s the fixed-target plan of policy ``target-<s>`` attains it,
via Uhlmann's theorem (see ``adversary.synthesize_plan``).  Operator
deviations are reported in entrywise max-norm.

target-secret detects with probability (1 - p)/2 (1 - C) at SECRET prior p.
C is the mean over nonces 1/2 sum_s e^{i phi_s}|s> of C_i = |cos(Delta_i/2)|,
Delta_i = phi_00 + phi_11 - phi_01 - phi_10, the concurrence 2|det M| of each
share.  (1) The plan's alpha is I/2's purification, A = I/sqrt(2); (2) so
steering reaches fidelity 1/2 + |det M| = (1 + C_i)/2; (3) Eve learns s, so
only DETECT rounds are flagged, with probability 1 - (1 + C_i)/2.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import adversary
from .errors import ValidationError
from .linalg import (
    _MIXED,
    TOL,
    bloch_from_density,
    density_from_bloch,
    fidelity_terms,
    partial_trace_E,  # noqa: F401 -- benchmarks/traced.py wraps analysis.partial_trace_E
    validate_state,
)
from .nonces import (
    NonceSet,
    SECRETS,
    basis_state,
    reflection,
    share_state,  # noqa: F401 -- benchmarks/traced.py wraps analysis.share_state
    stage_iii,
    validate_secret,
)
from .protocol import EAVESDROPPER_DETECTED, RETIRED, VERDICTS, _add_masses, _mode_blocks


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
    labels: tuple
    overlaps: list                  # |<s|psi_i>|, one row of k per label
    passed: bool
    worst_overlap_deviation: float
    _inputs: tuple = field(repr=False, compare=False)  # secret vectors, reflections; nonce set

    @cached_property
    def recovery_probabilities(self) -> list:  # |<s| U_psi_i U_s |psi_i>|^2, rows as overlaps
        s_vecs, s_reflections, nonce_set = self._inputs
        shares = s_reflections @ nonce_set.states.T                     # (m, 4, k): U_s|psi_i>
        recovered = np.einsum("ma,kab,mbk->mk", s_vecs.conj(), nonce_set.reflections, shares)
        return (np.hypot(recovered.real, recovered.imag) ** 2).tolist()

    @cached_property
    def worst_recovery_deviation(self) -> float:
        return _worst_deviation(np.array(self.recovery_probabilities), 1.0)

    @property
    def pairs(self) -> list:
        """One ``PairOverlap`` per (secret, nonce), built from the rows when read."""
        rows = zip(self.labels, self.overlaps, self.recovery_probabilities)
        return [PairOverlap(i + 1, label, overlap, prob) for label, row_o, row_p in rows
                for i, (overlap, prob) in enumerate(zip(row_o, row_p))]


def _labelled_secrets(secrets) -> tuple[tuple, np.ndarray, np.ndarray]:
    """Labels of ``secrets``, their state vectors (m, 4) and their reflections;
    by default the four classical secrets', a read-only table built once."""
    if secrets is None:
        return _CLASSICAL
    labelled = [(s, basis_state(s)) if isinstance(s, str)
                else ("custom", validate_state(s, dim=4, what="quantum secret"))
                for s in secrets]
    s_vecs = np.array([vec for _, vec in labelled]).reshape(-1, 4)
    return tuple(label for label, _ in labelled), s_vecs, reflection(s_vecs)


_CLASSICAL = _labelled_secrets(SECRETS)
_CLASSICAL[1].flags.writeable = _CLASSICAL[2].flags.writeable = False


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
    """Worst | |<s|psi>| - 1/2 | over the classical secrets and every nonce: the deviation
    ``check_recoverability`` tests, without building its report."""
    return _worst_deviation(_overlaps(_CLASSICAL[1], nonce_set.states), 0.5)


def check_recoverability(nonce_set: NonceSet, secrets=None) -> RecoverabilityReport:
    """Check |<s|psi>| = 1/2 for every pair, and verify the recovery chain.

    ``secrets`` may mix 2-bit strings and normalized two-qubit state vectors; it defaults to
    the four classical secrets.  The set passes when the worst overlap deviation is below
    ``TOL``, the threshold at which ``synthesize_plan`` accepts it.  The report witnesses the
    other side of the equivalence, |<s| U_psi U_s |psi>|^2, computed directly when first read.
    """
    labels, s_vecs, s_reflections = _labelled_secrets(secrets)          # s_vecs: (m, 4)
    if not labels:
        raise ValidationError("need at least one secret")
    overlaps = _overlaps(s_vecs, nonce_set.states)                      # (m, k)
    worst = _worst_deviation(overlaps, 0.5)
    return RecoverabilityReport(labels, overlaps.tolist(), bool(worst < TOL), worst,
                                (s_vecs, s_reflections, nonce_set))


# ---------------------------------------------------------------------------
# Secrecy and intercept-measure-resend protection

def _populations(nonce_set: NonceSet) -> np.ndarray:  # |<b|psi_i>|^2, shape (k, 4)
    return np.square(nonce_set.states.real) + np.square(nonce_set.states.imag)


def check_secrecy(nonce_set: NonceSet) -> dict:
    """Max-norm deviation of (1/4) sum_s |psi_{i,s}><psi_{i,s}| from I/4, per nonce.

    U_s negates amplitude s, so entry (a, b != a) of U_s|psi><psi|U_s changes
    sign for the two s in {a, b} and the four cancel: the average is
    diag(|<b|psi>|^2) for any psi.  Keys are 1-based nonce indices.
    """
    devs = np.abs(_populations(nonce_set) - 0.25).max(axis=1)
    return {i + 1: float(dev) for i, dev in enumerate(devs)}


def check_imr(nonce_set: NonceSet) -> float:
    """Max-norm deviation of the grand share average from I/4 (see ``check_secrecy``)."""
    return float(np.abs(_populations(nonce_set).sum(axis=0) / len(nonce_set) - 0.25).max())


# ---------------------------------------------------------------------------
# R(s): the optimal average fidelity of a single-qubit fake share

def _objective_coeffs(sigmas):
    """Average qubit fidelity against the stack ``sigmas`` at Bloch point p
    reads 1/2 + (p . b_mean)/2 + c_mean * sqrt(1 - |p|^2), means by np.mean's sums
    over the leading axis: a (k, 4, 2, 2) stack gives each column's, bit for bit."""
    blochs, root_dets = fidelity_terms(sigmas)
    k = len(blochs)  # numpy sums a contiguous last axis pairwise, as it sums a 1-D column
    return blochs.sum(axis=0) / k, np.ascontiguousarray(root_dets.T).sum(axis=-1).T / k


def max_average_fidelity(sigmas) -> tuple[float, np.ndarray]:
    """Maximize (1/k) sum_i F(sigma_i, rho) over single-qubit states rho.

    Returns (value, optimizer density matrix).  At Bloch point p the
    average fidelity is 1/2 + (p . b)/2 + c sqrt(1 - |p|^2), with b the
    mean Bloch vector of ``sigmas`` and c the mean of sqrt(det sigma_i);
    a sigma_i pure within ``TOL`` contributes exactly 0 to c.  By
    Cauchy-Schwarz the maximum is

        R = 1/2 + sqrt(|b|^2 + 4 c^2) / 2   at   p* = b / sqrt(|b|^2 + 4 c^2).

    Tie policy: when R - (1/2 + c) <= TOL the maximally mixed state
    (p* = 0) is returned with value 1/2 + c.
    """
    if len(sigmas) == 0:
        raise ValidationError("need at least one state")
    return fidelity_optimum(*_objective_coeffs(sigmas))


def _optimum(b_mean: np.ndarray, c_mean: float) -> tuple[float, float]:
    """R and the radius |p*| scales b by; 0 in the tie case, whose optimizer is I/2."""
    radius = float(np.sqrt(b_mean @ b_mean + 4.0 * c_mean * c_mean))
    value, center = 0.5 + 0.5 * radius, float(0.5 + c_mean)
    return (center, 0.0) if value - center <= TOL else (value, radius)


def fidelity_optimum(b_mean: np.ndarray, c_mean: float) -> tuple[float, np.ndarray]:
    """``max_average_fidelity`` from the objective's mean coefficients b and c."""
    value, radius = _optimum(b_mean, c_mean)
    return value, density_from_bloch(b_mean / radius) if radius else _MIXED.copy()


def bob_reduced_shares(nonce_set: NonceSet, s: str) -> np.ndarray:
    """Bob-side reduced density matrices of every share state for secret s:
    shape (k, 2, 2), Eve's qubit traced out; a read-only view into
    ``nonce_set.reduced_share_stack``."""
    return nonce_set.reduced_share_stack[:, SECRETS.index(validate_secret(s))]


def r_of_s(nonce_set: NonceSet, s: str) -> tuple[float, np.ndarray]:
    """R(s) and an attaining fake share for the given nonce set."""
    return max_average_fidelity(bob_reduced_shares(nonce_set, s))


# ---------------------------------------------------------------------------
# Detection bounds and the certification report

def detection_bounds(nonce_set: NonceSet, mode_prior: float = 0.5) -> dict:
    """Exact detection floor/ceiling over the shipped attack policies.

    ``ceiling`` is 1 - (probability of a SECRET-mode round) times the
    probability that the fixed-target plan forces an opposite-bit outcome;
    ``floor`` is the smallest exact detection probability among the shipped
    plan policies.  Requires a recoverable nonce set.

    A closed form: each (mode, s, nonce, b, b') mass |<b'| U_psi_i (V_{i,b}
    x I)|alpha>|^2, weighted by Eve's recovery of b, goes to the exact
    engine's core, ``protocol._add_masses``, the two policies as a batch of
    two, so every value equals the engine's bit for bit.
    """
    adversary.require_recoverable(nonce_set)
    if not 0.0 <= mode_prior <= 1.0:
        raise ValidationError(f"mode_prior must be in [0, 1], got {mode_prior}")
    blocks = _mode_blocks(mode_prior, len(nonce_set))
    _, secrets, _ = zip(*blocks)
    branches = adversary._branch_weights(nonce_set.recovery_stack).swapaxes(0, 1)[list(secrets)]
    policies = (adversary.POLICY_TARGET_SECRET, adversary.POLICY_TARGET_01)
    steered, columns = adversary.steered_columns(nonce_set, policies)
    outcomes = stage_iii(nonce_set.reflections, steered)[:, columns].swapaxes(0, 1)[:, None]
    masses = np.zeros((2, len(VERDICTS)))
    _add_masses(masses, blocks, branches, outcomes)
    by_verdict = dict(zip(VERDICTS, masses.T.tolist()))
    per_policy = dict(zip(policies, by_verdict[EAVESDROPPER_DETECTED]))
    # RETIRED is exactly a SECRET-mode round that measured 01 or 10.
    success01 = by_verdict[RETIRED][1] / mode_prior if mode_prior > 0.0 else 0.0
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
        return {**vars(self),
                "secrecy_per_nonce": {str(k): v for k, v in self.secrecy_per_nonce.items()},
                "r_of_s": dict(self.r_of_s), "all_passed": self.all_passed}


def certify(nonce_set: NonceSet) -> CertificationReport:
    """Run every check at ``TOL``, R(s) for all four secrets in one pass, and detection
    bounds for recoverable sets only, the sets ``synthesize_plan`` accepts."""
    recov = check_recoverability(nonce_set)
    per_nonce = check_secrecy(nonce_set)
    secrecy_dev = max(per_nonce.values())
    imr_dev = check_imr(nonce_set)
    b_means, c_means = _objective_coeffs(nonce_set.reduced_share_stack)
    r_values = {s: _optimum(b, c)[0] for s, b, c in zip(SECRETS, b_means, c_means)}
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

# The named qubits with Bloch vectors +x, -x, +y, -y, +z and -z, in match order.
_NAMED_QUBITS = ("|+><+|", "|-><-|", "|+i><+i|", "|-i><-i|", "|0><0|", "|1><1|")


def _qubit_label(x: float, y: float, z: float) -> str:
    """The label of the qubit with Bloch vector r = (x, y, z): the first named |v><v| with
    <v|rho|v> = (1 + n.r)/2 within 1e-6 of 1, else r."""
    for label, dot in zip(_NAMED_QUBITS, (x, -x, y, -y, z, -z)):
        if abs(dot - 1.0) < 2e-6:
            return label
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
    blochs = bloch_from_density(nonce_set.reduced_share_stack.swapaxes(0, 1)).tolist()
    for s, row in zip(SECRETS, blochs):
        lines.append(f"s={s}  " + "".join(_qubit_label(*r).ljust(width) for r in row))
    return "\n".join(lines) + "\n"
