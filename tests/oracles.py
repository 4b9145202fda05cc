"""Test-only helpers: random inputs, reference formulas and witnesses.

The random draws feed seeded tests; ``bob_marginal``,
``average_recovery``, ``grid_max_average_fidelity``, the LAPACK SVD
steering ``svd_overlap_unitary`` (over ``svd_2x2``) and the eigh
purification ``eigh_purification`` (over ``sqrtm_psd``) are independent
formulas and searches the package's array code is checked against.
``recovery_amplitude`` and the two Bloch-mean bounds are the closed-form
witnesses of the recovery law and of the universal detection ceiling.
``recoverability_pairs`` is ``check_recoverability`` with one ``@`` product
per (secret, nonce) and its pair list built at once; ``eager_recovery``
is the recovery-probability formula the report once ran up front, which the
report now runs when first read.
``label_qubit_state`` is the per-share labeller ``format_certification``
once ran, one ``np.vdot`` per named qubit.
``stacked_bloch``, ``pauli_sum_density`` and ``mean_objective_coeffs``
keep the plain forms of helpers the package writes leaner; the package
must equal them byte for byte.  ``density_secrecy``
and ``density_imr`` are the share-density definitions of the secrecy and
IMR deviations, which the package computes from amplitude populations.
``certification_json`` and ``transcript_json`` spell out the report and
transcript file formats field by field.  ``phase_states`` and ``phase_set`` build the seeded
1/2 e^{i phi} nonce sets the tests draw.
"""
import numpy as np

from qsslab.adversary import AttackPlan
from qsslab.analysis import PairOverlap, _labelled_secrets
from qsslab.errors import ValidationError
from qsslab.jsonio import complex_to_json
from qsslab.linalg import (PAULI_X, PAULI_Y, PAULI_Z, TOL, bloch_from_density, density_from_bloch,
                           fidelity, is_pure, pure_density, state_fidelity)
from qsslab.nonces import (MINUS, MINUS_I, PLUS, PLUS_I, NonceSet, SECRETS, share_state,
                           validate_secret)


def haar_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random pure state of the given dimension."""
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def haar_unitaries(n: int, rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    """Stack of n Haar-random dim x dim unitaries, shape (n, dim, dim)."""
    g = rng.normal(size=(n, dim, dim)) + 1j * rng.normal(size=(n, dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


def random_density(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    """Random full-rank density matrix (normalized Ginibre square)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def phase_states(phases) -> list:
    """The state 1/2 e^{i phi} of each row of four phases, unvalidated."""
    return [0.5 * np.exp(1j * p) for p in phases]


def phase_set(phases, name: str) -> NonceSet:
    """The nonce set of ``phase_states``: recoverable, whatever the phases."""
    return NonceSet(name=name, states=tuple(phase_states(phases)))


def certification_json(report) -> dict:
    """The ``"certification"`` body of a certification file, field by field."""
    return {
        "nonce_set_name": report.nonce_set_name,
        "recoverable": report.recoverable,
        "recoverable_deviation": report.recoverable_deviation,
        "secret": report.secret,
        "secrecy_deviation": report.secrecy_deviation,
        "secrecy_per_nonce": {str(k): v for k, v in report.secrecy_per_nonce.items()},
        "imr_protected": report.imr_protected,
        "imr_deviation": report.imr_deviation,
        "r_of_s": dict(report.r_of_s),
        "detection_bounds": report.detection_bounds,
        "all_passed": report.all_passed,
    }


def transcript_json(t) -> dict:
    """One record of a ``--transcripts`` file, field by field."""
    return {
        "round": t.round_index,
        "mode": t.mode,
        "s": t.s,
        "nonce_index": t.nonce_index,
        "announced_nonce": t.announced_nonce,
        "forwarded_to_bob": complex_to_json(t.forwarded_to_bob),
        "eve_learned_secret": t.eve_learned_secret,
        "stage_two_unitary_applied": t.stage_two_unitary_applied,
        "measured_b": t.measured_b,
        "verdict": t.verdict,
        "recovered_secret_bit": t.recovered_secret_bit,
    }


def svd_2x2(m):
    """SVD of a 2x2 complex matrix by LAPACK: m = U diag(s) W^dagger, s descending.

    A stack along leading axes gives ``(U, s, W)`` with ``s`` of shape
    ``(..., 2)``; a single matrix is a stack with no leading axes.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape[-2:] != (2, 2):
        raise ValidationError("svd_2x2 expects a 2x2 matrix")
    u, s, wh = np.linalg.svd(m)
    return u, s, wh.conj().swapaxes(-1, -2)


def svd_overlap_unitary(alpha, target) -> tuple[np.ndarray, np.ndarray]:
    """``linalg.max_overlap_unitary`` by SVD: X = A M^dagger = U S W^dagger
    gives V = W U^dagger and the value (s1 + s2)^2."""
    a = np.asarray(alpha, dtype=complex).reshape(np.shape(alpha)[:-1] + (2, 2))
    m = np.asarray(target, dtype=complex).reshape(np.shape(target)[:-1] + (2, 2))
    u, s, w = svd_2x2(a @ m.conj().swapaxes(-1, -2))
    return w @ u.conj().swapaxes(-1, -2), (s[..., 0] + s[..., 1]) ** 2


def bob_marginal(state) -> np.ndarray:
    """Reduced state of Bob's (second) qubit for a pure two-qubit state."""
    a = np.asarray(state, dtype=complex).reshape(2, 2)
    return a.T @ a.conj()


def average_recovery(plan: AttackPlan, nonce_set: NonceSet, s: str) -> float:
    """Average over nonces of the probability that Stage III yields s."""
    n = SECRETS.index(validate_secret(s))
    plan.validate_for(nonce_set)
    total = 0.0
    for i, psi in enumerate(nonce_set.states):
        total += state_fidelity(share_state(psi, s), plan.steered[i, n])
    return total / len(nonce_set)


def recoverability_pairs(nonce_set: NonceSet, secrets=None) -> tuple[list, bool, float]:
    """``analysis.check_recoverability``'s pair list, verdict and worst overlap
    deviation, each recovery amplitude <s| U_psi U_s |psi> by an (m, k) stack
    of ``@`` products."""
    labels, s_vecs, s_reflections = _labelled_secrets(secrets)
    states = nonce_set.states
    amp = s_vecs.conj() @ states.T
    overlaps = np.hypot(amp.real, amp.imag)
    shares = s_reflections[:, None] @ states[:, :, None]                # (m, k, 4, 1)
    recovered = (s_vecs.conj()[:, None, None, :] @ (nonce_set.reflections @ shares))[..., 0, 0]
    probs = np.hypot(recovered.real, recovered.imag) ** 2
    pairs = [PairOverlap(i + 1, label, overlap, prob)
             for label, row_o, row_p in zip(labels, overlaps.tolist(), probs.tolist())
             for i, (overlap, prob) in enumerate(zip(row_o, row_p))]
    worst = float(np.abs(overlaps - 0.5).max(initial=0.0))
    return pairs, bool(worst < TOL), worst


def eager_recovery(nonce_set: NonceSet, secrets=None) -> tuple[list, float]:
    """Recovery probabilities |<s| U_psi_i U_s |psi_i>|^2, one row of k per secret, and
    their worst deviation from 1, by one einsum over the stacks."""
    _, s_vecs, s_reflections = _labelled_secrets(secrets)
    shares = s_reflections @ nonce_set.states.T                         # (m, 4, k): U_s|psi_i>
    recovered = np.einsum("ma,kab,mbk->mk", s_vecs.conj(), nonce_set.reflections, shares)
    probs = np.hypot(recovered.real, recovered.imag) ** 2
    return probs.tolist(), float(np.abs(probs - 1.0).max(initial=0.0))


def recovery_amplitude(overlap_sq: float) -> float:
    """Recovery probability at x = |<s|psi>|^2: x (3 - 4x)^2, the exact
    |<s| U_psi U_s |psi>|^2 for any pure psi with that overlap.  It reaches
    1 only at x = 1/4 and at the degenerate x = 1."""
    x = float(overlap_sq)
    if not 0.0 <= x <= 1.0 + TOL:
        raise ValidationError(f"overlap_sq must lie in [0, 1], got {x}")
    return x * (3.0 - 4.0 * x) ** 2


NAMED_QUBITS = {"|+>": PLUS, "|->": MINUS, "|+i>": PLUS_I, "|-i>": MINUS_I,
                "|0>": np.array([1, 0], dtype=complex), "|1>": np.array([0, 1], dtype=complex)}


def label_qubit_state(rho: np.ndarray) -> str:
    """|v><v| for the first named qubit v with <v|rho|v> within 1e-6 of 1, else
    rho's Bloch vector to three decimals."""
    for label, vec in NAMED_QUBITS.items():
        if abs(np.vdot(vec, rho @ vec).real - 1.0) < 1e-6:
            return label + "<" + label[1:-1] + "|"
    x, y, z = bloch_from_density(rho)
    return f"bloch({x:+.3f},{y:+.3f},{z:+.3f})"


def stacked_bloch(rho) -> np.ndarray:
    """``linalg.bloch_from_density`` joined by ``np.stack``, plus 0.0."""
    rho = np.asarray(rho, dtype=complex)
    r01, r10 = rho[..., 0, 1], rho[..., 1, 0]
    return np.stack([
        r01.real + r10.real,
        -r01.imag + r10.imag,
        rho[..., 0, 0].real - rho[..., 1, 1].real,
    ], axis=-1) + 0.0


def pauli_sum_density(v) -> np.ndarray:
    """``linalg.density_from_bloch`` as eye + x X + y Y + z Z, halved, with a
    fresh identity and the norm check by ``np.linalg.norm``."""
    v = np.asarray(v, dtype=float).reshape(3)
    if np.linalg.norm(v) > 1.0 + TOL:
        raise ValidationError(f"Bloch vector has norm {np.linalg.norm(v):.9g} > 1")
    return 0.5 * (np.eye(2, dtype=complex) + v[0] * PAULI_X + v[1] * PAULI_Y + v[2] * PAULI_Z)


def mean_objective_coeffs(blochs, root_dets) -> tuple[np.ndarray, float]:
    """The objective's mean coefficients b and c by ``np.mean``, from the
    Bloch vectors and sqrt(det) of the stack they average."""
    return np.mean(blochs, axis=0), float(np.mean(root_dets))


def sqrtm_psd(rho) -> np.ndarray:
    """Matrix square root of a Hermitian PSD matrix via eigendecomposition."""
    vals, vecs = np.linalg.eigh(np.asarray(rho, dtype=complex))
    return vecs @ np.diag(np.sqrt(np.maximum(vals, 0.0))) @ vecs.conj().T


def eigh_purification(rho_b) -> np.ndarray:
    """``linalg.canonical_purification`` through ``sqrtm_psd``, as numerics 3
    computed it; a pure rho_b's purification is off by up to about 1e-8."""
    psi = sqrtm_psd(rho_b).T.reshape(-1)
    return psi / np.linalg.norm(psi)


def density_secrecy(nonce_set: NonceSet) -> dict:
    """Max-norm deviation of (1/4) sum_s |psi_{i,s}><psi_{i,s}| from I/4 per
    nonce, by 1-based index, from the (k, 4, 4, 4) share densities."""
    avg = pure_density(nonce_set.share_stack).sum(axis=1) / 4.0
    devs = np.abs(avg - np.eye(4) / 4.0).max(axis=(-2, -1))
    return {i + 1: float(dev) for i, dev in enumerate(devs)}


def density_imr(nonce_set: NonceSet) -> float:
    """Max-norm deviation of the share densities' grand average from I/4."""
    avg = pure_density(nonce_set.share_stack).reshape(-1, 4, 4).sum(axis=0) / (4.0 * len(nonce_set))
    return float(np.abs(avg - np.eye(4) / 4.0).max())


def _pure_blochs(states) -> np.ndarray:
    mats = np.asarray(states, dtype=complex)
    if not is_pure(mats).all():
        raise ValidationError("the Bloch-mean bounds require pure states")
    return bloch_from_density(mats)


def bloch_mean_bound(states) -> float:
    """Average fidelity of pure qubit states against their Bloch mean: (1 +
    |mean|^2)/2, which drops to 1/2 for balanced collections."""
    gamma = density_from_bloch(_pure_blochs(states).mean(axis=0))
    return float(np.mean([fidelity(np.asarray(s, dtype=complex), gamma) for s in states]))


def bloch_mean_distance_bound(states) -> float:
    """(1/k) sum_i (1 - |b_i - mean|^2 / 4) = 3/4 + |mean|^2 / 4 >= 3/4, the
    Euclidean bound the Bloch mean attains: no point of the ball does better."""
    blochs = _pure_blochs(states)
    return float(np.mean(1.0 - 0.25 * ((blochs - blochs.mean(axis=0)) ** 2).sum(axis=1)))


_GRID_STEP = 0.1


def _ball_objective(points: np.ndarray, b_mean: np.ndarray, c_mean: float) -> np.ndarray:
    """Average qubit fidelity at each Bloch point: 1/2 + (p . b)/2 + c sqrt(1 - |p|^2)."""
    root = np.sqrt(np.maximum(1.0 - (points * points).sum(axis=-1), 0.0))
    return 0.5 + 0.5 * (points @ b_mean) + c_mean * root


def _project_to_ball(points: np.ndarray) -> np.ndarray:
    norms = np.sqrt((points * points).sum(axis=-1, keepdims=True))
    return points / np.maximum(norms, 1.0)


def grid_max_average_fidelity(sigmas) -> tuple[float, np.ndarray]:
    """Numerical maximizer of the average fidelity against ``sigmas`` over
    single-qubit states: (value, optimizer density matrix).

    The objective's coefficients are computed state by state: the mean
    Bloch vector from Pauli traces and the mean sqrt(det sigma), with a
    pure sigma contributing 0.  The search scans a lattice over the Bloch
    ball (step 0.1, about 4.2k points), then refines by pattern search:
    poll a local grid at a fixed step until no move improves the (concave)
    objective, then shrink the step.  Unlike plain step-halving this does
    not bound the total travel, which matters when the optimum sits on the
    sphere and the lattice argmax is off in angle.
    """
    sigmas = [np.asarray(s, dtype=complex) for s in sigmas]
    b_mean = np.mean([[np.trace(s @ pauli).real for pauli in (PAULI_X, PAULI_Y, PAULI_Z)]
                      for s in sigmas], axis=0)
    c_mean = float(np.mean([0.0 if is_pure(s) else np.sqrt(max(np.linalg.det(s).real, 0.0))
                            for s in sigmas]))
    xs = np.linspace(-1.0, 1.0, int(round(2.0 / _GRID_STEP)) + 1)
    pts = np.stack(np.meshgrid(xs, xs, xs, indexing="ij"), axis=-1).reshape(-1, 3)
    pts = pts[(pts * pts).sum(axis=1) <= 1.0 + 1e-12]
    values = _ball_objective(pts, b_mean, c_mean)
    best = int(values.argmax())
    p, value = pts[best], float(values[best])
    offsets = np.stack(
        np.meshgrid(*([np.arange(-2, 3)] * 3), indexing="ij"), axis=-1
    ).reshape(-1, 3).astype(float)
    step = _GRID_STEP
    while step > 1e-9:
        for _ in range(10_000):
            local = _project_to_ball(p + offsets * step)
            vals = _ball_objective(local, b_mean, c_mean)
            j = int(vals.argmax())
            if vals[j] <= value:
                break
            p, value = local[j], float(vals[j])
        step /= 2.0
    return value, density_from_bloch(p)
