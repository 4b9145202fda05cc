"""Nonce sets, Grover reflection operators and share-state generation.

Two nonce sets ship with the package:

* ``hsu-I``      -- the 16 products |x>|y> with x, y drawn from
                    {+, -, +i, -i}, in lexicographic factor order.
* ``proposed-J`` -- four entangled nonces designed so that every share
                    state reduces, on Bob's side, to one of the four
                    equatorial single-qubit states.

Custom sets of any size load from JSON: ``{"name": str, "states":
[[[re, im] x4], ...]}`` with amplitudes in basis order 00, 01, 10, 11
(complex arrays are encoded as described in ``qsslab.jsonio``).
Nonce indices are 0-based in code and 1-based in files and reports.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .jsonio import complex_from_json, complex_to_json, load_json
from .linalg import partial_trace_E, pure_density, validate_state

SECRETS = ("00", "01", "10", "11")

_S2 = 1.0 / np.sqrt(2.0)
PLUS = np.array([1, 1], dtype=complex) * _S2
MINUS = np.array([1, -1], dtype=complex) * _S2
PLUS_I = np.array([1, 1j], dtype=complex) * _S2
MINUS_I = np.array([1, -1j], dtype=complex) * _S2

BUILTIN_NAMES = ("hsu-I", "proposed-J")

_SECRET_INDEX = {s: n for n, s in enumerate(SECRETS)}


def sample_outcome(state: np.ndarray, rng) -> str:
    """Measure a two-qubit state in the computational basis.

    Inverse-CDF sampling that consumes exactly one ``rng.random()``; when
    rounding leaves the draw above the last partial sum the outcome is 11.
    """
    probs = np.abs(state) ** 2
    probs = probs / probs.sum()
    u = rng.random()
    acc = 0.0
    for idx in range(4):
        acc += probs[idx]
        if u < acc:
            return SECRETS[idx]
    return SECRETS[3]


def basis_state(s: str) -> np.ndarray:
    """Computational-basis two-qubit state |s> for a 2-bit string."""
    validate_secret(s)
    e = np.zeros(4, dtype=complex)
    e[int(s, 2)] = 1.0
    return e


def validate_secret(s) -> str:
    if s not in SECRETS:
        raise ValidationError(f"secret must be one of {SECRETS}, got {s!r}")
    return s


def set_frozen(obj, **fields) -> None:
    """Set fields of a frozen dataclass; the arrays among them become read-only."""
    for attr, value in fields.items():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        object.__setattr__(obj, attr, value)


@dataclass(frozen=True, eq=False)
class NonceSet:
    """A named, ordered list of normalized two-qubit nonce states.

    Any sequence of state vectors is validated row by row into ``states``,
    a read-only (k, 4) array.  Built with it, read-only too, and indexed
    ``[i, n]`` for nonce i and s = SECRETS[n]: the reflections U_psi_i
    (k, 4, 4; by nonce only), the share states U_s|psi_i> ``share_stack``
    (k, 4, 4), Bob's reduced shares (Eve's qubit traced out) ``reduced_share_stack``
    (k, 4, 2, 2), and ``recovery_stack`` (k, 4, 4), whose ``[i, n, b]`` is the
    recovery probability |<b| U_psi_i U_s |psi_i>|^2 of outcome b = SECRETS[b] (``stage_iii``).
    ``copy`` and ``pickle`` keep the arrays as they are, without validating
    again.
    """

    name: str
    states: np.ndarray = field(repr=False)
    reflections: np.ndarray = field(init=False, repr=False)
    share_stack: np.ndarray = field(init=False, repr=False)
    reduced_share_stack: np.ndarray = field(init=False, repr=False)
    recovery_stack: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.states) < 1:
            raise ValidationError("a nonce set needs at least one state")
        states = np.array([
            validate_state(v, dim=4, what=f"nonce state {i + 1}")
            for i, v in enumerate(self.states)
        ])
        shares = np.stack([share_state(states, s) for s in SECRETS], axis=1)
        reflections = reflection(states)
        set_frozen(self, states=states, reflections=reflections, share_stack=shares,
                   reduced_share_stack=partial_trace_E(pure_density(shares)),
                   recovery_stack=stage_iii(reflections, shares))

    def __setstate__(self, state):
        # Copies and unpickled sets keep the validated arrays bit for bit.
        set_frozen(self, **state)

    def __len__(self) -> int:
        return len(self.states)

    def to_json_dict(self) -> dict:
        return {"name": self.name, "states": complex_to_json(self.states)}


def reflection(about) -> np.ndarray:
    """Grover reflection I - 2|v><v| about a normalized state.

    Hermitian, involutory, determinant -1: it negates |v> and fixes the
    orthogonal complement.  A stack of states gives a stack of reflections.
    """
    v = np.asarray(about, dtype=complex)
    return np.eye(v.shape[-1], dtype=complex) - 2.0 * pure_density(v)


def stage_iii(reflections, joints) -> np.ndarray:
    """Stage III's outcome probabilities |<b| U_psi_i |chi>|^2, shape (k, n, 4), for each
    state chi = joints[i, n] reaching nonce i's reflection; a state alone gives its row's
    bits in any stack, one matrix-vector product each.  Leading axes broadcast."""
    return np.abs(reflections[:, None] @ joints[..., None])[..., 0] ** 2


def share_state(nonce, s: str) -> np.ndarray:
    """Share state U_s |nonce>: the basis reflection flips one amplitude,
    in each state of a (..., 4) stack."""
    validate_secret(s)
    out = np.array(nonce, dtype=complex)
    # In-place negation keeps signed zeros, which a sign vector would not.
    # Indexing the transpose reaches a stack's last axis; the dict lookup
    # is cheaper than int(s, 2) in this once-per-round call.
    out.T[_SECRET_INDEX[s]] *= -1.0
    return out


def _hsu_original() -> NonceSet:
    # |x>|y> = (1, y, x, xy)/2 over the factors' phases, exact; + 0.0 makes -1j's real part +0.
    phases = np.array([1, -1, 1j, -1j]) + 0.0
    return NonceSet("hsu-I", [np.array([1, y, x, x * y]) / 2 for x in phases for y in phases])


def _proposed_j() -> NonceSet:
    states = (
        0.5 * np.array([1, 1, -1, 1], dtype=complex),
        0.5 * np.array([1, -1, 1, 1], dtype=complex),
        0.5 * np.array([1, 1j, -1j, -1], dtype=complex),
        0.5 * np.array([1, -1j, 1j, -1], dtype=complex),
    )
    return NonceSet(name="proposed-J", states=states)


def builtin_nonce_set(name: str) -> NonceSet:
    """Look up a builtin nonce set by name ('hsu-I' or 'proposed-J')."""
    if name == "hsu-I":
        return _hsu_original()
    if name == "proposed-J":
        return _proposed_j()
    raise KeyError(f"unknown builtin nonce set {name!r}; choices: {BUILTIN_NAMES}")


def nonce_set_from_json_dict(data: dict) -> NonceSet:
    if not isinstance(data, dict) or "name" not in data or "states" not in data:
        raise ValidationError('nonce-set JSON must have "name" and "states" keys')
    if not isinstance(data["states"], list):
        raise ValidationError(
            f'"states" must be a list of states, got {type(data["states"]).__name__}')
    if not isinstance(data["name"], str):
        raise ValidationError(f'"name" must be a string, got {type(data["name"]).__name__}')
    return NonceSet(name=data["name"], states=[
        complex_from_json(raw, (4,), f"state {i + 1}") for i, raw in enumerate(data["states"])])


def load_nonce_set(path) -> NonceSet:
    """Load a nonce set from a JSON file; see the module docstring for format."""
    return load_json(path, nonce_set_from_json_dict)


def resolve_nonce_source(source: str) -> NonceSet:
    """Resolve a ``--nonces`` value, 'builtin:<name>' or a file path, to a NonceSet."""
    if source.startswith("builtin:"):
        if (name := source.split(":", 1)[1]) not in BUILTIN_NAMES:
            raise ValidationError(f"--nonces {source}: unknown builtin nonce set; "
                                  f"choices: {', '.join(BUILTIN_NAMES)}")
        return builtin_nonce_set(name)
    return load_nonce_set(source)
