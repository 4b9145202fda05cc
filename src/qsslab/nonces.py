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

A ``NonceSet`` keeps its states as a read-only (k, 4) array and builds its
reflections, share states, Bob's reduced shares and recovery probabilities
once, with the set.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .jsonio import complex_from_json, complex_to_json, load_json
from .linalg import partial_trace_E, pure_density, tensor, validate_state

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
    a read-only (k, 4) array; the reflections U_psi (k, 4, 4), the share
    stack, Bob's reduced shares and the recovery probabilities are built
    with it, read-only too.  ``copy`` and ``pickle`` keep the arrays as
    they are, read-only, without validating again.
    """

    name: str
    states: np.ndarray = field(repr=False)
    reflections: np.ndarray = field(init=False, repr=False)
    _shares: np.ndarray = field(init=False, repr=False)
    _reduced: np.ndarray = field(init=False, repr=False)
    _recovery: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.states) < 1:
            raise ValidationError("a nonce set needs at least one state")
        states = np.array([
            validate_state(v, dim=4, what=f"nonce state {i + 1}")
            for i, v in enumerate(self.states)
        ])
        shares = np.stack([share_state(states, s) for s in SECRETS], axis=1)
        reflections = reflection(states)
        # One matrix-vector product per (nonce, secret), so each secret's
        # slice equals a (k, 4, 4) @ (k, 4, 1) product bit for bit.
        recovery = np.abs(reflections[:, None] @ shares[..., None])[..., 0] ** 2
        set_frozen(self, states=states, reflections=reflections, _shares=shares,
                   _reduced=partial_trace_E(pure_density(shares)), _recovery=recovery)

    def __setstate__(self, state):
        # Copies and unpickled sets keep the validated arrays bit for bit.
        set_frozen(self, **state)

    def __len__(self) -> int:
        return len(self.states)

    def share_stack(self) -> np.ndarray:
        """Every share state at once: ``[i, n]`` is U_s|psi_i> for s = SECRETS[n].

        Shape (k, 4, 4), read-only, built with the set.
        """
        return self._shares

    def reduced_share_stack(self) -> np.ndarray:
        """Bob's reduced share states: ``[i, n]`` is U_s|psi_i><psi_i|U_s
        with Eve's qubit traced out, for s = SECRETS[n].

        Shape (k, 4, 2, 2), read-only, built with the set.
        """
        return self._reduced

    def recovery_stack(self) -> np.ndarray:
        """Recovery probabilities: ``[i, n, b]`` is |<b| U_psi_i U_s |psi_i>|^2
        for s = SECRETS[n] and outcome b = SECRETS[b].

        Shape (k, 4, 4), read-only, built with the set.
        """
        return self._recovery

    def to_json_dict(self) -> dict:
        return {"name": self.name, "states": complex_to_json(self.states)}


def reflection(about) -> np.ndarray:
    """Grover reflection I - 2|v><v| about a normalized state.

    Hermitian, involutory, determinant -1: it negates |v> and fixes the
    orthogonal complement.  A stack of states gives a stack of reflections.
    """
    v = np.asarray(about, dtype=complex)
    return np.eye(v.shape[-1], dtype=complex) - 2.0 * pure_density(v)


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
    order = (PLUS, MINUS, PLUS_I, MINUS_I)
    states = tuple(tensor(x, y) for x in order for y in order)
    return NonceSet(name="hsu-I", states=states)


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
    states = tuple(
        validate_state(complex_from_json(raw, (4,), f"state {i + 1}"), dim=4,
                       what=f"state {i + 1}")
        for i, raw in enumerate(data["states"])
    )
    return NonceSet(name=data["name"], states=states)


def load_nonce_set(path) -> NonceSet:
    """Load a nonce set from a JSON file; see the module docstring for format."""
    return load_json(path, nonce_set_from_json_dict)


def resolve_nonce_source(source: str) -> NonceSet:
    """Resolve 'builtin:<name>' or a file path to a NonceSet."""
    if source.startswith("builtin:"):
        name = source.split(":", 1)[1]
        try:
            return builtin_nonce_set(name)
        except KeyError as exc:
            raise ValidationError(str(exc)) from exc
    return load_nonce_set(source)
