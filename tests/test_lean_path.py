"""The lean certify path, pinned against the eager forms it replaced.

``check_recoverability`` computes its overlaps and verdict up front and its
recovery probabilities only when they are read; read, they must equal the
eager einsum of ``oracles.eager_recovery`` byte for byte.
``detection_bounds`` steers both policies' plans in one pass: one
``max_overlap_unitary`` call and one ``stage_iii`` call.  A warm ``certify``
stays within a budget of Python calls.  ``NonceSet`` validates its states as
one stack when every row passes, with the bytes and the messages of the
row-by-row ``validate_state`` loop.
"""
import cProfile
import pstats

import numpy as np
import pytest

from qsslab import adversary, analysis
from qsslab.analysis import certify, check_recoverability, detection_bounds
from qsslab.errors import ValidationError
from qsslab.linalg import validate_state, validate_states
from qsslab.nonces import NonceSet, builtin_nonce_set
from oracles import eager_recovery, haar_state, phase_set, phase_states

QUANTUM = np.array([1, 0, 0, 1j], dtype=complex) / np.sqrt(2)
CALL_BUDGET = 180


def _sets() -> list:
    rng = np.random.default_rng(341)
    sets = [builtin_nonce_set("hsu-I"), builtin_nonce_set("proposed-J")]
    sets += [phase_set(rng.uniform(0.0, 2.0 * np.pi, size=(k, 4)), f"phase-{k}")
             for k in (1, 2, 5, 16, 64)]
    sets += [NonceSet(name=f"haar-{k}", states=tuple(haar_state(4, rng) for _ in range(k)))
             for k in (1, 3, 9, 32)]
    return sets


def _hex(rows) -> list:
    return [[p.hex() for p in row] for row in rows]


@pytest.mark.parametrize("ns", _sets(), ids=lambda ns: ns.name)
def test_lazy_recovery_equals_the_eager_formula(ns):
    rng = np.random.default_rng([342, len(ns)])
    for secrets in (None, ["01", QUANTUM, haar_state(4, rng), "11"], [QUANTUM]):
        report = check_recoverability(ns, secrets)
        want, worst = eager_recovery(ns, secrets)
        assert _hex(report.recovery_probabilities) == _hex(want), ns.name
        assert report.worst_recovery_deviation.hex() == worst.hex(), ns.name
        got = [p.recovery_probability.hex() for p in report.pairs]
        assert got == [p.hex() for row in want for p in row], ns.name


def test_recovery_is_computed_only_when_read(monkeypatch):
    ns = builtin_nonce_set("hsu-I")
    calls = []
    einsum = np.einsum
    monkeypatch.setattr(np, "einsum", lambda *a, **kw: calls.append(a[0]) or einsum(*a, **kw))
    report = check_recoverability(ns)
    report.passed, report.overlaps, report.worst_overlap_deviation
    certify(ns)
    assert calls == []
    report.recovery_probabilities, report.worst_recovery_deviation, report.pairs, report.pairs
    assert calls == ["ma,kab,mbk->mk"]


@pytest.mark.parametrize("ns", _sets()[:7], ids=lambda ns: ns.name)
def test_detection_bounds_steer_and_stage_once(monkeypatch, ns):
    counts = {"max_overlap_unitary": 0, "stage_iii": 0}

    def counted(owner, name):
        inner = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counted(adversary, "max_overlap_unitary")
    counted(analysis, "stage_iii")
    for prior in (0.0, 0.5, 1.0):
        detection_bounds(ns, prior)
    assert counts == {"max_overlap_unitary": 3, "stage_iii": 3}


def test_steered_columns_have_the_plan_bits():
    for ns in _sets()[:7]:
        policies = adversary.POLICIES
        steered, columns = adversary.steered_columns(ns, policies)
        assert steered.shape == (len(ns), 4 + len(policies) - 1, 4)
        for policy, column in zip(policies, columns):
            want = adversary.steer(*adversary.plan_arrays(ns, policy))
            assert steered[:, column].tobytes() == want.tobytes(), (ns.name, policy)


def _k64() -> NonceSet:
    phases = np.random.default_rng(64).uniform(0.0, 2.0 * np.pi, size=(64, 4))
    return NonceSet(name="seeded k=64 phase set", states=tuple(0.5 * np.exp(1j * phases)))


# Before 1.25, numpy dispatched its array functions through Python wrappers, which cProfile
# counts as calls of their own; the budget counts the package's work under C dispatch.
@pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "1.25.0",
                    reason="numpy < 1.25 adds Python-level dispatch calls")
@pytest.mark.parametrize("ns", [builtin_nonce_set("hsu-I"), builtin_nonce_set("proposed-J"),
                                _k64()], ids=lambda ns: ns.name)
def test_warm_certify_call_budget(ns):
    certify(ns)
    profile = cProfile.Profile()
    profile.runcall(certify, ns)
    assert pstats.Stats(profile).total_calls <= CALL_BUDGET


def _row_by_row(rows, dim: int) -> np.ndarray:
    return np.array([validate_state(v, dim=dim, what=f"nonce state {i + 1}")
                     for i, v in enumerate(rows)])


@pytest.mark.parametrize("dim", (2, 4))
def test_stacked_validation_keeps_the_row_bytes(dim):
    rng = np.random.default_rng([343, dim])
    rows = np.array([haar_state(dim, rng) for _ in range(2000)])
    # A drift of up to 1e-7 makes validate_state divide; none keeps the bytes.
    drifted = rows * (1.0 + rng.uniform(-1e-7, 1e-7, size=(2000, 1)))
    for stack in (rows, drifted, list(drifted), tuple(rows)):
        got = validate_states(stack, dim=dim, what="nonce state")
        assert got.tobytes() == _row_by_row(stack, dim).tobytes()
    assert not np.array_equal(validate_states(drifted, dim=dim, what="s"), drifted)


def test_stacked_sets_keep_the_row_bytes():
    for seed in range(40):
        rng = np.random.default_rng([344, seed])
        states = phase_states(rng.uniform(0.0, 2.0 * np.pi, size=(1 + seed, 4)))
        ns = NonceSet(name=f"phase-{seed}", states=tuple(states))
        assert ns.states.tobytes() == _row_by_row(states, 4).tobytes(), seed
    for name in ("hsu-I", "proposed-J"):
        ns = builtin_nonce_set(name)
        assert ns.states.tobytes() == _row_by_row(ns.states, 4).tobytes()


def _bad_stacks() -> dict:
    good = [0.5 * np.ones(4, dtype=complex)] * 3
    return {
        "unnormalized": good[:1] + [np.array([1, 1, 0, 0], dtype=complex)] + good[1:],
        "nan": good + [np.array([np.nan, 0, 0, 0])],
        "inf": good[:2] + [np.array([np.inf, 0, 0, 0])],
        "large": [np.array([2.0, 0, 0, 0])] + good,
        "short": good + [np.array([1.0, 0, 0])],
        "long": [np.ones(5) / np.sqrt(5)] + good,
        "off by 1e-5": good + [np.array([1 + 1e-5, 0, 0, 0])],
        "two bad rows": good[:1] + [np.array([0.9, 0, 0, 0]), np.array([np.nan, 0, 0, 0])],
        "nested": good + [np.array([[0.5, 0.5], [0.5, 0.5]])],
    }


@pytest.mark.parametrize("case", list(_bad_stacks()))
def test_bad_rows_keep_their_messages(case):
    rows = _bad_stacks()[case]
    try:
        want = _row_by_row(rows, 4)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as got:
            NonceSet(name=case, states=tuple(rows))
        assert str(got.value) == str(exc)
    else:
        # A 2x2 row flattens to four amplitudes row by row; the stack keeps that.
        assert NonceSet(name=case, states=tuple(rows)).states.tobytes() == want.tobytes()
