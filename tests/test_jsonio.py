import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qsslab.adversary import (POLICIES, AttackPlan, honest_strategy, ifr_strategy,
                              imr_guess_strategy, load_plan, synthesize_plan)
from qsslab.analysis import certify
from qsslab.errors import ValidationError
from qsslab.jsonio import complex_from_json, complex_to_json, read_json, write_json
from qsslab.nonces import NonceSet, builtin_nonce_set, load_nonce_set, nonce_set_from_json_dict
from qsslab.protocol import RoundConfig, run_rounds
from oracles import certification_json, phase_set, transcript_json


class TestReadWrite:
    def test_write_format(self, tmp_path):
        path = tmp_path / "out.json"
        write_json(path, {"b": [1, 2], "a": {"y": 1.5, "x": None}})
        assert path.read_text() == (
            '{\n  "a": {\n    "x": null,\n    "y": 1.5\n  },\n  "b": [\n    1,\n    2\n  ]\n}\n')

    def test_round_trip(self, tmp_path):
        path = tmp_path / "out.json"
        payload = {"kind": "x", "values": [0.1, -0.0, 3]}
        write_json(path, payload)
        assert read_json(path) == payload

    def test_bad_json_names_path_line_column(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"a": 1,\n  "b": oops}')
        with pytest.raises(ValidationError, match=r"broken\.json: invalid JSON at line 2, column 8"):
            read_json(path)

    def test_bad_utf8_names_path_line_column(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"a": 1,\n "caf\xe9": 2}')
        with pytest.raises(ValidationError, match=r"latin1\.json: not UTF-8 text at line 2, column 6"):
            read_json(path)

    def test_over_long_integer(self, tmp_path):
        path = tmp_path / "long.json"
        path.write_text("1" * 5000)
        with pytest.raises(ValidationError, match="long.json"):
            read_json(path)


class TestSerialisedFields:
    """``to_json_dict`` starts from the dataclass fields, so the file formats
    are pinned here field by field: a new field must not change them unseen."""

    def test_certification_body(self):
        phase_sets = [phase_set(np.random.default_rng([31, k]).uniform(0.0, 2.0 * np.pi, (k, 4)),
                                f"phase-{k}") for k in (1, 5, 12)]
        # Just off recoverable, so certify computes no detection bounds.
        near = NonceSet(name="near", states=([0.5000001, 0.5, 0.5, 0.5], [0.5, 0.5, -0.5, 0.5]))
        for ns in (builtin_nonce_set("hsu-I"), builtin_nonce_set("proposed-J"), *phase_sets, near):
            report = certify(ns)
            assert report.to_json_dict() == certification_json(report), ns.name
        assert report.detection_bounds is None

    def test_transcript_records(self, proposed_set):
        strategies = [honest_strategy(), imr_guess_strategy("uniform-random", proposed_set),
                      *(ifr_strategy(synthesize_plan(proposed_set, policy), proposed_set)
                        for policy in ("target-secret", "target-01"))]
        cfg = RoundConfig(nonce_set=proposed_set, rng_seed=5)
        for strategy in strategies:
            for t in run_rounds(cfg, strategy, 50):
                assert t.to_json_dict() == transcript_json(t), (strategy.name, t.round_index)


class TestComplexCodec:
    def test_bitwise_round_trip(self):
        rng = np.random.default_rng(4)
        arr = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
        arr[0, 0, 0] = complex(-0.0, -0.0)
        back = complex_from_json(json.loads(json.dumps(complex_to_json(arr))), arr.shape, "x")
        assert back.dtype == complex and back.shape == arr.shape
        assert back.tobytes() == arr.tobytes()

    def test_encoding(self):
        assert complex_to_json(np.array([1 + 2j, -0.5j])) == [[1.0, 2.0], [0.0, -0.5]]

    @pytest.mark.parametrize("raw", [
        [[1, 0]] * 3,                      # too few pairs
        [[1, 0, 0]] * 4,                   # not a pair
        [[1, 0]] * 3 + [["1", 0]],         # string
        [[1, 0]] * 3 + [[True, 0]],        # boolean
        [[1, 0]] * 3 + [[None, 0]],
        [[1, 0]] * 3 + [[float("nan"), 0]],
        [[1, 0]] * 3 + [[0, float("inf")]],
        [[1, 0]] * 3 + [[10 ** 400, 0]],   # finite in JSON, not as a float
        {"re": 1},
        [1, 0, 0, 0],
    ])
    def test_rejects(self, raw):
        with pytest.raises(ValidationError, match="^widget"):
            complex_from_json(raw, (4,), "widget")


# ---------------------------------------------------------------------------
# Fuzzing: the decoders and loaders raise ValidationError and nothing else.

_scalars = (st.none() | st.booleans() | st.integers() | st.text(max_size=4)
            | st.floats(allow_nan=True, allow_infinity=True))
_json = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)
_number = st.integers(-3, 3) | st.floats(allow_nan=True, allow_infinity=True)
_pair = st.lists(_number, min_size=2, max_size=2) | _json
# Valid values keep the later fields reachable.
_amps = st.just([[0.5, 0.0]] * 4) | st.lists(_pair, min_size=3, max_size=5) | _json
_matrix = (st.just([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]])
           | st.lists(st.lists(_pair, min_size=2, max_size=2), min_size=2, max_size=2) | _json)
_nonce_dicts = st.fixed_dictionaries({"name": _json, "states": st.lists(_amps, max_size=3) | _json}) | _json
_plan_dicts = st.fixed_dictionaries({
    "alpha": _amps,
    "policy": st.sampled_from(POLICIES) | _json,
    "v_table": st.dictionaries(st.sampled_from(["1,00", "2,11", "0,01", "x", "1,22"]) | st.text(max_size=4),
                               _matrix, max_size=3) | _json,
}) | _json
_file_bytes = st.binary(max_size=64) | _nonce_dicts.map(lambda v: json.dumps(v).encode()) \
    | _plan_dicts.map(lambda v: json.dumps(v).encode())

_fuzz = settings(max_examples=60, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])


def _only_validation_error(fn, *args):
    try:
        return fn(*args)
    except ValidationError:
        return None


@_fuzz
@given(raw=_amps | _matrix, shape=st.sampled_from([(4,), (2, 2), (0,), (1, 2, 2)]))
def test_fuzz_complex_from_json(raw, shape):
    arr = _only_validation_error(complex_from_json, raw, shape, "fuzz")
    if arr is not None:
        assert arr.shape == shape and np.all(np.isfinite(arr))


@_fuzz
@given(_nonce_dicts)
def test_fuzz_nonce_set_from_json_dict(data):
    _only_validation_error(nonce_set_from_json_dict, data)


@_fuzz
@given(_plan_dicts)
def test_fuzz_plan_from_json_dict(data):
    _only_validation_error(AttackPlan.from_json_dict, data)


@_fuzz
@given(_file_bytes)
def test_fuzz_loaders(tmp_path_factory, blob):
    path = tmp_path_factory.mktemp("fuzz") / "input.json"
    path.write_bytes(blob)
    _only_validation_error(load_nonce_set, path)
    _only_validation_error(load_plan, path)
