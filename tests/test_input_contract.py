"""The CLI's exit-code contract as properties of mutated input files.

Each example takes one valid input file (a nonce set for ``certify`` and
``attack``, an ``--alpha`` file, a plan file for ``simulate``, a report
file for ``report``), mutates its JSON tree or its bytes, and runs the
command in-process through ``cli.main``.  Whatever the mutation:

* the run exits 0, 1 or 2, never 3 and never by an exception;
* exits 1 and 2 write exactly one stderr line, naming the mutated file;
* exit 2 writes no output file;
* exit 0 writes output files that parse: plans load again and reports
  merge with ``report``.
"""
import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qsslab.adversary import load_plan
from qsslab.cli import main

_scalars = (st.none() | st.booleans() | st.integers(-3, 3) | st.integers()
            | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=6))
_values = st.recursive(_scalars, lambda kids: st.lists(kids, max_size=4)
                       | st.dictionaries(st.text(max_size=6), kids, max_size=3), max_leaves=8)

_contract = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                     suppress_health_check=[HealthCheck.too_slow])


@st.composite
def _mutated_tree(draw, value):
    """``value`` with one node replaced, dropped, duplicated, reversed or
    given an extra key.  Reversing a list often keeps a state normalized and
    a matrix unitary."""
    if isinstance(value, (dict, list)) and value and draw(st.integers(0, 4)):
        keys = sorted(value) if isinstance(value, dict) else range(len(value))
        key = draw(st.sampled_from(list(keys)))
        op = draw(st.sampled_from(["descend"] * 5 + ["drop", "duplicate", "reverse"]))
        out = dict(value) if isinstance(value, dict) else list(value)
        if op == "descend":
            out[key] = draw(_mutated_tree(out[key]))
        elif op == "drop":
            del out[key]
        elif isinstance(out, dict):
            out[draw(st.text(max_size=6))] = out[key]
        elif op == "duplicate":
            out.insert(key, out[key])
        else:
            out.reverse()
        return out
    return draw(_values)


def _number_paths(value, path=()):
    """The key paths of every nonzero number in a JSON tree."""
    if isinstance(value, (dict, list)):
        for key, child in (value.items() if isinstance(value, dict) else enumerate(value)):
            yield from _number_paths(child, path + (key,))
    elif isinstance(value, (int, float)) and not isinstance(value, bool) and value != 0:
        yield path


def _replaced(value, path, new):
    if not path:
        return new
    out = dict(value) if isinstance(value, dict) else list(value)
    out[path[0]] = _replaced(value[path[0]], path[1:], new)
    return out


@st.composite
def _rescaled(draw, value):
    """``value`` with one number rescaled.  Negating often keeps a state
    normalized and a matrix unitary; a factor 1 + 1e-7 keeps a nonce
    normalized within the loader's tolerance but makes the set not
    recoverable."""
    path = draw(st.sampled_from(list(_number_paths(value))))
    number = value
    for key in path:
        number = number[key]
    factor = draw(st.sampled_from([-1.0, 1.0 + 1e-7, 1.0 + 1e-7, 0.0, 1.0 + 1e-3, 1e300, math.nan]))
    return _replaced(value, path, number * factor)


@st.composite
def _mutated_bytes(draw, value):
    """The file bytes of a rescaled or mutated tree, or of the valid tree
    with bytes cut, overwritten or inserted."""
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return json.dumps(draw(_rescaled(value))).encode()
    if kind < 3:
        return json.dumps(draw(_mutated_tree(value))).encode()
    blob = json.dumps(value).encode()
    at = draw(st.integers(0, len(blob)))
    cut = draw(st.integers(0, 8))
    return blob[:at] + draw(st.binary(max_size=4)) + blob[at + cut:]


def _run(argv: list) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _parse_outputs(paths: list, scratch: Path) -> None:
    """Every written file parses; plans load and reports merge."""
    for path in paths:
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".json":
            payload = json.loads(text)
            if "v_table" in payload:
                load_plan(path)
            elif "kind" in payload:
                assert _run(["report", "--inputs", str(path), "--out", str(scratch / "merged")]) \
                    == (0, ""), path
        elif path.suffix == ".jsonl":
            assert text and all(json.loads(line) for line in text.splitlines())
        elif path.suffix == ".csv":
            assert list(csv.reader(io.StringIO(text)))
        else:
            assert text


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """One valid file of each kind, as parsed JSON."""
    root = tmp_path_factory.mktemp("valid")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("SOURCE_DATE_EPOCH", "1700000000")
        mp.delenv("QSSLAB_SEED", raising=False)
        steps = (["certify", "--nonces", "builtin:proposed-J", "--out", str(root / "cert.json")],
                 ["attack", "--nonces", "builtin:proposed-J", "--policy", "target-01",
                  "--out", str(root / "plan.json")],
                 ["simulate", "--nonces", "builtin:proposed-J", "--strategy",
                  f"ifr:{root / 'plan.json'}", "--rounds", "20", "--out", str(root / "sim.json")])
        for argv in steps:
            assert _run(argv)[0] == 0
    half = [0.5, 0.0]
    return {
        "nonces": {"name": "proposed", "states": [
            [half, half, [-0.5, 0.0], half], [half, [-0.5, 0.0], half, half],
            [half, [0.0, 0.5], [0.0, -0.5], [-0.5, 0.0]], [half, [0.0, -0.5], [0.0, 0.5], [-0.5, 0.0]],
        ]},
        "alpha": [[2 ** -0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [2 ** -0.5, 0.0]],
        **{name: json.loads((root / f"{name}.json").read_text()) for name in ("cert", "plan", "sim")},
    }


def _argv(target: str, mutated: str, inputs: dict, out: Path) -> list:
    """The command line reading the mutated file ``mutated``; its other
    inputs are the valid files in ``inputs``."""
    if target == "certify":
        return ["certify", "--nonces", mutated, "--out", str(out / "cert.json")]
    if target in ("attack", "alpha"):
        alpha = ["--alpha", mutated] if target == "alpha" else []
        return ["attack", "--nonces", "builtin:proposed-J" if alpha else mutated,
                "--policy", "target-secret", *alpha, "--out", str(out / "plan.json")]
    if target == "simulate":
        return ["simulate", "--nonces", "builtin:proposed-J", "--strategy", f"ifr:{mutated}",
                "--rounds", "20", "--seed", "3", "--transcripts", str(out / "rounds.jsonl"),
                "--out", str(out / "sim.json")]
    return ["report", "--inputs", mutated, inputs["sim"], "--out", str(out / "summary")]


# Each target: the valid input it mutates.
_TARGETS = {"certify": "nonces", "attack": "nonces", "alpha": "alpha", "simulate": "plan",
            "report": "cert"}


@_contract
@given(data=st.data())
@pytest.mark.parametrize("target", list(_TARGETS) + ["report-sim"])
def test_mutated_input_keeps_the_exit_contract(valid_inputs, target, data):
    base = valid_inputs["sim" if target == "report-sim" else _TARGETS[target]]
    blob = data.draw(_mutated_bytes(base), label="file bytes")
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setenv("SOURCE_DATE_EPOCH", "1700000000")
        mp.delenv("QSSLAB_SEED", raising=False)
        tmp = Path(tmp)
        inputs, out = tmp / "in", tmp / "out"
        inputs.mkdir()
        out.mkdir()
        mutated = inputs / "mutated.json"
        mutated.write_bytes(blob)
        (inputs / "sim.json").write_text(json.dumps(valid_inputs["sim"]), encoding="utf-8")
        argv = _argv(target.split("-")[0], str(mutated), {"sim": str(inputs / "sim.json")}, out)
        code, err = _run(argv)
        written = sorted(out.iterdir())
        assert code in (0, 1, 2), err
        if code == 0:
            _parse_outputs(written, tmp)
            return
        assert err.count("\n") == 1 and err.endswith("\n"), err
        assert str(mutated) in err, err
        if code == 2:
            assert written == [], (err, written)
