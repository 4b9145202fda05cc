"""The CLI's exit-code contract as properties of mutated inputs.

Each example of the file half takes one valid input file (a nonce set for
``certify`` and ``attack``, an ``--alpha`` file, a plan file for
``simulate``, a report file for ``report``), mutates its JSON tree or its
bytes, and runs the command in-process through ``cli.main``.  The flag half
mutates one flag value or one environment variable of a valid command
line instead.  Whatever the mutation:

* the run exits 0, 1 or 2, never 3 and never by an exception;
* exits 1 and 2 write exactly one stderr line, naming the mutated file,
  flag or variable (argparse writes its usage lines before that line);
* exit 2 writes no output file;
* exit 0 writes output files that parse: plans load again and reports
  merge with ``report``.

A plan key spelled any other way than ``<nonce>,<secret>`` with a 1-based
index and no leading zero, or naming a nonce beyond the plan, never loads.
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

from qsslab.adversary import POLICIES, load_plan
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


def _parse_outputs(paths: list, scratch: Path, lines=None) -> None:
    """Every written file parses; plans load and reports merge.  The file at
    ``lines``, and any ``.jsonl`` file, holds JSON lines."""
    for path in paths:
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".jsonl" or path == lines:
            assert text and all(json.loads(line) for line in text.splitlines())
        elif path.suffix == ".json":
            payload = json.loads(text)
            if "v_table" in payload:
                load_plan(path)
            elif "kind" in payload:
                assert _run(["report", "--inputs", str(path), "--out", str(scratch / "merged")]) \
                    == (0, ""), path
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


# ---------------------------------------------------------------------------
# The flag half.  Values are drawn as written on a command line: "{name}"
# stands for a path made per example (see ``_paths``).  Drawn text holds
# neither NUL nor lone surrogates, which argv and the environment cannot carry.

_chars = st.characters(exclude_categories=["Cs"], exclude_characters="\x00")
_text = st.text(_chars, max_size=4)
_numbers = ["0", "1", "3", "-1", "+3", "03", "\u0663", "\uff13", "2_0", " 5", "2.5", "1e3",
            "0x10", "nan", "inf", "-inf", "1e-400", "99999999999999999999", ""]
_inputs = ["", "{tmp}", "{missing}", "{nonces}", "{near}", "{cert}", "{plan}"]
_outputs = st.sampled_from(["", ".", "{tmp}", "{missing}/x.json", "x.json"]) | _text

_FLAGS = {
    # A valid count runs that many rounds, so drawn text stays below 100.
    "--rounds": st.sampled_from([n for n in _numbers if len(n) < 4])
    | st.text(_chars, max_size=2),
    "--seed": st.sampled_from(_numbers) | _text,
    "--mode-prior": st.sampled_from(_numbers + ["0.3", "\u0660.\u0665", "-0", "1.0000001"]) | _text,
    "--policy": st.sampled_from([*POLICIES, "target", "TARGET-01", "target-01 "]) | _text,
    "--strategy": st.sampled_from(["honest", "imr-guess", "imr-guess:", "ifr", "ifr:", "Honest"])
    | (st.sampled_from(_numbers) | _text).map("imr-guess:{}".format)
    | st.sampled_from(_inputs).map("ifr:{}".format) | _text,
    "--nonces": st.sampled_from(["builtin:hsu-I", "builtin:proposed-J", "builtin:", "builtin:nope",
                                 "Builtin:hsu-I", *_inputs]) | _text,
    "--out": _outputs,
    "--transcripts": _outputs,
    "QSSLAB_SEED": st.sampled_from(_numbers) | _text,
    "SOURCE_DATE_EPOCH": st.sampled_from(_numbers) | _text,
}

_SIMULATE = ["simulate", "--nonces", "builtin:proposed-J", "--strategy", "ifr:{plan}",
             "--rounds", "10", "--mode-prior", "0.5",
             "--transcripts", "rounds.jsonl", "--out", "sim.json"]
_CERTIFY = ["certify", "--nonces", "builtin:proposed-J", "--out", "cert.json"]
_ATTACK = ["attack", "--nonces", "builtin:proposed-J", "--policy", "target-01",
           "--out", "plan.json"]
# The command lines each flag or variable is mutated in; without --seed,
# simulate takes its seed from QSSLAB_SEED.
_SEEDED = [*_SIMULATE, "--seed", "3"]
_COMMANDS = {
    **dict.fromkeys(["--rounds", "--seed", "--mode-prior", "--strategy", "--transcripts"],
                    [_SEEDED]),
    "--policy": [_ATTACK],
    **dict.fromkeys(["--nonces", "--out"], [_CERTIFY, _ATTACK, _SEEDED]),
    **dict.fromkeys(["QSSLAB_SEED", "SOURCE_DATE_EPOCH"], [_CERTIFY, _SIMULATE]),
}


def _paths(tmp: Path, valid_inputs: dict) -> dict:
    """The paths a drawn value may name, by placeholder: valid input files, a
    directory and a path in a directory that does not exist."""
    near = {"name": "near", "states": [[[0.5000001, 0.0], [0.5, 0.0], [0.5, 0.0], [0.5, 0.0]],
                                       [[0.5, 0.0], [0.5, 0.0], [-0.5, 0.0], [0.5, 0.0]]]}
    paths = {"tmp": tmp, "missing": tmp / "missing", "near": tmp / "in" / "near.json"}
    paths["near"].write_text(json.dumps(near), encoding="utf-8")
    for name in ("nonces", "cert", "plan"):
        paths[name] = tmp / "in" / f"{name}.json"
        paths[name].write_text(json.dumps(valid_inputs[name]), encoding="utf-8")
    return {f"{{{name}}}": str(path) for name, path in paths.items()}


def _filled(arg: str, paths: dict) -> str:
    """``arg`` with each placeholder of ``paths`` replaced by its path."""
    for placeholder, path in paths.items():
        arg = arg.replace(placeholder, path)
    return arg


def _names(line: str, surface: str, value: str) -> bool:
    """Whether a message line names the flag or variable, or the value given,
    or the part of a ``builtin:``, ``imr-guess:`` or ``ifr:`` value after its
    colon, as written or quoted."""
    tail = value.partition(":")[2]
    return any(name in line for name in (surface, value, tail, repr(value), repr(tail)) if name)


@settings(_contract, max_examples=40)
@given(data=st.data())
@pytest.mark.parametrize("surface", list(_FLAGS))
def test_mutated_flag_keeps_the_exit_contract(valid_inputs, surface, data):
    template = data.draw(st.sampled_from(_COMMANDS[surface]), label="command")
    raw = data.draw(_FLAGS[surface], label="value")
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        tmp = Path(tmp)
        (tmp / "in").mkdir()
        (tmp / "out").mkdir()
        paths = _paths(tmp, valid_inputs)
        value = _filled(raw, paths)
        argv = [_filled(arg, paths) for arg in template]
        mp.chdir(tmp / "out")
        mp.setenv("SOURCE_DATE_EPOCH", "1700000000")
        mp.delenv("QSSLAB_SEED", raising=False)
        if surface.startswith("-"):
            argv[argv.index(surface) + 1] = value
        else:
            mp.setenv(surface, value)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects a flag value at parse time
                code = exc.code
        err = err.getvalue()
        written = sorted(p for p in tmp.rglob("*") if p.is_file() and p.parent != tmp / "in")
        assert code in (0, 1, 2), err
        if code == 0:
            lines = argv[argv.index("--transcripts") + 1] if "--transcripts" in argv else None
            _parse_outputs(written, tmp, lines and tmp / "out" / lines)
            return
        *usage, line = err.splitlines() or [""]
        assert err.endswith("\n") and all(u.startswith(("usage: ", " ")) for u in usage), err
        assert _names(line, surface, value), err
        if code == 2:
            assert written == [], (err, written)


_KEY_SPELLINGS = st.one_of(
    st.integers(1, 3).map(lambda zeros: "0" * zeros),                 # leading zeros
    st.sampled_from(["+", "-", " "]),                                   # a sign or a space
    st.sampled_from(["0", "5", "17", "99999999999999999999"]).map(lambda i: "=" + i),
    st.sampled_from(["\u0660", "\u0966", "\uff10"]).map(lambda zero: "~" + zero),
)


def _respelled(key: str, how: str) -> str:
    """``key`` with its nonce index respelled: ``=i`` names index i instead,
    ``~z`` writes the index in the digits that start at z, anything else is
    a prefix."""
    index, _, secret = key.partition(",")
    if how.startswith("="):
        index = how[1:]
    elif how.startswith("~"):
        index = "".join(chr(ord(how[1]) + int(d)) for d in index)
    else:
        index = how + index
    return f"{index},{secret}"


@_contract
@given(key=st.sampled_from([f"{i},{s}" for i in range(1, 5) for s in ("00", "01", "10", "11")]),
       how=_KEY_SPELLINGS, keep=st.booleans())
def test_respelled_plan_key_never_loads(valid_inputs, key, how, keep):
    """A plan whose table has one key respelled, in place of the key or beside
    it, exits 2 naming the plan file and writes nothing."""
    plan = dict(valid_inputs["plan"], v_table=dict(valid_inputs["plan"]["v_table"]))
    new_key = _respelled(key, how)
    plan["v_table"][new_key] = plan["v_table"][key] if keep else plan["v_table"].pop(key)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path = tmp / "respelled.json"
        path.write_text(json.dumps(plan), encoding="utf-8")
        code, err = _run(["simulate", "--nonces", "builtin:proposed-J", "--strategy", f"ifr:{path}",
                          "--rounds", "5", "--transcripts", str(tmp / "rounds.jsonl")])
        assert (code, err.count("\n")) == (2, 1) and str(path) in err, (new_key, err)
        assert not (tmp / "rounds.jsonl").exists()


@pytest.mark.parametrize("argv, beside", [
    (["certify", "--nonces", "builtin:proposed-J", "--out", "x.json"], "x.txt"),
    (["report", "--inputs", "--out", "s"], "s.csv"),
])
def test_directory_beside_the_output_writes_nothing(tmp_path, monkeypatch, argv, beside):
    """A command that writes a second file beside ``--out`` checks it before
    any work: a directory there exits 2 naming it, and no file is left."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / beside).mkdir()
    code, err = _run(argv)
    assert (code, err.count("\n")) == (2, 1) and beside in err, err
    assert [p.name for p in tmp_path.iterdir()] == [beside]


def test_unknown_builtin_names_the_flag_and_value():
    code, err = _run(["simulate", "--nonces", "builtin:nope", "--strategy", "honest", "--exact"])
    assert code == 2
    assert err == "error: --nonces builtin:nope: unknown builtin nonce set; choices: hsu-I, proposed-J\n"
