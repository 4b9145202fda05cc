"""The golden CLI session (``tests/golden/regen.py``) run again in-process.

Exit codes, stderr lines, strings, integers and booleans must be equal and
floats within 1e-12.  A number printed in text is compared at the precision
it is printed with: values 1e-12 apart can round to neighbouring last
digits.  With the numpy version and CPU features that wrote the goldens,
every output file and stream must also be identical byte for byte; with
others that check is skipped, since numpy's loops and its BLAS pick their
kernels by both and may round differently.
"""
import csv
import json
import re

import pytest

from golden.regen import SESSION_FILE, golden_names, numpy_platform, read_golden, run_session

TOL = 1e-12
RECORDED = json.loads(SESSION_FILE.read_text(encoding="utf-8"))
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("session")
    records = run_session(workdir)
    return records, {p.name: p.read_bytes() for p in workdir.iterdir()}


def _unit(token: str) -> float:
    """One unit of the last digit a number token prints; 0 for an integer."""
    if not re.search(r"[.eE]", token):
        return 0.0
    mantissa, _, exponent = token.lower().partition("e")
    return 10.0 ** (int(exponent or 0) - len(mantissa.partition(".")[2]))


def _printed_close(got: str, want: str) -> bool:
    """Whether two printed numbers can print floats within TOL: each lies
    within half a unit of its last digit of the float it prints.  Two
    integer tokens must be equal; beside a float token an integer token is
    exact, as ``%g`` prints 0.0 as ``0``."""
    if got == want:
        return True
    if not re.search(r"[.eE]", got + want):
        return False
    return abs(float(got) - float(want)) <= TOL + 0.5 * (_unit(got) + _unit(want))


def _text_diffs(got: str, want: str) -> list:
    if _NUMBER.split(got) != _NUMBER.split(want):
        return ["text outside the numbers differs"]
    return [f"{g} != {w}" for g, w in zip(_NUMBER.findall(got), _NUMBER.findall(want))
            if not _printed_close(g, w)]


def _json_diffs(got, want, path="$") -> list:
    if type(got) is not type(want):
        return [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, dict):
        if sorted(got) != sorted(want):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [d for key in want for d in _json_diffs(got[key], want[key], f"{path}.{key}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [d for i, (g, w) in enumerate(zip(got, want)) for d in _json_diffs(g, w, f"{path}[{i}]")]
    if isinstance(want, float) and abs(got - want) <= TOL:
        return []
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def _cell(text: str):
    """A CSV cell as the number it spells, else as the string."""
    try:
        value = json.loads(text)
    except ValueError:
        return text
    return value if isinstance(value, (int, float)) and not isinstance(value, bool) else text


def _file_diffs(name: str, got: bytes, want: bytes) -> list:
    got, want = got.decode("utf-8"), want.decode("utf-8")
    if name.endswith(".json"):
        return _json_diffs(json.loads(got), json.loads(want))
    if name.endswith(".jsonl"):
        return _json_diffs([json.loads(line) for line in got.splitlines()],
                           [json.loads(line) for line in want.splitlines()])
    if name.endswith(".csv"):
        return _json_diffs([[_cell(c) for c in row] for row in csv.reader(got.splitlines())],
                           [[_cell(c) for c in row] for row in csv.reader(want.splitlines())])
    return _text_diffs(got, want)


def test_session_matches_the_goldens(session):
    records, files = session
    assert [r["argv"] for r in records] == [r["argv"] for r in RECORDED["commands"]]
    for got, want in zip(records, RECORDED["commands"]):
        where = " ".join(want["argv"])
        assert (got["exit"], got["stderr"]) == (want["exit"], want["stderr"]), where
        assert not _text_diffs(got["stdout"], want["stdout"]), where
    assert sorted(files) == golden_names()
    for name, blob in sorted(files.items()):
        diffs = _file_diffs(name, blob, read_golden(name))
        assert not diffs, f"{name}: {len(diffs)} differences, first {diffs[:3]}"


def test_session_is_byte_identical_to_the_goldens(session):
    here = numpy_platform()
    if here != {key: RECORDED[key] for key in here}:
        differ = sorted(set(here["cpu"]) ^ set(RECORDED["cpu"])) or "none"
        pytest.skip(f"goldens were written with numpy {RECORDED['numpy']}, this is numpy "
                    f"{here['numpy']}, and these CPU features differ: {differ}; the "
                    "tolerance test above covers it")
    records, files = session
    assert records == RECORDED["commands"]
    for name, blob in sorted(files.items()):
        assert blob == read_golden(name), name


@pytest.mark.parametrize("got, want, close", [
    ("0.500000000001", "0.500000000000", True),   # one unit of the 12th decimal
    ("0.500000000011", "0.500000000000", False),
    ("1.111e-16", "0.000e+00", True),
    ("0.5", "0.499999", True),                     # %.6g rounds 0.49999999 up
    ("2", "3", False),                             # integers are equal or not
    ("2.88889e-34", "0", True),                    # %g of 0.0 and of 2.9e-34
    ("1e-10", "0", False),
    ("01", "01", True),
])
def test_printed_numbers_compare_at_their_precision(got, want, close):
    assert _printed_close(got, want) is close
