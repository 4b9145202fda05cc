"""A run never writes over its own files.

An output path that names an input file, or another output, exits 2 before
any work, with a message naming both flags and the path: the directory is
left exactly as it was.  Paths are compared after ``os.path.realpath``, so
another spelling or a symlink is caught too.  Inputs are never compared
with each other: ``report`` merges a file given twice.
"""
import json

import pytest

from qsslab.cli import main
from qsslab.jsonio import complex_to_json
from qsslab.nonces import builtin_nonce_set


@pytest.fixture(autouse=True)
def fixed_epoch(monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    monkeypatch.delenv("QSSLAB_SEED", raising=False)


def _files(tmp_path) -> dict:
    return {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}


def _inputs(tmp_path) -> None:
    nonces = json.dumps(builtin_nonce_set("proposed-J").to_json_dict())
    (tmp_path / "n.json").write_text(nonces)
    (tmp_path / "n.txt").write_text(nonces)
    (tmp_path / "a.json").write_text(json.dumps(complex_to_json([0.5, 0.5, 0.5, 0.5])))
    assert main(["attack", "--nonces", "builtin:proposed-J", "--policy", "target-secret",
                 "--out", str(tmp_path / "p.json")]) == 0
    assert main(["certify", "--nonces", "builtin:hsu-I", "--out", str(tmp_path / "c.json")]) == 0
    (tmp_path / "sub").mkdir()
    (tmp_path / "link.json").symlink_to(tmp_path / "n.json")


CASES = [
    (["certify", "--nonces", "{d}/n.json", "--out", "{d}/n.json"],
     "--out would overwrite --nonces: both name {d}/n.json"),
    (["certify", "--nonces", "{d}/n.txt", "--out", "{d}/n.json"],
     "--out's .txt would overwrite --nonces: both name {d}/n.txt"),
    (["certify", "--nonces", "{d}/n.json", "--out", "{d}/link.json"],
     "--out would overwrite --nonces: both name {d}/link.json"),
    (["attack", "--nonces", "builtin:proposed-J", "--policy", "target-01", "--alpha", "{d}/a.json",
      "--out", "{d}/sub/../a.json"],
     "--out would overwrite --alpha: both name {d}/sub/../a.json"),
    (["attack", "--nonces", "{d}/n.json", "--policy", "target-01", "--out", "{d}/n.json"],
     "--out would overwrite --nonces: both name {d}/n.json"),
    (["simulate", "--nonces", "builtin:proposed-J", "--strategy", "honest", "--rounds", "5",
      "--out", "{d}/s.json", "--transcripts", "{d}/s.json"],
     "--transcripts would overwrite --out: both name {d}/s.json"),
    (["simulate", "--nonces", "builtin:proposed-J", "--strategy", "ifr:{d}/p.json",
      "--rounds", "5", "--out", "{d}/p.json"],
     "--out would overwrite --strategy: both name {d}/p.json"),
    (["simulate", "--nonces", "{d}/n.json", "--strategy", "honest", "--rounds", "5",
      "--transcripts", "{d}/n.json"],
     "--transcripts would overwrite --nonces: both name {d}/n.json"),
    (["report", "--inputs", "{d}/c.json", "{d}/c.json", "--out", "{d}/c"],
     "--out's .json would overwrite --inputs: both name {d}/c.json"),
]


@pytest.mark.parametrize("argv,message", CASES,
                         ids=[f"{argv[0]}: {message.split(':')[0]}" for argv, message in CASES])
def test_overwrite_refused_before_any_work(tmp_path, capsys, argv, message):
    _inputs(tmp_path)
    before = _files(tmp_path)
    capsys.readouterr()
    assert main([a.replace("{d}", str(tmp_path)) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message.replace('{d}', str(tmp_path))}\n"
    assert captured.out == ""
    assert _files(tmp_path) == before


def test_distinct_paths_and_repeated_inputs_still_run(tmp_path, monkeypatch):
    _inputs(tmp_path)
    c = str(tmp_path / "c.json")
    assert main(["report", "--inputs", c, c, "--out", str(tmp_path / "merged")]) == 0
    assert len(json.loads((tmp_path / "merged.json").read_text())["rows"]) == 1
    assert main(["simulate", "--nonces", str(tmp_path / "n.json"), "--strategy",
                 f"ifr:{tmp_path / 'p.json'}", "--rounds", "5", "--out", str(tmp_path / "s.json"),
                 "--transcripts", str(tmp_path / "s.jsonl")]) == 0
    # A builtin source is no file, so an output may carry its spelling.
    monkeypatch.chdir(tmp_path)
    assert main(["certify", "--nonces", "builtin:proposed-J", "--out", "builtin:proposed-J"]) == 0
    assert (tmp_path / "builtin:proposed-J").is_file()
