"""Regenerate the golden CLI session: ``python tests/golden/regen.py``.

The session is the README's command-line walk-through on both builtin
nonce sets: ``certify``, ``attack`` with both policies, ``simulate
--exact`` for every strategy, a 200-round ``simulate --transcripts`` run
per set, ``report`` over the results, and one refused command.  Then
``certify`` on the two committed sets in ``inputs/``: ``phase-8.json``,
eight 1/2 e^{i phi} nonces with phases drawn from ``default_rng(8)``, a
grid-path R(s) set; and ``near.json``, whose overlap deviation is above the
recoverability threshold, so it fails and exits 1.  Each command runs
in-process through ``qsslab.cli.main`` in a fresh directory holding copies
of the inputs, under ``SOURCE_DATE_EPOCH=1700000000`` and without
``QSSLAB_SEED``.

The output files go to ``session/``, the transcripts gzipped (with no
timestamp, so their bytes depend on the content and zlib alone);
``session.json`` holds each command's argv, exit code, stdout and stderr,
and the numpy version and CPU features that wrote them (numpy's loops and
its BLAS pick their kernels by both).  The set stays near 100 KB.
``tests/test_golden.py`` runs the same session and compares.  A change
that means to move output bits bumps ``cli.NUMERICS``, runs this script
and lists every changed file with its largest difference.
"""
from __future__ import annotations

import contextlib
import gzip
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SESSION_DIR = HERE / "session"
SESSION_FILE = HERE / "session.json"
INPUTS_DIR = HERE / "inputs"
EPOCH = "1700000000"

_BUILTINS = {"hsu": "hsu-I", "j": "proposed-J"}


def commands() -> list:
    """The session's command lines, paths relative to its directory."""
    argvs = []
    for tag, name in _BUILTINS.items():
        nonces = ["--nonces", f"builtin:{name}"]
        argvs.append(["certify", *nonces, "--out", f"cert-{tag}.json"])
        plans = {"secret": "target-secret", "01": "target-01"}
        for short, policy in plans.items():
            argvs.append(["attack", *nonces, "--policy", policy, "--out", f"plan-{tag}-{short}.json"])
        strategies = {"honest": "honest", "imr": "imr-guess", "imr2": "imr-guess:2",
                      **{f"ifr-{short}": f"ifr:plan-{tag}-{short}.json" for short in plans}}
        for short, strategy in strategies.items():
            argvs.append(["simulate", *nonces, "--strategy", strategy, "--exact",
                          "--out", f"exact-{tag}-{short}.json"])
        argvs.append(["simulate", *nonces, "--strategy", f"ifr:plan-{tag}-secret.json",
                      "--rounds", "200", "--seed", "42", "--out", f"mc-{tag}.json",
                      "--transcripts", f"rounds-{tag}.jsonl"])
    reports = [f"cert-{tag}.json" for tag in _BUILTINS] + [
        f"{kind}-{tag}{short}.json" for tag in _BUILTINS
        for kind, short in (("mc", ""), ("exact", "-imr2"), ("exact", "-ifr-01"))]
    argvs.append(["report", "--inputs", *reports, "--out", "summary"])
    argvs.append(["simulate", "--nonces", "builtin:nope", "--strategy", "honest", "--exact"])
    for name in ("phase-8", "near"):
        argvs.append(["certify", "--nonces", f"{name}.json", "--out", f"cert-{name}.json"])
    return argvs


def _inputs() -> list:
    return sorted(INPUTS_DIR.iterdir())


def read_golden(name: str) -> bytes:
    """The golden bytes of the session's file ``name``, an input or an output."""
    if (INPUTS_DIR / name).is_file():
        return (INPUTS_DIR / name).read_bytes()
    if name.endswith(".jsonl"):
        return gzip.decompress((SESSION_DIR / f"{name}.gz").read_bytes())
    return (SESSION_DIR / name).read_bytes()


def golden_names() -> list:
    """The names of the session's files, its inputs and what the commands wrote."""
    return sorted([p.name.removesuffix(".gz") for p in SESSION_DIR.iterdir()]
                  + [p.name for p in _inputs()])


def numpy_platform() -> dict:
    """The numpy version and the CPU features numpy detected."""
    import numpy as np
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return {"numpy": np.__version__, "cpu": sorted(k for k, on in __cpu_features__.items() if on)}


def run_session(workdir: Path) -> list:
    """Run every command in ``workdir``; one record per command."""
    from qsslab.cli import main

    saved_env = {k: os.environ.get(k) for k in ("SOURCE_DATE_EPOCH", "QSSLAB_SEED")}
    saved_cwd = os.getcwd()
    os.environ["SOURCE_DATE_EPOCH"] = EPOCH
    os.environ.pop("QSSLAB_SEED", None)
    for path in _inputs():
        shutil.copyfile(path, workdir / path.name)
    os.chdir(workdir)
    records = []
    try:
        for argv in commands():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse refuses a flag at parse time
                    code = exc.code
            records.append({"argv": argv, "exit": code, "stdout": out.getvalue(),
                            "stderr": err.getvalue()})
    finally:
        os.chdir(saved_cwd)
        for key, value in saved_env.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    return records


def main() -> None:
    sys.path.insert(0, str(HERE.parent.parent / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        records = run_session(Path(tmp))
        shutil.rmtree(SESSION_DIR, ignore_errors=True)
        SESSION_DIR.mkdir()
        inputs = {p.name for p in _inputs()}
        for path in sorted(Path(tmp).iterdir()):
            if path.name in inputs:
                continue
            if path.suffix == ".jsonl":
                with gzip.GzipFile(SESSION_DIR / f"{path.name}.gz", "wb", mtime=0) as fh:
                    fh.write(path.read_bytes())
            else:
                shutil.copyfile(path, SESSION_DIR / path.name)
    SESSION_FILE.write_text(json.dumps({**numpy_platform(), "commands": records},
                                       indent=2, sort_keys=True) + "\n", encoding="utf-8")
    size = SESSION_FILE.stat().st_size + sum(p.stat().st_size for p in SESSION_DIR.iterdir())
    print(f"wrote {len(records)} commands, {len(list(SESSION_DIR.iterdir()))} files, "
          f"{size / 1024:.1f} KiB")


if __name__ == "__main__":
    main()
