"""Self-test of the benchmark at a tiny size.

Run from the repository root (takes about two minutes):

    python3 benchmarks/selftest.py

It checks that every workload, untraced and traced, emits every metric of
``BENCHMARK.json`` with its unit and every end-to-end metric the workloads
define; that every per-layer metric has a "should move / unchanged on"
entry in ``layers.json``; that a strategy double which corrupts the
forwarded state is reported as a failed operation and contributes no
timing; and that the benchmark refuses to run, printing no result, where
the program's sources are missing.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
DETAIL = {
    "mc-mix": ("mc_rounds_per_s", "mc_estimate_s_p50", "mc_estimate_s_tail"),
    "certify-sweep": ("certify_s_p50", "certify_s_tail", "fast_path_share", "grid_path_share"),
    "cli-pipeline": ("cli_pipeline_s",),
}
COMMON = ("setup_s", "peak_rss_mb", "error_rate", "op_s_p50", "work_per_s", "op_cal_p50", "work_per_cal",
          "calibration_s")

failures: list[str] = []


def expect(cond, message: str) -> None:
    if not cond:
        failures.append(message)
        print(f"FAIL {message}", flush=True)


def run_bench(workload: str, trace: int) -> None:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    where = f"{workload} trace={trace}"
    expect(proc.returncode == 0, f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
    if proc.returncode != 0:
        return
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(set(last) == {"correct", "attempted", "failed", "metrics"}, f"{where}: result keys {set(last)}")
    expect(last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1,
           f"{where}: correct={last['correct']} failed={last['failed']}")
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    expect(set(last["metrics"]) == {m["name"] for m in wanted}, f"{where}: metric names differ from BENCHMARK.json")
    for m in wanted:
        got = last["metrics"].get(m["name"], {})
        expect(got.get("unit") == m["unit"], f"{where}: {m['name']} unit {got.get('unit')} != {m['unit']}")
        expect(isinstance(got.get("value"), (int, float)) and math.isfinite(got["value"]),
               f"{where}: {m['name']} value {got.get('value')!r}")
    detail = json.loads((ROOT / ".bench_out" / f"result-{workload}-seed7-trace{trace}.json").read_text())
    for name in COMMON + DETAIL[workload]:
        m = detail["e2e"].get(name)
        expect(m is not None and m.get("unit") and "samples" in m, f"{where}: detail metric {name} missing")
    if trace:
        for name, m in detail["per_layer"].items():
            expect(m["unit"] == "count" or m["samples"] > 0, f"{where}: {name} never measured")


def corrupting_double_check() -> None:
    """Strategy doubles that flip Bob's qubit while claiming the exact
    behaviour of the strategy they replace, or break normalisation, must
    yield failed operations that contribute no timing."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import numpy as np
    import workloads as W
    from qsslab.adversary import HonestStrategy

    class FlipBob(HonestStrategy):
        name = "corrupt-flip"

        def intercept(self, share, rng):
            return np.asarray(share)[[1, 0, 3, 2]]

    class Unnormalised(HonestStrategy):
        name = "corrupt-scale"

        def intercept(self, share, rng):
            return 2.0 * np.asarray(share)

    run_dir = ROOT / ".bench_out" / "selftest-double"
    run_dir.mkdir(parents=True, exist_ok=True)
    wl = W.McMix(ROOT, 7, W.TINY, run_dir)
    wl.setup()
    wl.strats[("hsu-I", "honest")] = FlipBob()             # exact 0: caught per call
    wl.strats[("proposed-J", "honest")] = Unnormalised()   # raises ProtocolError
    wl.strats[("proposed-J", "imr-guess")] = FlipBob()     # caught by the pooled z-check
    ops = W.run_loop(wl, 1.0)
    cycles = len({o.cycle for o in ops})
    summary = W.summarize(wl, ops, 0.0)
    reasons = {}
    for o in ops:
        if not o.ok:
            reasons.setdefault(o.label, set()).update(o.failures)
    expect(set(reasons) == {"hsu-I/honest", "proposed-J/honest", "proposed-J/imr-guess"},
           f"failed ops {sorted(reasons)}")
    for label, needle in (("hsu-I/honest", "where exact is 0"), ("proposed-J/honest", "ProtocolError"),
                          ("proposed-J/imr-guess", "pooled")):
        expect(any(needle in r for r in reasons.get(label, ())), f"{label}: no failure mentioning {needle!r}")
    bad = 3 * cycles
    expect(summary["failed"] == bad and summary["attempted"] == len(ops),
           f"summary: {summary['failed']} of {summary['attempted']} failed, expected {bad}")
    expect(summary["e2e"]["mc_estimate_s_p50"]["samples"] == len(ops) - bad,
           "failed operations contributed timings")
    expect(summary["e2e"]["op_s_p50"]["samples"] == 0, "a mix pass with a failed call was timed")
    shutil.rmtree(run_dir, ignore_errors=True)


def layer_map_check() -> None:
    layers = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))["per_layer"]
    names = {m["name"] for m in SPEC["per_layer"]}
    expect(names == set(layers), f"layers.json differs from BENCHMARK.json: {sorted(names ^ set(layers))}")


def missing_sources_check() -> None:
    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "mc-mix", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True,
                          timeout=170)
    expect(proc.returncode != 0, "benchmark ran without the program's sources")
    expect('"correct"' not in proc.stdout, "benchmark printed a result without the program's sources")
    shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    layer_map_check()
    missing_sources_check()
    corrupting_double_check()
    for workload in DETAIL:
        for trace in (0, 1):
            run_bench(workload, trace)
    print("selftest: " + ("FAILED" if failures else "all checks passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
