"""qsslab benchmark: one command for every workload and metric.

Run from the repository root:

    python3 benchmarks/run.py --workload mc-mix --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all            # every workload in turn

Workloads are ``mc-mix``, ``certify-sweep`` and ``cli-pipeline`` (see
``workloads.py`` for what each drives and why).  Each runs in a fresh
process with BLAS/OpenMP pinned to one thread.  With ``--trace 0`` the
end-to-end metrics come from an untraced run and set-up time is the median
of three fresh set-ups; with ``--trace 1`` the per-layer metrics come from
a traced run, with the tracing overhead.  The names of the metrics to emit
come from ``BENCHMARK.json``.

Human-readable lines name every metric with its unit and sample count;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit codes: 0 all checks
passed, 1 a correctness check failed, 2 the program or its inputs are
missing, 3 a worker process failed.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
WORKLOADS = ("mc-mix", "certify-sweep", "cli-pipeline")
SETUP_REPEATS = 3
# Every run, with its set-ups, must end well inside three minutes.
RUN_BUDGET_S = 170.0
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")}


class WorkerError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_worker(workload: str, seed: int, seconds: float, trace: int, size: str,
               out: Path, deadline: float, setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--size", size, "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    out.unlink(missing_ok=True)
    # Its own process group, so a timeout also stops the CLI processes it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=max(deadline - monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerError(f"{workload} worker exceeded the run budget") from exc
    if proc.returncode != 0 or not out.is_file():
        raise WorkerError(f"{workload} worker exited {proc.returncode}: {stderr.strip()[-2000:]}")
    return json.loads(out.read_text(encoding="utf-8"))


def run_workload(workload: str, seed: int, seconds: float, trace: int, size: str,
                 deadline: float) -> dict:
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"result-{workload}-seed{seed}-trace{trace}.json"
    if trace:
        return run_worker(workload, seed, seconds, 1, size, out, deadline)
    setups = [run_worker(workload, seed, seconds, 0, size, out, deadline, setup_only=True)["setup_s"]
              for _ in range(SETUP_REPEATS - 1)]
    result = run_worker(workload, seed, seconds, 0, size, out, deadline)
    setups.append(result["e2e"]["setup_s"]["value"])
    result["e2e"]["setup_s"].update(value=statistics.median(setups), samples=len(setups),
                                    note="median of fresh set-ups")
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return result


def describe(name: str, m: dict) -> str:
    value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
    extra = [f"n={m['samples']}"]
    if "percentile" in m:
        extra.append(f"p{m['percentile']}")
    if m.get("note"):
        extra.append(m["note"])
    return f"  {name:<40} {value:>14} {m['unit']:<6} ({', '.join(extra)})"


def report(result: dict, trace: int) -> None:
    print(f"== {result['workload']} (seed {result['seed']}): {result['why']}")
    for name, m in result["e2e"].items():
        print(describe(name, m))
    if trace:
        print("  -- per-layer (traced run; source phase in parentheses)")
        for name, m in sorted(result["per_layer"].items()):
            print(describe(name, m))
        print(f"  trace file: {result['trace_file']}")
    print(f"  attempted {result['attempted']}, failed {result['failed']}")
    for reason in result["failures"]:
        print(f"  FAILED {reason}")
    print("  environment: " + json.dumps(result["environment"], sort_keys=True))


def contract_metrics(result: dict, names: list) -> dict:
    pool = result["per_layer"] if "per_layer" in result else result["e2e"]
    missing = [n for n in names if n not in pool or pool[n]["value"] is None]
    if missing:
        raise WorkerError(f"{result['workload']}: metrics not measured: {missing}")
    return {n: {"value": pool[n]["value"], "unit": pool[n]["unit"]} for n in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qsslab benchmark")
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input, for the self-test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qsslab" / "__init__.py").is_file():
        sys.stderr.write(f"no qsslab sources under {ROOT / 'src'}; run from a full checkout\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = monotonic() + RUN_BUDGET_S * len(workloads)
    results = []
    try:
        for wl in workloads:
            result = run_workload(wl, args.seed, args.seconds, args.trace, args.size, deadline)
            report(result, args.trace)
            results.append((result, contract_metrics(result, names)))
    except WorkerError as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 3

    attempted = sum(r["attempted"] for r, _ in results)
    failed = sum(r["failed"] for r, _ in results)
    if len(results) == 1:
        metrics = results[0][1]
    else:
        metrics = {f"{r['workload']}.{n}": m for r, ms in results for n, m in ms.items()}
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
