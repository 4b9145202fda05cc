"""Run one benchmark workload in a fresh process; write its result as JSON.

A fresh process per workload keeps the R(s) grid cache and the peak RSS of
one workload out of another.  ``run.py`` starts this script; to run it by
hand from the repository root:

    python3 benchmarks/worker.py --workload mc-mix --seed 1 --seconds 30 \
        --trace 0 --size full --out result.json [--setup-only]

Set-up time runs from before ``import qsslab`` to the end of the
workload's set-up (input generation, set resolution, plan and strategy
construction).
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    import qsslab
    if not Path(qsslab.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.stderr.write(f"qsslab imported from {qsslab.__file__}, not from {SRC}\n")
        return 2
    import workloads as W

    run_dir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    size = W.FULL if args.size == "full" else W.TINY
    wl = W.WORKLOAD_CLASSES[args.workload](ROOT, args.seed, size, run_dir)
    tracer = None
    if args.trace:
        import traced
        from tracer import Tracer
        tracer = Tracer(run_id=run_dir.name)
        traced.install_module_tracing(tracer)
        wl.tracer = tracer
    try:
        wl.setup()
        setup_s = perf_counter() - t0
        if args.setup_only:
            result = {"setup_s": setup_s}
        elif tracer is not None:
            result = traced.run_traced(wl, args.seconds, setup_s)
            trace_path = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
            tracer.dump(trace_path)
            result["trace_file"] = str(trace_path.relative_to(ROOT))
        else:
            ops = W.run_loop(wl, args.seconds)
            if not isinstance(wl, W.CliPipeline):
                ops.append(W.north_star_op(max(o.cycle for o in ops) + 1))
            result = W.summarize(wl, ops, setup_s)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    result.update(workload=args.workload, seed=args.seed, why=W.WHY[args.workload],
                  environment=W.environment())
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
