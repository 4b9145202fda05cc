"""The traced run: spans around each layer's public functions, probes for
the layers a workload's own loop does not reach, kernel timings on the
workload's own inputs, and the per-layer metrics derived from them.

Wrappers are placed where the caller looks a function up at call time
(module attributes of ``protocol``, ``adversary`` and ``analysis``, and
hooks of strategy instances the benchmark builds), so nothing under
``src/`` changes.
"""
from __future__ import annotations

import statistics
from time import perf_counter_ns

import numpy as np

from qsslab import adversary, analysis, linalg, nonces, protocol

from tracer import LAYERS, Tracer, strategy_key, trace_strategies
from workloads import (BUILTINS, POLICIES, CliPipeline, Workload, attempt, build_strategies,
                       check_mc, cli_commands, median, metric, nonce_set_json, north_star_op,
                       run_loop, summarize)


def set_label(ns: nonces.NonceSet) -> str:
    """Builtin sets by name, generated ones by size."""
    return ns.name if ns.name in BUILTINS else f"k{len(ns)}"


def install_module_tracing(tracer: Tracer) -> None:
    """Wrap each layer's public functions where their callers look them up."""
    state = {"path": "fast"}

    def mav_name(sigmas, method="auto"):
        pure = all(linalg.is_pure(np.asarray(s, dtype=complex)) for s in sigmas)
        state["path"] = "grid" if method == "grid" or not pure else "fast"
        return "analysis.max_average_fidelity." + state["path"]

    tracer.patch(protocol, "run_round",
                 lambda cfg, strategy, round_index=0: "protocol.round." + strategy_key(strategy))
    tracer.patch(protocol, "share_state", "nonces.share_state")
    tracer.patch(protocol, "outcome_distribution",
                 lambda ns, strategy, mode_prior=0.5:
                 f"protocol.outcome_distribution/{set_label(ns)}/{getattr(strategy, 'name', '?')}")
    tracer.patch(adversary, "share_state", "nonces.share_state")
    tracer.patch(adversary, "max_overlap_unitary", "linalg.max_overlap_unitary")
    tracer.patch(adversary, "partial_trace_E", "linalg.partial_trace_E")
    tracer.patch(adversary, "synthesize_plan",
                 lambda ns, policy, alpha=None, target_map=None:
                 f"adversary.synthesize_plan/{set_label(ns)}/{policy}")
    for fn in ("check_recoverability", "check_secrecy", "check_imr", "detection_bounds"):
        tracer.patch(analysis, fn, "analysis." + fn)
    tracer.patch(analysis, "max_average_fidelity", mav_name)
    tracer.patch(analysis, "r_of_s", "analysis.r_of_s", after=lambda _: "." + state["path"])
    tracer.patch(analysis, "partial_trace_E", "linalg.partial_trace_E")
    tracer.patch(analysis, "bloch_from_density", "linalg.bloch_from_density")
    tracer.patch(analysis, "share_state", "nonces.share_state")


def time_kernel_us(fn, inputs: list, batches: int = 5) -> tuple[float, int]:
    """Median over batches of the mean microseconds per call."""
    per = []
    for _ in range(batches):
        t0 = perf_counter_ns()
        for args in inputs:
            fn(*args)
        per.append((perf_counter_ns() - t0) / len(inputs) / 1e3)
    return statistics.median(per), batches * len(inputs)


def kernel_metrics(wl: Workload) -> dict:
    """Time each kernel's public function on the workload's own inputs."""
    sets = wl.kernel_sets()
    shares = [(psi, s) for ns in sets for psi in ns.states for s in nonces.SECRETS][:256]
    states = [nonces.share_state(psi, s) for psi, s in shares]
    refl = [(ns.reflections[i], nonces.share_state(psi, s))
            for ns in sets for i, psi in enumerate(ns.states) for s in nonces.SECRETS][:256]
    dens = [linalg.pure_density(v) for v in states]
    reduced = [linalg.partial_trace_E(d) for d in dens]
    alpha = states[0]
    out = {}
    v, n = time_kernel_us(nonces.share_state, shares)
    out["nonces.share_state_us"] = metric(v, "us", n)
    v, n = time_kernel_us(np.matmul, refl)
    out["nonces.reflection_apply_us"] = metric(v, "us", n)
    v, n = time_kernel_us(linalg.max_overlap_unitary, [(alpha, t) for t in states])
    out["linalg.max_overlap_unitary_us"] = metric(v, "us", n)
    v, n = time_kernel_us(linalg.partial_trace_E, [(d,) for d in dens])
    out["linalg.partial_trace_E_us"] = metric(v, "us", n)
    v, n = time_kernel_us(linalg.bloch_from_density, [(r,) for r in reduced])
    out["linalg.bloch_from_density_us"] = metric(v, "us", n)
    v, n = time_kernel_us(lambda r: np.random.default_rng([wl.seed, r]), [(r,) for r in range(256)])
    out["protocol.rng_seed_us"] = metric(v, "us", n)
    path = wl.run_dir / "kernel-set.json"
    path.write_text(nonce_set_json(sets[0]), encoding="utf-8")
    v, n = time_kernel_us(nonces.load_nonce_set, [(path,)] * 20)
    out["nonces.load_ms"] = metric(v / 1e3, "ms", n)
    return out


# Per-layer metrics read from span medians: metric -> (span name, scale, unit).
_SPAN_MEDIANS = {
    **{f"protocol.round_us.{k}": (f"protocol.round.{k}", 1e6, "us")
       for k in ("honest", "imr-guess", "ifr")},
    **{f"adversary.{hook}_us.{k}": (f"adversary.{hook}.{k}", 1e6, "us")
       for hook in ("intercept", "nonce_announced") for k in ("honest", "imr-guess", "ifr")},
    "protocol.outcome_distribution_ms": ("protocol.outcome_distribution", 1e3, "ms"),
    "analysis.r_of_s_ms.fast": ("analysis.r_of_s.fast", 1e3, "ms"),
    "analysis.r_of_s_ms.grid": ("analysis.r_of_s.grid", 1e3, "ms"),
    "analysis.detection_bounds_ms": ("analysis.detection_bounds", 1e3, "ms"),
    "analysis.check_recoverability_ms": ("analysis.check_recoverability", 1e3, "ms"),
    "analysis.check_secrecy_ms": ("analysis.check_secrecy", 1e3, "ms"),
    "analysis.check_imr_ms": ("analysis.check_imr", 1e3, "ms"),
    "adversary.synthesize_plan_ms": ("adversary.synthesize_plan", 1e3, "ms"),
    **{stem: (stem, 1.0, "s") for stem, _ in cli_commands("", 0, 0)},
}

PHASES = ("loop", "setup", "probe")


def grid_points() -> int:
    """Points of the step-0.01 lattice on [-1, 1]^3 inside the Bloch ball,
    the size of the grid each grid-path R(s) call scans (summed in the same
    order as the grid's own membership test)."""
    sq = np.linspace(-1.0, 1.0, 201) ** 2
    return sum(int(((x2 + sq[:, None]) + sq[None, :] <= 1.0 + 1e-12).sum()) for x2 in sq)


def layer_metrics(tracer: Tracer, loop_ops: int, probe_ops: int, probe_info: dict) -> dict:
    out = {}
    # Timings: from the traced loop; where the loop never reached a layer,
    # from set-up, then from the probe operations.
    by_phase = {}
    for ph in PHASES:
        # Spans named "<name>/<set>/<policy or strategy>" count toward
        # <name> and are also reported per set and policy or strategy.
        durations = tracer.durations_s(ph)
        merged: dict[str, list] = {}
        for name, vals in durations.items():
            merged.setdefault(name.split("/", 1)[0], []).extend(vals)
            if "/" in name:
                base, rest = name.split("/", 1)
                out.setdefault(f"{base}_ms/{rest}",
                               metric(statistics.median(vals) * 1e3, "ms", len(vals), ph))
        by_phase[ph] = merged
    for name, (span, scale, unit) in _SPAN_MEDIANS.items():
        for ph in PHASES:
            vals = by_phase[ph].get(span)
            if vals:
                out[name] = metric(statistics.median(vals) * scale, unit, len(vals), ph)
                break
        else:
            out[name] = metric(0.0, unit, 0, "not reached")

    self_by_phase = {ph: tracer.self_times_s(ph) for ph in PHASES}
    rounds = []
    for ph in PHASES:
        per_name = self_by_phase[ph][1]
        rounds = [v for n, vals in per_name.items() if n.startswith("protocol.round.") for v in vals]
        if rounds:
            out["protocol.self_us_per_round"] = metric(statistics.median(rounds) * 1e6, "us",
                                                       len(rounds), ph)
            break
    else:
        out["protocol.self_us_per_round"] = metric(0.0, "us", 0, "not reached")
    for layer in LAYERS:
        loop_s = self_by_phase["loop"][0][layer]
        if loop_s > 0.0:
            out[f"{layer}.self_ms_per_op"] = metric(loop_s * 1e3 / loop_ops, "ms", loop_ops, "loop")
        else:
            probe_s = self_by_phase["probe"][0][layer]
            out[f"{layer}.self_ms_per_op"] = metric(probe_s * 1e3 / max(probe_ops, 1), "ms",
                                                    probe_ops, "probe")

    # Counts per operation of the traced loop.
    loop = by_phase["loop"]
    mav = {p: len(loop.get(f"analysis.max_average_fidelity.{p}", [])) for p in ("fast", "grid")}
    out["analysis.max_average_fidelity.calls"] = metric(sum(mav.values()) / loop_ops, "count", loop_ops)
    out["analysis.grid_points_scanned"] = metric(mav["grid"] * grid_points() / loop_ops, "count", loop_ops)
    out["adversary.max_overlap_unitary.calls"] = metric(
        len(loop.get("linalg.max_overlap_unitary", [])) / loop_ops, "count", loop_ops)
    out["protocol.exact_branches"] = metric(
        tracer.counts["loop"]["protocol.exact_branches"] / loop_ops, "count", loop_ops)

    # The grid is built inside the first grid-path call of the process.
    grid = sorted((t0, t1 - t0) for _, _, name, t0, t1, _ in tracer.spans
                  if name == "analysis.max_average_fidelity.grid")
    if len(grid) >= 2:
        warm = statistics.median(d for _, d in grid[1:])
        out["analysis.grid_build_s"] = metric((grid[0][1] - warm) / 1e9, "s", len(grid))
    else:
        out["analysis.grid_build_s"] = metric(0.0, "s", len(grid), "not reached")

    out["cli.import_s"] = metric(statistics.median(probe_info["import_s"]), "s",
                                 len(probe_info["import_s"]))
    out["cli.transcript_overhead_s"] = metric(
        out["cli.simulate_transcripts_s"]["value"] - out["cli.simulate_s"]["value"], "s",
        out["cli.simulate_s"]["samples"], out["cli.simulate_s"].get("note"))
    out["cli.transcript_bytes"] = metric(probe_info["transcript_bytes"], "count", 1)
    return out


def probe_ops(wl: Workload, c: int) -> tuple[list, dict]:
    """Operations that reach the layers a workload's own loop does not: the
    north-star check (analysis, adversary, exact engine), a short Monte
    Carlo run of every strategy on the workload's first set, and one CLI
    pass with a short simulation."""
    install_module_tracing(wl.tracer)
    ns = wl.kernel_sets()[0]
    plans = {pol: adversary.synthesize_plan(ns, pol) for pol in POLICIES}
    strats = build_strategies(ns, plans)
    trace_strategies(wl.tracer, strats.values())
    ops = [north_star_op(c)]
    for label, strat in strats.items():
        exact = protocol.outcome_distribution(ns, strat)

        def body(op, strat=strat, exact=exact, label=label):
            cfg = protocol.RoundConfig(nonce_set=ns, rng_seed=wl.seed)
            p, _ = protocol.estimate_detection(cfg, strat, wl.size.probe_rounds)
            check_mc(op.failures, f"probe {ns.name}/{label}", p, wl.size.probe_rounds, exact.p_detect)
        ops.append(attempt("probe-estimate", label, c, body))
    if isinstance(wl, CliPipeline):
        cli = wl
    else:
        cli = CliPipeline(wl.root, wl.seed, wl.size, wl.run_dir)
        cli.setup()
        cli.tracer = wl.tracer
        ops += cli.cycle(c, wl.size.probe_rounds)
    info = {"import_s": cli.import_s + [cli.version_probe() for _ in range(2)]}
    return ops, info


def run_traced(wl: Workload, seconds: float, setup_s: float) -> dict:
    """Untraced half, then traced half, then probes; per-layer metrics."""
    tracer = wl.tracer
    tracer.unpatch_all()
    wl.tracer = None
    untraced = run_loop(wl, seconds / 2.0)
    wl.tracer = tracer
    install_module_tracing(tracer)
    trace_strategies(tracer, wl.strategies())
    tracer.phase = "loop"
    traced = run_loop(wl, seconds / 2.0, first_cycle=max(o.cycle for o in untraced) + 1)
    tracer.unpatch_all()
    tracer.phase = "probe"
    first = max(o.cycle for o in traced) + 1
    probes, info = probe_ops(wl, first)
    tracer.unpatch_all()
    passes = traced if isinstance(wl, CliPipeline) else probes
    info["transcript_bytes"] = median([o.info["transcript_bytes"] for o in passes
                                       if "transcript_bytes" in o.info])
    per_layer = layer_metrics(tracer, len(traced), len(probes), info)
    per_layer.update(kernel_metrics(wl))
    # Compared in calibration units, so host drift between the halves
    # does not pass for tracing cost, then converted back to seconds.
    cal_s = median([o.ref for o in untraced + traced])
    p50_untraced = wl.headline(untraced)["op_cal_p50"]["value"]
    p50_traced = wl.headline(traced)["op_cal_p50"]["value"]
    per_layer["trace.overhead_s"] = metric((p50_traced - p50_untraced) * cal_s, "s", len(traced),
                                           "traced minus untraced op_cal_p50, in seconds")
    summary = summarize(wl, untraced + traced + probes, setup_s)
    summary["e2e"].update(wl.headline(untraced))
    summary["per_layer"] = per_layer
    return summary
