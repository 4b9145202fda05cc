"""The three workloads of the qsslab benchmark, their inputs and checks.

Every input comes from the workload seed; the program under test receives
only the generated inputs.  Each workload runs closed-loop in one process
on one thread, in whole cycles of operations, and checks every operation's
output.  An operation whose check fails, or that raises, is counted as
failed with its reason and contributes no timing.

* ``mc-mix``: ``estimate_detection`` at a fixed round count for honest,
  IMR with a uniform guess, IFR target-secret and IFR target-01 on both
  builtin sets.  Chosen because nearly all its time is the per-round
  protocol loop, the adversary hooks, per-round RNG seeding and
  ``share_state``; analysis runs only in set-up (plan synthesis).
* ``certify-sweep``: ``certify`` plus plan synthesis and an exact
  ``outcome_distribution`` per strategy, on both builtins and on seeded
  random sets with k = 4..64.  Chosen because it is all analysis, plan
  synthesis, linalg and the exact engine, with no Monte Carlo; it mixes
  sets on the pure fast R(s) path (proposed-J) with sets on the Bloch-ball
  grid path (hsu-I and the random sets).
* ``cli-pipeline``: the README command-line session as sequential
  subprocesses.  Chosen because it is what a command-line user pays on
  every invocation: interpreter and numpy import, a cold grid build in
  every certify/attack process, JSON file I/O and per-round transcript
  serialisation.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import qsslab
from qsslab import adversary, analysis, linalg, nonces, protocol

from tracer import Tracer, trace_strategies

WHY = {
    "mc-mix": "per-round Monte Carlo loop, adversary hooks, RNG seeding and "
              "share_state; analysis only in set-up",
    "certify-sweep": "certify, plan synthesis and exact tables, no Monte Carlo; "
                     "fast-path and grid-path R(s) sets, k = 4..64",
    "cli-pipeline": "per-invocation cost of the CLI: imports, cold grid build, "
                    "JSON I/O and transcript serialisation",
}

POLICIES = (adversary.POLICY_TARGET_SECRET, adversary.POLICY_TARGET_01)
BUILTINS = ("hsu-I", "proposed-J")

Z_MAX = 4.0
EXACT_ZERO = 1e-12
VALUE_TOL = 1e-9
TARGET_01_CEILING = 5 / 8
SOURCE_DATE_EPOCH = "1700000000"
# Inputs are generated for this many cycles; a longer run reuses them.
INPUT_CYCLES = 16


@dataclass(frozen=True)
class Size:
    mc_rounds: int
    certify_ks: tuple
    cli_rounds: int
    cli_k: int
    probe_rounds: int


FULL = Size(mc_rounds=2000, certify_ks=(4, 8, 16, 32, 64), cli_rounds=3000,
            cli_k=16, probe_rounds=200)
TINY = Size(mc_rounds=50, certify_ks=(4,), cli_rounds=50, cli_k=4, probe_rounds=20)


@dataclass
class OpResult:
    """One attempted operation.  ``seconds`` is the headline timing,
    ``wall`` the whole operation including its checks' inputs."""

    kind: str
    label: str
    cycle: int
    seconds: float = 0.0
    wall: float = 0.0
    work: int = 1
    # Mean calibration-loop time around the operation, see ``calibrate``.
    ref: float = 0.0
    failures: list = field(default_factory=list)
    info: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def cal(self) -> float:
        """``seconds`` in calibration units."""
        return self.seconds / self.ref


def check(failures: list, cond, reason: str) -> None:
    if not cond:
        failures.append(reason)


def attempt(kind: str, label: str, cycle: int, body) -> OpResult:
    """Run ``body(op)``; an exception is the operation's failure, not the
    run's, so the remaining operations still execute and get reported."""
    op = OpResult(kind, label, cycle)
    t0 = perf_counter()
    try:
        body(op)
    except Exception as exc:  # noqa: BLE001 - recorded as a failed operation
        op.failures.append(f"{type(exc).__name__}: {exc}")
    op.wall = perf_counter() - t0
    return op


# ---------------------------------------------------------------------------
# Inputs

def random_nonce_set(rng: np.random.Generator, k: int, name: str) -> nonces.NonceSet:
    """k nonces 1/2 e^{i phi_s} over the four basis states, phases uniform.

    Every |<s|psi>| is 1/2, so the set is recoverable, secret and
    IMR-protected by construction; Bob's reduced shares are mixed, so R(s)
    takes the grid path.
    """
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(k, 4))
    return nonces.NonceSet(name=name, states=tuple(0.5 * np.exp(1j * p) for p in phases))


def nonce_set_json(ns: nonces.NonceSet) -> str:
    return json.dumps({"name": ns.name,
                       "states": [[[z.real, z.imag] for z in v] for v in ns.states]})


def r_path(ns: nonces.NonceSet) -> str:
    """'fast' when every Bob-side reduced share is pure, else 'grid'."""
    pure = all(linalg.is_pure(rho) for s in nonces.SECRETS
               for rho in analysis.bob_reduced_shares(ns, s))
    return "fast" if pure else "grid"


def build_strategies(ns: nonces.NonceSet, plans: dict) -> dict:
    return {
        "honest": adversary.honest_strategy(),
        "imr-guess": adversary.imr_guess_strategy("uniform-random", ns),
        "ifr:target-secret": adversary.ifr_strategy(plans[adversary.POLICY_TARGET_SECRET], ns),
        "ifr:target-01": adversary.ifr_strategy(plans[adversary.POLICY_TARGET_01], ns),
    }


# ---------------------------------------------------------------------------
# Shared checks

def check_distribution(failures: list, label: str, dist) -> None:
    check(failures, abs(sum(dist.table.values()) - 1.0) <= VALUE_TOL,
          f"{label}: exact table does not sum to 1")
    check(failures, abs(sum(dist.verdict_probs.values()) - 1.0) <= VALUE_TOL,
          f"{label}: verdict probabilities do not sum to 1")
    check(failures, -VALUE_TOL <= dist.p_detect <= 1.0 + VALUE_TOL,
          f"{label}: p_detect {dist.p_detect} outside [0, 1]")


def check_mc(failures: list, label: str, p: float, rounds: int, p_exact: float) -> None:
    """Monte Carlo against exact: |z| <= 4, and no detection where exact is 0."""
    if p_exact <= EXACT_ZERO:
        check(failures, p == 0.0, f"{label}: MC p_detect {p} where exact is 0")
        return
    sigma = (p_exact * (1.0 - p_exact) / rounds) ** 0.5
    z = (p - p_exact) / sigma
    check(failures, abs(z) <= Z_MAX, f"{label}: MC vs exact z = {z:.2f} (|z| > {Z_MAX}) "
                                     f"over {rounds} rounds")


def check_north_star(failures: list, cert_hsu: dict, cert_j: dict,
                     hsu_secret_detect: float, hsu_secret_eve: float) -> None:
    """The security facts the test suite pins, from certification dicts in
    the CLI's JSON schema and the hsu-I target-secret IFR outcome."""
    for cert in (cert_hsu, cert_j):
        check(failures, cert["all_passed"], f"{cert['nonce_set_name']}: certification failed")
        t01 = cert["detection_bounds"]["per_policy"]["target-01"]
        check(failures, t01 <= TARGET_01_CEILING + VALUE_TOL,
              f"{cert['nonce_set_name']}: target-01 detection {t01} above 5/8")
    check(failures, all(abs(v - 1.0) <= VALUE_TOL for v in cert_hsu["r_of_s"].values()),
          f"hsu-I: R(s) {cert_hsu['r_of_s']} is not 1")
    check(failures, all(abs(v - 0.5) <= VALUE_TOL for v in cert_j["r_of_s"].values()),
          f"proposed-J: R(s) {cert_j['r_of_s']} is not 1/2")
    bounds_j = cert_j["detection_bounds"]
    check(failures, abs(bounds_j["floor"] - 0.25) <= VALUE_TOL,
          f"proposed-J: detection floor {bounds_j['floor']} is not 1/4")
    check(failures, abs(bounds_j["per_policy"]["target-01"] - 0.5) <= VALUE_TOL,
          f"proposed-J: target-01 detection {bounds_j['per_policy']['target-01']} is not 1/2")
    check(failures, hsu_secret_detect <= EXACT_ZERO,
          f"hsu-I: target-secret detection {hsu_secret_detect} is not 0")
    check(failures, abs(hsu_secret_eve - 1.0) <= VALUE_TOL,
          f"hsu-I: Eve learns the secret with probability {hsu_secret_eve}, not 1")


def north_star_op(cycle: int) -> OpResult:
    def body(op):
        hsu, j = (nonces.builtin_nonce_set(n) for n in BUILTINS)
        cert_hsu = analysis.certify(hsu).to_json_dict()
        cert_j = analysis.certify(j).to_json_dict()
        plan = adversary.synthesize_plan(hsu, adversary.POLICY_TARGET_SECRET)
        dist = protocol.outcome_distribution(hsu, adversary.ifr_strategy(plan, hsu))
        check_north_star(op.failures, cert_hsu, cert_j, dist.p_detect, dist.p_eve_knows_secret)
    return attempt("north-star", "builtins", cycle, body)


# ---------------------------------------------------------------------------
# Workloads

class Workload:
    name = ""
    # Calibration parts that drift like this workload's own work, chosen by
    # measurement on a shared host (see ``calibrate``).
    calibration = ("cpu", "mem", "spawn")

    def __init__(self, root: Path, seed: int, size: Size, run_dir: Path):
        self.root = root
        self.seed = seed
        self.size = size
        self.run_dir = run_dir
        self.tracer: Tracer | None = None

    def op_span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def setup(self) -> None:
        raise NotImplementedError

    def cycle(self, c: int):
        """Yield the operations of cycle ``c``, each run as it is yielded."""
        raise NotImplementedError

    def strategies(self) -> list:
        """Strategy instances whose hooks the traced run wraps."""
        return []

    def kernel_sets(self) -> list:
        raise NotImplementedError

    def finish(self, ops: list) -> None:
        """Checks that need every operation of a loop."""

    def headline(self, ops: list) -> dict:
        raise NotImplementedError


class McMix(Workload):
    name = "mc-mix"
    calibration = ("cpu",)

    def setup(self):
        gen = np.random.default_rng([self.seed, 1])
        self.sets = {n: nonces.resolve_nonce_source(f"builtin:{n}") for n in BUILTINS}
        self.plans = {(n, pol): adversary.synthesize_plan(ns, pol)
                      for n, ns in self.sets.items() for pol in POLICIES}
        self.strats = {}
        self.exact = {}
        for n, ns in self.sets.items():
            for label, strat in build_strategies(
                    ns, {pol: self.plans[(n, pol)] for pol in POLICIES}).items():
                self.strats[(n, label)] = strat
                self.exact[(n, label)] = protocol.outcome_distribution(ns, strat)
        self.combos = list(self.strats)
        self.rng_seeds = gen.integers(0, 2**31, size=(INPUT_CYCLES, len(self.combos)))

    def strategies(self):
        return list(self.strats.values())

    def kernel_sets(self):
        return list(self.sets.values())

    def estimate_op(self, c: int, set_name: str, label: str, rng_seed: int) -> OpResult:
        rounds = self.size.mc_rounds
        strat = self.strats[(set_name, label)]
        exact = self.exact[(set_name, label)]

        def body(op):
            cfg = protocol.RoundConfig(nonce_set=self.sets[set_name], rng_seed=int(rng_seed))
            with self.op_span("bench.estimate"):
                t0 = perf_counter()
                p, _ = protocol.estimate_detection(cfg, strat, rounds)
                op.seconds = perf_counter() - t0
            op.work = rounds
            op.info["hits"] = round(p * rounds)
            if exact.p_detect <= EXACT_ZERO:
                check_mc(op.failures, f"{set_name}/{label} seed {rng_seed}", p, rounds, exact.p_detect)
        return attempt("estimate", f"{set_name}/{label}", c, body)

    def finish(self, ops):
        """The |z| <= 4 check on each (set, strategy) estimate pooled over
        the loop's calls.  Checked per call, the ~130 non-zero calls of a
        run would raise a false alarm in about 1% of runs (two-sided 4
        sigma is 6.3e-5 per check); pooled, a biased engine shows sooner."""
        for key, exact in self.exact.items():
            if exact.p_detect <= EXACT_ZERO:
                continue
            group = [o for o in ops if o.kind == "estimate" and o.label == "/".join(key)]
            counted = [o for o in group if "hits" in o.info]
            rounds = sum(o.work for o in counted)
            if not rounds:
                continue
            reasons = []
            check_mc(reasons, f"{'/'.join(key)} pooled", sum(o.info["hits"] for o in counted) / rounds,
                     rounds, exact.p_detect)
            for o in group:
                o.failures += reasons

    def cycle(self, c):
        for (n, label), s in zip(self.combos, self.rng_seeds[c % INPUT_CYCLES]):
            yield self.estimate_op(c, n, label, s)

    def headline(self, ops):
        est = [o for o in ops if o.kind == "estimate"]
        good = [o for o in est if o.ok]
        clean = clean_cycles(est)
        rounds = sum(o.work for o in good)
        busy = sum(o.seconds for o in good)
        return {
            **op_metrics([sum(o.seconds for o in g) for g in clean], [sum(o.cal for o in g) for g in clean],
                         "one mix pass: 8 estimate calls", rounds, good, "MC rounds"),
            "mc_rounds_per_s": metric(rounds / busy if busy else 0.0, "1/s", len(good)),
            "mc_estimate_s_p50": metric(median([o.seconds for o in good]), "s", len(good)),
            "mc_estimate_s_tail": tail_metric([o.seconds for o in good], "s"),
        }


class CertifySweep(Workload):
    name = "certify-sweep"

    def setup(self):
        gen = np.random.default_rng([self.seed, 2])
        self.builtins = [nonces.resolve_nonce_source(f"builtin:{n}") for n in BUILTINS]
        self.random_sets = [
            [random_nonce_set(gen, k, f"random-k{k}-c{c}") for k in self.size.certify_ks]
            for c in range(INPUT_CYCLES)
        ]
        # The R(s) grid is built lazily once per process; build it here so
        # the first timed certify does not pay a one-off cost.
        analysis.r_of_s(self.builtins[0], "00")

    def kernel_sets(self):
        return self.random_sets[0] + self.builtins

    def certify_op(self, c: int, ns: nonces.NonceSet, builtin: bool) -> OpResult:
        def body(op):
            with self.op_span("bench.certify"):
                t0 = perf_counter()
                rep = analysis.certify(ns)
                op.seconds = perf_counter() - t0
                plans = {pol: adversary.synthesize_plan(ns, pol) for pol in POLICIES}
                strats = build_strategies(ns, plans)
                if self.tracer:
                    trace_strategies(self.tracer, strats.values())
                dists = {label: protocol.outcome_distribution(ns, strat)
                         for label, strat in strats.items()}
            self._check(op.failures, ns, rep, dists, builtin)
            op.info["path"] = r_path(ns)
            op.info["report"] = rep.to_json_dict()
            op.info["ifr_secret"] = (dists["ifr:target-secret"].p_detect,
                                     dists["ifr:target-secret"].p_eve_knows_secret)
        return attempt("certify", ns.name, c, body)

    @staticmethod
    def _check(failures, ns, rep, dists, builtin):
        name = ns.name
        if not builtin:
            check(failures, rep.recoverable and rep.secret and rep.imr_protected,
                  f"{name}: random set failed certification")
            check(failures, all(0.5 - VALUE_TOL <= v <= 1.0 + VALUE_TOL for v in rep.r_of_s.values()),
                  f"{name}: R(s) {rep.r_of_s} outside [1/2, 1]")
        bounds = rep.detection_bounds
        check(failures, bounds is not None, f"{name}: no detection bounds")
        if bounds is None:
            return
        check(failures, bounds["floor"] <= bounds["ceiling"] + VALUE_TOL,
              f"{name}: detection floor {bounds['floor']} above ceiling {bounds['ceiling']}")
        for label, dist in dists.items():
            check_distribution(failures, f"{name}/{label}", dist)
        check(failures, dists["honest"].p_detect <= EXACT_ZERO,
              f"{name}: honest detection {dists['honest'].p_detect} is not 0")
        for pol in POLICIES:
            dist = dists[f"ifr:{pol}"]
            check(failures, abs(dist.p_detect - bounds["per_policy"][pol]) <= VALUE_TOL,
                  f"{name}: ifr:{pol} exact {dist.p_detect} differs from certify "
                  f"{bounds['per_policy'][pol]}")
            check(failures, abs(dist.p_eve_knows_secret - 1.0) <= VALUE_TOL,
                  f"{name}: ifr:{pol} Eve learns the secret with probability "
                  f"{dist.p_eve_knows_secret}, not 1")

    def cycle(self, c):
        builtins = []
        for ns in self.builtins:
            builtins.append(self.certify_op(c, ns, True))
            yield builtins[-1]
        if all(o.ok for o in builtins):
            hsu, j = builtins
            check_north_star(hsu.failures, hsu.info["report"], j.info["report"],
                             *hsu.info["ifr_secret"])
        for ns in self.random_sets[c % INPUT_CYCLES]:
            yield self.certify_op(c, ns, False)

    def headline(self, ops):
        cert = [o for o in ops if o.kind == "certify"]
        good = [o for o in cert if o.ok]
        fast = sum(1 for o in cert if o.info.get("path") == "fast")
        return {
            **op_metrics([o.seconds for o in good], [o.cal for o in good], "one certify call",
                         len(good), good, "nonce sets swept (certify, plans, exact tables)", wall=True),
            "certify_s_p50": metric(median([o.seconds for o in good]), "s", len(good)),
            "certify_s_tail": tail_metric([o.seconds for o in good], "s"),
            "fast_path_share": metric(fast / len(cert) if cert else 0.0, "ratio", len(cert)),
            "grid_path_share": metric(1.0 - fast / len(cert) if cert else 0.0, "ratio", len(cert)),
        }


# Each command: (span / metric stem, argv after ``qsslab``).  Paths are
# relative to the pass directory except the generated set.
def cli_commands(gen_path: str, seed: int, rounds: int) -> list:
    sim = ["simulate", "--nonces", "builtin:hsu-I", "--strategy", "ifr:plan-hsu.json",
           "--rounds", str(rounds), "--seed", str(seed)]
    return [
        ("cli.certify_s.hsu-I", ["certify", "--nonces", "builtin:hsu-I", "--out", "cert-hsu.json"]),
        ("cli.certify_s.proposed-J", ["certify", "--nonces", "builtin:proposed-J", "--out", "cert-j.json"]),
        ("cli.certify_s.generated", ["certify", "--nonces", gen_path, "--out", "cert-gen.json"]),
        ("cli.attack_s.hsu-I", ["attack", "--nonces", "builtin:hsu-I", "--policy", "target-secret",
                                "--out", "plan-hsu.json"]),
        ("cli.attack_s.proposed-J", ["attack", "--nonces", "builtin:proposed-J", "--policy", "target-01",
                                     "--out", "plan-j.json"]),
        ("cli.simulate_transcripts_s", sim + ["--out", "sim.json", "--transcripts", "rounds.jsonl"]),
        ("cli.simulate_s", sim + ["--out", "sim-nt.json"]),
        ("cli.simulate_exact_s", ["simulate", "--nonces", "builtin:proposed-J", "--strategy", "imr-guess:2",
                                  "--exact", "--out", "sim2.json"]),
        ("cli.report_s", ["report", "--inputs", "cert-j.json", "sim.json", "sim2.json", "--out", "summary"]),
    ]


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["SOURCE_DATE_EPOCH"] = SOURCE_DATE_EPOCH
    env.pop("QSSLAB_SEED", None)
    return env


def run_cli(argv: list, cwd: Path, env: dict) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "qsslab.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=150)


class CliPipeline(Workload):
    name = "cli-pipeline"

    def setup(self):
        gen = np.random.default_rng([self.seed, 3])
        self.gen_set = random_nonce_set(gen, self.size.cli_k, f"generated-k{self.size.cli_k}")
        self.gen_path = self.run_dir / "generated.json"
        self.gen_path.write_text(nonce_set_json(self.gen_set) + "\n", encoding="utf-8")
        self.cli_seed = int(gen.integers(0, 2**31))
        self.env = cli_env(self.root)
        self.reference: dict[int, dict] = {}
        self.import_s = [self.version_probe()]

    def version_probe(self) -> float:
        t0 = perf_counter()
        proc = run_cli(["--version"], self.run_dir, self.env)
        elapsed = perf_counter() - t0
        if proc.returncode != 0 or f"qsslab {qsslab.__version__}" not in proc.stdout:
            raise RuntimeError(f"qsslab --version failed: {proc.returncode} {proc.stderr.strip()}")
        return elapsed

    def kernel_sets(self):
        return [self.gen_set]

    def command_op(self, c: int, stem: str, argv: list, pass_dir: Path) -> OpResult:
        def body(op):
            with self.op_span(stem):
                t0 = perf_counter()
                proc = run_cli(argv, pass_dir, self.env)
                op.seconds = perf_counter() - t0
            check(op.failures, proc.returncode == 0,
                  f"exit code {proc.returncode}: {proc.stderr.strip()[-200:]}")
        return attempt("cli-command", stem, c, body)

    def cycle(self, c, rounds=None):
        """One pass: each command is an operation, so the calibration can
        run between commands; checks of the pass's outputs fail every
        command of the pass."""
        rounds = rounds or self.size.cli_rounds
        pass_dir = self.run_dir / f"pass-{c}-{rounds}"
        shutil.rmtree(pass_dir, ignore_errors=True)
        pass_dir.mkdir(parents=True)
        ops = []
        for stem, argv in cli_commands(str(self.gen_path), self.cli_seed, rounds):
            ops.append(self.command_op(c, stem, argv, pass_dir))
            yield ops[-1]
        if all(o.ok for o in ops):
            failures = []
            try:
                self._check(failures, ops[-1].info, pass_dir, rounds)
            except (KeyError, TypeError, ValueError) as exc:
                failures.append(f"malformed output: {type(exc).__name__}: {exc}")
            for o in ops:
                o.failures += failures
        shutil.rmtree(pass_dir, ignore_errors=True)

    def _check(self, f: list, info: dict, pass_dir: Path, rounds: int) -> None:
        parsed = {}
        digests = {}
        for path in sorted(pass_dir.iterdir()):
            data = path.read_bytes()
            digests[path.name] = hashlib.sha256(data).hexdigest()
            text = data.decode("utf-8")
            try:
                if path.suffix == ".json":
                    parsed[path.name] = json.loads(text)
                elif path.suffix == ".jsonl":
                    parsed[path.name] = [json.loads(line) for line in text.splitlines()]
                elif path.suffix == ".csv":
                    parsed[path.name] = list(csv.DictReader(text.splitlines()))
                else:
                    check(f, text.strip(), f"{path.name}: empty")
            except (json.JSONDecodeError, csv.Error) as exc:
                f.append(f"{path.name}: does not parse: {exc}")
        expected = {"cert-hsu.json", "cert-hsu.txt", "cert-j.json", "cert-j.txt", "cert-gen.json",
                    "cert-gen.txt", "plan-hsu.json", "plan-j.json", "sim.json", "sim-nt.json",
                    "rounds.jsonl", "sim2.json", "summary.json", "summary.csv"}
        check(f, set(digests) == expected, f"output files {sorted(digests)} differ from {sorted(expected)}")
        if f:
            return
        info["transcript_bytes"] = (pass_dir / "rounds.jsonl").stat().st_size
        ref = self.reference.setdefault(rounds, digests)
        changed = sorted(n for n in digests if digests[n] != ref.get(n))
        check(f, not changed, f"outputs differ from the first pass: {changed}")
        check(f, digests["sim.json"] == digests["sim-nt.json"],
              "simulate with and without --transcripts wrote different reports")

        cert = {n: parsed[f"cert-{n}.json"]["certification"] for n in ("hsu", "j", "gen")}
        sim = parsed["sim.json"]["simulation"]
        check(f, sim["rounds"] == rounds and len(parsed["rounds.jsonl"]) == rounds,
              f"expected {rounds} rounds and transcript lines")
        check(f, sim["p_detect"] == 0.0, f"hsu-I target-secret MC p_detect {sim['p_detect']} is not 0")
        check(f, sim["p_eve_knows_secret"] == 1.0,
              f"hsu-I target-secret MC eve_knows_secret {sim['p_eve_knows_secret']} is not 1")
        check_north_star(f, cert["hsu"], cert["j"], sim["exact_p_detect"], sim["exact_p_eve_knows_secret"])
        gen = cert["gen"]
        check(f, gen["all_passed"], "generated set failed certification")
        check(f, all(0.5 - VALUE_TOL <= v <= 1.0 + VALUE_TOL for v in gen["r_of_s"].values()),
              f"generated set R(s) {gen['r_of_s']} outside [1/2, 1]")
        bounds = gen["detection_bounds"]
        check(f, bounds["floor"] <= bounds["ceiling"] + VALUE_TOL, "generated set floor above ceiling")
        check(f, len(parsed["plan-hsu.json"]["v_table"]) == 64 and len(parsed["plan-j.json"]["v_table"]) == 16,
              "attack plans do not cover every (nonce, secret)")
        sim2 = parsed["sim2.json"]["simulation"]
        check(f, sim2["rounds"] == 0 and sim2["p_detect"] == sim2["exact_p_detect"],
              "simulate --exact did not report the exact value")
        check(f, len(parsed["summary.json"]["rows"]) == 3 and len(parsed["summary.csv"]) == 3,
              "report did not merge three rows")

    def headline(self, ops):
        clean = clean_cycles([o for o in ops if o.kind == "cli-command"])
        good = [o for g in clean for o in g]
        passes = [sum(o.seconds for o in g) for g in clean]
        out = {
            **op_metrics(passes, [sum(o.cal for o in g) for g in clean], "one CLI pass",
                         len(good), good, "CLI commands"),
            "cli_pipeline_s": metric(median(passes), "s", len(passes)),
        }
        for stem, _ in cli_commands("", 0, 0):
            times = [o.seconds for o in good if o.label == stem]
            out[stem] = metric(median(times), "s", len(times))
        return out


WORKLOAD_CLASSES = {cls.name: cls for cls in (McMix, CertifySweep, CliPipeline)}


# ---------------------------------------------------------------------------
# Statistics

def median(values) -> float:
    return statistics.median(values) if values else 0.0


def metric(value, unit: str, samples: int, note: str | None = None) -> dict:
    out = {"value": float(value), "unit": unit, "samples": samples}
    if note:
        out["note"] = note
    return out


def tail_metric(values: list, unit: str) -> dict:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return {"value": None, "unit": unit, "samples": n,
                "note": "fewer than 11 samples: no percentile has ten beyond it"}
    ordered = sorted(values)
    pct = 100.0 * (n - 10) / n
    return {"value": ordered[n - 11], "unit": unit, "samples": n, "percentile": round(pct, 1)}


def clean_cycles(ops: list) -> list:
    """The operations of each cycle in which none failed."""
    cycles: dict[int, list] = {}
    for o in ops:
        cycles.setdefault(o.cycle, []).append(o)
    return [group for group in cycles.values() if all(o.ok for o in group)]


def op_metrics(times: list, cals: list, what: str, work: float, good: list, work_what: str,
               wall: bool = False) -> dict:
    """Median operation time and work rate, in seconds and in calibration
    units.  The rate divides ``work`` by the busy time of the ``good``
    operations (their whole ``wall`` time when ``wall`` is set)."""
    busy = sum(o.wall if wall else o.seconds for o in good)
    busy_cal = sum((o.wall if wall else o.seconds) / o.ref for o in good)
    n = len(good)
    return {
        "op_s_p50": metric(median(times), "s", len(times), what),
        "op_cal_p50": metric(median(cals), "cal", len(cals), what),
        "work_per_s": metric(work / busy if busy else 0.0, "1/s", n, work_what + " per second"),
        "work_per_cal": metric(work / busy_cal if busy_cal else 0.0, "1/cal", n,
                               work_what + " per calibration unit"),
    }


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Running a workload

_CAL_M = np.eye(4, dtype=complex)
_CAL_V = np.full(4, 0.5, dtype=complex)
_CAL_V3 = np.array([0.1, 0.2, 0.3])


def calibrate(parts: tuple) -> float:
    """Seconds for a fixed amount of work that calls nothing in qsslab.

    ``parts`` picks from ``"cpu"`` (interpreter bytecode and small-array
    numpy), ``"mem"`` (scans of a 24 MB array) and ``"spawn"`` (starting a
    Python process that imports numpy).  On a shared host the speed this
    process gets drifts by a quarter over minutes, differently for each
    kind of work; run between a workload's operations, parts like the
    workload's own drift with them, so an operation's time divided by the
    calibration time around it (its time in calibration units, ``cal``)
    stays steadier than its seconds.
    """
    t0 = perf_counter()
    if "cpu" in parts:
        s, d = 0, {}
        for i in range(60_000):
            s += i * i
            d[i & 255] = s
        for _ in range(3_000):
            p = np.abs(_CAL_M @ _CAL_V) ** 2
            float((p / p.sum())[0])
    if "mem" in parts:
        bulk = np.ones((1_000_000, 3))
        for _ in range(2):
            float(np.sqrt(np.abs(bulk @ _CAL_V3)).sum())
    if "spawn" in parts:
        subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)
    return perf_counter() - t0


def run_loop(wl: Workload, seconds: float, first_cycle: int = 0) -> list:
    """Whole cycles, closed-loop, until ``seconds`` have passed.

    The workload's calibration runs between operations once at least a
    second, and five times its own duration, have passed since the last;
    each operation's ``ref`` is the mean of the calibrations around it.
    """
    ops, pending = [], []
    before = calibrate(wl.calibration)
    t_cal = perf_counter()
    c = first_cycle
    t_end = perf_counter() + seconds
    while True:
        for op in wl.cycle(c):
            ops.append(op)
            pending.append(op)
            if perf_counter() - t_cal >= max(1.0, 5.0 * before):
                after = calibrate(wl.calibration)
                t_cal = perf_counter()
                for p in pending:
                    p.ref = (before + after) / 2.0
                before, pending = after, []
        c += 1
        if perf_counter() >= t_end:
            after = calibrate(wl.calibration)
            for p in pending:
                p.ref = (before + after) / 2.0
            wl.finish(ops)
            return ops


def summarize(wl: Workload, ops: list, setup_s: float) -> dict:
    e2e = wl.headline(ops)
    e2e["setup_s"] = metric(setup_s, "s", 1)
    e2e["peak_rss_mb"] = metric(peak_rss_mb(children=isinstance(wl, CliPipeline)), "MB", 1,
                                "largest child" if isinstance(wl, CliPipeline) else "this process")
    refs = [o.ref for o in ops if o.ref]
    e2e["calibration_s"] = metric(median(refs), "s", len(refs), "calibration loop, median")
    failed = [o for o in ops if not o.ok]
    e2e["error_rate"] = metric(len(failed) / len(ops) if ops else 1.0, "ratio", len(ops))
    return {
        "attempted": len(ops),
        "failed": len(failed),
        "failures": [f"{o.kind} {o.label}: {r}" for o in failed for r in o.failures],
        "e2e": e2e,
    }


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "qsslab": qsslab.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
    }
