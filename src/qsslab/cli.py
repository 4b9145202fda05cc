"""Command-line interface: certify nonce sets, synthesize attacks, run
simulations and merge reports.

All randomness descends from one CLI-level seed (``--seed``, falling back
to the QSSLAB_SEED environment variable, then 0): round r of a simulation
uses the generator seeded with ``[seed, r]``.  Report timestamps honor
SOURCE_DATE_EPOCH so identical inputs, seed and version produce
byte-identical output files.

Exit codes: 0 success / all certifications pass, 1 certification failure, 2 validation or
I/O error (an output path naming an input file or another output too, before any work),
3 internal error (any other exception), each with a one-line message on stderr.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__, adversary, analysis
from .errors import CertificationError, ValidationError
from .jsonio import complex_from_json, json_line, load_json, write_json
from .linalg import validate_state
from .nonces import NonceSet, SECRETS, resolve_nonce_source
from .protocol import RoundConfig, detection_rate, outcome_distribution, tally_rounds

EXIT_OK = 0
EXIT_CERTIFICATION = 1
EXIT_VALIDATION = 2
EXIT_INTERNAL = 3
# The version of the numerical methods behind output values, bumped by a change that moves
# bits.  1: SVD steering; 2: polar factor; 3: alpha from R(t) or I/2, populations for secrecy/IMR;
# 4: the 2x2 determinant, square root and steered product in closed form, not by LAPACK or BLAS;
# 5: each state and alpha normalized once, by an idempotent validate_state; purity from det's terms.
NUMERICS = 5
# The version of the random-number contract: round r of a run draws from a generator seeded
# with [seed, r], in the order the round engine reads it.
RNG_CONTRACT = 1


_EXPECTED = {int: "an integer", float: "a number"}


def _flag(convert, ok, message: str):
    """argparse type: ``convert`` the string, then require ``ok`` of the value.

    A string ``convert`` refuses reads "expected an integer" or "expected a
    number"; a value ``ok`` refuses reads ``message``, formatted with the
    string as ``raw`` and the converted ``value``.
    """
    def parse(raw: str):
        try:
            value = convert(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected {_EXPECTED[convert]}, got {raw!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(message.format(raw=raw, value=value))
        return value
    return parse


_natural = _flag(int, lambda v: v >= 0, "must be >= 0, got {value}")
_rounds = _flag(int, lambda v: v >= 1, "must be >= 1, got {value}")
_prior = _flag(float, lambda v: 0.0 <= v <= 1.0, "must be a finite number in [0, 1], got {raw}")
_source = _flag(str, bool, "expected builtin:<name> or a path, got {raw!r}")
_path = _flag(str, bool, "expected a path, got {raw!r}")
# A file to write, checked before any work, so a failed run writes no file;
# commands check the files they write beside --out with it too.
_out = _flag(_path, lambda p: not os.path.isdir(p) and os.path.isdir(os.path.dirname(p) or "."),
             "expected a file path in an existing directory, got {raw!r}")


def _refuse_overwrite(outputs: dict, inputs: list) -> None:
    """Refuse, before any work, an output path naming another output or an input file, compared
    after os.path.realpath; inputs may name one file twice, as report merges duplicates."""
    seen = {os.path.realpath(p): f for f, p in inputs
            if p and not (f == "--nonces" and p.startswith("builtin:"))}
    for flag, path in outputs.items():
        if path and seen.setdefault(real := os.path.realpath(path), flag) != flag:
            raise ValidationError(f"{flag} would overwrite {seen[real]}: both name {path}")


def _env_int(name: str, default: int) -> int:
    """A non-negative integer from the environment, or ``default`` if unset."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return _natural(raw)
    except argparse.ArgumentTypeError:
        raise ValidationError(
            f"environment variable {name} must be a non-negative integer, got {raw!r}") from None


def _timestamp() -> str:
    t = _env_int("SOURCE_DATE_EPOCH", int(time.time()))
    try:
        return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(t))
    except (OverflowError, OSError, ValueError):
        raise ValidationError("environment variable SOURCE_DATE_EPOCH is out of the "
                              f"platform's time range, got {t}") from None


def _default_seed() -> int:
    return _env_int("QSSLAB_SEED", 0)


def build_manifest(command: str, nonce_source: str, seed: int,
                   rounds: int, mode_prior: float) -> dict:
    return {
        "command": command,
        "nonce_source": nonce_source,
        "seed": seed,
        "rounds": rounds,
        "mode_prior": mode_prior,
        "tool_version": __version__,
        "numerics": NUMERICS,
        "rng_contract": RNG_CONTRACT,
        "timestamp": _timestamp(),
    }


def manifest_hash(manifest: dict) -> str:
    blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# certify

def cmd_certify(args) -> int:
    manifest = build_manifest("certify", args.nonces, _default_seed(), 0, 0.5) \
        if args.out else None
    txt_path = args.out and _out(args.out.removesuffix(".json") + ".txt")
    _refuse_overwrite({"--out": args.out, "--out's .txt": txt_path}, [("--nonces", args.nonces)])
    nonce_set = resolve_nonce_source(args.nonces)
    report = analysis.certify(nonce_set)
    text = analysis.format_certification(nonce_set, report)
    sys.stdout.write(text)
    if args.out:
        write_json(args.out, {
            "kind": "certification",
            "manifest": manifest,
            "certification": report.to_json_dict(),
        })
        with open(txt_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    failed = [c for c in ("recoverable", "secret", "imr_protected") if not getattr(report, c)]
    if failed:
        raise CertificationError(f"failed {', '.join(failed)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# attack

def _decode_alpha(raw) -> np.ndarray:
    """The ``--alpha`` file: a normalized two-qubit state as [re, im] pairs."""
    return validate_state(complex_from_json(raw, (4,), "alpha"), dim=4, what="alpha")


def cmd_attack(args) -> int:
    _refuse_overwrite({"--out": args.out}, [("--nonces", args.nonces), ("--alpha", args.alpha)])
    nonce_set = resolve_nonce_source(args.nonces)
    alpha = load_json(args.alpha, _decode_alpha) if args.alpha else None
    plan = adversary.synthesize_plan(nonce_set, args.policy, alpha=alpha)
    overlaps = adversary.plan_overlaps(plan, nonce_set)
    for (i, s), val in sorted(overlaps.items()):
        sys.stdout.write(f"nonce {i + 1}  secret {s}  achieved overlap {val:.12f}\n")
    avg = sum(overlaps.values()) / len(overlaps)
    sys.stdout.write(f"average achieved overlap: {avg:.12f}\n")
    adversary.save_plan(plan, args.out)
    sys.stdout.write(f"plan written to {args.out}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate

def _parse_strategy(selector: str, nonce_set: NonceSet):
    if selector == "honest":
        return adversary.honest_strategy()
    if selector == "imr-guess" or selector.startswith("imr-guess:"):
        if ":" in selector:
            raw = selector.split(":", 1)[1]
            try:
                guess = int(raw) - 1
            except ValueError:
                raise ValidationError(f"imr-guess index must be an integer, got {raw!r}") from None
            if not 0 <= guess < len(nonce_set):
                raise ValidationError(
                    f"imr-guess index {raw} out of range 1..{len(nonce_set)}")
            return adversary.imr_guess_strategy(guess, nonce_set)
        return adversary.imr_guess_strategy("uniform-random", nonce_set)
    if selector.startswith("ifr:"):
        path = selector.split(":", 1)[1]
        if not path:
            raise ValidationError("--strategy: ifr: needs a plan path, as in ifr:<plan path>")
        return load_json(path, lambda raw: adversary.ifr_strategy(
            adversary.AttackPlan.from_json_dict(raw), nonce_set))
    raise ValidationError(
        f"unknown strategy {selector!r}; use honest, imr-guess[:j] or ifr:<plan path>")


def cmd_simulate(args) -> int:
    _refuse_overwrite({"--out": args.out, "--transcripts": args.transcripts}, [
        ("--nonces", args.nonces), ("--strategy", args.strategy.partition("ifr:")[2])])
    nonce_set = resolve_nonce_source(args.nonces)
    strategy = _parse_strategy(args.strategy, nonce_set)
    seed = args.seed if args.seed is not None else _default_seed()
    manifest = build_manifest("simulate", args.nonces, seed, args.rounds, args.mode_prior)

    exact = outcome_distribution(nonce_set, strategy, mode_prior=args.mode_prior)
    result = {
        "nonce_set": nonce_set.name,
        "strategy": strategy.name,
        "mode_prior": args.mode_prior,
        "exact_p_detect": exact.p_detect,
        "exact_p_eve_knows_secret": exact.p_eve_knows_secret,
        "exact_verdict_probs": exact.verdict_probs,
    }
    if args.exact:
        result.update({"rounds": 0, "p_detect": exact.p_detect, "stderr": None,
                       "p_eve_knows_secret": exact.p_eve_knows_secret})
    else:
        cfg = RoundConfig(nonce_set=nonce_set, rng_seed=seed, mode_prior=args.mode_prior)
        if args.transcripts:
            with open(args.transcripts, "w", encoding="utf-8") as sink:
                counts, eve_hits = tally_rounds(
                    cfg, strategy, args.rounds,
                    on_round=lambda t: sink.write(json_line(t.to_json_dict())))
        else:
            counts, eve_hits = tally_rounds(cfg, strategy, args.rounds)
        p, stderr = detection_rate(counts)
        result.update({
            "rounds": args.rounds,
            "seed": seed,
            "p_detect": p,
            "stderr": stderr,
            "p_eve_knows_secret": eve_hits / args.rounds,
            "verdict_counts": counts,
        })
    sys.stdout.write(
        f"{nonce_set.name} / {strategy.name}: p_detect={result['p_detect']:.6g} "
        f"(exact {exact.p_detect:.6g}), eve_knows_secret={result['p_eve_knows_secret']:.6g}\n"
    )
    if args.out:
        write_json(args.out, {"kind": "simulation", "manifest": manifest,
                              "simulation": result})
    return EXIT_OK


# ---------------------------------------------------------------------------
# report

_ROW_TYPES = {
    "a boolean": lambda v: isinstance(v, bool),
    # abs(v) < inf, unlike math.isfinite, takes ints beyond float range.
    "a finite number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
    and abs(v) < math.inf,
    "a non-negative integer": lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 0,
    "a string": lambda v: isinstance(v, str),
    "null or an object with a floor and a ceiling":
    lambda v: v is None or isinstance(v, dict) and {"floor", "ceiling"} <= v.keys(),
}

# (field of the report body, column, type) of each row value; a
# certification's detection bounds are null when it has none.
_CERT_FIELDS = (("nonce_set_name", "nonce_set", "a string"),
                *((c, c, "a boolean") for c in ("recoverable", "secret", "imr_protected")),
                *((f"r_of_s.{s}", f"r_{s}", "a finite number") for s in SECRETS),
                ("detection_bounds", "detection_bounds",
                 "null or an object with a floor and a ceiling"))
_BOUNDS_FIELDS = tuple((f"detection_bounds.{b}", f"detection_{b}", "a finite number")
                       for b in ("floor", "ceiling"))
_SIM_FIELDS = (*((c, c, "a string") for c in ("nonce_set", "strategy")),
               ("rounds", "rounds", "a non-negative integer"),
               *((c, c, "a finite number")
                 for c in ("p_detect", "exact_p_detect", "p_eve_knows_secret")))
# The merged table's columns, in order: every row value's but the
# certification's detection-bounds object, whose floor and ceiling are columns.
_REPORT_COLUMNS = tuple(dict.fromkeys(
    column for fields in (_SIM_FIELDS, _CERT_FIELDS, _BOUNDS_FIELDS)
    for _, column, _ in fields if column != "detection_bounds"))


def _row_values(kind: str, body: dict, fields) -> dict:
    """The row values at ``fields`` of a report body, each checked for its type."""
    row = {}
    for field, column, expected in fields:
        value = body
        for key in field.split("."):
            value = value[key]
        if not _ROW_TYPES[expected](value):
            got = json.dumps(value)
            raise ValidationError(f"schema mismatch: {kind}.{field} must be {expected}, "
                                  f"got {got if len(got) <= 40 else got[:37] + '...'}")
        row[column] = value
    return row


def _report_entry(payload) -> tuple:
    """A report file's manifest hash and its row of the merged table."""
    if not isinstance(payload, dict):
        raise ValidationError(
            f"not a qsslab report (expected a JSON object, got {type(payload).__name__})")
    if "manifest" not in payload or "kind" not in payload:
        raise ValidationError("not a qsslab report (missing manifest/kind)")
    kind = payload["kind"]
    if kind not in ("certification", "simulation"):
        raise ValidationError("schema mismatch: unrecognized report kind")
    row = {c: "" for c in _REPORT_COLUMNS}
    try:
        body = payload[kind]
        if not isinstance(body, dict):
            raise TypeError(f'"{kind}" must be an object')
        if kind == "certification":
            row.update(_row_values(kind, body, _CERT_FIELDS), strategy="-")
            if row.pop("detection_bounds") is not None:
                row.update(_row_values(kind, body, _BOUNDS_FIELDS))
        else:
            row.update(_row_values(kind, body, _SIM_FIELDS))
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"schema mismatch: {exc}") from exc
    return manifest_hash(payload["manifest"]), row


def cmd_report(args) -> int:
    json_path, csv_path = _out(args.out + ".json"), _out(args.out + ".csv")
    _refuse_overwrite({"--out's .json": json_path, "--out's .csv": csv_path},
                      [("--inputs", path) for path in args.inputs])
    # Every file is decoded, duplicates too, so a malformed one always names itself.
    rows = {}
    for path in args.inputs:
        digest, row = load_json(path, _report_entry)
        rows.setdefault(digest, row)
    rows = sorted(rows.values(), key=lambda r: (str(r["nonce_set"]), str(r["strategy"])))
    write_json(json_path, {"columns": list(_REPORT_COLUMNS), "rows": rows})
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_REPORT_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    sys.stdout.write(f"merged {len(rows)} report(s) into {args.out}.json / {args.out}.csv\n")
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsslab",
        description="Simulator and security analysis for a Grover-based "
                    "(2,2) quantum secret-sharing protocol.",
    )
    parser.add_argument("--version", action="version", version=f"qsslab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="certify a nonce set (recoverability, secrecy, IMR)")
    p.add_argument("--nonces", required=True, type=_source,
                   help="builtin:<hsu-I|proposed-J> or a nonce-set JSON path")
    p.add_argument("--out", type=_out, help="write the JSON report here (plus a .txt table)")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("attack", help="synthesize an intercept-fake-resend plan")
    p.add_argument("--nonces", required=True, type=_source)
    p.add_argument("--policy", required=True,
                   choices=[adversary.POLICY_TARGET_SECRET, adversary.POLICY_TARGET_01])
    p.add_argument("--alpha", type=_path,
                   help="optional JSON file [[re,im] x4] forcing the fake state")
    p.add_argument("--out", required=True, type=_out, help="plan JSON output path")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("simulate", help="run protocol rounds against a strategy")
    p.add_argument("--nonces", required=True, type=_source)
    p.add_argument("--strategy", required=True,
                   help="honest | imr-guess[:j] (1-based) | ifr:<plan path>")
    p.add_argument("--rounds", type=_rounds, default=10000)
    p.add_argument("--seed", type=_natural, default=None,
                   help="defaults to QSSLAB_SEED, then 0")
    p.add_argument("--mode-prior", type=_prior, default=0.5, dest="mode_prior",
                   help="probability of a SECRET-mode round, in [0, 1]")
    # An exact run plays no rounds, so it has no transcripts to write.
    play = p.add_mutually_exclusive_group()
    play.add_argument("--exact", action="store_true",
                      help="exact enumeration instead of Monte Carlo")
    play.add_argument("--transcripts", type=_out, help="write JSON-lines transcripts here")
    p.add_argument("--out", type=_out, help="write the JSON report here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("report", help="merge report files into a comparison table")
    p.add_argument("--inputs", nargs="*", type=_path, default=[])
    p.add_argument("--out", required=True, type=_path,
                   help="output path stem (.json/.csv appended)")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CertificationError as exc:  # only certify and attack certify a set
        sys.stderr.write(f"certification failure: {args.nonces}: {exc}\n")
        return EXIT_CERTIFICATION
    except (ValidationError, OSError, argparse.ArgumentTypeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    except Exception as exc:  # exit 3 with one line, never a traceback
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
