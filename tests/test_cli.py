import json

import numpy as np
import pytest

from qsslab.adversary import honest_strategy, ifr_strategy, imr_guess_strategy, load_plan
from qsslab.cli import main
from qsslab.nonces import builtin_nonce_set
from qsslab.protocol import RoundConfig, estimate_detection, outcome_distribution


@pytest.fixture(autouse=True)
def fixed_epoch(monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    monkeypatch.delenv("QSSLAB_SEED", raising=False)


def run(argv):
    return main(argv)


def _write_near_recoverable(tmp_path):
    """A two-nonce set whose overlap deviation, about 7.5e-8, is above the
    1e-9 recoverability threshold but inside the loader's 1e-6
    renormalization."""
    path = tmp_path / "near.json"
    path.write_text(json.dumps({"name": "near", "states": [
        [[0.5000001, 0.0], [0.5, 0.0], [0.5, 0.0], [0.5, 0.0]],
        [[0.5, 0.0], [0.5, 0.0], [-0.5, 0.0], [0.5, 0.0]],
    ]}))
    return path


class TestCertifyCommand:
    def test_proposed_passes(self, tmp_path, capsys):
        out = tmp_path / "cert.json"
        code = run(["certify", "--nonces", "builtin:proposed-J", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        cert = payload["certification"]
        assert cert["recoverable"] and cert["secret"] and cert["imr_protected"]
        assert all(abs(v - 0.5) < 1e-9 for v in cert["r_of_s"].values())
        assert (tmp_path / "cert.txt").exists()
        assert "PASS" in capsys.readouterr().out

    def test_hsu_passes_with_r_one(self, tmp_path):
        out = tmp_path / "cert.json"
        assert run(["certify", "--nonces", "builtin:hsu-I", "--out", str(out)]) == 0
        cert = json.loads(out.read_text())["certification"]
        assert all(abs(v - 1.0) < 1e-9 for v in cert["r_of_s"].values())

    def test_failing_set_exits_one(self, tmp_path):
        bad = tmp_path / "single00.json"
        bad.write_text(json.dumps({
            "name": "single-00",
            "states": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]],
        }))
        code = run(["certify", "--nonces", str(bad), "--out", str(tmp_path / "c.json")])
        assert code == 1
        cert = json.loads((tmp_path / "c.json").read_text())["certification"]
        assert not cert["recoverable"]

    def test_near_recoverable_set_fails_without_bounds(self, tmp_path):
        near = _write_near_recoverable(tmp_path)
        code = run(["certify", "--nonces", str(near), "--out", str(tmp_path / "c.json")])
        assert code == 1
        cert = json.loads((tmp_path / "c.json").read_text())["certification"]
        assert cert["recoverable"] is False and cert["detection_bounds"] is None
        text = (tmp_path / "c.txt").read_text()
        assert "recoverable    FAIL" in text and "detection floor" not in text

    def test_failure_names_source_and_checks_on_stderr(self, tmp_path, capsys):
        near = _write_near_recoverable(tmp_path)
        assert run(["certify", "--nonces", str(near)]) == 1
        out, err = capsys.readouterr()
        assert err == (f"certification failure: {near}: "
                       "failed recoverable, secret, imr_protected\n")
        assert "recoverable    FAIL" in out

    def test_malformed_file_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        assert run(["certify", "--nonces", str(bad)]) == 2
        assert "line" in capsys.readouterr().err

    def test_non_normalized_state_names_index(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "name": "x",
            "states": [
                [[0.5, 0.0], [0.5, 0.0], [0.5, 0.0], [0.5, 0.0]],
                [[0.9, 0.0], [0.1, 0.0], [0.0, 0.0], [0.0, 0.0]],
            ],
        }))
        assert run(["certify", "--nonces", str(bad)]) == 2
        assert "state 2" in capsys.readouterr().err

    def test_unknown_builtin_exits_two(self):
        assert run(["certify", "--nonces", "builtin:nope"]) == 2


class TestAttackCommand:
    def test_hsu_target_secret(self, tmp_path, capsys):
        out = tmp_path / "plan.json"
        code = run(["attack", "--nonces", "builtin:hsu-I",
                    "--policy", "target-secret", "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "average achieved overlap: 1.000000000000" in text
        plan = json.loads(out.read_text())
        assert plan["policy"] == "target-secret"
        assert len(plan["v_table"]) == 64

    def test_proposed_target_secret_average_half(self, tmp_path, capsys):
        out = tmp_path / "plan.json"
        assert run(["attack", "--nonces", "builtin:proposed-J",
                    "--policy", "target-secret", "--out", str(out)]) == 0
        assert "average achieved overlap: 0.500000000000" in capsys.readouterr().out

    def test_uncertified_set_refused(self, tmp_path, capsys):
        bad = tmp_path / "single00.json"
        bad.write_text(json.dumps({
            "name": "single-00",
            "states": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]],
        }))
        code = run(["attack", "--nonces", str(bad), "--policy", "target-01",
                    "--out", str(tmp_path / "p.json")])
        assert code == 1
        assert "recoverab" in capsys.readouterr().err

    def test_forced_alpha(self, tmp_path, capsys):
        alpha_path = tmp_path / "alpha.json"
        s2 = 1 / np.sqrt(2)
        alpha_path.write_text(json.dumps([[0, 0], [s2, 0], [s2, 0], [0, 0]]))
        out = tmp_path / "plan.json"
        assert run(["attack", "--nonces", "builtin:hsu-I", "--policy", "target-secret",
                    "--alpha", str(alpha_path), "--out", str(out)]) == 0
        assert "average achieved overlap: 1.000000000000" in capsys.readouterr().out


class TestSimulateCommand:
    def test_honest_exact(self, tmp_path):
        out = tmp_path / "sim.json"
        code = run(["simulate", "--nonces", "builtin:proposed-J", "--strategy", "honest",
                    "--exact", "--out", str(out)])
        assert code == 0
        sim = json.loads(out.read_text())["simulation"]
        assert sim["p_detect"] == 0.0
        assert sim["exact_p_detect"] == 0.0

    def test_ifr_monte_carlo_matches_exact(self, tmp_path):
        plan = tmp_path / "plan.json"
        assert run(["attack", "--nonces", "builtin:proposed-J",
                    "--policy", "target-01", "--out", str(plan)]) == 0
        out = tmp_path / "sim.json"
        code = run(["simulate", "--nonces", "builtin:proposed-J",
                    "--strategy", f"ifr:{plan}", "--rounds", "4000",
                    "--seed", "42", "--out", str(out)])
        assert code == 0
        sim = json.loads(out.read_text())["simulation"]
        assert sim["exact_p_detect"] == pytest.approx(0.5, abs=1e-9)
        assert abs(sim["p_detect"] - 0.5) <= 4 * sim["stderr"]
        assert sim["p_eve_knows_secret"] == 1.0

    def test_imr_guess_strategy_spec(self, tmp_path):
        out = tmp_path / "sim.json"
        code = run(["simulate", "--nonces", "builtin:proposed-J",
                    "--strategy", "imr-guess:2", "--rounds", "500",
                    "--seed", "3", "--out", str(out)])
        assert code == 0
        sim = json.loads(out.read_text())["simulation"]
        assert sim["strategy"] == "imr-guess:2"

    def test_transcript_export(self, tmp_path):
        lines_path = tmp_path / "rounds.jsonl"
        code = run(["simulate", "--nonces", "builtin:proposed-J", "--strategy", "honest",
                    "--rounds", "50", "--seed", "5", "--transcripts", str(lines_path)])
        assert code == 0
        lines = lines_path.read_text().splitlines()
        assert len(lines) == 50
        rounds = [json.loads(line) for line in lines]
        assert [r["round"] for r in rounds] == list(range(50))
        first = rounds[0]
        for key in ("mode", "s", "nonce_index", "announced_nonce", "forwarded_to_bob",
                    "measured_b", "verdict", "eve_learned_secret"):
            assert key in first
        assert all(r["verdict"] in ("RETIRED", "ROUND_DROPPED") for r in rounds)

    def test_plan_nonce_set_mismatch(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        assert run(["attack", "--nonces", "builtin:proposed-J",
                    "--policy", "target-01", "--out", str(plan)]) == 0
        code = run(["simulate", "--nonces", "builtin:hsu-I",
                    "--strategy", f"ifr:{plan}", "--rounds", "10"])
        assert code == 2

    def test_unknown_strategy(self):
        assert run(["simulate", "--nonces", "builtin:proposed-J",
                    "--strategy", "quantum-telepathy", "--rounds", "10"]) == 2

    def test_byte_identical_reruns(self, tmp_path):
        args = ["simulate", "--nonces", "builtin:proposed-J", "--strategy", "honest",
                "--rounds", "200", "--seed", "11"]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run(args + ["--out", str(out1)]) == 0
        assert run(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("selector", ["honest", "imr-guess", "ifr"])
    def test_monte_carlo_matches_estimate_detection(self, tmp_path, selector):
        """The command and the library run the same rounds: equal bits."""
        ns = builtin_nonce_set("proposed-J")
        if selector == "ifr":
            plan = tmp_path / "plan.json"
            assert run(["attack", "--nonces", "builtin:proposed-J",
                        "--policy", "target-secret", "--out", str(plan)]) == 0
            strategy, selector = ifr_strategy(load_plan(plan), ns), f"ifr:{plan}"
        elif selector == "honest":
            strategy = honest_strategy()
        else:
            strategy = imr_guess_strategy("uniform-random", ns)
        out = tmp_path / "sim.json"
        assert run(["simulate", "--nonces", "builtin:proposed-J", "--strategy", selector,
                    "--rounds", "2000", "--seed", "19", "--out", str(out)]) == 0
        sim = json.loads(out.read_text())["simulation"]
        p, stderr = estimate_detection(RoundConfig(nonce_set=ns, rng_seed=19), strategy, 2000)
        assert (sim["p_detect"], sim["stderr"]) == (p, stderr)
        assert sum(sim["verdict_counts"].values()) == 2000
        assert sim["verdict_counts"]["EAVESDROPPER_DETECTED"] == round(p * 2000)

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QSSLAB_SEED", "77")
        out = tmp_path / "sim.json"
        assert run(["simulate", "--nonces", "builtin:proposed-J", "--strategy", "honest",
                    "--rounds", "20", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["simulation"]["seed"] == 77


class TestReportCommand:
    def _make_inputs(self, tmp_path):
        certs = []
        for name in ("proposed-J", "hsu-I"):
            path = tmp_path / f"cert-{name}.json"
            assert run(["certify", "--nonces", f"builtin:{name}", "--out", str(path)]) == 0
            certs.append(str(path))
        sim = tmp_path / "sim.json"
        assert run(["simulate", "--nonces", "builtin:proposed-J", "--strategy", "honest",
                    "--rounds", "100", "--seed", "1", "--out", str(sim)]) == 0
        return certs + [str(sim)]

    def test_merge(self, tmp_path):
        inputs = self._make_inputs(tmp_path)
        stem = str(tmp_path / "merged")
        assert run(["report", "--inputs", *inputs, "--out", stem]) == 0
        table = json.loads((tmp_path / "merged.json").read_text())
        assert len(table["rows"]) == 3
        names = {row["nonce_set"] for row in table["rows"]}
        assert names == {"proposed-J", "hsu-I"}
        csv_text = (tmp_path / "merged.csv").read_text()
        assert csv_text.splitlines()[0].startswith("nonce_set,strategy")

    def test_duplicates_removed(self, tmp_path):
        inputs = self._make_inputs(tmp_path)
        stem = str(tmp_path / "merged")
        assert run(["report", "--inputs", *inputs, inputs[0], "--out", stem]) == 0
        table = json.loads((tmp_path / "merged.json").read_text())
        assert len(table["rows"]) == 3

    def test_empty_inputs(self, tmp_path):
        stem = str(tmp_path / "empty")
        assert run(["report", "--out", stem]) == 0
        table = json.loads((tmp_path / "empty.json").read_text())
        assert table["rows"] == []

    def test_schema_mismatch_names_file(self, tmp_path, capsys):
        junk = tmp_path / "junk.json"
        junk.write_text(json.dumps({"hello": 1}))
        assert run(["report", "--inputs", str(junk), "--out", str(tmp_path / "m")]) == 2
        assert "junk.json" in capsys.readouterr().err


class TestManifest:
    def test_embedded_in_outputs(self, tmp_path):
        out = tmp_path / "sim.json"
        run(["simulate", "--nonces", "builtin:proposed-J", "--strategy", "honest",
             "--rounds", "10", "--seed", "2", "--out", str(out)])
        manifest = json.loads(out.read_text())["manifest"]
        assert manifest["command"] == "simulate"
        assert manifest["nonce_source"] == "builtin:proposed-J"
        assert manifest["seed"] == 2
        assert manifest["tool_version"]
        assert manifest["timestamp"] == "2023-11-14T22:13:20Z"


_SIM = ["simulate", "--nonces", "builtin:proposed-J", "--strategy", "honest"]


@pytest.mark.parametrize("argv, env, code, message", [
    (_SIM + ["--rounds", "0"], {}, 2, "--rounds: must be >= 1, got 0"),
    (_SIM + ["--rounds", "-5"], {}, 2, "--rounds: must be >= 1, got -5"),
    (_SIM + ["--rounds", "many"], {}, 2, "--rounds: expected an integer"),
    (_SIM + ["--seed", "-1"], {}, 2, "--seed: must be >= 0, got -1"),
    (_SIM + ["--rounds", "5"], {"QSSLAB_SEED": "abc"}, 2, "QSSLAB_SEED"),
    (_SIM + ["--rounds", "5"], {"QSSLAB_SEED": "-3"}, 2, "QSSLAB_SEED"),
    (["certify", "--nonces", "builtin:proposed-J", "--out", "{tmp}/c.json"],
     {"SOURCE_DATE_EPOCH": "x"}, 2, "SOURCE_DATE_EPOCH"),
    (_SIM + ["--rounds", "5", "--out", "{tmp}/s.json"],
     {"SOURCE_DATE_EPOCH": "x"}, 2, "SOURCE_DATE_EPOCH"),
    (["certify", "--nonces", "{tmp}"], {}, 2, "Is a directory"),
    (["certify", "--nonces", "{tmp}/missing.json"], {}, 2, "missing.json"),
    (["certify", "--nonces", "{tmp}/states5.json"], {}, 2, '"states" must be a list'),
    (["report", "--inputs", "{tmp}/number.json", "--out", "{tmp}/m"], {}, 2, "number.json"),
    (["report", "--inputs", "{tmp}/string.json", "--out", "{tmp}/m"], {}, 2, "string.json"),
    (["report", "--inputs", "{tmp}/latin1.json", "--out", "{tmp}/m"], {}, 2, "latin1.json"),
    (["certify", "--nonces", "{tmp}/latin1.json"], {}, 2, "latin1.json"),
    (_SIM[:4] + ["ifr:{tmp}/vtable_list.json", "--rounds", "5"], {}, 2, "vtable_list.json"),
    (_SIM[:4] + ["ifr:{tmp}/nan_plan.json", "--exact"], {}, 2, "nan_plan.json"),
    (["attack", "--nonces", "builtin:proposed-J", "--policy", "target-01",
      "--alpha", "{tmp}/alpha5.json", "--out", "{tmp}/p.json"], {}, 2, "alpha5.json"),
    (["certify", "--nonces", "builtin:proposed-J", "--tol", "1e-6"], {}, 2,
     "unrecognized arguments: --tol 1e-6"),
    # near.json is just off the recoverability threshold that certify shares.
    (["attack", "--nonces", "{tmp}/near.json", "--policy", "target-secret",
      "--out", "{tmp}/p.json"], {}, 1, "nonce set is not recoverable"),
    (["attack", "--nonces", "{tmp}/near.json", "--policy", "target-01",
      "--out", "{tmp}/p.json"], {}, 1, "nonce set is not recoverable"),
    (["attack", "--nonces", "{tmp}/near.json", "--policy", "target-01",
      "--alpha", "{tmp}/alpha00.json", "--out", "{tmp}/p.json"], {}, 1,
     "nonce set is not recoverable"),
    (_SIM + ["--exact", "--transcripts", "{tmp}/t.jsonl", "--out", "{tmp}/s.json"], {}, 2,
     "--transcripts"),
    (_SIM + ["--mode-prior", "nan"], {}, 2, "--mode-prior: must be"),
    (_SIM + ["--mode-prior", "inf"], {}, 2, "--mode-prior: must be"),
    (_SIM + ["--mode-prior", "-0.5"], {}, 2, "--mode-prior: must be"),
    (_SIM + ["--mode-prior", "1.5"], {}, 2, "--mode-prior: must be"),
    (["certify", "--nonces", "{tmp}/huge_state.json"], {}, 2, "huge_state.json"),
    (["attack", "--nonces", "builtin:proposed-J", "--policy", "target-01",
      "--alpha", "{tmp}/huge_alpha.json", "--out", "{tmp}/p.json"], {}, 2, "huge_alpha.json"),
    (_SIM[:4] + ["ifr:{tmp}/huge_plan.json", "--rounds", "5"], {}, 2, "huge_plan.json"),
    (["certify", "--nonces", ""], {}, 2, "--nonces"),
    (_SIM[:4] + ["ifr:", "--rounds", "5"], {}, 2, "--strategy"),
    (_SIM[:4] + ["ifr:{tmp}/holed_plan.json", "--rounds", "5"], {}, 2,
     "holed_plan.json: attack plan has no unitary for nonce 3, secret 01"),
    (["certify", "--nonces", "builtin:proposed-J", "--out", ""], {}, 2, "--out"),
    (["attack", "--nonces", "builtin:proposed-J", "--policy", "target-01",
      "--alpha", "", "--out", "{tmp}/p.json"], {}, 2, "--alpha"),
    (["attack", "--nonces", "builtin:proposed-J", "--policy", "target-01", "--out", ""], {}, 2,
     "--out"),
    (_SIM + ["--rounds", "5", "--out", ""], {}, 2, "--out"),
    (_SIM + ["--rounds", "5", "--transcripts", ""], {}, 2, "--transcripts"),
    (["report", "--inputs", "", "--out", "{tmp}/m"], {}, 2, "--inputs"),
    (["report", "--out", ""], {}, 2, "--out"),
    (["certify", "--nonces", "builtin:proposed-J", "--out", "{tmp}/c.json"],
     {"SOURCE_DATE_EPOCH": "99999999999999999999"}, 2,
     "SOURCE_DATE_EPOCH is out of the platform's time range"),
    (_SIM + ["--rounds", "5"], {"SOURCE_DATE_EPOCH": "99999999999999999999"}, 2,
     "SOURCE_DATE_EPOCH is out of the platform's time range"),
    (["certify", "--nonces", "{tmp}/name_null.json"], {}, 2,
     'name_null.json: "name" must be a string, got NoneType'),
    (["certify", "--nonces", "{tmp}/name_object.json"], {}, 2,
     'name_object.json: "name" must be a string, got dict'),
    (_SIM[:4] + ["ifr:{tmp}/padded_plan.json", "--rounds", "5"], {}, 2,
     "padded_plan.json: v_table key '01,00' must read"),
    (_SIM[:4] + ["ifr:{tmp}/long_index_plan.json", "--rounds", "5"], {}, 2,
     "long_index_plan.json: v_table key '11111111111111111111"),
    # A plan names its target by its policy; "custom" names none.
    (_SIM[:4] + ["ifr:{tmp}/custom_plan.json", "--exact"], {}, 2,
     "custom_plan.json: policy must be one of"),
    # report checks the type of every value it puts in a row.
    (["report", "--inputs", "{tmp}/maybe.json", "--out", "{tmp}/m"], {}, 2,
     'maybe.json: schema mismatch: certification.recoverable must be a boolean, got "maybe"'),
    (["report", "--inputs", "{tmp}/r_list.json", "--out", "{tmp}/m"], {}, 2,
     "r_list.json: schema mismatch: certification.r_of_s.00 must be a finite number, got [1, 2]"),
    (["report", "--inputs", "{tmp}/r_bool.json", "--out", "{tmp}/m"], {}, 2,
     "r_bool.json: schema mismatch: certification.r_of_s.01 must be a finite number, got true"),
    (["report", "--inputs", "{tmp}/floor_nan.json", "--out", "{tmp}/m"], {}, 2,
     "floor_nan.json: schema mismatch: certification.detection_bounds.floor must be a finite "
     "number, got NaN"),
    (["report", "--inputs", "{tmp}/set_int.json", "--out", "{tmp}/m"], {}, 2,
     "set_int.json: schema mismatch: certification.nonce_set_name must be a string, got 5"),
    (["report", "--inputs", "{tmp}/rounds_neg.json", "--out", "{tmp}/m"], {}, 2,
     "rounds_neg.json: schema mismatch: simulation.rounds must be a non-negative integer, got -1"),
    (["report", "--inputs", "{tmp}/rounds_float.json", "--out", "{tmp}/m"], {}, 2,
     "rounds_float.json: schema mismatch: simulation.rounds must be a non-negative integer, "
     "got 2.5"),
    (["report", "--inputs", "{tmp}/p_str.json", "--out", "{tmp}/m"], {}, 2,
     'p_str.json: schema mismatch: simulation.p_detect must be a finite number, got "0.5"'),
    (["report", "--inputs", "{tmp}/strategy_null.json", "--out", "{tmp}/m"], {}, 2,
     "strategy_null.json: schema mismatch: simulation.strategy must be a string, got null"),
])
def test_bad_input_exit_codes(tmp_path, monkeypatch, capsys, argv, env, code, message):
    (tmp_path / "states5.json").write_text(json.dumps({"name": "x", "states": 5}))
    for label, name in (("null", None), ("object", {"a": 1})):
        (tmp_path / f"name_{label}.json").write_text(
            json.dumps({"name": name, "states": [[[0.5, 0.0]] * 4]}))
    (tmp_path / "number.json").write_text("5")
    (tmp_path / "string.json").write_text('"manifest kind"')
    (tmp_path / "latin1.json").write_bytes('{"name": "caf\u00e9"}'.encode("latin-1"))
    plan = {"alpha": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
            "policy": "target-01", "v_table": []}
    (tmp_path / "vtable_list.json").write_text(json.dumps(plan))
    plan["v_table"] = {f"{i},{s}": [[[float("nan"), 0.0]] * 2] * 2
                       for i in range(1, 5) for s in ("00", "01", "10", "11")}
    (tmp_path / "nan_plan.json").write_text(json.dumps(plan))
    plan["v_table"] = {f"{i},{s}": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
                       for i in range(1, 5) for s in ("00", "01", "10", "11") if (i, s) != (3, "01")}
    (tmp_path / "holed_plan.json").write_text(json.dumps(plan))
    plan["v_table"]["3,01"] = plan["v_table"]["01,00"] = plan["v_table"]["1,00"]
    (tmp_path / "padded_plan.json").write_text(json.dumps(plan))
    # An index longer than Python's int() digit limit (4300 by default).
    del plan["v_table"]["01,00"]
    plan["v_table"]["1" * 5000 + ",00"] = plan["v_table"]["1,00"]
    (tmp_path / "long_index_plan.json").write_text(json.dumps(plan))
    plan["v_table"] = {f"{i},{s}": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
                       for i in range(1, 5) for s in ("00", "01", "10", "11")}
    plan["policy"] = "custom"
    (tmp_path / "custom_plan.json").write_text(json.dumps(plan))
    cert = {"nonce_set_name": "x", "recoverable": True, "secret": True, "imr_protected": True,
            "r_of_s": dict.fromkeys(("00", "01", "10", "11"), 0.5),
            "detection_bounds": {"floor": 0.25, "ceiling": 0.625}}
    sim = {"nonce_set": "x", "strategy": "honest", "rounds": 5, "p_detect": 0.0,
           "exact_p_detect": 0.0, "p_eve_knows_secret": 0.0}
    for name, kind, body in (
            ("maybe", "certification", {**cert, "recoverable": "maybe"}),
            ("r_list", "certification", {**cert, "r_of_s": {**cert["r_of_s"], "00": [1, 2]}}),
            ("r_bool", "certification", {**cert, "r_of_s": {**cert["r_of_s"], "01": True}}),
            ("floor_nan", "certification",
             {**cert, "detection_bounds": {"floor": float("nan"), "ceiling": 0.625}}),
            ("set_int", "certification", {**cert, "nonce_set_name": 5}),
            ("rounds_neg", "simulation", {**sim, "rounds": -1}),
            ("rounds_float", "simulation", {**sim, "rounds": 2.5}),
            ("p_str", "simulation", {**sim, "p_detect": "0.5"}),
            ("strategy_null", "simulation", {**sim, "strategy": None})):
        (tmp_path / f"{name}.json").write_text(json.dumps({"kind": kind, "manifest": {}, kind: body}))
    (tmp_path / "alpha5.json").write_text(json.dumps([[0.5, 0.0]] * 4 + [[0.0, 0.0]]))
    (tmp_path / "alpha00.json").write_text(json.dumps([[1.0, 0.0]] + [[0.0, 0.0]] * 3))
    _write_near_recoverable(tmp_path)
    huge = [[1e200, 0.0]] + [[0.5, 0.0]] * 3
    (tmp_path / "huge_state.json").write_text(json.dumps({"name": "x", "states": [huge]}))
    (tmp_path / "huge_alpha.json").write_text(json.dumps(huge))
    (tmp_path / "huge_plan.json").write_text(
        json.dumps({"alpha": huge, "policy": "target-01", "v_table": {}}))
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    try:
        got = run(argv)
    except SystemExit as exc:  # argparse rejects bad flags at parse time
        got = exc.code
    err = capsys.readouterr().err
    assert got == code
    assert message in err
    assert "Traceback" not in err
    if code == 1:  # a certification failure names the --nonces source
        assert f"{argv[argv.index('--nonces') + 1]}: " in err
    assert not any((tmp_path / name).exists() for name in ("c.json", "s.json", "p.json"))


def test_unexpected_exception_exits_three(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise RuntimeError("unexpected")

    monkeypatch.setattr("qsslab.analysis.certify", boom)
    assert run(["certify", "--nonces", "builtin:proposed-J"]) == 3
    err = capsys.readouterr().err
    assert err == "internal error: RuntimeError: unexpected\n"


def _report_variants(tmp_path):
    """A certification report and broken copies that keep its manifest."""
    good = tmp_path / "good.json"
    assert run(["certify", "--nonces", "builtin:proposed-J", "--out", str(good)]) == 0
    payload = json.loads(good.read_text())
    variants = {
        "unknown_kind.json": {**payload, "kind": "nope"},
        "list_body.json": {**payload, "certification": [1, 2]},
        "missing_keys.json": {**payload, "certification": {"nonce_set_name": "x"}},
    }
    for name, body in variants.items():
        (tmp_path / name).write_text(json.dumps(body))


@pytest.mark.parametrize("argv, line", [
    (_SIM[:4] + ["imr-guess:x"], "imr-guess index must be an integer, got 'x'"),
    (_SIM[:4] + ["imr-guess:0"], "imr-guess index 0 out of range 1..4"),
    (_SIM[:4] + ["imr-guess:9"], "imr-guess index 9 out of range 1..4"),
    (["report", "--inputs", "{tmp}/unknown_kind.json"],
     "{tmp}/unknown_kind.json: schema mismatch: unrecognized report kind"),
    (["report", "--inputs", "{tmp}/list_body.json"],
     '{tmp}/list_body.json: schema mismatch: "certification" must be an object'),
    (["report", "--inputs", "{tmp}/missing_keys.json"],
     "{tmp}/missing_keys.json: schema mismatch: 'recoverable'"),
    # The broken file repeats good.json's manifest; it is decoded all the same.
    (["report", "--inputs", "{tmp}/good.json", "{tmp}/missing_keys.json"],
     "{tmp}/missing_keys.json: schema mismatch: 'recoverable'"),
])
def test_bad_selector_and_report_exit_codes(tmp_path, capsys, argv, line):
    _report_variants(tmp_path)
    capsys.readouterr()
    tail = ["--rounds", "5"] if argv[0] == "simulate" else ["--out", "{tmp}/m"]
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv + tail]
    assert run(argv) == 2
    assert capsys.readouterr().err == "error: " + line.replace("{tmp}", str(tmp_path)) + "\n"
    assert not (tmp_path / "m.json").exists()


def test_exact_mode_prior_reaches_the_engine(tmp_path):
    out = tmp_path / "sim.json"
    assert run(["simulate", "--nonces", "builtin:proposed-J", "--strategy", "imr-guess",
                "--exact", "--mode-prior", "0.3", "--out", str(out)]) == 0
    ns = builtin_nonce_set("proposed-J")
    want = outcome_distribution(ns, imr_guess_strategy("uniform-random", ns), mode_prior=0.3)
    sim = json.loads(out.read_text())["simulation"]
    assert sim["mode_prior"] == 0.3
    assert sim["p_detect"] == want.p_detect
