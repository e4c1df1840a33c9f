"""Smoke-size self-test of the benchmark harness (tiny heights, one query of each kind)."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _load_run():
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


run = _load_run()


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", "--seconds", "1", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    return line


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_end_to_end_metric(workload):
    line = _result(_bench("--workload", workload, "--seed", "5", "--size", "smoke", "--trace", "0"))
    assert list(line["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
        assert line["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", ["casimir-sweep", "exact-queries"])
def test_smoke_traced_run_reports_every_per_layer_metric(workload):
    line = _result(_bench("--workload", workload, "--seed", "5", "--size", "smoke", "--trace", "1"))
    assert sorted(line["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])
    metrics = {k: v["value"] for k, v in line["metrics"].items()}
    assert metrics["fusion.tensor_decompose.calls"] >= metrics["fusion.tensor_decompose.distinct"] > 0
    assert metrics["fusion.warm_call_us"] > 0
    if workload == "casimir-sweep":
        # Unordered pairs: no fusion repeats, and every triple is a central-weight triple.
        assert metrics["fusion.repeat_ratio"] == 0
        assert metrics["central_weights.triples"] == metrics["fusion.components"] == 268 + 43
    else:
        for name in ("characters.weight_multiplicities.calls", "sl2_oracle.verify_norm_formula.calls",
                     "cb_region.decisions"):
            assert metrics[name] >= 1


def test_same_seed_gives_same_inputs():
    for workload in run.WORKLOADS:
        a = [c.argv for c in run.make_pass(workload, run.random.Random(f"{workload}:9"), "full")]
        b = [c.argv for c in run.make_pass(workload, run.random.Random(f"{workload}:9"), "full")]
        assert a == b


def test_every_sweep_command_has_an_expected_output():
    expected = json.loads(run.EXPECTED_FILE.read_text())
    for size in run.SIZES:
        for workload in run.WORKLOADS:
            for choices in run.sweep_slots(workload, size).values():
                for argv in choices:
                    assert " ".join(argv) in expected


def test_gate_rejects_wrong_outputs():
    expected = json.loads(run.EXPECTED_FILE.read_text())
    checker = run.Checker(expected)
    sweep = run.Command("casimir-B2", ["casimir-check", "--type", "B2", "--height", "2",
                                       "--format", "json"])
    good = expected[sweep.key]["stdout"].encode()
    assert checker.check(sweep, 0, good) == (None, 268)
    assert checker.check(sweep, 0, good.replace(b"true", b"false"))[0] is not None
    assert checker.check(sweep, 2, good)[0] is not None

    fusion = run.Command("fusion-A2", ["fusion", "--type", "A2", "--lambda", "1,0", "--mu", "0,1",
                                       "--format", "json"])
    ok = {"components": [{"nu": [1, 1], "mult": 1}, {"nu": [0, 0], "mult": 1}]}
    assert checker.check(fusion, 0, json.dumps(ok).encode()) == (None, 2)
    bad = {"components": [{"nu": [1, 1], "mult": 1}]}
    assert checker.check(fusion, 0, json.dumps(bad).encode())[0] is not None

    character = run.Command("character-small", ["character", "--type", "G2", "--mu", "1,0",
                                                "--format", "json"])
    assert checker.check(character, 0, b'{"dim": 7}') == (None, 0)
    assert checker.check(character, 0, b'{"dim": 8}')[0] is not None
    norm = run.Command("norm-A2", ["norm", "--type", "A2", "--lambda", "3,3", "--mu", "1,0",
                                   "--format", "json"])
    assert checker.check(norm, 0, b'{"match": true}') == (None, 3)
    assert checker.check(norm, 0, b'{"match": false}')[0] is not None
    oracle = run.Command("oracle-small", ["oracle-sl2"])
    assert checker.check(oracle, 0, b'{"passed": false, "failures": ["x"]}')[0] is not None
    cb = run.Command("cb-region", ["cb-region", "--type", "A2", "--height", "2"])
    assert checker.check(cb, 0, json.dumps({"rows": [{}] * 9}).encode()) == (None, 0)
    assert checker.check(cb, 0, json.dumps({"rows": [{}] * 8}).encode())[0] is not None
    assert checker.check(cb, 0, b"not json")[0] is not None


def test_wrong_expected_output_fails_the_run(tmp_path, monkeypatch, capsys):
    expected = json.loads(run.EXPECTED_FILE.read_text())
    for key in expected:
        expected[key]["stdout"] += " "
    tampered = tmp_path / "expected.json"
    tampered.write_text(json.dumps(expected))
    monkeypatch.setattr(run, "EXPECTED_FILE", tampered)
    assert run.main(["--workload", "casimir-sweep", "--seed", "1", "--seconds", "0.1",
                     "--size", "smoke"]) == 1
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["correct"] is False and line["failed"] == line["attempted"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "casimir-sweep", "--seed", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
