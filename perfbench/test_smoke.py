"""Smoke tests for the benchmark itself.

Run from the repository root:  PYTHONPATH=src python3 -m pytest -q perfbench
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _bindings():
    mods = [importlib.import_module("gradedrings")] + [
        importlib.import_module(f"gradedrings.{m}") for m in tracer.MODULES
    ]
    snapshot = {}
    for mod in mods:
        for key, value in vars(mod).items():
            snapshot[(mod.__name__, key)] = value
            if isinstance(value, type) and value.__module__.startswith("gradedrings"):
                for attr, member in vars(value).items():
                    snapshot[(mod.__name__, key, attr)] = member
    registry = importlib.import_module("gradedrings.verifier").RING_STATEMENTS
    snapshot.update({("RING_STATEMENTS", k): v for k, v in registry.items()})
    return snapshot


def test_uninstall_restores_every_wrapped_name():
    before = _bindings()
    t = tracer.Tracer()
    t.install()
    try:
        during = _bindings()
        changed = {k for k in before if during[k] is not before[k]}
        # direct imports are rebound too, e.g. the kernels verifier imported
        assert ("gradedrings.verifier", "is_graded_strongly_1abs_primary") in changed
        assert ("gradedrings.classify", "require_graded") in changed
        assert ("gradedrings.cli", "main") in changed
        assert ("RING_STATEMENTS", "THM_2_2") in changed
    finally:
        t.uninstall()
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def test_traced_classify_spans_nest_and_count(capsys):
    t = tracer.Tracer()
    t.install()
    try:
        import gradedrings.cli as cli

        start = tracer.perf_counter_ns()
        status = cli.main(["--format", "json", "ideal", "classify", str(ROOT / "specs/cyclic9.json"), "--ideal", "M"])
        end = tracer.perf_counter_ns()
    finally:
        t.uninstall()
    assert status == 0
    assert json.loads(capsys.readouterr().out)["flags"]["graded_maximal"] is True
    roots = [s for s in t.spans if s[3] == -1]
    assert [s[0] for s in roots] == ["cli.main"]
    for name, s0, s1, parent in t.spans:
        if parent >= 0:
            assert t.spans[parent][1] <= s0 <= s1 <= t.spans[parent][2]
    total_self = sum(tracer.self_times(t.spans).values())
    assert total_self == pytest.approx((roots[0][2] - roots[0][1]) / 1e9)
    m = tracer.layer_metrics([{"spans": t.spans, "counts": t.counts, "start": start, "end": end}])
    assert m["classify.kernel_calls"] >= 6
    assert m["finring.rings_built"] == 1
    assert m["trace.coverage"] > 0.9
    per_layer = {p["name"] for p in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert per_layer == set(m) | {"trace.overhead_s", "error_rate"}


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_golden_outputs_pass_their_oracles(workload):
    for inv in workloads.WORKLOADS[workload].invocations:
        golden = inv.golden.read_bytes()
        assert workloads.check_output(inv, 0, golden) is None
        assert workloads.check_output(inv, 1, golden) is not None
        assert workloads.check_output(inv, 0, golden + b"\n") is not None


def test_oracles_reject_wrong_closed_forms():
    reports = json.loads(workloads.WORKLOADS["corpus-replay"].invocations[0].golden.read_text())
    (cor,) = [r for r in reports if r["statement_id"] == "COR_2_7"]
    cor["counters"]["existence_instances"] -= 1
    with pytest.raises(workloads.OracleError):
        workloads.check_verify_all(reports)
    inv16 = workloads.WORKLOADS["classify-large"].invocations[1]
    doc = json.loads(inv16.golden.read_text())
    doc["flags"]["graded_prime"] = True
    with pytest.raises(workloads.OracleError):
        inv16.check(doc)
    z256 = json.loads(workloads.WORKLOADS["describe-large"].invocations[0].golden.read_text())
    z256["graded_ideals"].pop()
    with pytest.raises(workloads.OracleError):
        workloads.check_describe_z256(z256)


def test_tail_needs_eleven_samples():
    s = run.Samples(workloads.WORKLOADS["corpus-replay"].invocations)
    s.by_inv["verify-all"] = [(1.0 + i / 100, 1.0, 20.0) for i in range(10)]
    assert run.tail(s) is None
    s.by_inv["verify-all"].append((2.0, 1.0, 20.0))
    value, percentile, n = run.tail(s)
    assert value == pytest.approx(1.0) and n == 11 and percentile == pytest.approx(100 / 11)


def test_exits_nonzero_without_result_when_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus-replay", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_short_run_prints_result_line(capsys):
    assert run.main(["--workload", "classify-large", "--seed", "2", "--seconds", "0", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 2 and result["failed"] == 0
    names = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    assert set(result["metrics"]) == names
