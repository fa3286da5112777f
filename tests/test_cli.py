from __future__ import annotations

import json
from pathlib import Path

import pytest

from gradedrings.cli import main

SPECS = Path(__file__).resolve().parent.parent / "specs"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_ring_describe_text(capsys):
    code, out, _ = run(capsys, "ring", "describe", f"{SPECS}/cyclic9.json")
    assert code == 0
    assert "ring: cyclic9 (9 elements)" in out
    assert "nilradical: {0,3,6}" in out
    assert "graded local: True" in out


def test_ring_describe_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "ring", "describe", f"{SPECS}/cyclic6.json")
    assert code == 0
    info = json.loads(out)
    assert info["carrier_size"] == 6
    assert info["units"] == "{1,5}"
    assert info["is_graded_local"] is False
    assert info["grad_zero_equals_nilradical"] is True


def test_ring_describe_graded_field(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "ring", "describe", f"{SPECS}/graded-field-f3.json"
    )
    assert code == 0
    info = json.loads(out)
    assert info["profile"]["graded_field"] is True
    assert info["carrier_size"] == 9


def test_ideal_classify_named(capsys):
    code, out, _ = run(
        capsys,
        "--format",
        "json",
        "ideal",
        "classify",
        f"{SPECS}/cyclic6.json",
        "--ideal",
        "P",
    )
    assert code == 0
    report = json.loads(out)
    assert report["ideal"] == ["0", "3"]
    assert report["flags"]["graded_prime"] is True
    assert report["flags"]["graded_strongly_1abs_primary"] is False
    assert report["witnesses"]["graded_strongly_1abs_primary"] == ["2", "2", "3"]


def test_ideal_classify_generators(capsys):
    code, out, _ = run(
        capsys, "ideal", "classify", f"{SPECS}/cyclic9.json", "--ideal", "3"
    )
    assert code == 0
    assert "graded_strongly_1abs_primary: True" in out
    assert "graded_maximal: True" in out


def test_verify_single_statement(capsys):
    code, out, _ = run(capsys, "verify", "COR_2_7", "--range", "2..20")
    assert code == 0
    assert "COR_2_7" in out and "PASS" in out


def test_verify_all_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "verify", "all", "--range", "2..16")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) > 100
    assert all(r["outcome"] in {"PASS", "VACUOUS"} for r in reports)


def test_verify_summary_line(capsys):
    code, out, _ = run(capsys, "verify", "THM_2_6")
    assert code == 0
    assert "summary:" in out
    assert "0 FAIL" in out


def test_search(capsys):
    code, out, _ = run(
        capsys,
        "search",
        "--hypothesis",
        "graded_prime",
        "--conclusion",
        "graded_strongly_1abs_primary",
    )
    assert code == 0
    assert "Z/6" in out
    assert "(2,2,3)" in out


def test_search_no_counterexample(capsys):
    code, out, _ = run(
        capsys,
        "search",
        "--hypothesis",
        "graded_strongly_1abs_primary",
        "--conclusion",
        "graded_2abs_primary",
    )
    assert code == 0
    assert "no counterexample" in out


def test_usage_error_exit_code(capsys):
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys, "verify")[0] == 2


CYCLIC_BAD_IDEAL = '{"ring": {"kind": "cyclic", "n": 4}, "ideals": {"I": ["abc"]}}'


@pytest.mark.parametrize(
    "content, argv",
    [
        ('{"ring": {"kind": "cyclic"}}', ("ring", "describe", "{file}")),
        (None, ("verify", "all", "--corpus", "{file}")),
        ("{not json", ("verify", "all", "--corpus", "{file}")),
        ("[1, 2]", ("verify", "all", "--corpus", "{file}")),
        (None, ("verify", "COR_2_7", "--range", "abc")),
        (f"[{CYCLIC_BAD_IDEAL}]", ("verify", "all", "--corpus", "{file}")),
        (CYCLIC_BAD_IDEAL, ("ring", "describe", "{file}")),
        (None, ("ideal", "classify", f"{SPECS}/cyclic9.json", "--ideal", "xyz")),
        (None, ("ideal", "classify", f"{SPECS}/gauss4-z2.json", "--ideal", "xyz")),
    ],
    ids=[
        "ring-missing-n",
        "corpus-missing-file",
        "corpus-invalid-json",
        "corpus-not-objects",
        "range-not-integers",
        "corpus-cyclic-bad-element",
        "spec-cyclic-bad-element",
        "ideal-cyclic-bad-element",
        "ideal-gauss-bad-element",
    ],
)
def test_spec_error_exit_code(tmp_path, capsys, content, argv):
    path = tmp_path / "input.json"
    if content is not None:
        path.write_text(content)
    code, _, err = run(capsys, *(a.replace("{file}", str(path)) for a in argv))
    assert code == 2
    assert err.startswith("error: MalformedSpec: ")
    assert "Traceback" not in err


def test_unknown_statement_exit_code(capsys):
    code, _, err = run(capsys, "verify", "THM_0_0")
    assert code == 2
    assert "ShapeMismatch" in err


def test_output_is_deterministic(capsys):
    first = run(capsys, "--format", "json", "verify", "all", "--range", "2..16")
    second = run(capsys, "--format", "json", "verify", "all", "--range", "2..16")
    assert first == second


def test_verify_all_json_matches_golden(capsys):
    golden = (Path(__file__).resolve().parent.parent / "perfbench/golden/verify-all.out").read_bytes()
    code, out, _ = run(capsys, "--format", "json", "verify", "all")
    assert code == 0
    assert out.encode() == golden
