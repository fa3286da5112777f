from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from gradedrings import verifier
from gradedrings.cli import COMMANDS, main, parse_args
from gradedrings.errors import MalformedSpec
from gradedrings.ideals import principal_graded_ideals, proper_graded_ideals
from gradedrings.specdoc import load_corpus, load_spec

ROOT = Path(__file__).resolve().parent.parent
SPECS = ROOT / "specs"
# the spec's file stem is the ring label, which the golden outputs print
Z256 = '{"ring": {"kind": "cyclic", "n": 256}, "group": {"kind": "trivial"}}'


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


C9 = f"{SPECS}/cyclic9.json"
FLAG_PAIR = ("--hypothesis", "graded_prime", "--conclusion", "graded_maximal")
# argument lists the command table accepts, and the values they give
PARSED = {
    "root-eq": (("--format=json", "ring", "describe", C9), {"format": "json", "spec": C9}),
    "option-first": (("ideal", "classify", "--ideal", "M", C9), {"spec": C9, "ideal": "M"}),
    "eq": (("ideal", "classify", C9, "--ideal=2"), {"format": "text", "ideal": "2"}),
    "last-wins": (("ideal", "classify", C9, "--ideal", "2", "--ideal=3"), {"ideal": "3"}),
    "root-last-wins": (("--format", "json", "--format", "text", "verify", "all"), {"format": "text"}),
    "dash-value": (("ideal", "classify", C9, "--ideal", "-1"), {"ideal": "-1"}),
    "double-dash": (("ring", "describe", "--", "-h"), {"spec": "-h"}),
    "double-dash-option": (("verify", "--", "--range"), {"statement": "--range", "range": None}),
    "unset-is-none": (("verify", "all", "--range=2..8"), {"range": "2..8", "corpus": None}),
    "any-order": (("search", *FLAG_PAIR[2:], *FLAG_PAIR[:2]), {"hypothesis": "graded_prime"}),
}


@pytest.mark.parametrize("case", PARSED)
def test_parse_args_reads_the_command_table(case):
    argv, expected = PARSED[case]
    args = parse_args(list(argv))
    assert {key: getattr(args, key) for key in expected} == expected


def test_an_option_value_may_start_with_a_dash(capsys):
    code, out, _ = run(capsys, "ideal", "classify", C9, "--ideal", "-3")
    assert code == 0 and "ideal: {0,3,6}" in out


# every command and every prefix of its words prints its help on stdout
@pytest.mark.parametrize("words", sorted({w[:k] for w in COMMANDS for k in range(len(w) + 1)}))
@pytest.mark.parametrize("flag", ("-h", "--help"))
def test_help_of_every_command(capsys, words, flag):
    code, out, err = run(capsys, *words, flag)
    assert (code, err) == (0, "")
    assert out.startswith(" ".join(("usage: gradedrings", *words, "[-h]")))
    assert all(about in out for w, (*_, about) in COMMANDS.items() if w[: len(words)] == words)
    if words in COMMANDS:
        assert all(f"  {name} " in out for name in COMMANDS[words][2])


# argument lists the command table refuses, and the start of their error
REFUSED = {
    "format-after-command": (("verify", "all", "--format", "json"), "unrecognized arguments: --format json"),
    "no-subcommand": (("ring",), "the following arguments are required: command"),
    "bad-subcommand": (("ring", "frob"), "argument command: invalid choice: 'frob' (choose from 'describe')"),
    "abbreviation": (("ideal", "classify", C9, "--id", "2"), "the following arguments are required: --ideal"),
    "abbreviation-extra": (
        ("ideal", "classify", C9, "--ideal", "2", "--id", "3"), "unrecognized arguments: --id 3"
    ),
    "root-abbreviation": (("--form", "json", "ring", "describe", C9), "unrecognized arguments: --form"),
    "extra-positional": (("ring", "describe", C9, "extra"), "unrecognized arguments: extra"),
    "missing-positional": (("ring", "describe"), "the following arguments are required: spec"),
    "missing-options": (("search",), "the following arguments are required: --hypothesis, --conclusion"),
    "missing-value": (("verify", "all", "--range"), "argument --range: expected one argument"),
    "format-choice": (
        ("--format", "xml", "verify", "all"),
        "argument --format: invalid choice: 'xml' (choose from 'text', 'json')",
    ),
    "hypothesis-choice": (("search", "--hypothesis", "x"), "argument --hypothesis: invalid choice: 'x'"),
    "conclusion-choice": (("search", *FLAG_PAIR[:3], "y"), "argument --conclusion: invalid choice: 'y'"),
}


@pytest.mark.parametrize("case", REFUSED)
def test_usage_errors_exit_2_with_usage_and_error_lines(capsys, case):
    argv, message = REFUSED[case]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    usage, error = err.splitlines()
    assert usage.startswith("usage: gradedrings ")
    assert error.startswith(f"gradedrings: error: {message}")


CYCLIC_BAD_IDEAL = '{"ring": {"kind": "cyclic", "n": 4}, "ideals": {"I": ["abc"]}}'
CYCLIC4 = '"ring": {"kind": "cyclic", "n": 4}'
Z2_GROUP = '"group": {"kind": "finite_abelian", "factors": [2]}'
F3_Z2 = '"ring": {"kind": "poly_quotient", "p": 3, "modulus": [2, 0, 1]}, ' + Z2_GROUP
F3_CONST, F3_U = '["0", "1", "2"]', '["0", "u", "2u"]'
GAUSS3_Z2 = '"ring": {"kind": "gauss_mod", "n": 3}, ' + Z2_GROUP
DESCRIBE = ("ring", "describe", "{file}")
CORPUS = ("verify", "all", "--corpus", "{file}")


@pytest.mark.parametrize(
    "content, argv, where",
    [
        pytest.param('{"ring": {"kind": "cyclic"}}', DESCRIBE, "$.ring: missing 'n'", id="ring-missing-n"),
        pytest.param(None, CORPUS, "input.json", id="corpus-missing-file"),
        pytest.param("{not json", CORPUS, "invalid JSON", id="corpus-invalid-json"),
        pytest.param("[1, 2]", CORPUS, "$[0]: expected an object", id="corpus-not-objects"),
        pytest.param(None, ("verify", "COR_2_7", "--range", "abc"), "--range 'abc'", id="range-not-integers"),
        pytest.param(f"[{CYCLIC_BAD_IDEAL}]", CORPUS, "'abc'", id="corpus-cyclic-bad-element"),
        pytest.param(CYCLIC_BAD_IDEAL, DESCRIBE, "'abc'", id="spec-cyclic-bad-element"),
        pytest.param(
            None, ("ideal", "classify", f"{SPECS}/cyclic9.json", "--ideal", "xyz"), "'xyz'",
            id="ideal-cyclic-bad-element",
        ),
        pytest.param(
            None, ("ideal", "classify", f"{SPECS}/cyclic9.json", "--ideal", "1_0"), "'1_0'",
            id="ideal-cyclic-digit-separator",
        ),
        pytest.param(
            None, ("ideal", "classify", f"{SPECS}/cyclic9.json", "--ideal", "u"), "'u'",
            id="ideal-cyclic-variable",
        ),
        pytest.param(
            None, ("ideal", "classify", f"{SPECS}/cyclic9.json", "--ideal", ""), "--ideal ''",
            id="ideal-empty",
        ),
        pytest.param(
            None, ("ideal", "classify", f"{SPECS}/cyclic9.json", "--ideal", ","), "--ideal ','",
            id="ideal-comma-only",
        ),
        pytest.param(
            None, ("ideal", "classify", f"{SPECS}/cyclic9.json", "--ideal", "3,,6"), "--ideal '3,,6'",
            id="ideal-empty-generator",
        ),
        pytest.param(
            None, ("ideal", "classify", f"{SPECS}/gauss4-z2.json", "--ideal", "xyz"), "'xyz'",
            id="ideal-gauss-bad-element",
        ),
        pytest.param(
            None, ("ideal", "classify", f"{SPECS}/graded-field-f3.json", "--ideal", "u-"), "'u-'",
            id="ideal-poly-trailing-minus",
        ),
        pytest.param(
            None, ("ideal", "classify", f"{SPECS}/graded-field-f3.json", "--ideal", "1--u"), "'1--u'",
            id="ideal-poly-double-minus",
        ),
        pytest.param(
            None, ("ideal", "classify", f"{SPECS}/gauss4-z2.json", "--ideal", "2j"), "'2j'",
            id="ideal-gauss-wrong-variable",
        ),
        pytest.param('{"ring": 5}', DESCRIBE, "$.ring: expected an object", id="ring-not-object"),
        pytest.param("5", DESCRIBE, "$: expected an object", id="spec-not-object"),
        pytest.param(
            f'{{{CYCLIC4}, "group": "z2"}}', DESCRIBE, "$.group: expected an object",
            id="group-not-object",
        ),
        pytest.param(
            f'{{{CYCLIC4}, "components": [["0"]]}}', DESCRIBE, "$.components: expected an object",
            id="components-list",
        ),
        pytest.param(
            f'{{{CYCLIC4}, "ideals": [["2"]]}}', DESCRIBE, "$.ideals: expected an object",
            id="ideals-list",
        ),
        pytest.param(
            f'{{{CYCLIC4}, {Z2_GROUP}, "components": {{"x": ["0"]}}}}', DESCRIBE,
            "$.components['x']: degree 'x'", id="degree-not-integer",
        ),
        pytest.param(
            f'{{{CYCLIC4}, "group": {{"kind": "finite_abelian", "factors": "2"}}}}', DESCRIBE,
            "$.group.factors: expected a list", id="factors-string",
        ),
        pytest.param(b'{"ring": "\xff"}', DESCRIBE, "'utf-8' codec", id="spec-not-utf8"),
        pytest.param(
            '{"ring": {"kind": "cyclic", "n": 9}, "ideals": {"I": "36"}}', DESCRIBE,
            "$.ideals['I']: expected a list", id="ideal-generators-string",
        ),
        pytest.param(
            '{"ring": {"kind": "poly_quotient", "p": 3, "modulus": "201"}}', DESCRIBE,
            "$.ring.modulus: expected a list", id="modulus-string",
        ),
        pytest.param(None, ("verify", "COR_2_7", "--range", "1..10"), "--range '1..10'", id="range-below-2"),
        pytest.param(None, ("verify", "COR_2_7", "--range", "64..2"), "--range '64..2'", id="range-reversed"),
        pytest.param(
            None, ("verify", "COR_2_7", "--range", "2..1025"), "--range '2..1025'",
            id="range-above-cap",
        ),
        pytest.param(
            None, ("verify", "COR_2_7", "--range", "2..513"), "--range '2..513'",
            id="range-above-sweep-cap",
        ),
        pytest.param(
            None, ("verify", "THM_2_6", "--range", "2..10"), "--range applies to COR_2_7 and all",
            id="range-without-cor-2-7",
        ),
        pytest.param("[]", CORPUS, "corpus is empty", id="corpus-empty"),
        pytest.param(
            f'{{{F3_Z2}, "components": {{"0": ["0", "u"], "1": {F3_U}, "2": {F3_CONST}}}}}', DESCRIBE,
            "$.components: keys '0' and '2' name one degree, 0", id="degree-keys-collide",
        ),
        pytest.param(
            f'{{{F3_Z2}, "components": {{"0": ["0", "u"], "1": {F3_U}, "0": {F3_CONST}}}}}', DESCRIBE,
            "key '0' given twice in one object", id="degree-key-twice",
        ),
        pytest.param(
            f'{{{F3_Z2}, "components": {{"1_0": {F3_CONST}, "1": {F3_U}}}}}', DESCRIBE,
            "$.components['1_0']: degree '1_0'", id="degree-digit-separator",
        ),
        pytest.param(
            f'{{{F3_Z2}, "components": {{"0": {F3_CONST}, " 1": {F3_U}}}}}', DESCRIBE,
            "$.components[' 1']: degree ' 1'", id="degree-padded",
        ),
        pytest.param(
            '{"ring": {"kind": "cyclic", "n": 4}, "group": {"kind": "finite_abelian", "factors": [0]}}',
            DESCRIBE, "$.group.factors: invariant factors must be >= 2", id="group-factor-below-2",
        ),
        pytest.param(
            f'{{"ring": {{"kind": "cyclic", "n": 4}}, {Z2_GROUP}, "components": {{"0,1": ["0", "1"]}}}}',
            DESCRIBE, "$.components['0,1']: degree (0, 1) has wrong rank for factors (2,)",
            id="degree-wrong-rank",
        ),
        pytest.param(
            '[{"ring": {"kind": "cyclic", "n": 9}}]', ("verify", "COR_2_7", "--corpus", "{file}"),
            "--corpus does not apply to COR_2_7", id="corpus-with-cor-2-7",
        ),
        pytest.param(
            None, ("verify", "COR_2_7", "--range", "1_0..1_2"), "--range '1_0..1_2'",
            id="range-digit-separator",
        ),
        pytest.param(
            f'{{{CYCLIC4}, "ideals": {{"I": ["u"]}}}}', DESCRIBE,
            "$.ideals['I']: term 'u': degree >= 1", id="ideal-element-path",
        ),
        pytest.param(  # an Arabic-Indic three is a Unicode digit, not one of 0-9
            '{"ring": {"kind": "cyclic", "n": 6}, "ideals": {"I": ["\\u0663"]}}',
            ("ideal", "classify", "{file}", "--ideal", "I"),
            "$.ideals['I']: cannot parse '٣'", id="ideal-element-non-ascii-digit",
        ),
        pytest.param(
            f'{{{GAUSS3_Z2}, "components": {{"0": ["0", "1", "2"], "1": ["0", "i", "2j"]}}}}', DESCRIBE,
            "$.components['1']: cannot parse '2j'", id="component-element-path",
        ),
        pytest.param(
            '{"ring": {"kind": "cyclic", "n": 1}}', DESCRIBE, "$.ring: Cyclic(1): need n >= 2",
            id="ring-n-path",
        ),
        pytest.param(
            '{"ring": {"kind": "poly_quotient", "p": 1, "modulus": [1, 1]}}', DESCRIBE,
            "$.ring: PolyQuotient base Z/1: need p >= 2", id="ring-p-path",
        ),
        pytest.param(  # the base is checked before any coefficient is reduced by it
            '{"ring": {"kind": "poly_quotient", "p": 0, "modulus": [1, 1]}}', DESCRIBE,
            "$.ring: PolyQuotient base Z/0: need p >= 2", id="ring-p-zero",
        ),
        pytest.param(
            '{"ring": {"kind": "poly_quotient", "p": -1, "modulus": [1, 1]}}', DESCRIBE,
            "$.ring: PolyQuotient base Z/-1: need p >= 2", id="ring-p-negative",
        ),
        pytest.param(
            '{"ring": {"kind": "poly_quotient", "p": "4", "modulus": [1, 1]}}', DESCRIBE,
            "$.ring.p: expected an integer, got a string", id="ring-p-string",
        ),
        pytest.param(
            '{"ring": {"kind": "poly_quotient", "p": 4, "modulus": []}}', DESCRIBE,
            "$.ring: PolyQuotient modulus must be monic of degree >= 1", id="ring-modulus-empty",
        ),
        pytest.param(  # the leading coefficient 2 is not 1 mod 4
            '{"ring": {"kind": "poly_quotient", "p": 4, "modulus": [1, 2]}}', DESCRIBE,
            "$.ring: PolyQuotient modulus must be monic of degree >= 1", id="ring-modulus-not-monic",
        ),
        pytest.param(  # n^2 has 8,599 digits, more than an int prints
            f'{{"ring": {{"kind": "gauss_mod", "n": {10**4299}}}}}', DESCRIBE,
            f"$.ring: carrier size {10**4299}^2 exceeds cap 1024", id="ring-carrier-unprintable",
        ),
        pytest.param(
            f'{{"ring": {{"kind": "poly_quotient", "p": 2, "modulus": {[0] * 20000 + [1]}}}}}', DESCRIBE,
            "$.ring: carrier size 2^20000 exceeds cap 1024", id="ring-degree-unprintable",
        ),
        pytest.param(
            '[{"ring": {"kind": "cyclic", "n": 0}}]', CORPUS, "$[0].ring: Cyclic(0): need n >= 2",
            id="corpus-ring-path",
        ),
        pytest.param(
            "[" * 100_000 + "]" * 100_000, CORPUS, "input.json: JSON nested too deeply",
            id="corpus-nested-too-deeply",
        ),
        pytest.param(
            '{"ring": ' + "[" * 100_000 + "]" * 100_000 + "}", DESCRIBE,
            "input.json: JSON nested too deeply", id="spec-nested-too-deeply",
        ),
        pytest.param(
            f'{{{CYCLIC4}, "grup": {{"kind": "trivial"}}}}', DESCRIBE,
            "$: unknown key 'grup'; expected 'ring', 'group', 'components', 'ideals'",
            id="spec-unknown-key",
        ),
        pytest.param(
            f'{{"label": "Z/4", {CYCLIC4}}}', DESCRIBE, "$: unknown key 'label'", id="spec-label",
        ),
        pytest.param(
            f'[{{"label": "G", {GAUSS3_Z2}, "component": {{"0": ["0", "1", "2"]}}}}]', CORPUS,
            "$[0]: unknown key 'component'; expected 'label', 'ring', 'group', 'components', 'ideals'",
            id="corpus-entry-unknown-key",
        ),
        pytest.param(
            '{"ring": {"kind": "cyclic", "n": 4, "p": 2}}', DESCRIBE,
            "$.ring: unknown key 'p'; expected 'kind', 'n'", id="cyclic-unknown-key",
        ),
        pytest.param(
            '{"ring": {"kind": "gauss_mod", "m": 4}}', DESCRIBE,
            "$.ring: unknown key 'm'; expected 'kind', 'n'", id="gauss-unknown-key",
        ),
        pytest.param(
            '{"ring": {"kind": "poly_quotient", "p": 3, "modulus": [2, 0, 1], "n": 9}}', DESCRIBE,
            "$.ring: unknown key 'n'; expected 'kind', 'p', 'modulus'", id="poly-unknown-key",
        ),
        pytest.param(
            f'{{{CYCLIC4}, "group": {{"kind": "trivial", "factors": [2]}}}}', DESCRIBE,
            "$.group: unknown key 'factors'; expected 'kind'", id="trivial-group-unknown-key",
        ),
        pytest.param(
            f'{{{CYCLIC4}, "group": {{"factors": [2]}}}}', DESCRIBE,
            "$.group: unknown key 'factors'; expected 'kind'", id="default-group-unknown-key",
        ),
        pytest.param(
            f'{{{CYCLIC4}, "group": {{"kind": "integers", "factor": []}}}}', DESCRIBE,
            "$.group: unknown key 'factor'; expected 'kind'", id="integers-unknown-key",
        ),
        pytest.param(
            f'{{{CYCLIC4}, "group": {{"kind": "finite_abelian", "factor": [2]}}}}', DESCRIBE,
            "$.group: unknown key 'factor'; expected 'kind', 'factors'", id="abelian-unknown-key",
        ),
        pytest.param(
            '{"ring": {"kind": "cyclc", "m": 4}}', DESCRIBE, "$.ring.kind: unknown ring kind 'cyclc'",
            id="unknown-ring-kind-before-keys",
        ),
        pytest.param(
            f'{{{CYCLIC4}, "group": {{"kind": "z2", "factor": [2]}}}}', DESCRIBE,
            "$.group.kind: unknown group kind 'z2'", id="unknown-group-kind-before-keys",
        ),
        pytest.param(  # spaces stand around a sign, never inside a term
            None, ("ideal", "classify", f"{SPECS}/cyclic9.json", "--ideal", "1 2"), "'1 2'",
            id="ideal-cyclic-space-in-term",
        ),
        pytest.param(
            '{"ring": {"kind": "gauss_mod", "n": 4}, "ideals": {"I": ["2 i"]}}', DESCRIBE,
            "$.ideals['I']: cannot parse '2 i'", id="ideal-gauss-space-in-term",
        ),
        pytest.param(
            f'{{{CYCLIC4}, "group": {{"kind": "integers"}}, "components": {{"e": ["0", "1", "2", "3"]}}}}',
            DESCRIBE, "$.components['e']: degree () has wrong rank for factors (0,)",
            id="integers-degree-e",
        ),
        pytest.param(
            f'{{{CYCLIC4}, "group": {{"kind": "integers"}}, "components": {{"0,0": ["0", "1", "2", "3"]}}}}',
            DESCRIBE, "$.components['0,0']: degree (0, 0) has wrong rank for factors (0,)",
            id="integers-degree-rank-2",
        ),
        # "*" stands only after a coefficient, as in "3*u"
        pytest.param(
            None, ("ideal", "classify", f"{SPECS}/f2-u3-z.json", "--ideal", "*u"),
            "cannot parse '*u' as a polynomial in u", id="ideal-poly-star-without-coefficient",
        ),
        pytest.param(
            None, ("ideal", "classify", f"{SPECS}/f2-u3-z.json", "--ideal", "*u^2"),
            "cannot parse '*u^2' as a polynomial in u", id="ideal-poly-star-power-without-coefficient",
        ),
    ],
)
def test_spec_error_exit_code(tmp_path, capsys, content, argv, where):
    path = tmp_path / "input.json"
    if content is not None:
        path.write_bytes(content if isinstance(content, bytes) else content.encode())
    code, _, err = run(capsys, *(a.replace("{file}", str(path)) for a in argv))
    assert code == 2
    assert err.startswith("error: MalformedSpec: ")
    assert where in err
    assert "Traceback" not in err


def test_spaces_around_a_sign_are_allowed(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "ideal", "classify", f"{SPECS}/cyclic9.json", "--ideal", "1 + 2"
    )
    assert code == 0
    assert json.loads(out)["ideal"] == ["0", "3", "6"]


def test_unknown_statement_exit_code(capsys):
    code, _, err = run(capsys, "verify", "THM_0_0")
    assert code == 2
    assert "ShapeMismatch" in err
    # the error lists the statements, as the help text says
    choices = ", ".join(verifier.ALL_STATEMENTS)
    assert err == f"error: ShapeMismatch: unknown statement 'THM_0_0'; choose from {choices}\n"
    code, out, _ = run(capsys, "verify", "-h")
    assert code == 0
    assert "an unknown id lists the statements" in " ".join(out.split())
    assert "--list" not in out


@pytest.mark.parametrize(
    "document", sorted(p.name for p in SPECS.glob("*.json")) + ["DEFAULT_CORPUS"]
)
def test_shipped_documents_load(document):
    # every key a shipped document holds is one its object reads
    if document == "DEFAULT_CORPUS":
        assert verifier.parse_corpus(verifier.DEFAULT_CORPUS)
    elif (SPECS / document).read_text().lstrip().startswith("["):
        assert load_corpus(SPECS / document)
    else:
        assert load_spec(SPECS / document).graded_ring.ring.size >= 2


def test_output_is_deterministic(capsys):
    first = run(capsys, "--format", "json", "verify", "all", "--range", "2..16")
    second = run(capsys, "--format", "json", "verify", "all", "--range", "2..16")
    assert first == second


GOLDEN_ARGV = {
    "verify-all": ("verify", "all"),
    "describe-z256": ("ring", "describe", "{z256}"),
    "classify-z256-2": ("ideal", "classify", "{z256}", "--ideal", "2"),
    "classify-z256-16": ("ideal", "classify", "{z256}", "--ideal", "16"),
}


@pytest.mark.parametrize("golden", GOLDEN_ARGV)
def test_json_output_matches_golden(tmp_path, capsys, golden):
    z256 = tmp_path / "z256.json"
    z256.write_text(Z256)
    expected = (ROOT / f"perfbench/golden/{golden}.out").read_bytes()
    argv = (a.replace("{z256}", str(z256)) for a in GOLDEN_ARGV[golden])
    code, out, _ = run(capsys, "--format", "json", *argv)
    assert code == 0
    assert out.encode() == expected


# the shipped Z- and Z/3-graded specs, F2[u]/(u^3) and F2[u]/(u^3-1) with
# deg u = 1, replayed through the CLI; and the family whose rings
# (Z/m)[u]/(u^k) hold non-principal graded ideals such as (2, u)
SPEC_GOLDEN_ARGV = {
    "describe-f2-u3-z": ("ring", "describe", f"{SPECS}/f2-u3-z.json"),
    "classify-f2-u3-z-M2": ("ideal", "classify", f"{SPECS}/f2-u3-z.json", "--ideal", "M2"),
    "describe-f2-u3-z3": ("ring", "describe", f"{SPECS}/f2-u3-z3.json"),
    "classify-f2-u3-z3-zero": ("ideal", "classify", f"{SPECS}/f2-u3-z3.json", "--ideal", "zero"),
    "verify-all-nonprincipal": ("verify", "all", "--corpus", f"{SPECS}/family-nonprincipal.json"),
}


@pytest.mark.parametrize("golden", SPEC_GOLDEN_ARGV)
def test_spec_output_matches_golden(capsys, golden):
    code, out, _ = run(capsys, "--format", "json", *SPEC_GOLDEN_ARGV[golden])
    assert code == 0
    assert out.encode() == (ROOT / f"tests/golden/{golden}.out").read_bytes()


def test_shipped_corpus_document_is_the_default_corpus(tmp_path, capsys):
    # the default corpus and `--corpus FILE` are one parser: the shipped
    # document, read from a file, replays byte-identically to the golden
    document = tmp_path / "default-corpus.json"
    document.write_text(verifier.DEFAULT_CORPUS)
    expected = (Path(__file__).resolve().parent.parent / "perfbench/golden/verify-all.out").read_bytes()
    code, out, _ = run(capsys, "--format", "json", "verify", "all", "--corpus", str(document))
    assert code == 0
    assert out.encode() == expected

    def shape(corpus):
        label_of = {id(e.gr): e.label for e in corpus}
        return [(e.label, [label_of[id(p)] for p in e.parents]) for e in corpus]

    from_file = verifier.parse_corpus(json.loads(document.read_text()))
    assert shape(from_file) == shape(verifier.default_corpus())
    assert [p for _, p in shape(from_file) if p] == [["Z/4", "Z/9"], ["Z/2[i]/Z2", "Z/2[i]/Z2"]]


def test_corpus_key_given_twice_is_rejected_as_text_and_as_file(tmp_path, capsys, monkeypatch):
    # `json.loads` alone would keep the last 'label' and read "b"
    text = '[{"label": "a", "label": "b", "ring": {"kind": "cyclic", "n": 4}}]'
    message = "key 'label' given twice in one object"
    with pytest.raises(MalformedSpec, match=re.escape(f"$: {message}")):
        verifier.parse_corpus(text)
    monkeypatch.setattr(verifier, "DEFAULT_CORPUS", text)
    with pytest.raises(MalformedSpec, match=re.escape(f"$: {message}")):
        verifier.default_corpus()
    path = tmp_path / "corpus.json"
    path.write_text(text)
    code, out, err = run(capsys, "verify", "all", "--corpus", str(path))
    assert (code, out, err) == (2, "", f"error: MalformedSpec: {path}: {message}\n")


Z9_CORPUS = '[{"label": "Z/9", "ring": {"kind": "cyclic", "n": 9}}]'


@pytest.mark.parametrize("statement", ("COR_2_8", "all"))
def test_cor_2_8_without_a_product_is_vacuous(tmp_path, capsys, statement):
    corpus = tmp_path / "z9.json"
    corpus.write_text(Z9_CORPUS)
    code, out, _ = run(capsys, "--format", "json", "verify", statement, "--corpus", str(corpus))
    assert code == 0
    (report,) = [r for r in json.loads(out) if r["statement_id"] == "COR_2_8"]
    assert report["outcome"] == "VACUOUS"
    assert report["notes"] == ["no entry of the corpus is a product"]
    code, out, _ = run(capsys, "verify", statement, "--corpus", str(corpus))
    assert "COR_2_8 [corpus] -> VACUOUS" in out
    assert out.endswith("0 FAIL, 1 VACUOUS\n" if statement == "COR_2_8" else "0 FAIL, 2 VACUOUS\n")


def test_family_file_replays_without_failure(capsys):
    # Z/30, Z/60, Z/210 and (Z/2 x Z/3) x Z/5 have three or more maximal ideals;
    # the output is pinned byte for byte, as the default corpus's is
    family = SPECS / "family-three-maximal.json"
    code, out, _ = run(capsys, "--format", "json", "verify", "all", "--corpus", str(family))
    assert code == 0
    assert out.encode() == (ROOT / "tests/golden/verify-all-family.out").read_bytes()
    reports = json.loads(out)
    assert not [r for r in reports if r["outcome"] == "FAIL"]
    cor_2_8 = {r["subject"]: r["outcome"] for r in reports if r["statement_id"] == "COR_2_8"}
    assert cor_2_8 == {"Z/2 x Z/3": "PASS", "(Z/2 x Z/3) x Z/5": "PASS"}


def test_chain_family_replays_without_failure(capsys):
    # Z/25 and Z/27[u]/(u^2-1) and Z/8[u]/(u^2-2) graded by Z2, GR(4,2) and
    # GR(9,2): polynomial quotients over composite Z/m, pinned byte for byte
    family = SPECS / "family-chain-rings.json"
    code, out, _ = run(capsys, "--format", "json", "verify", "all", "--corpus", str(family))
    assert code == 0
    assert out.encode() == (ROOT / "tests/golden/verify-all-chain.out").read_bytes()
    outcomes = [r["outcome"] for r in json.loads(out)]
    assert (outcomes.count("PASS"), outcomes.count("FAIL"), outcomes.count("VACUOUS")) == (86, 0, 6)


def test_nonprincipal_family_counts():
    # (Z/m)[u]/(u^k) graded trivially, by Z and (k = 2) by Z2: the first
    # shipped graded ideals that no one element generates, such as (2, u);
    # the replay itself is pinned byte for byte in SPEC_GOLDEN_ARGV
    corpus = load_corpus(SPECS / "family-nonprincipal.json")
    proper = nonprincipal = 0
    for entry in corpus:
        principal = {ra.elements for ra in principal_graded_ideals(entry.gr)}
        ideals = proper_graded_ideals(entry.gr)
        proper += len(ideals)
        nonprincipal += sum(p.elements not in principal for p in ideals)
    assert (len(corpus), proper, nonprincipal) == (17, 153, 43)
    reports = json.loads((ROOT / "tests/golden/verify-all-nonprincipal.out").read_text())
    outcomes = [r["outcome"] for r in reports]
    assert (outcomes.count("PASS"), outcomes.count("FAIL"), outcomes.count("VACUOUS")) == (290, 0, 18)


def test_cor_2_7_sweep_to_256_matches_golden(capsys):
    # 255 rings and 70 prime powers, past perfbench's golden of the default
    # 2..64: every kernel the sweep runs, pinned byte for byte
    code, out, _ = run(capsys, "--format", "json", "verify", "COR_2_7", "--range", "2..256")
    assert code == 0
    assert out.encode() == (ROOT / "tests/golden/verify-cor-2-7-2-256.out").read_bytes()


ZN = '{{"label": "Z/{0}", "ring": {{"kind": "cyclic", "n": {0}}}}}'
G2 = (
    '{"label": "G", "ring": {"kind": "gauss_mod", "n": 2}, '
    '"group": {"kind": "finite_abelian", "factors": [2]}, '
    '"components": {"0": ["0", "1"], "1": ["0", "i"]}}'
)


SEARCH_FLAGS = ("--hypothesis", "graded_prime", "--conclusion", "graded_maximal")


def corpus_of(*entries: str) -> str:
    return "[" + ", ".join(entries) + "]"


@pytest.mark.parametrize(
    "content, error",
    [
        pytest.param(
            corpus_of(ZN.format(4), '{"kind": "product", "of": ["Z/4", "Z/5"]}'),
            "MalformedSpec: $[1].of: no earlier entry is labelled 'Z/5'", id="unknown-label",
        ),
        pytest.param(
            corpus_of(ZN.format(4), '{"kind": "product", "of": ["Z/4", "Z/5"]}', ZN.format(5)),
            "MalformedSpec: $[1].of: no earlier entry is labelled 'Z/5'", id="later-entry",
        ),
        pytest.param(
            corpus_of(ZN.format(4), '{"label": "Q", "kind": "quotient", "of": "Q", "by": []}'),
            "MalformedSpec: $[1].of: no earlier entry is labelled 'Q'", id="itself",
        ),
        pytest.param(
            corpus_of(ZN.format(4), G2, '{"kind": "product", "of": ["Z/4", "G"]}'),
            "GroupMismatch: $[2].of: ", id="product-group-mismatch",
        ),
        pytest.param(
            corpus_of(ZN.format(4), '{"kind": "product", "of": ["Z/4"]}'),
            "MalformedSpec: $[1].of: a product names 2 entries, not 1", id="product-one-factor",
        ),
        pytest.param(
            corpus_of(ZN.format(64), '{"kind": "product", "of": ["Z/64", "Z/64"]}'),
            "MalformedSpec: $[1].of: carrier size 4096 exceeds cap 1024", id="product-above-cap",
        ),
        pytest.param(
            corpus_of(ZN.format(4), '{"kind": "quotient", "of": "Z/4", "by": ["1"]}'),
            "NotProper: $[1].by: ", id="quotient-improper",
        ),
        pytest.param(
            corpus_of(ZN.format(4), '{"kind": "quotient", "of": "Z/4", "by": ["3"]}'),
            "NotProper: $[1].by: ", id="quotient-by-a-unit",
        ),
        pytest.param(
            corpus_of(G2, '{"kind": "quotient", "of": "G", "by": ["1+i"]}'),
            "NotGraded: $[1].by: ideal not graded; witness 1+i", id="quotient-not-graded",
        ),
        pytest.param(
            corpus_of(ZN.format(4), '{"kind": "quotient", "of": "Z/4", "by": ["x"]}'),
            "MalformedSpec: $[1].by: cannot parse 'x'", id="quotient-bad-element",
        ),
        pytest.param(
            corpus_of(ZN.format(4), '{"kind": "quotient", "of": "Z/4", "by": "2"}'),
            "MalformedSpec: $[1].by: expected a list", id="quotient-generators-string",
        ),
        pytest.param(
            corpus_of(ZN.format(12), '{"kind": "localize", "of": "Z/12", "at": ["2", "3"]}'),
            "InvalidSet: $[1].at: not closed under multiplication at 2*2", id="localize-not-closed",
        ),
        pytest.param(
            corpus_of(ZN.format(12), '{"kind": "localize", "of": "Z/12", "at": ["0"]}'),
            "InvalidSet: $[1].at: 0 in multiplicative set", id="localize-zero",
        ),
        pytest.param(
            corpus_of(G2, '{"kind": "localize", "of": "G", "at": ["1+i"]}'),
            "InvalidSet: $[1].at: 1+i is not homogeneous", id="localize-not-homogeneous",
        ),
        pytest.param(
            corpus_of(ZN.format(4), '{"kind": "localize", "of": "Z/4"}'),
            "MalformedSpec: $[1]: missing 'at'", id="localize-missing-set",
        ),
        pytest.param(
            corpus_of(ZN.format(4), '{"kind": "power", "of": "Z/4"}'),
            "MalformedSpec: $[1].kind: unknown entry kind 'power'", id="unknown-kind",
        ),
        pytest.param(
            corpus_of(ZN.format(4), ZN.format(4)),
            "MalformedSpec: $[1].label: 'Z/4' labels an earlier entry", id="label-twice",
        ),
        pytest.param(
            corpus_of(ZN.format(4), '{"kind": "product", "of": ["Z/4", "Z/4"], "by": ["2"]}'),
            "MalformedSpec: $[1]: unknown key 'by'; expected 'label', 'kind', 'of'",
            id="product-unknown-key",
        ),
        pytest.param(
            corpus_of(ZN.format(4), '{"kind": "quotient", "of": "Z/4", "at": ["2"]}'),
            "MalformedSpec: $[1]: unknown key 'at'; expected 'label', 'kind', 'of', 'by'",
            id="quotient-unknown-key",
        ),
        pytest.param(
            corpus_of(ZN.format(4), '{"kind": "localize", "of": "Z/4", "at": ["1"], "ring": {}}'),
            "MalformedSpec: $[1]: unknown key 'ring'; expected 'label', 'kind', 'of', 'at'",
            id="localize-unknown-key",
        ),
        pytest.param(
            corpus_of(ZN.format(4), '{"kind": "power", "of": "Z/4", "by": ["2"]}'),
            "MalformedSpec: $[1].kind: unknown entry kind 'power'", id="unknown-kind-before-keys",
        ),
    ],
)
@pytest.mark.parametrize("command", ("verify", "search"))
def test_construction_error_exit_code(tmp_path, capsys, content, error, command):
    path = tmp_path / "corpus.json"
    path.write_text(content)
    argv = ("verify", "all") if command == "verify" else ("search", *SEARCH_FLAGS)
    code, out, err = run(capsys, *argv, "--corpus", str(path))
    assert code == 2
    assert err.startswith(f"error: {error}")
    assert out == "" and "Traceback" not in err


LAZY_LAYERS = ("gradedrings.verifier", "gradedrings.transport", "dataclasses", "inspect")
# what an argparse parser loads; the command table needs none of it
PARSER_MODULES = ("argparse", "gettext", "locale")


def _child_env() -> dict[str, str]:
    """The environment of a fresh process that imports this checkout's package."""
    paths = (str(ROOT / "src"), os.environ.get("PYTHONPATH"))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


def _loaded_modules(*argv: str) -> set[str]:
    """Modules one CLI invocation loads beyond a fresh interpreter's start-up set."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "modules_loaded.py"), *argv],
        env=_child_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.split())


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param((), id="import"),
        pytest.param(("ring", "describe", f"{SPECS}/cyclic9.json"), id="ring-describe"),
        pytest.param(
            ("ideal", "classify", f"{SPECS}/cyclic9.json", "--ideal", "M"), id="ideal-classify"
        ),
    ],
)
def test_ring_and_ideal_commands_skip_verifier_layers(argv):
    loaded = _loaded_modules(*argv)
    assert "gradedrings.cli" in loaded
    assert not loaded & {*LAZY_LAYERS, *PARSER_MODULES}


def test_verify_loads_verifier(tmp_path):
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps([json.loads((SPECS / "cyclic9.json").read_text())]))
    loaded = _loaded_modules("verify", "THM_2_2", "--corpus", str(corpus))
    assert {"gradedrings.verifier", "gradedrings.transport"} <= loaded


# `--format json` commands whose output, a golden file, is larger than a
# one-page pipe holds
OUTPUT_ARGV = {
    "describe-z256": ("--format", "json", "ring", "describe", "{z256}"),
    "verify-all": ("--format", "json", "verify", "all"),
}


def _python(buffered: bool) -> tuple[list[str], dict[str, str]]:
    """A fresh interpreter's command prefix and environment, its output buffered
    or not whatever the parent process's `PYTHONUNBUFFERED`."""
    env = {k: v for k, v in _child_env().items() if k != "PYTHONUNBUFFERED"}
    return [sys.executable, *(() if buffered else ("-u",))], env


BUFFERING = pytest.mark.parametrize("buffered", (True, False), ids=("buffered", "unbuffered"))


def _cli(tmp_path, golden: str, stdout, stderr=subprocess.PIPE, *, buffered: bool) -> subprocess.Popen:
    z256 = tmp_path / "z256.json"
    z256.write_text(Z256)
    argv = [a.replace("{z256}", str(z256)) for a in OUTPUT_ARGV[golden]]
    python, env = _python(buffered)
    return subprocess.Popen(
        [*python, "-m", "gradedrings.cli", *argv], env=env, stdout=stdout, stderr=stderr, text=True,
    )


def _one_error_line(err: str, name: str) -> None:
    assert err.startswith(f"error: {name}: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


# each output golden unbuffered, under its own id, and buffered, where the
# output fails at the final flush and not at a write
OUTPUT_BUFFERING = [
    pytest.param(golden, buffered, id=f"{golden}-buffered" if buffered else golden)
    for golden in OUTPUT_ARGV
    for buffered in (False, True)
]


# an output failure exits 2, never 1, which would claim a counterexample
@pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full")
@pytest.mark.parametrize("golden, buffered", OUTPUT_BUFFERING)
def test_full_disk_exits_2_without_traceback(tmp_path, golden, buffered):
    with open("/dev/full", "w") as full:
        proc = _cli(tmp_path, golden, full, buffered=buffered)
        _, err = proc.communicate(timeout=120)
    assert proc.returncode == 2
    _one_error_line(err, "OSError")


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full")
@BUFFERING
@pytest.mark.parametrize("argv", (("-h",), ("verify", "-h")), ids=("help", "verify-help"))
def test_lost_help_text_exits_2(argv, buffered):
    # buffered, the help text fails when flushed; unbuffered, when written
    python, env = _python(buffered)
    cmd = [*python, "-m", "gradedrings.cli", *argv]
    shown = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60)
    assert shown.returncode == 0 and shown.stdout.startswith("usage: ")
    with open("/dev/full", "w") as full:
        lost = subprocess.run(cmd, env=env, stdout=full, stderr=subprocess.PIPE, text=True, timeout=60)
    assert lost.returncode == 2
    _one_error_line(lost.stderr, "OSError")


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full")
@BUFFERING
def test_lost_usage_error_exits_2(buffered):
    # stderr is line-buffered, or unbuffered under -u, so the usage message
    # fails as it is written, and `main` exits 2 through `_fail`
    python, env = _python(buffered)
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [*python, "-m", "gradedrings.cli", "frobnicate"],
            env=env, stdout=subprocess.PIPE, stderr=full, text=True, timeout=60,
        )
    assert proc.returncode == 2 and proc.stdout == ""


@pytest.mark.parametrize("merged", (False, True), ids=("stdout", "stdout-and-stderr"))
@pytest.mark.parametrize("golden, buffered", OUTPUT_BUFFERING)
def test_pipe_closed_after_one_byte_exits_2_without_traceback(tmp_path, golden, buffered, merged):
    # merged: `2>&1 | head -c 1`, so that the error line cannot be written either
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("the pipe's capacity cannot be set")
    read_end, write_end = os.pipe()
    capacity = fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
    if capacity + 1 >= (ROOT / f"perfbench/golden/{golden}.out").stat().st_size:
        os.close(read_end)
        os.close(write_end)
        pytest.skip(f"a pipe of {capacity} bytes holds the whole output")
    proc = _cli(
        tmp_path, golden, write_end, subprocess.STDOUT if merged else subprocess.PIPE,
        buffered=buffered,
    )
    os.close(write_end)
    assert len(os.read(read_end, 1)) == 1
    os.close(read_end)  # the output does not fit: the writer is still writing
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 2
    if not merged:
        _one_error_line(err, "BrokenPipeError")


# Buffered, every output but verify-all's fits in the 8 KB buffer and stays
# there until flushed, and the process ends without the interpreter's exit-time
# flush: each output, error and status below is there only if the CLI flushed it.
@pytest.mark.parametrize("golden", GOLDEN_ARGV)
def test_buffered_process_writes_golden_into_a_pipe(tmp_path, golden):
    z256 = tmp_path / "z256.json"
    z256.write_text(Z256)
    argv = [a.replace("{z256}", str(z256)) for a in GOLDEN_ARGV[golden]]
    python, env = _python(buffered=True)
    proc = subprocess.run(
        [*python, "-m", "gradedrings.cli", "--format", "json", *argv],
        env=env, capture_output=True, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == (ROOT / f"perfbench/golden/{golden}.out").read_bytes()


def test_buffered_process_reports_errors_with_status_2(tmp_path):
    python, env = _python(buffered=True)
    cli = [*python, "-m", "gradedrings.cli"]
    missing = subprocess.run(
        [*cli, "ring", "describe", str(tmp_path / "missing.json")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert missing.returncode == 2 and missing.stdout == ""
    _one_error_line(missing.stderr, "MalformedSpec")
    usage = subprocess.run([*cli, "frobnicate"], env=env, capture_output=True, text=True, timeout=60)
    assert usage.returncode == 2 and usage.stdout == ""
    assert usage.stderr.startswith("usage: gradedrings ") and "invalid choice: 'frobnicate'" in usage.stderr
