"""The package's public names: resolved on first use, always the
submodule's own object."""

from __future__ import annotations

import importlib
import subprocess
import sys
from pathlib import Path

import pytest
from test_cli import _child_env

import gradedrings

ROOT = Path(__file__).resolve().parent.parent

EXPORTS = {
    "errors": (
        "BudgetExceeded", "GradedRingError", "GroupMismatch", "InvalidSet", "MalformedSpec",
        "NotAnIdeal", "NotDirectSum", "NotGraded", "NotMultiplicative", "NotProper",
        "NotSubgroup", "RingMismatch", "ShapeMismatch",
    ),
    "finring": ("Cyclic", "FinRing", "GaussMod", "PolyQuotient", "build_ring"),
    "grading": (
        "GradedRing", "GradingGroup", "TRIVIAL_GROUP", "Z2", "Z_GRADING", "attach_grading",
        "trivial_grading",
    ),
    "ideals": (
        "IdealSet", "colon", "combine", "enumerate_graded_ideals", "graded_radical",
        "ideal_generated", "is_graded_ideal", "proper_graded_ideals", "zero_ideal",
    ),
    "classify": (
        "ClassificationReport", "LocalStructure", "classify_ideal", "is_graded_1abs_primary",
        "is_graded_2abs_primary", "is_graded_maximal", "is_graded_primary", "is_graded_prime",
        "is_graded_strongly_1abs_primary", "local_structure", "ring_predicates",
        "strongly_1abs_ideal_form",
    ),
    "transport": (
        "GradedHom", "MultiplicativeSet", "hom_build", "hom_transport", "identity_subring",
        "localize", "product", "quotient",
    ),
    "verifier": (
        "CorpusEntry", "VerificationReport", "default_corpus", "prop_3_4_reduction", "run_suite",
        "search_counterexample", "verify",
    ),
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


def test_every_export_is_the_submodule_object():
    for module, name in NAMES:
        own = getattr(importlib.import_module(f"gradedrings.{module}"), name)
        namespace: dict = {}
        exec(f"from gradedrings import {name}", namespace)
        assert getattr(gradedrings, name) is own, name
        assert namespace[name] is own, name
        assert name in dir(gradedrings), name


def test_star_import_binds_every_export_and_submodule():
    namespace: dict = {}
    exec("from gradedrings import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == {name for _, name in NAMES} | set(EXPORTS)
    for module, name in NAMES:
        assert namespace[name] is getattr(importlib.import_module(f"gradedrings.{module}"), name)


def test_submodules_are_attributes():
    for module in EXPORTS:
        assert getattr(gradedrings, module) is importlib.import_module(f"gradedrings.{module}")


def test_unknown_name_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        gradedrings.no_such_name
    with pytest.raises(ImportError):
        exec("from gradedrings import no_such_name", {})


def test_lazy_names_follow_tracer_rebinding(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracer = importlib.import_module("tracer")
    originals = {name: getattr(gradedrings, name) for _, name in NAMES}
    t = tracer.Tracer()
    t.install()
    try:
        for module, name in (("verifier", "run_suite"), ("transport", "localize")):
            traced = getattr(gradedrings, name)
            assert traced is getattr(importlib.import_module(f"gradedrings.{module}"), name)
            assert traced.__wrapped__ is originals[name]
    finally:
        t.uninstall()
    for name, original in originals.items():
        assert getattr(gradedrings, name) is original, name
    assert not {name for _, name in NAMES} & set(vars(gradedrings))  # read through, never copied in


def test_every_name_follows_a_rebinding_in_its_submodule(monkeypatch):
    def patched(gr, p):
        return False, None

    monkeypatch.setattr(importlib.import_module("gradedrings.classify"), "is_graded_prime", patched)
    assert gradedrings.is_graded_prime is patched


@pytest.mark.parametrize(
    "statement, loaded",
    [
        pytest.param("import gradedrings", set(), id="import"),
        pytest.param(
            "from gradedrings import FinRing", {"gradedrings.errors", "gradedrings.finring"},
            id="from-import-finring",
        ),
    ],
)
def test_import_loads_only_the_submodules_a_name_needs(statement, loaded):
    code = f"import sys; {statement}; print(*(m for m in sys.modules if m.startswith('gradedrings.')))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=_child_env(), capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.split()) == loaded
