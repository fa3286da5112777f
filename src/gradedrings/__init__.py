"""Exact-arithmetic library for finite graded commutative rings.

Ideal-theoretic predicates (graded prime / primary / 1-absorbing /
strongly 1-absorbing / 2-absorbing primary), graded radicals, colon
ideals, structure transport (quotients, products, localizations,
homomorphisms), and a verification harness that replays theorem
statements over a finite ring corpus with explicit witnesses.
"""

__version__ = "0.1.0"

# Every public name, by the submodule that defines it.  A name is imported on
# first access, so `import gradedrings` loads no submodule, and the `ring` and
# `ideal` subcommands never load transport or verifier.  Each access reads the
# submodule's current binding, so a name rebound there (by a span tracer or a
# test) is seen here; nothing is copied into this module.
_EXPORTS = {
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
# `from gradedrings import *` binds every submodule and name, and so loads all seven
__all__ = sorted({*_EXPORTS, *(n for names in _EXPORTS.values() for n in names)})


def __getattr__(name: str):
    for module, names in _EXPORTS.items():
        if name == module or name in names:
            from importlib import import_module

            mod = import_module(f"{__name__}.{module}")
            return mod if name == module else getattr(mod, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
