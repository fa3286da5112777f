"""Exact-arithmetic library for finite graded commutative rings.

Ideal-theoretic predicates (graded prime / primary / 1-absorbing /
strongly 1-absorbing / 2-absorbing primary), graded radicals, colon
ideals, structure transport (quotients, products, localizations,
homomorphisms), and a verification harness that replays theorem
statements over a finite ring corpus with explicit witnesses.
"""

from .errors import (
    BudgetExceeded,
    GradedRingError,
    GroupMismatch,
    InvalidSet,
    MalformedSpec,
    NotAnIdeal,
    NotDirectSum,
    NotGraded,
    NotMultiplicative,
    NotProper,
    NotSubgroup,
    RingMismatch,
    ShapeMismatch,
)
from .finring import Cyclic, FinRing, GaussMod, PolyQuotient, build_ring
from .grading import (
    TRIVIAL_GROUP,
    Z2,
    Z_GRADING,
    GradedRing,
    GradingGroup,
    attach_grading,
    trivial_grading,
)
from .ideals import (
    IdealSet,
    colon,
    combine,
    enumerate_graded_ideals,
    graded_radical,
    ideal_generated,
    is_graded_ideal,
    proper_graded_ideals,
    zero_ideal,
)
from .classify import (
    ClassificationReport,
    LocalStructure,
    classify_ideal,
    is_graded_1abs_primary,
    is_graded_2abs_primary,
    is_graded_maximal,
    is_graded_primary,
    is_graded_prime,
    is_graded_strongly_1abs_primary,
    local_structure,
    ring_predicates,
    strongly_1abs_ideal_form,
)

__version__ = "0.1.0"

# Names of the transport and verifier layers, imported on first use so that
# `import gradedrings` and the `ring`/`ideal` subcommands do not load them.
# Each access reads the submodule's current binding, so a name rebound there
# (by a span tracer or a test) is seen here; nothing is copied into this module.
_LAZY = {
    "transport": (
        "GradedHom", "MultiplicativeSet", "hom_build", "hom_transport", "identity_subring",
        "localize", "product", "quotient",
    ),
    "verifier": (
        "CorpusEntry", "VerificationReport", "default_corpus", "prop_3_4_reduction", "run_suite",
        "search_counterexample", "verify",
    ),
}
# Star import names the lazy ones too; `from gradedrings import *` resolves
# them through `__getattr__` and so loads the transport and verifier layers.
__all__ = sorted(
    {n for n in globals() if not n.startswith("_")}
    | {*_LAZY, *(n for names in _LAZY.values() for n in names)}
)


def __getattr__(name: str):
    for module, names in _LAZY.items():
        if name == module or name in names:
            from importlib import import_module

            mod = import_module(f"{__name__}.{module}")
            return mod if name == module else getattr(mod, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
