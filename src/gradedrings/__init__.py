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
from .transport import (
    GradedHom,
    MultiplicativeSet,
    hom_build,
    hom_transport,
    identity_subring,
    localize,
    product,
    quotient,
)
from .verifier import (
    CorpusEntry,
    VerificationReport,
    default_corpus,
    prop_3_4_reduction,
    run_suite,
    search_counterexample,
    verify,
)

__version__ = "0.1.0"
