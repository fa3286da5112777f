"""Ideal- and ring-level predicates, each with explicit witnesses on failure.

Witnesses are the lexicographically least violating tuple of element
indices, so reports are deterministic.  Results are memoized per graded
ring and ideal element set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .grading import GradedRing
from .ideals import (
    IdealSet,
    graded_radical,
    ideal_product,
    product_contained,
    proper_graded_ideals,
    require_graded,
)

Witness = Optional[tuple[int, ...]]
Escape = Callable[[], frozenset[int]]  # computed only when the kernel runs

FLAGS = (
    "graded_prime",
    "graded_primary",
    "graded_1abs_primary",
    "graded_2abs_primary",
    "graded_strongly_1abs_primary",
    "graded_maximal",
)


def _cached(gr: GradedRing, key, compute: Callable):
    if key not in gr._cache:
        gr._cache[key] = compute()
    return gr._cache[key]


def radical_of(gr: GradedRing, p: IdealSet) -> IdealSet:
    return _cached(gr, ("grad", p.elements), lambda: graded_radical(gr, p))


def _pair_kernel(gr: GradedRing, p: IdealSet, key: str, escape: Escape) -> tuple[bool, Witness]:
    """xy in P forces x in P or y in escape(), over homogeneous pairs."""
    def compute():
        require_graded(gr, p, proper=True)
        esc = escape()
        homog = sorted(gr.homogeneous())
        mul = gr.ring.mul
        for x in homog:
            if x in p.elements:
                continue
            for y in homog:
                if mul(x, y) in p.elements and y not in esc:
                    return False, (x, y)
        return True, None

    return _cached(gr, (key, p.elements), compute)


def _triple_kernel(gr: GradedRing, p: IdealSet, key: str, escape: Escape) -> tuple[bool, Witness]:
    """xyz in P forces xy in P or z in escape(), over nonunit homogeneous triples."""
    def compute():
        require_graded(gr, p, proper=True)
        esc = escape()
        nonunits = gr.nonunit_homogeneous()
        mul = gr.ring.mul
        for x in nonunits:
            for y in nonunits:
                xy = mul(x, y)
                if xy in p.elements:
                    continue
                for z in nonunits:
                    if mul(xy, z) in p.elements and z not in esc:
                        return False, (x, y, z)
        return True, None

    return _cached(gr, (key, p.elements), compute)


def is_graded_prime(gr: GradedRing, p: IdealSet) -> tuple[bool, Witness]:
    """xy in P forces x in P or y in P, over homogeneous pairs."""
    return _pair_kernel(gr, p, "prime", lambda: p.elements)


def is_graded_primary(gr: GradedRing, q: IdealSet) -> tuple[bool, Witness]:
    """xy in Q forces x in Q or y in Grad(Q), over homogeneous pairs."""
    return _pair_kernel(gr, q, "primary", lambda: radical_of(gr, q).elements)


def is_graded_1abs_primary(gr: GradedRing, p: IdealSet) -> tuple[bool, Witness]:
    """xyz in P forces xy in P or z in Grad(P), over nonunit homogeneous triples."""
    return _triple_kernel(gr, p, "1abs", lambda: radical_of(gr, p).elements)


def is_graded_strongly_1abs_primary(gr: GradedRing, p: IdealSet) -> tuple[bool, Witness]:
    """xyz in P forces xy in P or z in Grad({0}), over nonunit homogeneous triples."""
    return _triple_kernel(gr, p, "strongly", gr.graded_nilradical)


def is_graded_2abs_primary(gr: GradedRing, i: IdealSet) -> tuple[bool, Witness]:
    """xyz in I forces xy in I or xz in Grad(I) or yz in Grad(I).

    Quantifies over all homogeneous triples, units included, matching the
    definition exactly; unit cases are vacuous anyway.
    """
    def compute():
        require_graded(gr, i, proper=True)
        rad = radical_of(gr, i).elements
        homog = sorted(gr.homogeneous())
        mul = gr.ring.mul
        for x in homog:
            for y in homog:
                xy = mul(x, y)
                if xy in i.elements:
                    continue
                for z in homog:
                    if (
                        mul(xy, z) in i.elements
                        and mul(x, z) not in rad
                        and mul(y, z) not in rad
                    ):
                        return False, (x, y, z)
        return True, None

    return _cached(gr, ("2abs", i.elements), compute)


def strongly_1abs_ideal_form(
    gr: GradedRing, p: IdealSet
) -> tuple[bool, Optional[tuple[IdealSet, IdealSet, IdealSet]]]:
    """Ideal-form test: IJK in P forces IJ in P or K in Grad({0}),
    over all proper graded ideals I, J, K."""
    require_graded(gr, p, proper=True)
    grad_zero = gr.graded_nilradical()
    lattice = proper_graded_ideals(gr)
    for i in lattice:
        for j in lattice:
            ij = ideal_product(i, j)
            if ij <= p:
                continue
            for k in lattice:
                if k.elements <= grad_zero:
                    continue
                if product_contained(ij, k, p):
                    return False, (i, j, k)
    return True, None


def is_graded_maximal(gr: GradedRing, m: IdealSet) -> bool:
    """No graded ideal strictly between M and R: M + Ra = R for every
    homogeneous a outside M."""
    def compute():
        require_graded(gr, m, proper=True)
        ring = gr.ring
        for a in gr.homogeneous():
            if a in m.elements:
                continue
            if not any(ring.sub(ring.one, ring.mul(r, a)) in m.elements for r in ring.elements()):
                return False
        return True

    return _cached(gr, ("maximal", m.elements), compute)


@dataclass
class LocalStructure:
    graded_maximal_ideals: list[IdealSet]
    is_graded_local: bool
    the_maximal: Optional[IdealSet]


def local_structure(gr: GradedRing) -> LocalStructure:
    def compute():
        maximals = [m for m in proper_graded_ideals(gr) if is_graded_maximal(gr, m)]
        return LocalStructure(
            graded_maximal_ideals=maximals,
            is_graded_local=len(maximals) == 1,
            the_maximal=maximals[0] if len(maximals) == 1 else None,
        )

    return _cached(gr, ("local_structure",), compute)


@dataclass
class RingProfile:
    graded_field: bool
    graded_domain: bool
    every_homogeneous_nilpotent_or_unit: bool


def ring_predicates(gr: GradedRing) -> RingProfile:
    def compute():
        ring = gr.ring
        homog = gr.homogeneous()
        units = ring.units()
        nil = ring.nilradical()
        nonzero = [x for x in homog if x != ring.zero]
        graded_field = all(x in units for x in nonzero)
        graded_domain = not any(
            ring.mul(x, y) == ring.zero for x in nonzero for y in nonzero
        )
        nil_or_unit = all(x in units or x in nil for x in homog)
        return RingProfile(graded_field, graded_domain, nil_or_unit)

    return _cached(gr, ("ring_profile",), compute)


@dataclass
class ClassificationReport:
    ideal: IdealSet
    flags: dict[str, bool]
    witnesses: dict[str, tuple[int, ...]]
    radical: IdealSet
    ring_label: str = ""
    extra: dict = field(default_factory=dict)

    def to_dict(self, gr: GradedRing) -> dict:
        name = gr.ring.name
        return {
            "ring": self.ring_label or gr.label,
            "ideal": sorted(name(x) for x in self.ideal.elements),
            "flags": dict(self.flags),
            "witnesses": {
                flag: [name(x) for x in w] for flag, w in self.witnesses.items()
            },
            "radical": sorted(name(x) for x in self.radical.elements),
        }


def classify_ideal(gr: GradedRing, p: IdealSet) -> ClassificationReport:
    """All flags with witnesses plus Grad(P) for one proper graded ideal."""
    require_graded(gr, p, proper=True)
    flags: dict[str, bool] = {}
    witnesses: dict[str, tuple[int, ...]] = {}
    for flag in FLAGS:
        flags[flag], witness = flag_value(gr, p, flag)
        if witness is not None:
            witnesses[flag] = witness
    return ClassificationReport(
        ideal=p,
        flags=flags,
        witnesses=witnesses,
        radical=radical_of(gr, p),
        ring_label=gr.label,
    )


def flag_value(gr: GradedRing, p: IdealSet, flag: str) -> tuple[bool, Witness]:
    """Evaluate one classification flag by name."""
    # built per call so that rebinding a module-level kernel takes effect
    table = {
        "graded_prime": is_graded_prime,
        "graded_primary": is_graded_primary,
        "graded_1abs_primary": is_graded_1abs_primary,
        "graded_2abs_primary": is_graded_2abs_primary,
        "graded_strongly_1abs_primary": is_graded_strongly_1abs_primary,
        "graded_maximal": lambda gr, p: (is_graded_maximal(gr, p), None),
    }
    if flag not in table:
        raise ValueError(f"unknown flag {flag!r}; choose from {FLAGS}")
    return table[flag](gr, p)
