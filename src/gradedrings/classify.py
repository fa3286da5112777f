"""Ideal- and ring-level predicates, each with explicit witnesses on failure.

Witnesses are the lexicographically least violating tuple of element
indices, so reports are deterministic.  Results are memoized per graded
ring and ideal element set.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from .finring import Record, memo
from .grading import GradedRing
from .ideals import (
    IdealSet,
    colon_masks,
    combine,
    graded_radical,
    product_contained,
    proper_graded_ideals,
    require_graded,
)

Witness = Optional[tuple[int, ...]]
Escape = Callable[[], frozenset[int]]  # computed only when the kernel runs
EscapeMasks = Callable[[], dict[int, int]]  # likewise; one mask per domain element

FLAGS = (
    "graded_prime",
    "graded_primary",
    "graded_1abs_primary",
    "graded_2abs_primary",
    "graded_strongly_1abs_primary",
    "graded_maximal",
)


def _least(mask: int) -> int:
    """The least element of a nonempty mask: its lowest set bit."""
    return (mask & -mask).bit_length() - 1


def _pair_kernel(gr: GradedRing, p: IdealSet, key: str, escape: Escape) -> tuple[bool, Witness]:
    """xy in P forces x in P or y in escape(), over homogeneous pairs.

    Only nonunits y outside escape() can complete a violation: for a unit y,
    xy in P gives x = xy y^-1 in P.  When there are none, the ideal passes
    before any colon mask is built.  Likewise only nonunits x: for a unit x,
    xy in P gives y in P, inside escape()."""
    def compute():
        require_graded(gr, p, proper=True)
        ring, nonunits = gr.ring, gr.nonunit_homogeneous()
        one = ring.one  # a set's own mask is its colon (T : 1)
        allowed = colon_masks(ring, frozenset(nonunits))[one] & ~colon_masks(ring, escape())[one]
        if not allowed:
            return True, None
        into_p = colon_masks(ring, p.elements)
        for x in [x for x in nonunits if x not in p.elements]:
            bad = into_p[x] & allowed
            if bad:
                return False, (x, _least(bad))
        return True, None

    return memo(gr, (key, p.elements), compute)


def _triple_kernel(
    gr: GradedRing, p: IdealSet, key: str, domain: Iterable[int], escape: EscapeMasks
) -> tuple[bool, Witness]:
    """xyz in P forces xy in P or z in escape()[x] | escape()[y], over domain triples.

    The bad z of a pair: the colon mask (P : xy) on the domain, read from P's
    one table per ring, minus the escape all pairs share (once per product),
    then minus the pair's own.
    Only z in `kept`, those that escape for no element, can be bad, so x and
    y run over the live elements, whose escape leaves some kept z: a pair
    with another element has no bad z.  With none live the ideal passes
    before any pair is scanned."""
    def compute():
        require_graded(gr, p, proper=True)
        ring, dom, esc = gr.ring, sorted(domain), escape()
        shared = -1  # every bit set
        for x in dom:
            shared &= esc[x]
        kept = colon_masks(ring, frozenset(dom))[ring.one] & ~shared
        live = [x for x in dom if kept & ~esc[x]]
        into_p = colon_masks(ring, p.elements)
        kept_of: dict[int, int] = {}  # (P : xy) & kept, one big-int AND per product
        for x in live:
            row, esc_x = ring.mul_rows[x], esc[x]
            for y in live:
                xy = row[y]
                if xy in p.elements:
                    continue
                bad = kept_of.get(xy)
                if bad is None:
                    bad = kept_of[xy] = into_p[xy] & kept
                if bad and bad & ~(esc_x | esc[y]):
                    return False, (x, y, _least(bad & ~(esc_x | esc[y])))
        return True, None

    return memo(gr, (key, p.elements), compute)


def is_graded_prime(gr: GradedRing, p: IdealSet) -> tuple[bool, Witness]:
    """xy in P forces x in P or y in P, over homogeneous pairs."""
    return _pair_kernel(gr, p, "prime", lambda: p.elements)


def is_graded_primary(gr: GradedRing, q: IdealSet) -> tuple[bool, Witness]:
    """xy in Q forces x in Q or y in Grad(Q), over homogeneous pairs."""
    return _pair_kernel(gr, q, "primary", lambda: graded_radical(gr, q).elements)


def _everywhere(gr: GradedRing, escape: frozenset[int]) -> dict[int, int]:
    return dict.fromkeys(gr.homogeneous(), colon_masks(gr.ring, escape)[gr.ring.one])


def is_graded_1abs_primary(gr: GradedRing, p: IdealSet) -> tuple[bool, Witness]:
    """xyz in P forces xy in P or z in Grad(P), over nonunit homogeneous triples."""
    return _triple_kernel(
        gr, p, "1abs", gr.nonunit_homogeneous(), lambda: _everywhere(gr, graded_radical(gr, p).elements)
    )


def is_graded_strongly_1abs_primary(gr: GradedRing, p: IdealSet) -> tuple[bool, Witness]:
    """xyz in P forces xy in P or z in Grad({0}), over nonunit homogeneous triples."""
    return _triple_kernel(
        gr, p, "strongly", gr.nonunit_homogeneous(), lambda: _everywhere(gr, gr.graded_nilradical())
    )


def is_graded_2abs_primary(gr: GradedRing, i: IdealSet) -> tuple[bool, Witness]:
    """xyz in I forces xy in I or xz in Grad(I) or yz in Grad(I).

    Quantifies over nonunit homogeneous triples only: a triple with a unit
    never violates the condition, since xyz in I gives yz = x^-1 xyz in I
    when x is a unit, xz in I when y is, and xy in I when z is.  So the
    violating triples, and the least of them, are those over all of h(R).
    An x in Grad(I) escapes for every z, (Grad(I) : x) = R, so its colon
    mask is never built.
    """
    def rad_colons() -> dict[int, int]:  # xz in Grad(I) iff z is in (Grad(I) : x)
        rad = graded_radical(gr, i).elements
        into_rad = colon_masks(gr.ring, rad)
        return {
            x: -1 if x in rad else into_rad[x]  # -1: every bit set
            for x in gr.nonunit_homogeneous()
        }

    return _triple_kernel(gr, i, "2abs", gr.nonunit_homogeneous(), rad_colons)


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
            ij = combine(i, j, "product")
            if ij <= p:
                continue
            for k in lattice:
                if not k.elements <= grad_zero and product_contained(ij, k, p):
                    return False, (i, j, k)
    return True, None


def is_graded_maximal(gr: GradedRing, m: IdealSet) -> bool:
    """No graded ideal strictly between M and R: M + Ra = R for every
    homogeneous a outside M."""
    def compute():
        require_graded(gr, m, proper=True)
        ring = gr.ring
        one_plus_m = {ring.add(ring.one, x) for x in m.elements}  # 1 - ra in M iff ra in 1 + M
        outside = gr.homogeneous() - m.elements
        return all(not one_plus_m.isdisjoint(ring.mul_rows[a]) for a in outside)

    return memo(gr, ("maximal", m.elements), compute)


class LocalStructure(Record):
    __slots__ = ("graded_maximal_ideals", "is_graded_local", "the_maximal")

    def __init__(
        self,
        graded_maximal_ideals: list[IdealSet],
        is_graded_local: bool,
        the_maximal: Optional[IdealSet],
    ):
        self.graded_maximal_ideals = graded_maximal_ideals
        self.is_graded_local = is_graded_local
        self.the_maximal = the_maximal


def local_structure(gr: GradedRing) -> LocalStructure:
    def compute():
        maximals = [m for m in proper_graded_ideals(gr) if is_graded_maximal(gr, m)]
        return LocalStructure(
            graded_maximal_ideals=maximals,
            is_graded_local=len(maximals) == 1,
            the_maximal=maximals[0] if len(maximals) == 1 else None,
        )

    return memo(gr, ("local_structure",), compute)


class RingProfile(Record):
    __slots__ = ("graded_field", "graded_domain", "every_homogeneous_nilpotent_or_unit")

    def __init__(
        self,
        graded_field: bool,
        graded_domain: bool,
        every_homogeneous_nilpotent_or_unit: bool,
    ):
        self.graded_field = graded_field
        self.graded_domain = graded_domain
        self.every_homogeneous_nilpotent_or_unit = every_homogeneous_nilpotent_or_unit

    def to_dict(self) -> dict[str, bool]:
        return {k: getattr(self, k) for k in self.__slots__}


def ring_predicates(gr: GradedRing) -> RingProfile:
    def compute():
        ring = gr.ring
        homog = gr.homogeneous()
        units = ring.units()
        nil = ring.nilradical()
        nonzero = [x for x in homog if x != ring.zero]
        graded_field = all(x in units for x in nonzero)
        graded_domain = not any(
            ring.zero in map(ring.mul_rows[x].__getitem__, nonzero) for x in nonzero
        )
        nil_or_unit = all(x in units or x in nil for x in homog)
        return RingProfile(graded_field, graded_domain, nil_or_unit)

    return memo(gr, ("ring_profile",), compute)


class ClassificationReport(Record):
    __slots__ = ("ideal", "flags", "witnesses", "radical", "ring_label")

    def __init__(
        self,
        ideal: IdealSet,
        flags: dict[str, bool],
        witnesses: dict[str, tuple[int, ...]],
        radical: IdealSet,
        ring_label: str = "",
    ):
        self.ideal = ideal
        self.flags = flags
        self.witnesses = witnesses
        self.radical = radical
        self.ring_label = ring_label

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
        radical=graded_radical(gr, p),
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
