"""Ideal- and ring-level predicates, each with explicit witnesses on failure.

Witnesses are the lexicographically least violating tuple of element
indices, so reports are deterministic.  Every kernel reads one domain per
graded ring, `_nonunit_classes`; results are memoized per ring and ideal.
"""

from __future__ import annotations

from typing import Callable, Optional

from .finring import Record, memo
from .grading import GradedRing
from .ideals import (
    IdealSet, colon_masks, element_names, graded_radical, principal_graded_ideals,
    proper_graded_ideals, require_graded, zero_ideal,
)

Witness = Optional[tuple[int, ...]]
Escape = Callable[[], frozenset[int]]  # computed only when the kernel runs
EscapeMasks = Callable[[list[int]], dict[int, int]]  # likewise; one mask per representative

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


def _nonunit_classes(gr: GradedRing) -> tuple[list[int], int]:
    """The one domain of the kernels, memoized per graded ring: the least
    homogeneous generator of each proper principal ideal, ascending, as
    `principal_graded_ideals` found it, one per class {b : Rb = Ra}; and the
    mask of the nonunit homogeneous elements.  The kernels read x and y only
    through Rx and Ry: xy is in P iff R(xy) = (Rx)(Ry) is, x in P (or
    Grad(I)) iff Rx is, and x is a nonunit iff Rx is proper.  So replacing
    x, then y, of a violating tuple by its representative, which is no
    larger, keeps it violating: the least one has representatives as x and
    y.  z is read off full masks."""
    def compute():
        reps = sorted(ra.spanning[0] for ra in principal_graded_ideals(gr) if ra.is_proper())
        return reps, sum(map((1).__lshift__, gr.homogeneous() - gr.ring.units()))

    return memo(gr, "nonunit_classes", compute)


def _pair_kernel(gr: GradedRing, p: IdealSet, key: str, escape: Escape) -> tuple[bool, Witness]:
    """xy in P forces x in P or y in escape(), over homogeneous pairs.

    Only nonunits y outside escape() can complete a violation: for a unit y,
    xy in P gives x = xy y^-1 in P.  When there are none, the ideal passes
    before the scan.  Likewise only nonunits x: for a unit x, xy in P gives
    y in P, inside escape(); and only representatives x."""
    def compute():
        require_graded(gr, p, proper=True)
        ring, (reps, nonunits) = gr.ring, _nonunit_classes(gr)
        allowed = nonunits & ~colon_masks(ring, escape())[ring.one]  # T's own mask is (T : 1)
        if not allowed:
            return True, None
        into_p = colon_masks(ring, p.elements)
        for x in [x for x in reps if x not in p.elements]:
            bad = into_p[x] & allowed
            if bad:
                return False, (x, _least(bad))
        return True, None

    return memo(gr, (key, p), compute)


def _triple_kernel(
    gr: GradedRing, p: IdealSet, key: str, escape: Escape, by_x: Optional[EscapeMasks] = None
) -> tuple[bool, Witness]:
    """xyz in P forces xy in P or z in esc[x] | esc[y], over nonunit
    homogeneous triples: esc[x] is escape(), or by_x(representatives)[x]
    when given, a colon (escape() : x), which holds the ideal escape().

    Only z in `kept` can be bad: outside escape(), then outside the escape
    all elements share.  With none the ideal passes before the scan.  x
    and y run over the live representatives, whose escape leaves some kept
    z: a pair with another element has no bad z.  The bad z of a pair: the
    colon mask (P : xy) on the domain, read from P's one table per ring,
    minus the shared escape (once per product), then minus the pair's own."""
    def compute():
        require_graded(gr, p, proper=True)
        ring, (reps, nonunits) = gr.ring, _nonunit_classes(gr)
        floor = colon_masks(ring, escape())[ring.one]
        kept = nonunits & ~floor
        if not kept:
            return True, None
        esc = dict.fromkeys(reps, floor) if by_x is None else by_x(reps)
        shared = -1  # every bit set
        for x in reps:
            shared &= esc[x]
        kept &= ~shared
        live = [x for x in reps if kept & ~esc[x]]
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

    return memo(gr, (key, p), compute)


def is_graded_prime(gr: GradedRing, p: IdealSet) -> tuple[bool, Witness]:
    """xy in P forces x in P or y in P, over homogeneous pairs."""
    return _pair_kernel(gr, p, "prime", lambda: p.elements)


def is_graded_primary(gr: GradedRing, q: IdealSet) -> tuple[bool, Witness]:
    """xy in Q forces x in Q or y in Grad(Q), over homogeneous pairs."""
    return _pair_kernel(gr, q, "primary", lambda: graded_radical(gr, q).elements)


def is_graded_1abs_primary(gr: GradedRing, p: IdealSet) -> tuple[bool, Witness]:
    """xyz in P forces xy in P or z in Grad(P), over nonunit homogeneous triples."""
    return _triple_kernel(gr, p, "1abs", lambda: graded_radical(gr, p).elements)


def is_graded_strongly_1abs_primary(gr: GradedRing, p: IdealSet) -> tuple[bool, Witness]:
    """xyz in P forces xy in P or z in Grad({0}), over nonunit homogeneous triples."""
    return _triple_kernel(gr, p, "strongly", gr.graded_nilradical)


def is_graded_2abs_primary(gr: GradedRing, i: IdealSet) -> tuple[bool, Witness]:
    """xyz in I forces xy in I or xz in Grad(I) or yz in Grad(I).

    Quantifies over nonunit homogeneous triples only: a triple with a unit
    never violates the condition, since xyz in I gives yz = x^-1 xyz in I
    when x is a unit, xz in I when y is, and xy in I when z is.  So the
    violating triples, and the least of them, are those over all of h(R).
    An x in Grad(I) escapes for every z, (Grad(I) : x) = R, so its colon
    mask is never built.
    """
    def rad_colons(reps: list[int]) -> dict[int, int]:  # xz in Grad(I) iff z is in (Grad(I) : x)
        rad = graded_radical(gr, i).elements
        into_rad = colon_masks(gr.ring, rad)
        return {x: -1 if x in rad else into_rad[x] for x in reps}  # -1: every bit set

    return _triple_kernel(gr, i, "2abs", lambda: graded_radical(gr, i).elements, rad_colons)


def strongly_1abs_ideal_form(
    gr: GradedRing, p: IdealSet
) -> tuple[bool, Optional[tuple[IdealSet, IdealSet, IdealSet]]]:
    """Ideal-form test: IJK in P forces IJ in P or K in Grad({0}),
    over all proper graded ideals I, J, K.

    IJ is never built: the products gh of the g spanning I and the h
    spanning J span it, so IJ lies in the ideal P iff they do, and IJK
    does iff every product of one of them with a k spanning K does."""
    require_graded(gr, p, proper=True)
    grad_zero, rows, members = gr.graded_nilradical(), gr.ring.mul_rows, p.elements
    lattice = proper_graded_ideals(gr)
    for i in lattice:
        for j in lattice:
            ij = {rows[g][h] for g in i.spanning for h in j.spanning}
            if ij <= members:
                continue
            for k in lattice:
                if not k.elements <= grad_zero and all(
                    members.issuperset(map(rows[t].__getitem__, k.spanning)) for t in ij
                ):
                    return False, (i, j, k)
    return True, None


def is_graded_maximal(gr: GradedRing, m: IdealSet) -> tuple[bool, None]:
    """No graded ideal strictly between M and R: M + Ra = R for every
    homogeneous a outside M, read at the representatives: a unit gives
    Ra = R, and associates share Ra.  A failure has no element witness."""
    def compute():
        require_graded(gr, m, proper=True)
        ring = gr.ring
        one_plus_m = {ring.add_rows[ring.one][x] for x in m.elements}  # 1 - ra in M iff ra in 1 + M
        outside = [a for a in _nonunit_classes(gr)[0] if a not in m.elements]
        return all(not one_plus_m.isdisjoint(ring.mul_rows[a]) for a in outside), None

    return memo(gr, ("maximal", m), compute)


class LocalStructure(Record):
    """`graded_maximal_ideals` a list of IdealSet; `the_maximal` the only one, or None."""

    __slots__ = ("graded_maximal_ideals", "is_graded_local", "the_maximal")


def local_structure(gr: GradedRing) -> LocalStructure:
    def compute():
        maximals = [m for m in proper_graded_ideals(gr) if is_graded_maximal(gr, m)[0]]
        local = len(maximals) == 1
        return LocalStructure(maximals, local, maximals[0] if local else None)

    return memo(gr, ("local_structure",), compute)


class RingProfile(Record):
    __slots__ = ("graded_field", "graded_domain", "every_homogeneous_nilpotent_or_unit")

    def to_dict(self) -> dict[str, bool]:
        return {k: getattr(self, k) for k in self.__slots__}


def ring_predicates(gr: GradedRing) -> RingProfile:
    """Graded field: (0) is graded maximal, as Ra = R iff a is a unit.  Graded
    domain: (0) is graded prime, by definition.  Every homogeneous element
    nilpotent or a unit: the ideal Grad({0}) holds the representatives, hence
    every nonunit homogeneous element, and a homogeneous element, its own
    component, is in Grad({0}) iff nilpotent."""
    def compute():
        zero = zero_ideal(gr.ring)
        return RingProfile(
            is_graded_maximal(gr, zero)[0],
            is_graded_prime(gr, zero)[0],
            gr.graded_nilradical().issuperset(_nonunit_classes(gr)[0]),
        )

    return memo(gr, ("ring_profile",), compute)


class ClassificationReport(Record):
    """`flags` maps each flag to a bool, `witnesses` a false one to a tuple of elements."""

    __slots__ = ("ideal", "flags", "witnesses", "radical")

    def to_dict(self, gr: GradedRing) -> dict:
        ring = gr.ring
        return {
            "ring": gr.label,
            "ideal": sorted(element_names(ring, self.ideal)),
            "flags": dict(self.flags),
            "witnesses": {flag: element_names(ring, w) for flag, w in self.witnesses.items()},
            "radical": sorted(element_names(ring, self.radical)),
        }


def classify_ideal(gr: GradedRing, p: IdealSet) -> ClassificationReport:
    """All flags with witnesses plus Grad(P) for one proper graded ideal, checked by a kernel."""
    flags: dict[str, bool] = {}
    witnesses: dict[str, tuple[int, ...]] = {}
    for flag in FLAGS:
        flags[flag], witness = flag_value(gr, p, flag)
        if witness is not None:
            witnesses[flag] = witness
    return ClassificationReport(p, flags, witnesses, graded_radical(gr, p))


def flag_value(gr: GradedRing, p: IdealSet, flag: str) -> tuple[bool, Witness]:
    """Evaluate one classification flag by name with the kernel `is_<flag>`,
    read from this module on each call, so that a rebound kernel is used."""
    if flag not in FLAGS:
        raise ValueError(f"unknown flag {flag!r}; choose from {FLAGS}")
    return globals()[f"is_{flag}"](gr, p)
