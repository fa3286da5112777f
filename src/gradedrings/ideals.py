"""Ideal generation, graded-ness, graded radical, colon, and lattice enumeration.

Ideals are carried as full element sets; equality is element-set equality.
"""

from __future__ import annotations

from typing import Iterable, Literal, Optional, Sequence

from .errors import BudgetExceeded, NotAnIdeal, NotGraded, NotProper, RingMismatch
from .finring import FinRing, additive_closure, gather, memo
from .grading import GradedRing

IDEAL_LATTICE_CAP = 4096


class IdealSet:
    """An ideal as its full element set, and `spanning`, the one tuple of
    elements that generates it: (a,) for Ra, `ideal_generated`'s generators,
    a lattice sum's principals' generators, () for (0), every member
    otherwise."""

    __slots__ = ("ring", "elements", "spanning")

    def __init__(self, ring: FinRing, elements: Iterable[int], spanning: Optional[tuple[int, ...]] = None):
        self.ring = ring
        self.elements = frozenset(elements)
        self.spanning = self.sorted_elements() if spanning is None else spanning

    def __eq__(self, other) -> bool:
        if not isinstance(other, IdealSet):
            return NotImplemented
        return self.ring is other.ring and self.elements == other.elements

    def __hash__(self) -> int:
        return hash((id(self.ring), self.elements))

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, x: int) -> bool:
        return x in self.elements

    def __le__(self, other: "IdealSet") -> bool:
        return self.elements <= other.elements

    def __repr__(self) -> str:
        return f"IdealSet({braced(element_names(self.ring, self))})"

    def is_proper(self) -> bool:
        return self.ring.one not in self.elements

    def sorted_elements(self) -> tuple[int, ...]:
        return tuple(sorted(self.elements))


def element_names(ring: FinRing, xs) -> list[str]:
    """The names of an IdealSet's or a set's elements, ascending, or of a
    witness tuple's or list's, in its own order."""
    if isinstance(xs, IdealSet):
        xs = xs.elements
    return list(map(ring.name, sorted(xs) if isinstance(xs, (set, frozenset)) else xs))


def braced(names: Iterable[str]) -> str:
    """Names written as a set: {a,b,c}."""
    return "{" + ",".join(names) + "}"


def validate_ideal(ring: FinRing, elements: frozenset[int]) -> None:
    """Raise NotAnIdeal unless the set satisfies the ideal axioms.

    Reads whole rows: x + I and Rx (row x of the commutative multiplication
    table) must lie in the set; the first failing partner is then named.
    """
    ring.require_elements(elements, NotAnIdeal)
    if ring.zero not in elements:
        raise NotAnIdeal("missing 0")
    for x in elements:
        sums, products = ring.add_rows[x], ring.mul_rows[x]
        if not elements.issuperset(map(sums.__getitem__, elements)):
            y = next(y for y in elements if sums[y] not in elements)
            raise NotAnIdeal(f"not closed under addition at {ring.name(x)}+{ring.name(y)}")
        if not elements.issuperset(products):
            r = next(r for r in ring.elements() if products[r] not in elements)
            raise NotAnIdeal(f"not absorbing at {ring.name(r)}*{ring.name(x)}")


def ideal_generated(ring: FinRing, gens: Iterable[int]) -> IdealSet:
    """Least ideal containing the generators: additive closure of all multiples."""
    gens = tuple(gens)
    ring.require_elements(gens, NotAnIdeal)
    multiples = {ring.zero}.union(*(ring.mul_rows[g] for g in gens))
    return IdealSet(ring, additive_closure(ring, multiples), gens)


def zero_ideal(ring: FinRing) -> IdealSet:
    return IdealSet(ring, {ring.zero}, ())


def unit_ideal(ring: FinRing) -> IdealSet:
    return IdealSet(ring, ring.elements(), (ring.one,))


def is_graded_ideal(gr: GradedRing, ideal: IdealSet) -> tuple[bool, Optional[int]]:
    """True iff every homogeneous component of every member lies in the ideal.

    On failure returns the least violating element as witness.  Memoized per
    element set; a set that is not an ideal raises NotAnIdeal on every call.

    The members whose components all lie in I are exactly the span of the
    homogeneous members, the direct sum of the I cap R_g: such a member is
    the sum of its components, and a sum of homogeneous members has as
    component of degree g the sum of its terms of degree g, a member.  So
    the violators are the members outside that span.
    """
    if ideal.ring is not gr.ring:
        raise RingMismatch("ideal belongs to a different ring")
    members = ideal.elements

    def compute():
        validate_ideal(gr.ring, members)
        span = additive_closure(gr.ring, members & gr.homogeneous())
        witness = min(members - span, default=None)
        return witness is None, witness

    return memo(gr, ("graded", members), compute)


def require_graded(gr: GradedRing, ideal: IdealSet, proper: bool = False) -> None:
    ok, witness = is_graded_ideal(gr, ideal)
    if not ok:
        raise NotGraded(f"ideal not graded; witness {gr.ring.name(witness)}")
    if proper and not ideal.is_proper():
        raise NotProper("operation requires a proper ideal")


def graded_radical(gr: GradedRing, ideal: IdealSet) -> IdealSet:
    """Grad(I): elements all of whose components have some power in I.

    Convention: Grad(R) = R for the improper ideal (keeps monotonicity total).
    """
    if not ideal.is_proper():
        return unit_ideal(gr.ring)
    require_graded(gr, ideal)
    return IdealSet(gr.ring, gr.radical(ideal.elements))


class ColonMasks(dict):
    """w -> (T : w) = {z : wz in T} for one set T, as an int with bit z set
    for each member z.  An entry is built on first read; T's own mask is
    (T : 1).  Holds the multiplication rows, not the ring, so that a ring
    in no reference cycle is still freed when dropped."""

    __slots__ = ("_rows", "_digits")

    def __init__(self, rows: Sequence[Sequence[int]], members: Iterable[int]):
        super().__init__()
        self._rows = rows
        self._digits = ["0"] * len(rows)
        for v in members:
            self._digits[v] = "1"

    def __missing__(self, w: int) -> int:
        mask = self[w] = int("".join(gather(self._rows[w])(self._digits))[::-1], 2)
        return mask


def colon_masks(ring: FinRing, members: frozenset[int]) -> ColonMasks:
    """The table w -> (T : w) of T = `members`, one per ring and set."""
    return memo(ring, ("colon", members), lambda: ColonMasks(ring.mul_rows, members))


def _members(mask: int) -> list[int]:
    """The elements of a mask, least first."""
    return [z for z, bit in enumerate(reversed(format(mask, "b"))) if bit == "1"]


def colon(ring: FinRing, p: IdealSet, k: IdealSet) -> IdealSet:
    """(P : K) = {r : rK subset of P}, the AND of (P : g) over the g spanning
    K: for an ideal P, each rg in P gives r(s_1 g_1 + ... + s_m g_m) in P."""
    if p.ring is not ring or k.ring is not ring:
        raise RingMismatch("colon operands from different rings")
    masks = colon_masks(ring, p.elements)
    out = (1 << ring.size) - 1
    for x in k.spanning:
        out &= masks[x]
    return IdealSet(ring, _members(out))


CombineOp = Literal["sum", "product", "intersection"]


def combine(i: IdealSet, j: IdealSet, op: CombineOp) -> IdealSet:
    if i.ring is not j.ring:
        raise RingMismatch("combine operands from different rings")
    ring = i.ring
    if op == "sum":
        return IdealSet(ring, additive_closure(ring, i.elements | j.elements))
    if op == "product":
        rows = ring.mul_rows
        prods = set().union(*(map(rows[x].__getitem__, j.elements) for x in i.elements))
        return IdealSet(ring, additive_closure(ring, prods))
    if op == "intersection":
        return IdealSet(ring, i.elements & j.elements)
    raise ValueError(f"unknown combine op {op!r}")


def product_contained(i: IdealSet, j: IdealSet, p: IdealSet) -> bool:
    """IJ subset of P, decided on the products gh of the g spanning I and
    the h spanning J: they span IJ, and P is an ideal."""
    rows = i.ring.mul_rows
    return all(p.elements.issuperset(map(rows[g].__getitem__, j.spanning)) for g in i.spanning)


def _lattice_order(ideal: IdealSet) -> tuple:
    return len(ideal), ideal.sorted_elements()


def principal_graded_ideals(gr: GradedRing) -> list[IdealSet]:
    """Ra for homogeneous a, one per ideal with its least generator, sorted.
    Memoized per graded ring; callers only read the list.

    Row a of the multiplication table is Ra, and Rb = Ra exactly when b = ua
    for a unit u, so the generators of Ra are row a read at the units.  Each
    Ra is built once, at its least homogeneous generator, and one gather
    marks all its generators.

    "If" is clear.  "Only if": a finite ring is a product of local rings,
    and a unit in each factor is a unit, so take one local factor.  Let
    a = rb and b = sa.  If a = 0, then b = 0 = 1a.  Otherwise (1 - rs)a = 0
    makes 1 - rs a nonunit; the nonunits of a local ring form an ideal, which
    does not hold 1 = rs + (1 - rs), so rs is a unit, and so is s."""
    def compute():
        ring = gr.ring
        rows, at_units = ring.mul_rows, gather(sorted(ring.units()))
        generated: set[int] = set()  # the b with Rb = Ra for an a already built
        out = []
        for a in sorted(gr.homogeneous()):
            if a not in generated:
                generated.update(at_units(rows[a]))
                out.append(IdealSet(ring, rows[a], (a,)))
        return sorted(out, key=_lattice_order)

    return memo(gr, "principal_graded_ideals", compute)


def enumerate_graded_ideals(gr: GradedRing) -> list[IdealSet]:
    """All graded ideals: the principal ideals Ra (a homogeneous), closed
    under adding one more principal ideal.

    Complete because a graded ideal is generated by its homogeneous
    elements, so it is a sum of such Ra.  Results are cached on the graded
    ring and sorted for determinism.  Being such sums, the members are
    graded by construction: each is recorded as graded, never re-checked.

    Members are int masks, each spanned by the least generators of the
    principals it sums.  As additive groups (I + Ra)/Ra is I/(I cap Ra), so
    |I + Ra| = |I| |Ra| / |I cap Ra|, and I + Ra, the least ideal holding I
    and Ra, is any member of that order holding both.  Only when there is
    none is the sum built, and it is new.
    """
    def compute():
        ring = gr.ring
        # R0 = {0} is among the principal ideals, since 0 is homogeneous
        principals = principal_graded_ideals(gr)
        masks = [sum(map((1).__lshift__, ra.elements)) for ra in principals]
        members, of_order = list(principals), {}  # of_order: the members' masks by order
        for ra, m in zip(principals, masks):
            of_order.setdefault(len(ra), []).append(m)
        frontier = list(zip(principals, masks))
        while frontier:
            if len(members) > IDEAL_LATTICE_CAP:
                raise BudgetExceeded(f"graded ideal lattice exceeds cap {IDEAL_LATTICE_CAP}")
            current, cm = frontier.pop()
            for ra, m in zip(principals, masks):
                both = cm | m
                if both == cm or both == m:  # I + Ra is I or Ra
                    continue
                order = len(current) * len(ra) // (cm & m).bit_count()
                for k in of_order.get(order, ()):
                    if k & both == both:  # I + Ra is a member
                        break
                else:
                    s = IdealSet(ring, combine(current, ra, "sum").elements,
                                 (*current.spanning, *ra.spanning))
                    frontier.append((s, sum(map((1).__lshift__, s.elements))))
                    of_order.setdefault(order, []).append(frontier[-1][1])
                    members.append(s)
        for s in members:
            memo(gr, ("graded", s.elements), lambda: (True, None))
        return sorted(members, key=_lattice_order)

    return memo(gr, "graded_ideal_lattice", compute)


def proper_graded_ideals(gr: GradedRing) -> list[IdealSet]:
    """The proper lattice members, memoized next to the lattice; callers only read it."""
    return memo(gr, "proper", lambda: [i for i in enumerate_graded_ideals(gr) if i.is_proper()])
