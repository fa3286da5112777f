"""Ideal generation, graded-ness, graded radical, colon, and lattice enumeration.

Ideals are carried as full element sets; equality is element-set equality.
"""

from __future__ import annotations

from typing import Iterable, Literal, Optional, Sequence

from .errors import BudgetExceeded, NotAnIdeal, NotGraded, NotProper, RingMismatch
from .finring import FinRing, gather, memo
from .grading import GradedRing

IDEAL_LATTICE_CAP = 4096


class IdealSet:
    """An ideal as its full element set, with optional generators."""

    __slots__ = ("ring", "elements", "generators")

    def __init__(self, ring: FinRing, elements: Iterable[int], generators: Optional[tuple[int, ...]] = None):
        self.ring = ring
        self.elements = frozenset(elements)
        self.generators = generators

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
        return f"IdealSet({self.describe()})"

    def is_proper(self) -> bool:
        return self.ring.one not in self.elements

    def sorted_elements(self) -> tuple[int, ...]:
        return tuple(sorted(self.elements))

    def describe(self) -> str:
        names = [self.ring.name(x) for x in self.sorted_elements()]
        if len(names) > 8:
            gens = self.generators
            if gens:
                return "(" + ",".join(self.ring.name(g) for g in gens) + ")"
            names = names[:8] + ["..."]
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


def additive_closure(ring: FinRing, seed: Iterable[int]) -> frozenset[int]:
    """The additive subgroup generated by `seed`, as a sum of cyclic subgroups.

    Each seed element s outside the span so far contributes its multiples
    s, 2s, ... up to the first one that lies in the span; the new span is
    the union of the old span's translates by those multiples.
    """
    rows = ring.add_rows
    out = {ring.zero}
    for s in seed:
        if s in out:
            continue
        multiples = [ring.zero]
        plus_s, c = rows[s], s
        while c not in out:
            multiples.append(c)
            c = plus_s[c]
        out = out.union(*(map(rows[m].__getitem__, out) for m in multiples))
    return frozenset(out)


def ideal_generated(ring: FinRing, gens: Iterable[int]) -> IdealSet:
    """Least ideal containing the generators: additive closure of all multiples."""
    gens = tuple(gens)
    ring.require_elements(gens, NotAnIdeal)
    multiples = {ring.zero}.union(*(ring.mul_rows[g] for g in gens))
    return IdealSet(ring, additive_closure(ring, multiples), generators=gens)


def zero_ideal(ring: FinRing) -> IdealSet:
    return IdealSet(ring, {ring.zero}, generators=())


def unit_ideal(ring: FinRing) -> IdealSet:
    return IdealSet(ring, ring.elements(), generators=(ring.one,))


def is_graded_ideal(gr: GradedRing, ideal: IdealSet) -> tuple[bool, Optional[int]]:
    """True iff every homogeneous component of every member lies in the ideal.

    On failure returns the least violating element as witness.  Memoized per
    element set; a set that is not an ideal raises NotAnIdeal on every call.
    """
    if ideal.ring is not gr.ring:
        raise RingMismatch("ideal belongs to a different ring")
    members = ideal.elements

    def compute():
        validate_ideal(gr.ring, members)
        ungraded = (x for x in members if not members.issuperset(gr.decompose(x).values()))
        witness = min(ungraded, default=None)
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
    """(P : K) = {r : rK subset of P}, the intersection of (P : x) over x in K."""
    if p.ring is not ring or k.ring is not ring:
        raise RingMismatch("colon operands from different rings")
    masks = colon_masks(ring, p.elements)
    out = (1 << ring.size) - 1
    for x in k.elements:
        out &= masks[x]
    return IdealSet(ring, _members(out))


CombineOp = Literal["sum", "product", "intersection"]


def combine(i: IdealSet, j: IdealSet, op: CombineOp) -> IdealSet:
    if i.ring is not j.ring:
        raise RingMismatch("combine operands from different rings")
    ring = i.ring
    if op == "sum":
        # with I the larger, I + J is the union of the cosets s + I, s in J;
        # the span so far is a union of I-cosets, so an s it covers adds nothing
        small, big = sorted((i.elements, j.elements), key=len)
        span, plus = set(big), gather(tuple(big))
        for s in small:
            if s not in span:
                span.update(plus(ring.add_rows[s]))
        return IdealSet(ring, span)
    if op == "product":
        rows = ring.mul_rows
        prods = set().union(*(map(rows[x].__getitem__, j.elements) for x in i.elements))
        return IdealSet(ring, additive_closure(ring, prods))
    if op == "intersection":
        return IdealSet(ring, i.elements & j.elements)
    raise ValueError(f"unknown combine op {op!r}")


def product_contained(i: IdealSet, j: IdealSet, p: IdealSet) -> bool:
    """IJ subset of P, decided on generators (valid since P is an ideal)."""
    rows = i.ring.mul_rows
    return all(p.elements.issuperset(map(rows[x].__getitem__, j.elements)) for x in i.elements)


def _lattice_order(ideal: IdealSet) -> tuple:
    return len(ideal), ideal.sorted_elements()


def principal_graded_ideals(gr: GradedRing) -> list[IdealSet]:
    """Ra for homogeneous a, one per ideal with its least generator, sorted.

    Row a of the multiplication table is Ra, and Rb = Ra exactly when b = ua
    for a unit u, so the generators of Ra are row a read at the units.  Each
    Ra is built once, at its least homogeneous generator, and one gather
    marks all its generators.

    "If" is clear.  "Only if": a finite ring is a product of local rings,
    and a unit in each factor is a unit, so take one local factor.  Let
    a = rb and b = sa.  If a = 0, then b = 0 = 1a.  Otherwise (1 - rs)a = 0
    makes 1 - rs a nonunit; the nonunits of a local ring form an ideal, which
    does not hold 1 = rs + (1 - rs), so rs is a unit, and so is s."""
    ring = gr.ring
    rows, at_units = ring.mul_rows, gather(sorted(ring.units()))
    generated: set[int] = set()  # the b with Rb = Ra for an a already built
    out = []
    for a in sorted(gr.homogeneous()):
        if a not in generated:
            generated.update(at_units(rows[a]))
            out.append(IdealSet(ring, rows[a], generators=(a,)))
    return sorted(out, key=_lattice_order)


def enumerate_graded_ideals(gr: GradedRing) -> list[IdealSet]:
    """All graded ideals: the principal ideals Ra (a homogeneous), closed
    under adding one more principal ideal.

    Complete because a graded ideal is generated by its homogeneous
    elements, so it is a sum of such Ra.  Results are cached on the graded
    ring and sorted for determinism.  Being such sums, the members are
    graded by construction: each is recorded as graded, never re-checked.
    """
    def compute():
        # R0 = {0} is among the principal ideals, since 0 is homogeneous
        principals = principal_graded_ideals(gr)
        seen = {ideal.elements: ideal for ideal in principals}
        frontier = list(principals)
        while frontier:
            if len(seen) > IDEAL_LATTICE_CAP:
                raise BudgetExceeded(f"graded ideal lattice exceeds cap {IDEAL_LATTICE_CAP}")
            current = frontier.pop()
            for principal in principals:
                if principal.elements <= current.elements:
                    continue
                s = combine(current, principal, "sum")
                if s.elements not in seen:
                    seen[s.elements] = s
                    frontier.append(s)
        for members in seen:
            memo(gr, ("graded", members), lambda: (True, None))
        return sorted(seen.values(), key=_lattice_order)

    return memo(gr, "graded_ideal_lattice", compute)


def proper_graded_ideals(gr: GradedRing) -> list[IdealSet]:
    return [ideal for ideal in enumerate_graded_ideals(gr) if ideal.is_proper()]
