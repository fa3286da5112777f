"""Ideal generation, graded-ness, graded radical, colon, and lattice enumeration.

Ideals are carried as full element sets; equality is element-set equality.
"""

from __future__ import annotations

from typing import Iterable, Literal, Optional

from .errors import BudgetExceeded, NotAnIdeal, NotGraded, NotProper, RingMismatch
from .finring import FinRing
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
    """Raise NotAnIdeal unless the set satisfies the ideal axioms."""
    if ring.zero not in elements:
        raise NotAnIdeal("missing 0")
    for x in elements:
        for y in elements:
            if ring.add(x, y) not in elements:
                raise NotAnIdeal(f"not closed under addition at {ring.name(x)}+{ring.name(y)}")
        for r in ring.elements():
            if ring.mul(r, x) not in elements:
                raise NotAnIdeal(f"not absorbing at {ring.name(r)}*{ring.name(x)}")


def additive_closure(ring: FinRing, seed: Iterable[int]) -> frozenset[int]:
    out = set(seed)
    out.add(ring.zero)
    frontier = list(out)
    while frontier:
        x = frontier.pop()
        for y in list(out):
            s = ring.add(x, y)
            if s not in out:
                out.add(s)
                frontier.append(s)
    return frozenset(out)


def ideal_generated(ring: FinRing, gens: Iterable[int]) -> IdealSet:
    """Least ideal containing the generators: additive closure of all multiples."""
    gens = tuple(gens)
    multiples: set[int] = {ring.zero}
    for g in gens:
        for r in ring.elements():
            multiples.add(ring.mul(r, g))
    return IdealSet(ring, additive_closure(ring, multiples), generators=gens)


def zero_ideal(ring: FinRing) -> IdealSet:
    return IdealSet(ring, {ring.zero}, generators=())


def unit_ideal(ring: FinRing) -> IdealSet:
    return IdealSet(ring, ring.elements(), generators=(ring.one,))


def is_graded_ideal(gr: GradedRing, ideal: IdealSet) -> tuple[bool, Optional[int]]:
    """True iff every homogeneous component of every member lies in the ideal.

    On failure returns the least violating element as witness.
    """
    if ideal.ring is not gr.ring:
        raise RingMismatch("ideal belongs to a different ring")
    validate_ideal(gr.ring, ideal.elements)
    for x in sorted(ideal.elements):
        for part in gr.decompose(x).values():
            if part not in ideal.elements:
                return False, x
    return True, None


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
    ring = gr.ring
    if not ideal.is_proper():
        return unit_ideal(ring)
    require_graded(gr, ideal)
    bound = ring.size
    in_radical: set[int] = set()

    def part_ok(part: int) -> bool:
        p = part
        for _ in range(bound):
            if p in ideal.elements:
                return True
            p = ring.mul(p, part)
        return False

    for x in ring.elements():
        if all(part_ok(part) for part in gr.decompose(x).values()):
            in_radical.add(x)
    return IdealSet(ring, in_radical)


def colon(ring: FinRing, p: IdealSet, k: IdealSet) -> IdealSet:
    """(P : K) = {r : rK subset of P}."""
    if p.ring is not ring or k.ring is not ring:
        raise RingMismatch("colon operands from different rings")
    out = {
        r
        for r in ring.elements()
        if all(ring.mul(r, x) in p.elements for x in k.elements)
    }
    return IdealSet(ring, out)


CombineOp = Literal["sum", "product", "intersection"]


def combine(i: IdealSet, j: IdealSet, op: CombineOp) -> IdealSet:
    if i.ring is not j.ring:
        raise RingMismatch("combine operands from different rings")
    ring = i.ring
    if op == "sum":
        return IdealSet(ring, additive_closure(ring, i.elements | j.elements))
    if op == "product":
        prods = {ring.mul(x, y) for x in i.elements for y in j.elements}
        return IdealSet(ring, additive_closure(ring, prods))
    if op == "intersection":
        return IdealSet(ring, i.elements & j.elements)
    raise ValueError(f"unknown combine op {op!r}")


def ideal_product(i: IdealSet, j: IdealSet) -> IdealSet:
    return combine(i, j, "product")


def product_contained(i: IdealSet, j: IdealSet, p: IdealSet) -> bool:
    """IJ subset of P, decided on generators (valid since P is an ideal)."""
    ring = i.ring
    for x in i.elements:
        for y in j.elements:
            if ring.mul(x, y) not in p.elements:
                return False
    return True


def _lattice_order(ideal: IdealSet) -> tuple:
    return len(ideal), ideal.sorted_elements()


def principal_graded_ideals(gr: GradedRing) -> list[IdealSet]:
    """Ra for homogeneous a, deduplicated (least generator kept), sorted."""
    seen: dict[frozenset[int], IdealSet] = {}
    for a in sorted(gr.homogeneous()):
        ideal = ideal_generated(gr.ring, (a,))
        seen.setdefault(ideal.elements, ideal)
    return sorted(seen.values(), key=_lattice_order)


def enumerate_graded_ideals(gr: GradedRing, cap: int = IDEAL_LATTICE_CAP) -> list[IdealSet]:
    """All graded ideals: principal ideals of homogeneous elements, closed under sum.

    Correct because a graded ideal is generated by its homogeneous elements.
    Results are cached on the graded ring and sorted for determinism.
    """
    key = ("graded_ideal_lattice", cap)
    if key in gr._cache:
        return gr._cache[key]
    # R0 = {0} is among the principal ideals, since 0 is homogeneous
    seen = {ideal.elements: ideal for ideal in principal_graded_ideals(gr)}
    frontier = list(seen.values())
    while frontier:
        if len(seen) > cap:
            raise BudgetExceeded(f"graded ideal lattice exceeds cap {cap}")
        current = frontier.pop()
        for other in list(seen.values()):
            s = combine(current, other, "sum")
            if s.elements not in seen:
                seen[s.elements] = s
                frontier.append(s)
    result = sorted(seen.values(), key=_lattice_order)
    gr._cache[key] = result
    return result


def proper_graded_ideals(gr: GradedRing) -> list[IdealSet]:
    return [ideal for ideal in enumerate_graded_ideals(gr) if ideal.is_proper()]
