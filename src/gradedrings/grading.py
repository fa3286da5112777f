"""Grading groups, attachment and validation of gradings, decomposition.

A graded ring is its ring and its components, explicit subsets.  Graded
ideals and Grad(I) are additive spans of homogeneous elements, so nothing
else is stored: the decomposition of every element, the sums of one part
per supported component, is built only by the first `decompose` call and by
`attach_grading`, which needs it to check that the sum is direct.  The
library's constructions are graded by construction and build no table.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Mapping, Union

from .errors import (
    IdentityNotInRe,
    MalformedSpec,
    NotDirectSum,
    NotMultiplicative,
    NotSubgroup,
)
from .finring import FinRing, Record, additive_closure, memo

Degree = Union[tuple[int, ...], int]


class GradingGroup(Record):
    """Abelian grading group: finite abelian (invariant factors) or Z."""

    __slots__ = ("kind", "factors")

    def __init__(self, kind: str, factors: tuple[int, ...] = ()):
        if kind not in ("finite_abelian", "integers"):
            raise MalformedSpec(f"unknown group kind {kind!r}")
        if any(f < 2 for f in factors):
            raise MalformedSpec("invariant factors must be >= 2")
        self.kind = kind  # "finite_abelian" | "integers"
        self.factors = factors

    @property
    def identity(self) -> Degree:
        if self.kind == "integers":
            return 0
        return (0,) * len(self.factors)

    def op(self, g: Degree, h: Degree) -> Degree:
        if self.kind == "integers":
            return g + h
        return tuple((a + b) % f for a, b, f in zip(g, h, self.factors))

    def normalize(self, g) -> Degree:
        if self.kind == "integers":
            return int(g)
        g = tuple(g)
        if len(g) != len(self.factors):
            raise MalformedSpec(f"degree {g} has wrong rank for factors {self.factors}")
        return tuple(a % f for a, f in zip(g, self.factors))

    def describe(self, g: Degree) -> str:
        if self.kind == "integers":
            return str(g)
        return ",".join(map(str, g)) if g else "e"


TRIVIAL_GROUP = GradingGroup("finite_abelian", ())
Z2 = GradingGroup("finite_abelian", (2,))
Z_GRADING = GradingGroup("integers")


class GradedRing:
    """A FinRing and its components R_g, keyed by normalized degree, whose
    direct sum it is: checked by `attach_grading`, or graded by construction."""

    def __init__(
        self,
        ring: FinRing,
        group: GradingGroup,
        components: Mapping[Degree, frozenset[int]],
        label: str = "",
    ):
        self.ring = ring
        self.group = group
        self.components = dict(components)
        self.label = label or ring.label
        self.support: tuple[Degree, ...] = tuple(
            sorted(g for g, c in self.components.items() if c != frozenset({ring.zero}))
        )
        self._cache: dict = {}

    def __repr__(self) -> str:
        return f"GradedRing({self.label}, size={self.ring.size})"

    def component(self, g: Degree) -> frozenset[int]:
        return self.components.get(g, frozenset({self.ring.zero}))

    def decompose(self, x: int) -> dict[Degree, int]:
        """The unique componentwise parts of x, over the support.  The first
        call builds the parts of every element."""
        return dict(memo(self, "decomposition", self._decomposition_table)[x])

    def _decomposition_table(self) -> list[dict[Degree, int]]:
        """The parts of every element: each sum of one part per supported
        component.  Only an element reached twice is rejected (NotDirectSum)."""
        ring, add_rows = self.ring, self.ring.add_rows
        table: list[dict[Degree, int] | None] = [None] * ring.size
        for parts in itertools.product(*(sorted(self.components[g]) for g in self.support)):
            total = ring.zero
            for part in parts:
                total = add_rows[total][part]
            if table[total] is not None:
                raise NotDirectSum(f"element {ring.name(total)} has two decompositions")
            table[total] = dict(zip(self.support, parts))
        return table

    def homogeneous(self) -> frozenset[int]:
        """h(R): the union of all components."""
        return memo(self, "homog", lambda: frozenset().union(*self.components.values()))

    def nonunit_homogeneous(self) -> tuple[int, ...]:
        """Nonunit elements of h(R), sorted (includes 0)."""
        return memo(self, "nonunit_homog", lambda: tuple(
            sorted(self.homogeneous() - self.ring.units())
        ))

    def radical(self, members: frozenset[int]) -> frozenset[int]:
        """Grad of the graded ideal I = `members`: the elements all of whose
        components have some power in I.  Memoized per element set.

        This is the span of the rooted elements, the homogeneous h with a
        power in I.  Those of one degree g form a subgroup of R_g: 0 is
        rooted, and if a^m, b^n lie in I, each term of (a - b)^(m+n) holds
        a^i with i >= m or b^j with j >= n, so it lies in I.  The span of
        these subgroups is their sum, the x whose every component is rooted."""
        def compute():
            powers = self.ring.high_powers()
            rooted = frozenset(h for h in self.homogeneous() if powers[h] in members)
            if len(self.support) == 1:  # every element is homogeneous
                return rooted
            return additive_closure(self.ring, rooted)

        return memo(self, ("grad", members), compute)

    def graded_nilradical(self) -> frozenset[int]:
        """Grad({0}): elements all of whose components are nilpotent."""
        return self.radical(frozenset({self.ring.zero}))


def attach_grading(
    ring: FinRing,
    group: GradingGroup,
    components: Mapping[Degree, Iterable[int]],
    label: str = "",
) -> GradedRing:
    """Validate a caller's component subsets and build the graded ring.  Raises
    MalformedSpec (a degree of the wrong rank, or two keys of one degree),
    NotSubgroup, IdentityNotInRe, NotDirectSum (component sizes, then an element
    with two decompositions) and NotMultiplicative, checked in that order."""
    comps: dict[Degree, frozenset[int]] = {}
    for g, elems in components.items():
        d = group.normalize(g)
        if d in comps:
            first = next(h for h in components if group.normalize(h) == d)
            raise MalformedSpec(
                f"degree keys {first!r} and {g!r} name one degree, {group.describe(d)}"
            )
        comps[d] = frozenset(elems)
    e = group.identity
    comps.setdefault(e, frozenset({ring.zero}))
    for g, c in comps.items():
        ring.require_elements(c, NotSubgroup)
        if ring.zero not in c:
            raise NotSubgroup(f"component {group.describe(g)} misses 0")
        # closed under + and finite, c holds -x = (k-1)x, k the additive order of x
        for x in c:
            sums = ring.add_rows[x]
            if not c.issuperset(map(sums.__getitem__, c)):
                y = next(y for y in c if sums[y] not in c)
                raise NotSubgroup(
                    f"component {group.describe(g)} not closed under addition "
                    f"at {ring.name(x)}+{ring.name(y)}"
                )
    if ring.one not in comps[e]:
        raise IdentityNotInRe("1 must lie in the identity-degree component")

    zero_only = frozenset({ring.zero})
    sizes = math.prod(len(c) for c in comps.values() if c != zero_only)
    if sizes != ring.size:
        raise NotDirectSum(
            f"component sizes multiply to {sizes}, carrier has {ring.size} elements"
        )
    gr = GradedRing(ring, group, comps, label)
    # building the decomposition table checks injectivity; with the count
    # above, the sum is then direct
    gr.decompose(ring.zero)
    for g in gr.support:
        for h in gr.support:
            gh = group.op(g, h)
            target = comps.get(gh, zero_only)
            for x in comps[g]:
                products = ring.mul_rows[x]
                if target.issuperset(map(products.__getitem__, comps[h])):
                    continue
                for y in comps[h]:
                    if products[y] not in target:
                        raise NotMultiplicative(
                            f"R_{group.describe(g)} * R_{group.describe(h)} escapes "
                            f"R_{group.describe(gh)} at {ring.name(x)}*{ring.name(y)}"
                        )
    return gr


def trivial_grading(ring: FinRing, group: GradingGroup = TRIVIAL_GROUP, label: str = "") -> GradedRing:
    """Everything in degree e; recovers ungraded ring theory.  Graded by construction."""
    return GradedRing(ring, group, {group.identity: frozenset(ring.elements())}, label=label)
