"""Grading groups, and attachment and validation of gradings.

A graded ring is its ring and its components, explicit subsets.  Graded
ideals and Grad(I) are additive spans of homogeneous elements, and so is the
check that a caller's sum of components is direct, so nothing else is stored.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

from .errors import (
    IdentityNotInRe,
    MalformedSpec,
    NotDirectSum,
    NotMultiplicative,
    NotSubgroup,
)
from .finring import FinRing, Record, additive_closure, memo

Degree = tuple[int, ...]


class GradingGroup(Record):
    """The abelian group Z/f1 x ... x Z/fk of its invariant factors, where a
    factor 0 is a copy of Z (Z/0 = Z).  A degree is a tuple of ints, one per
    factor, each reduced mod its factor when that is nonzero."""

    __slots__ = ("factors",)

    def __init__(self, factors: tuple[int, ...]):
        if any(f < 0 or f == 1 for f in factors):
            raise MalformedSpec("invariant factors must be 0 (a copy of Z) or >= 2")
        self.factors = tuple(factors)

    @property
    def identity(self) -> Degree:
        return (0,) * len(self.factors)

    def op(self, g: Degree, h: Degree) -> Degree:
        return self.normalize(tuple(a + b for a, b in zip(g, h)))

    def normalize(self, g) -> Degree:
        """`g` reduced; MalformedSpec unless it is a tuple of ints of the group's rank."""
        if type(g) is not tuple or any(type(a) is not int for a in g):
            raise MalformedSpec(f"degree {g!r} is not a tuple of ints")
        if len(g) != len(self.factors):
            raise MalformedSpec(f"degree {g} has wrong rank for factors {self.factors}")
        return tuple(a % f if f else a for a, f in zip(g, self.factors))

    def describe(self, g: Degree) -> str:
        return ",".join(map(str, g)) if g else "e"


TRIVIAL_GROUP = GradingGroup(())
Z2 = GradingGroup((2,))
Z_GRADING = GradingGroup((0,))


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

    def homogeneous(self) -> frozenset[int]:
        """h(R): the union of all components."""
        return memo(self, "homog", lambda: frozenset().union(*self.components.values()))

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
    NotSubgroup, IdentityNotInRe, NotDirectSum (component sizes, then the least
    element outside their span) and NotMultiplicative, checked in that order.

    The sum is direct once the sizes multiply to |R| and the components span R:
    the sum map from the outer direct sum of the R_g onto R is additive, with
    the span of their union as its image, and both sides have prod |R_g| = |R|
    elements, so the map is onto exactly when it is one-to-one."""
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
    span = additive_closure(ring, gr.homogeneous())
    if len(span) < ring.size:
        x = next(x for x in ring.elements() if x not in span)
        raise NotDirectSum(f"element {ring.name(x)} is not a sum of components")
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
