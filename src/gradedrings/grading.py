"""Grading groups, attachment and validation of gradings, decomposition.

A grading is supplied as explicit component subsets; the validator builds
the full decomposition table by enumerating the Cartesian product of the
supported components, so direct-sum failures are certified, not assumed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Union

from .errors import (
    IdentityNotInRe,
    MalformedSpec,
    NotDirectSum,
    NotMultiplicative,
    NotSubgroup,
)
from .finring import FinRing

Degree = Union[tuple[int, ...], int]


@dataclass(frozen=True)
class GradingGroup:
    """Abelian grading group: finite abelian (invariant factors) or Z."""

    kind: str  # "finite_abelian" | "integers"
    factors: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in ("finite_abelian", "integers"):
            raise MalformedSpec(f"unknown group kind {self.kind!r}")
        if any(f < 2 for f in self.factors):
            raise MalformedSpec("invariant factors must be >= 2")

    @property
    def identity(self) -> Degree:
        if self.kind == "integers":
            return 0
        return (0,) * len(self.factors)

    def op(self, g: Degree, h: Degree) -> Degree:
        if self.kind == "integers":
            return g + h
        return tuple((a + b) % f for a, b, f in zip(g, h, self.factors))

    def inv(self, g: Degree) -> Degree:
        if self.kind == "integers":
            return -g
        return tuple((-a) % f for a, f in zip(g, self.factors))

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
    """A FinRing plus a validated grading; immutable after construction."""

    def __init__(
        self,
        ring: FinRing,
        group: GradingGroup,
        components: Mapping[Degree, frozenset[int]],
        decomposition: list[dict[Degree, int]],
        label: str = "",
    ):
        self.ring = ring
        self.group = group
        self.components = dict(components)
        self._decomposition = decomposition
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
        """The unique componentwise parts of x, over the support."""
        return dict(self._decomposition[x])

    def homogeneous(self) -> frozenset[int]:
        """h(R): the union of all components."""
        if "homog" not in self._cache:
            out: set[int] = set()
            for c in self.components.values():
                out |= c
            self._cache["homog"] = frozenset(out)
        return self._cache["homog"]

    def degree_of(self, x: int) -> Degree | None:
        """Degree of a nonzero homogeneous element, else None."""
        if x == self.ring.zero:
            return None
        for g in self.support:
            if x in self.component(g):
                return g
        return None

    def is_homogeneous(self, x: int) -> bool:
        return x in self.homogeneous()

    def nonunit_homogeneous(self) -> tuple[int, ...]:
        """Nonunit elements of h(R), sorted (includes 0)."""
        if "nonunit_homog" not in self._cache:
            units = self.ring.units()
            self._cache["nonunit_homog"] = tuple(
                sorted(x for x in self.homogeneous() if x not in units)
            )
        return self._cache["nonunit_homog"]

    def graded_nilradical(self) -> frozenset[int]:
        """Grad({0}): elements all of whose components are nilpotent."""
        if "grad_zero" not in self._cache:
            nil = self.ring.nilradical()
            self._cache["grad_zero"] = frozenset(
                x
                for x in self.ring.elements()
                if all(part in nil for part in self._decomposition[x].values())
            )
        return self._cache["grad_zero"]


def attach_grading(
    ring: FinRing,
    group: GradingGroup,
    components: Mapping[Degree, Iterable[int]],
    label: str = "",
) -> GradedRing:
    """Validate explicit component subsets and build the decomposition table."""
    comps: dict[Degree, frozenset[int]] = {}
    for g, elems in components.items():
        comps[group.normalize(g)] = frozenset(elems)
    e = group.identity
    comps.setdefault(e, frozenset({ring.zero}))
    for g, c in comps.items():
        if ring.zero not in c:
            raise NotSubgroup(f"component {group.describe(g)} misses 0")
        for x in c:
            if ring.neg(x) not in c:
                raise NotSubgroup(
                    f"component {group.describe(g)} not closed under negation at {ring.name(x)}"
                )
            for y in c:
                if ring.add(x, y) not in c:
                    raise NotSubgroup(
                        f"component {group.describe(g)} not closed under addition "
                        f"at {ring.name(x)}+{ring.name(y)}"
                    )
    if ring.one not in comps.get(e, frozenset()):
        raise IdentityNotInRe("1 must lie in the identity-degree component")

    supported = sorted(g for g, c in comps.items() if c != frozenset({ring.zero}))
    sizes = 1
    for g in supported:
        sizes *= len(comps[g])
    if sizes != ring.size:
        raise NotDirectSum(
            f"component sizes multiply to {sizes}, carrier has {ring.size} elements"
        )
    decomposition: list[dict[Degree, int] | None] = [None] * ring.size
    for parts in itertools.product(*(sorted(comps[g]) for g in supported)):
        total = ring.zero
        for part in parts:
            total = ring.add(total, part)
        if decomposition[total] is not None:
            raise NotDirectSum(f"element {ring.name(total)} has two decompositions")
        decomposition[total] = dict(zip(supported, parts))
    # surjectivity follows from the count check plus injectivity above

    zero_only = frozenset({ring.zero})
    for g in supported:
        for h in supported:
            gh = group.op(g, h)
            target = comps.get(gh, zero_only)
            for x in comps[g]:
                for y in comps[h]:
                    if ring.mul(x, y) not in target:
                        raise NotMultiplicative(
                            f"R_{group.describe(g)} * R_{group.describe(h)} escapes "
                            f"R_{group.describe(gh)} at {ring.name(x)}*{ring.name(y)}"
                        )
    return GradedRing(ring, group, comps, decomposition, label=label)


def trivial_grading(ring: FinRing, group: GradingGroup = TRIVIAL_GROUP, label: str = "") -> GradedRing:
    """Everything in degree e; recovers ungraded ring theory."""
    return attach_grading(ring, group, {group.identity: frozenset(ring.elements())}, label=label)
