"""Graded-structure-preserving constructions and ideal transport.

Quotients, products, localizations and the identity-component subring all
re-validate their gradings through attach_grading rather than trusting
the construction formulas.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Literal, Optional

from .errors import (
    GroupMismatch,
    InvalidSet,
    KernelNotContained,
    NotAdditive,
    NotDegreePreserving,
    NotMultiplicativeMap,
    NotSurjective,
    UnitNotPreserved,
)
from .finring import FinRing
from .grading import GradedRing, attach_grading
from .ideals import IdealSet, require_graded


@dataclass(frozen=True)
class MultiplicativeSet:
    """Multiplicatively closed subset of h(R), containing 1, excluding 0."""

    elements: frozenset[int]

    @staticmethod
    def create(gr: GradedRing, elements: Iterable[int]) -> "MultiplicativeSet":
        ring = gr.ring
        elems = frozenset(elements) | {ring.one}
        if ring.zero in elems:
            raise InvalidSet("0 in multiplicative set")
        homog = gr.homogeneous()
        for s in elems:
            if s not in homog:
                raise InvalidSet(f"{ring.name(s)} is not homogeneous")
            for t in elems:
                if ring.mul(s, t) not in elems:
                    raise InvalidSet(
                        f"not closed under multiplication at {ring.name(s)}*{ring.name(t)}"
                    )
        return MultiplicativeSet(elems)


class GradedHom:
    """A validated degree-preserving ring homomorphism."""

    def __init__(self, source: GradedRing, target: GradedRing, mapping: tuple[int, ...]):
        self.source = source
        self.target = target
        self.mapping = mapping
        self.image = frozenset(mapping)
        kernel_elems = frozenset(
            x for x in source.ring.elements() if mapping[x] == target.ring.zero
        )
        self.kernel = IdealSet(source.ring, kernel_elems)

    def __call__(self, x: int) -> int:
        return self.mapping[x]

    def is_surjective(self) -> bool:
        return len(self.image) == self.target.ring.size

    def is_injective(self) -> bool:
        return len(self.kernel) == 1


def hom_build(source: GradedRing, target: GradedRing, mapping: Iterable[int]) -> GradedHom:
    """Validate additivity, multiplicativity, unit and degree preservation."""
    if source.group != target.group:
        raise GroupMismatch("graded homomorphism requires a shared grading group")
    f = tuple(mapping)
    rs, rt = source.ring, target.ring
    if len(f) != rs.size or any(not (0 <= v < rt.size) for v in f):
        raise NotAdditive("mapping is not total on the source carrier", None)
    if f[rs.one] != rt.one:
        raise UnitNotPreserved(f"f(1) = {rt.name(f[rs.one])} != 1", (rs.one,))
    for x in rs.elements():
        for y in rs.elements():
            if f[rs.add(x, y)] != rt.add(f[x], f[y]):
                raise NotAdditive(
                    f"f({rs.name(x)}+{rs.name(y)}) != f({rs.name(x)})+f({rs.name(y)})",
                    (x, y),
                )
            if f[rs.mul(x, y)] != rt.mul(f[x], f[y]):
                raise NotMultiplicativeMap(
                    f"f({rs.name(x)}*{rs.name(y)}) != f({rs.name(x)})*f({rs.name(y)})",
                    (x, y),
                )
    for g in source.support:
        target_comp = target.component(g)
        for x in source.component(g):
            if f[x] not in target_comp:
                raise NotDegreePreserving(
                    f"f({rs.name(x)}) leaves degree {source.group.describe(g)}", (x,)
                )
    hom = GradedHom(source, target, f)
    require_graded(source, hom.kernel)  # consequence of degree preservation
    return hom


def hom_transport(
    hom: GradedHom, ideal: IdealSet, direction: Literal["image", "preimage"]
) -> IdealSet:
    if direction == "image":
        if not hom.kernel <= ideal:
            raise KernelNotContained("image transport needs Ker(f) inside the ideal")
        if not hom.is_surjective():
            raise NotSurjective("image transport needs a surjective map")
        out = IdealSet(hom.target.ring, {hom(x) for x in ideal.elements})
        require_graded(hom.target, out)
        return out
    if direction == "preimage":
        out = IdealSet(
            hom.source.ring,
            {x for x in hom.source.ring.elements() if hom(x) in ideal.elements},
        )
        require_graded(hom.source, out)
        return out
    raise ValueError(f"unknown direction {direction!r}")


def quotient(gr: GradedRing, k: IdealSet) -> tuple[GradedRing, GradedHom]:
    """R/K with (R/K)_g = (R_g + K)/K, plus the validated projection."""
    require_graded(gr, k, proper=True)
    ring = gr.ring
    coset_of: list[Optional[int]] = [None] * ring.size
    reps: list[int] = []
    for x in ring.elements():
        if coset_of[x] is None:
            idx = len(reps)
            reps.append(x)
            for d in k.elements:
                coset_of[ring.add(x, d)] = idx
    size = len(reps)

    def add(i: int, j: int) -> int:
        return coset_of[ring.add(reps[i], reps[j])]

    def mul(i: int, j: int) -> int:
        return coset_of[ring.mul(reps[i], reps[j])]

    def neg(i: int) -> int:
        return coset_of[ring.neg(reps[i])]

    names = [f"[{ring.name(r)}]" for r in reps]
    qring = FinRing(
        size,
        add,
        mul,
        neg,
        one=coset_of[ring.one],
        zero=coset_of[ring.zero],
        label=f"{gr.label}/{k.describe()}",
        names=names,
    )
    components = {
        g: frozenset(coset_of[x] for x in gr.component(g)) for g in gr.support
    }
    qgr = attach_grading(qring, gr.group, components, label=qring.label)
    proj = hom_build(gr, qgr, tuple(coset_of))
    return qgr, proj


def product(gr: GradedRing, gs: GradedRing) -> GradedRing:
    """R x S with (R x S)_g = R_g x S_g."""
    if gr.group != gs.group:
        raise GroupMismatch("product requires the same grading group")
    r1, r2 = gr.ring, gs.ring
    n2 = r2.size
    size = r1.size * n2

    def add(x: int, y: int) -> int:
        return r1.add(x // n2, y // n2) * n2 + r2.add(x % n2, y % n2)

    def mul(x: int, y: int) -> int:
        return r1.mul(x // n2, y // n2) * n2 + r2.mul(x % n2, y % n2)

    def neg(x: int) -> int:
        return r1.neg(x // n2) * n2 + r2.neg(x % n2)

    names = [f"({r1.name(x // n2)},{r2.name(x % n2)})" for x in range(size)]
    pring = FinRing(
        size,
        add,
        mul,
        neg,
        one=r1.one * n2 + r2.one,
        zero=r1.zero * n2 + r2.zero,
        label=f"{gr.label} x {gs.label}",
        names=names,
    )
    degrees = sorted(set(gr.support) | set(gs.support))
    components = {
        g: frozenset(
            a * n2 + b for a in gr.component(g) for b in gs.component(g)
        )
        for g in degrees
    }
    return attach_grading(pring, gr.group, components, label=pring.label)


def localize(gr: GradedRing, s: MultiplicativeSet) -> tuple[GradedRing, GradedHom]:
    """S^-1 R by explicit equivalence classes of pairs (a, s).

    (a,s) ~ (b,t) iff u(at - bs) = 0 for some u in S.  The grading places
    a/s in degree h*g(s)^-1 where a is homogeneous of degree h.
    """
    ring = gr.ring
    slist = sorted(s.elements)
    pairs = [(a, t) for a in ring.elements() for t in slist]
    index = {pair: i for i, pair in enumerate(pairs)}

    # (a,t1) ~ (b,t2) iff a*t2 - b*t1 is killed by some u in S
    killed = frozenset(
        d
        for d in ring.elements()
        if any(ring.mul(u, d) == ring.zero for u in slist)
    )

    def related(p1: tuple[int, int], p2: tuple[int, int]) -> bool:
        a, t1 = p1
        b, t2 = p2
        return ring.sub(ring.mul(a, t2), ring.mul(b, t1)) in killed

    cls_of: list[Optional[int]] = [None] * len(pairs)
    reps: list[tuple[int, int]] = []
    for i, p in enumerate(pairs):
        if cls_of[i] is not None:
            continue
        idx = len(reps)
        reps.append(p)
        for j in range(i, len(pairs)):
            if cls_of[j] is None and related(p, pairs[j]):
                cls_of[j] = idx
    size = len(reps)

    def cls(a: int, t: int) -> int:
        return cls_of[index[(a, t)]]

    def add(i: int, j: int) -> int:
        a, t1 = reps[i]
        b, t2 = reps[j]
        return cls(ring.add(ring.mul(a, t2), ring.mul(b, t1)), ring.mul(t1, t2))

    def mul(i: int, j: int) -> int:
        a, t1 = reps[i]
        b, t2 = reps[j]
        return cls(ring.mul(a, b), ring.mul(t1, t2))

    def neg(i: int) -> int:
        a, t = reps[i]
        return cls(ring.neg(a), t)

    names = [
        ring.name(a) if t == ring.one else f"{ring.name(a)}/{ring.name(t)}"
        for a, t in reps
    ]
    lring = FinRing(
        size,
        add,
        mul,
        neg,
        one=cls(ring.one, ring.one),
        zero=cls(ring.zero, ring.one),
        label=f"Localize({gr.label}, {{{','.join(ring.name(t) for t in slist)}}})",
        names=names,
    )
    group = gr.group
    components: dict = {}
    for h in gr.support:
        for t in slist:
            dt = gr.degree_of(t)
            g = group.op(h, group.inv(dt))
            comp = components.setdefault(g, set())
            for a in gr.component(h):
                comp.add(cls(a, t))
    lgr = attach_grading(lring, group, components, label=lring.label)
    canonical = hom_build(gr, lgr, tuple(cls(a, ring.one) for a in ring.elements()))
    return lgr, canonical


def identity_subring(gr: GradedRing) -> tuple[GradedRing, GradedHom]:
    """R_e with everything in degree e, plus the inclusion monomorphism."""
    ring = gr.ring
    e = gr.group.identity
    carrier = sorted(gr.component(e))
    back = {x: i for i, x in enumerate(carrier)}

    def add(i: int, j: int) -> int:
        return back[ring.add(carrier[i], carrier[j])]

    def mul(i: int, j: int) -> int:
        return back[ring.mul(carrier[i], carrier[j])]

    def neg(i: int) -> int:
        return back[ring.neg(carrier[i])]

    sring = FinRing(
        len(carrier),
        add,
        mul,
        neg,
        one=back[ring.one],
        zero=back[ring.zero],
        label=f"({gr.label})_e",
        names=[ring.name(x) for x in carrier],
    )
    sgr = attach_grading(sring, gr.group, {e: frozenset(range(len(carrier)))}, label=sring.label)
    inclusion = hom_build(sgr, gr, tuple(carrier))
    return sgr, inclusion


def enumerate_multiplicative_sets(gr: GradedRing, max_size: int = 8) -> list[MultiplicativeSet]:
    """All multiplicatively closed subsets of h(R)\\{0} with 1, of size <= max_size.

    Complete because any such set is a union of the closures of its own
    elements, reachable by the union-and-close fixpoint below.
    """
    ring = gr.ring
    homog = sorted(x for x in gr.homogeneous() if x != ring.zero)

    def closure(seed: frozenset[int]) -> Optional[frozenset[int]]:
        out = set(seed) | {ring.one}
        frontier = list(out)
        while frontier:
            x = frontier.pop()
            for y in list(out):
                p = ring.mul(x, y)
                if p == ring.zero:
                    return None
                if p not in out:
                    if len(out) >= max_size:
                        return None
                    out.add(p)
                    frontier.append(p)
        return frozenset(out)

    found: set[frozenset[int]] = set()
    base = closure(frozenset())
    if base is not None:
        found.add(base)
    for a in homog:
        c = closure(frozenset({a}))
        if c is not None and len(c) <= max_size:
            found.add(c)
    changed = True
    while changed:
        changed = False
        for s1, s2 in itertools.combinations(sorted(found, key=sorted), 2):
            c = closure(s1 | s2)
            if c is not None and len(c) <= max_size and c not in found:
                found.add(c)
                changed = True
    return [MultiplicativeSet(s) for s in sorted(found, key=lambda s: (len(s), sorted(s)))]
