"""Graded-structure-preserving constructions and ideal transport.

Quotients, products, localizations and the identity-component subring are
graded, and their canonical maps graded homomorphisms, by construction, so
neither is checked; `hom_build` checks a caller's map.  This module finds
their cosets, classes, components and canonical maps, and `finring` builds
their tables (`induced_ring`, `product_ring`).  No construction is memoized:
every call builds its ring again, so a caller that needs what a
construction shows more than once keeps that result, not the ring (the
verifier keeps counts and witness names per parent ring).
"""

from __future__ import annotations

import itertools
from typing import Iterable, Literal, Optional, Sequence

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
from .finring import FinRing, Record, gather, induced_ring, memo, pairs, product_ring
from .grading import GradedRing
from .ideals import IdealSet, braced, element_names, require_graded

MAX_MULT_SET_SIZE = 8


class MultiplicativeSet(Record):
    """Multiplicatively closed subset of h(R), containing 1, excluding 0: a frozenset."""

    __slots__ = ("elements",)

    @staticmethod
    def create(gr: GradedRing, elements: Iterable[int]) -> "MultiplicativeSet":
        ring = gr.ring
        elems = frozenset(elements) | {ring.one}
        ring.require_elements(elems, InvalidSet)
        if ring.zero in elems:
            raise InvalidSet("0 in multiplicative set")
        homog = gr.homogeneous()
        for s in elems:
            if s not in homog:
                raise InvalidSet(f"{ring.name(s)} is not homogeneous")
            for t in elems:
                if ring.mul_rows[s][t] not in elems:
                    raise InvalidSet(
                        f"not closed under multiplication at {ring.name(s)}*{ring.name(t)}"
                    )
        return MultiplicativeSet(elems)


class GradedHom:
    """A degree-preserving ring homomorphism: a caller's map checked by
    `hom_build`, or the canonical map of a construction.  Its image and
    kernel are computed when first read."""

    def __init__(self, source: GradedRing, target: GradedRing, mapping: tuple[int, ...]):
        self.source = source
        self.target = target
        self.mapping = mapping
        self._cache: dict = {}

    @property
    def image(self) -> frozenset[int]:
        return memo(self, "image", lambda: frozenset(self.mapping))

    @property
    def kernel(self) -> IdealSet:
        def compute():
            ring, mapping, zero = self.source.ring, self.mapping, self.target.ring.zero
            return IdealSet(ring, (x for x in ring.elements() if mapping[x] == zero))

        return memo(self, "kernel", compute)

    def __call__(self, x: int) -> int:
        return self.mapping[x]

    def is_surjective(self) -> bool:
        return len(self.image) == self.target.ring.size


def hom_build(source: GradedRing, target: GradedRing, mapping: Iterable[int]) -> GradedHom:
    """Validate additivity, multiplicativity, unit and degree preservation.
    The kernel is then graded: f(x) = sum f(x_g) = 0 in a direct sum forces
    every f(x_g) = 0."""
    if source.group != target.group:
        raise GroupMismatch("graded homomorphism requires a shared grading group")
    f = tuple(mapping)
    rs, rt = source.ring, target.ring
    if len(f) != rs.size:
        raise NotAdditive("mapping is not total on the source carrier", None)
    rt.require_elements(f, NotAdditive)
    if f[rs.one] != rt.one:
        raise UnitNotPreserved(f"f(1) = {rt.name(f[rs.one])} != 1", (rs.one,))
    # f(x+y) = f(x)+f(y) for all y at once: f o add_s[x] against add_t[f(x)] o f,
    # likewise for products; only a failing x is scanned pair by pair
    for x in rs.elements():
        if all(
            list(map(f.__getitem__, source_rows[x])) == list(map(target_rows[f[x]].__getitem__, f))
            for source_rows, target_rows in ((rs.add_rows, rt.add_rows), (rs.mul_rows, rt.mul_rows))
        ):
            continue
        for y in rs.elements():
            if f[rs.add_rows[x][y]] != rt.add_rows[f[x]][f[y]]:
                raise NotAdditive(
                    f"f({rs.name(x)}+{rs.name(y)}) != f({rs.name(x)})+f({rs.name(y)})",
                    (x, y),
                )
            if f[rs.mul_rows[x][y]] != rt.mul_rows[f[x]][f[y]]:
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
    return GradedHom(source, target, f)


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


def _cosets(ring: FinRing, k: Iterable[int]) -> tuple[list[int], list[int]]:
    """The coset index of every element modulo the additive subgroup `k`,
    and the least element of each coset, numbered in element order."""
    coset_of: list[Optional[int]] = [None] * ring.size
    reps: list[int] = []
    for x in ring.elements():
        if coset_of[x] is None:
            idx = len(reps)
            reps.append(x)
            row = ring.add_rows[x]
            for d in k:
                coset_of[row[d]] = idx
    return coset_of, reps


def _images(gr: GradedRing, mapping: Sequence[int]) -> dict:
    """The components of R's image under `mapping`: the image of each R_g."""
    return {g: frozenset(map(mapping.__getitem__, gr.component(g))) for g in gr.support}


def quotient(gr: GradedRing, k: IdealSet) -> tuple[GradedRing, GradedHom]:
    """R/K with (R/K)_g = (R_g + K)/K, plus the projection."""
    require_graded(gr, k, proper=True)
    ring = gr.ring
    coset_of, reps = _cosets(ring, k.elements)
    qring = induced_ring(
        ring, reps, coset_of, label=f"{gr.label}/{braced(element_names(ring, k.spanning))}",
        names=[f"[{ring.name(r)}]" for r in reps],
    )
    qgr = GradedRing(qring, gr.group, _images(gr, coset_of))
    return qgr, GradedHom(gr, qgr, tuple(coset_of))


def product(gr: GradedRing, gs: GradedRing) -> GradedRing:
    """R x S with (R x S)_g = R_g x S_g."""
    if gr.group != gs.group:
        raise GroupMismatch("product requires the same grading group")
    pring = product_ring(gr.ring, gs.ring, f"{gr.label} x {gs.label}")
    degrees = sorted(set(gr.support) | set(gs.support))
    components = {g: pairs(gr.component(g), gs.component(g), gs.ring.size) for g in degrees}
    return GradedRing(pring, gr.group, components)


def localization_kernel(gr: GradedRing, s: MultiplicativeSet) -> frozenset[int]:
    """K_S = {d : vd = 0 for some v in S}, the kernel of R -> S^-1 R: the
    union of the zero positions of the rows v in S."""
    ring = gr.ring
    is_zero = ring.zero.__eq__
    return frozenset().union(*(
        itertools.compress(ring.elements(), map(is_zero, ring.mul_rows[v])) for v in s.elements
    ))


def localize(gr: GradedRing, s: MultiplicativeSet) -> tuple[GradedRing, GradedHom]:
    """S^-1 R by explicit equivalence classes of pairs (a, t).

    (a,t) ~ (b,u) iff v(au - bt) = 0 for some v in S, i.e. iff au - bt lies
    in K = {d : vd = 0 for some v in S}, the kernel of R -> S^-1 R.  As R is
    finite, every t in S is a unit modulo K, so the class of (a,t) is keyed
    by the coset of a*t^-1 mod K.  Classes are numbered by their least pair
    in (a, t) order, which is also their representative.

    The grading puts a/t, a of degree h, in degree h*g(t)^-1: it is R/K's,
    the image of R's components under a -> a/1.  K is graded: v in S is
    homogeneous, so vd = 0 gives v*d_g = 0.  So t is a homogeneous unit of
    R/K, and its inverse is homogeneous of degree g(t)^-1.  So a/t = a*t^-1
    is the image of an element of degree h*g(t)^-1.

    Everything is read by gathers: K is `localization_kernel(gr, s)`; t^-1
    is the first v whose product with t lies in the coset of 1; the column
    of t holds the coset of a*t^-1 at each a.
    """
    ring = gr.ring
    mul = ring.mul_rows
    slist = sorted(s.elements)
    coset_of, coset_reps = _cosets(ring, localization_kernel(gr, s))
    one_coset = coset_of[ring.one]
    inverse = {t: gather(mul[t])(coset_of).index(one_coset) for t in slist}
    columns = [gather(mul[inverse[t]])(coset_of) for t in slist]
    class_of: list[Optional[int]] = [None] * len(coset_reps)
    reps: list[tuple[int, int]] = []
    for a, keys in enumerate(zip(*columns)):
        for t, key in zip(slist, keys):
            if class_of[key] is None:
                class_of[key] = len(reps)
                reps.append((a, t))
        if len(reps) == len(coset_reps):
            break
    canonical = gather(coset_of)(class_of)  # a -> a/1, the class of a's coset

    names = [
        ring.name(a) if t == ring.one else f"{ring.name(a)}/{ring.name(t)}"
        for a, t in reps
    ]
    # a/t + b/u and (a/t)(b/u) are the images of a t^-1 + b u^-1 and
    # a t^-1 * b u^-1 under a -> a/1, so the parent's rows at those elements
    # give both tables
    values = [mul[a][inverse[t]] for a, t in reps]
    lring = induced_ring(
        ring, values, canonical,
        label=f"Localize({gr.label}, {braced(element_names(ring, slist))})",
        names=names,
    )
    lgr = GradedRing(lring, gr.group, _images(gr, canonical))
    return lgr, GradedHom(gr, lgr, canonical)


def identity_subring(gr: GradedRing) -> tuple[GradedRing, GradedHom]:
    """R_e with everything in degree e, plus the inclusion monomorphism."""
    ring = gr.ring
    e = gr.group.identity
    carrier = sorted(gr.component(e))
    rank = {x: i for i, x in enumerate(carrier)}
    back = [rank.get(x, 0) for x in ring.elements()]  # 0 outside R_e, never read
    sring = induced_ring(
        ring, carrier, back, label=f"({gr.label})_e", names=[ring.name(x) for x in carrier]
    )
    sgr = GradedRing(sring, gr.group, {e: frozenset(range(len(carrier)))})
    return sgr, GradedHom(sgr, gr, tuple(carrier))


def enumerate_multiplicative_sets(gr: GradedRing) -> list[MultiplicativeSet]:
    """All multiplicatively closed subsets of h(R)\\{0} with 1, of size <= MAX_MULT_SET_SIZE.

    Found from {1} by one-element extensions: S<a> = {a^k s : k >= 0, s in S}
    for a nonzero homogeneous a outside S, the least closed set holding S
    and a, built layer by layer (the next layer is a times the new elements
    of the last), and dropped once it reaches 0 or passes the cap.  Complete:
    a closed T is {1} extended by its own elements one at a time, and every
    step stays inside T, so never reaches 0 or passes the cap.
    """
    ring = gr.ring
    homog = sorted(x for x in gr.homogeneous() if x != ring.zero)
    found = {frozenset({ring.one})}
    todo = list(found)
    while todo:
        s = todo.pop()
        for a in homog:
            if a in s:
                continue
            grown, new, times_a = set(s), s, ring.mul_rows[a]
            while new:
                new = set(gather(tuple(new))(times_a)).difference(grown)
                grown |= new
                if ring.zero in new or len(grown) > MAX_MULT_SET_SIZE:
                    break
            else:
                closed = frozenset(grown)
                if closed not in found:
                    found.add(closed)
                    todo.append(closed)
    return [MultiplicativeSet(s) for s in sorted(found, key=lambda s: (len(s), sorted(s)))]
