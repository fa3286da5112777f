"""Definitional loops: the reference the library's fast paths must match.

The ideal algebra is the frontier-search additive closure and the
lattice closed under sums of every pair of ideals found so far; radicals
search the powers x, x^2, ..., x^|R| one by one; colons test every
product. Each predicate scans its quantifier domain in lexicographic
order and returns the first violating tuple, exactly as the predicates
did before they were merged into shared kernels. Nothing here is
memoized, so a comparison never reads back a value the library cached.
"""

from __future__ import annotations

from gradedrings.ideals import IdealSet, require_graded


def additive_closure(ring, seed):
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


def ideal_generated(ring, gens):
    gens = tuple(gens)
    multiples = {ring.zero} | {ring.mul(r, g) for g in gens for r in ring.elements()}
    return IdealSet(ring, additive_closure(ring, multiples), generators=gens)


def combine(i, j, op):
    ring = i.ring
    if op == "sum":
        return IdealSet(ring, additive_closure(ring, i.elements | j.elements))
    if op == "product":
        prods = {ring.mul(x, y) for x in i.elements for y in j.elements}
        return IdealSet(ring, additive_closure(ring, prods))
    assert op == "intersection"
    return IdealSet(ring, i.elements & j.elements)


def nilradical(ring):
    return frozenset(x for x in ring.elements() if has_power_in(ring, x, {ring.zero}))


def has_power_in(ring, x, target):
    """Some x^k, 1 <= k <= |R|, lies in target (a longer search finds nothing new)."""
    p = x
    for _ in range(ring.size):
        if p in target:
            return True
        p = ring.mul(p, x)
    return False


def graded_radical(gr, ideal):
    ring = gr.ring
    if not ideal.is_proper():
        return IdealSet(ring, ring.elements())
    return IdealSet(ring, {
        x for x in ring.elements()
        if all(has_power_in(ring, part, ideal.elements) for part in gr.decompose(x).values())
    })


def colon(ring, p, k):
    return IdealSet(ring, {
        r for r in ring.elements() if all(ring.mul(r, x) in p.elements for x in k.elements)
    })


def enumerate_graded_ideals(gr):
    """Principal ideals of homogeneous elements (least generator kept),
    closed under the sum of every pair of ideals found so far."""
    seen = {}
    for a in sorted(gr.homogeneous()):
        ideal = ideal_generated(gr.ring, (a,))
        seen.setdefault(ideal.elements, ideal)
    frontier = list(seen.values())
    while frontier:
        current = frontier.pop()
        for other in list(seen.values()):
            s = combine(current, other, "sum")
            if s.elements not in seen:
                seen[s.elements] = s
                frontier.append(s)
    return sorted(seen.values(), key=lambda ideal: (len(ideal), ideal.sorted_elements()))


def is_graded_prime(gr, p):
    require_graded(gr, p, proper=True)
    homog = sorted(gr.homogeneous())
    mul = gr.ring.mul
    for x in homog:
        if x in p.elements:
            continue
        for y in homog:
            if mul(x, y) in p.elements and y not in p.elements:
                return False, (x, y)
    return True, None


def is_graded_primary(gr, q):
    require_graded(gr, q, proper=True)
    rad = graded_radical(gr, q).elements
    homog = sorted(gr.homogeneous())
    mul = gr.ring.mul
    for x in homog:
        if x in q.elements:
            continue
        for y in homog:
            if mul(x, y) in q.elements and y not in rad:
                return False, (x, y)
    return True, None


def is_graded_1abs_primary(gr, p):
    require_graded(gr, p, proper=True)
    rad = graded_radical(gr, p).elements
    nonunits = gr.nonunit_homogeneous()
    mul = gr.ring.mul
    for x in nonunits:
        for y in nonunits:
            xy = mul(x, y)
            if xy in p.elements:
                continue
            for z in nonunits:
                if mul(xy, z) in p.elements and z not in rad:
                    return False, (x, y, z)
    return True, None


def is_graded_strongly_1abs_primary(gr, p):
    require_graded(gr, p, proper=True)
    grad_zero = gr.graded_nilradical()
    nonunits = gr.nonunit_homogeneous()
    mul = gr.ring.mul
    for x in nonunits:
        for y in nonunits:
            xy = mul(x, y)
            if xy in p.elements:
                continue
            for z in nonunits:
                if mul(xy, z) in p.elements and z not in grad_zero:
                    return False, (x, y, z)
    return True, None


def is_graded_2abs_primary(gr, i):
    require_graded(gr, i, proper=True)
    rad = graded_radical(gr, i).elements
    homog = sorted(gr.homogeneous())
    mul = gr.ring.mul
    for x in homog:
        for y in homog:
            xy = mul(x, y)
            if xy in i.elements:
                continue
            for z in homog:
                if (
                    mul(xy, z) in i.elements
                    and mul(x, z) not in rad
                    and mul(y, z) not in rad
                ):
                    return False, (x, y, z)
    return True, None
