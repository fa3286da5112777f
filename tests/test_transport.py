from __future__ import annotations

from itertools import combinations

import pytest

from gradedrings.errors import (
    GroupMismatch,
    InvalidSet,
    KernelNotContained,
    NotDegreePreserving,
    UnitNotPreserved,
)
from gradedrings.finring import Cyclic, GaussMod, PolyQuotient, build_ring
from gradedrings.grading import Z2, attach_grading, trivial_grading
from gradedrings.ideals import IdealSet, ideal_generated, zero_ideal
from gradedrings.transport import (
    MultiplicativeSet,
    enumerate_multiplicative_sets,
    hom_build,
    hom_transport,
    identity_subring,
    localize,
    product,
    quotient,
)


def triv(n):
    return trivial_grading(build_ring(Cyclic(n)), label=f"Z/{n}")


def gauss_z2(n):
    ring = build_ring(GaussMod(n))
    return attach_grading(
        ring,
        Z2,
        {(0,): frozenset(range(n)), (1,): frozenset(b * n for b in range(n))},
    )


def oracle_localization_classes(ring, s_elems):
    """Union-find over all pairs (a, s); never assumes the relation is
    transitive, unlike the construction under test."""
    pairs = [(a, t) for a in ring.elements() for t in sorted(s_elems)]
    parent = list(range(len(pairs)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def related(p, q):
        diff = ring.sub(ring.mul(p[0], q[1]), ring.mul(q[0], p[1]))
        return any(ring.mul(u, diff) == ring.zero for u in s_elems)

    for i, j in combinations(range(len(pairs)), 2):
        if related(pairs[i], pairs[j]):
            parent[find(i)] = find(j)
    return len({find(i) for i in range(len(pairs))})


# ---------------------------------------------------------------- quotients


def test_quotient_of_cyclic():
    g12 = triv(12)
    qgr, proj = quotient(g12, IdealSet(g12.ring, {0, 4, 8}))
    assert qgr.ring.size == 4
    qgr.ring.check_axioms(thorough=True)
    assert proj.is_surjective()
    assert proj.kernel.elements == {0, 4, 8}
    # behaves like Z/4: the class of 1 has additive order 4
    one = proj(1)
    x = one
    for _ in range(3):
        assert x != qgr.ring.zero
        x = qgr.ring.add(x, one)
    assert x == qgr.ring.zero


def test_quotient_of_gauss_keeps_grading():
    g4 = gauss_z2(4)
    two = g4.ring.parse("2")
    qgr, proj = quotient(g4, ideal_generated(g4.ring, (two, g4.ring.parse("2i"))))
    assert qgr.ring.size == 4
    assert len(qgr.component((0,))) == 2
    assert len(qgr.component((1,))) == 2
    assert proj(two) == qgr.ring.zero


# ----------------------------------------------------------------- products


def test_product_arithmetic_and_grading():
    p = product(triv(4), triv(9))
    assert p.ring.size == 36
    p.ring.check_axioms(thorough=True)
    assert p.ring.name(p.ring.one) == "(1,1)"
    # componentwise multiplication: (2,3)*(2,3) = (0,0)
    idx = 2 * 9 + 3
    assert p.ring.name(idx) == "(2,3)"
    assert p.ring.mul(idx, idx) == p.ring.zero


def test_product_graded_nilradical_is_product():
    g4, g9 = triv(4), triv(9)
    p = product(g4, g9)
    expected = {
        a * 9 + b for a in g4.graded_nilradical() for b in g9.graded_nilradical()
    }
    assert p.graded_nilradical() == frozenset(expected)


def test_product_group_mismatch():
    with pytest.raises(GroupMismatch):
        product(triv(4), gauss_z2(2))


# ------------------------------------------------------------ localizations


@pytest.mark.parametrize(
    "n, s_elems, expected",
    [
        (12, {1, 3, 9}, 4),   # inverting 3 kills the 3-part: Z/4 remains
        (6, {1, 2, 4}, 3),    # inverting 2 leaves Z/3
        (9, {1, 4, 7}, 9),    # units only: nothing collapses
    ],
)
def test_localize_cyclic_class_counts(n, s_elems, expected):
    gr = triv(n)
    s = MultiplicativeSet.create(gr, s_elems)
    lgr, canonical = localize(gr, s)
    assert lgr.ring.size == expected
    assert lgr.ring.size == oracle_localization_classes(gr.ring, s.elements)
    lgr.ring.check_axioms(thorough=True)
    # the canonical map sends every s in S to a unit
    units = lgr.ring.units()
    assert all(canonical(t) in units for t in s.elements)


def test_localize_graded_ring():
    g4 = gauss_z2(4)
    s = MultiplicativeSet.create(g4, {g4.ring.parse("1"), g4.ring.parse("3")})
    lgr, canonical = localize(g4, s)
    # S consists of units, so localization is an isomorphic copy
    assert lgr.ring.size == 16
    assert canonical.is_injective() and canonical.is_surjective()
    assert len(lgr.component((0,))) * len(lgr.component((1,))) == 16


def test_multiplicative_set_validation():
    g12 = triv(12)
    with pytest.raises(InvalidSet):
        MultiplicativeSet.create(g12, {0, 1})
    with pytest.raises(InvalidSet):
        MultiplicativeSet.create(g12, {1, 2})  # 2*2=4 missing
    g4 = gauss_z2(4)
    with pytest.raises(InvalidSet):
        MultiplicativeSet.create(g4, {g4.ring.parse("1+i")})


def test_enumerate_multiplicative_sets_matches_brute_force():
    for gr in (triv(6), triv(9)):
        ring = gr.ring
        nonzero = [x for x in ring.elements() if x != ring.zero]
        expected = set()
        for k in range(len(nonzero) + 1):
            for subset in combinations(nonzero, k):
                s = frozenset(subset) | {ring.one}
                if all(ring.mul(a, b) in s for a in s for b in s):
                    expected.add(s)
        got = {s.elements for s in enumerate_multiplicative_sets(gr)}
        assert got == expected, gr.label


# ------------------------------------------------------------ homomorphisms


def test_hom_build_projection():
    g12, g4 = triv(12), triv(4)
    proj = hom_build(g12, g4, tuple(x % 4 for x in range(12)))
    assert proj.is_surjective()
    assert proj.kernel.elements == {0, 4, 8}


def test_hom_build_rejects_non_unital():
    g4 = triv(4)
    with pytest.raises(UnitNotPreserved):
        hom_build(g4, g4, tuple((2 * x) % 4 for x in range(4)))


def test_hom_build_rejects_group_mismatch():
    with pytest.raises(GroupMismatch):
        hom_build(triv(4), gauss_z2(2), (0, 1, 2, 3))


def test_hom_build_rejects_degree_violation():
    # F2[u]/(u^2-1) graded by Z2; u -> 1 is a ring map but moves degree 1 to 0
    ring = build_ring(PolyQuotient(Cyclic(2), (1, 0, 1)))
    gr = attach_grading(ring, Z2, {(0,): {0, 1}, (1,): {0, ring.parse("u")}})
    mapping = tuple((x % 2 + x // 2) % 2 for x in range(4))  # a+bu -> a+b
    with pytest.raises(NotDegreePreserving):
        hom_build(gr, gr, mapping)


def test_hom_transport_preimage_and_image():
    g12, g4 = triv(12), triv(4)
    proj = hom_build(g12, g4, tuple(x % 4 for x in range(12)))
    pre = hom_transport(proj, zero_ideal(g4.ring), "preimage")
    assert pre.elements == {0, 4, 8}
    img = hom_transport(proj, IdealSet(g12.ring, {0, 2, 4, 6, 8, 10}), "image")
    assert img.elements == {0, 2}
    with pytest.raises(KernelNotContained):
        hom_transport(proj, IdealSet(g12.ring, {0, 6}), "image")


# ------------------------------------------------------- identity component


def test_identity_subring():
    g4 = gauss_z2(4)
    sub, inclusion = identity_subring(g4)
    assert sub.ring.size == 4
    assert inclusion.is_injective()
    two_r = ideal_generated(g4.ring, (g4.ring.parse("2"), g4.ring.parse("2i")))
    restricted = hom_transport(inclusion, two_r, "preimage")
    assert {sub.ring.name(x) for x in restricted.elements} == {"0", "2"}
