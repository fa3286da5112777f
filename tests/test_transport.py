from __future__ import annotations

from itertools import combinations

import oracles
import pytest

from gradedrings.errors import (
    GroupMismatch,
    InvalidSet,
    KernelNotContained,
    NotAdditive,
    NotDegreePreserving,
    UnitNotPreserved,
)
from gradedrings.finring import Cyclic, GaussMod, PolyQuotient, build_ring
from gradedrings.grading import Z2, GradingGroup, attach_grading, trivial_grading
from gradedrings.ideals import IdealSet, ideal_generated, zero_ideal
from gradedrings.transport import (
    MAX_MULT_SET_SIZE,
    MultiplicativeSet,
    enumerate_multiplicative_sets,
    hom_build,
    hom_transport,
    identity_subring,
    localize,
    product,
    quotient,
)
from strategies import z2_graded


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
    transitive, unlike the construction under test.  The classes are
    lists of pairs in (a, s) order, sorted by their least pair."""
    pairs = [(a, t) for a in ring.elements() for t in sorted(s_elems)]
    parent = list(range(len(pairs)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    killed = {d for d in ring.elements() if any(ring.mul_rows[u][d] == ring.zero for u in s_elems)}
    mul, add = ring.mul_rows, ring.add_rows
    neg = [row.index(ring.zero) for row in add]
    for i, (a, t) in enumerate(pairs):
        for j in range(i + 1, len(pairs)):
            b, u = pairs[j]
            if add[mul[a][u]][neg[mul[b][t]]] in killed:  # au - bt
                parent[find(i)] = find(j)
    classes = {}
    for i, pair in enumerate(pairs):
        classes.setdefault(find(i), []).append(pair)
    return sorted(classes.values())


# ---------------------------------------------------------------- quotients


def test_quotient_of_cyclic():
    g12 = triv(12)
    qgr, proj = quotient(g12, IdealSet(g12.ring, {0, 4, 8}))
    assert qgr.ring.size == 4
    qgr.ring.check_axioms()
    assert proj.is_surjective()
    assert proj.kernel.elements == {0, 4, 8}
    # behaves like Z/4: the class of 1 has additive order 4
    one = proj(1)
    x = one
    for _ in range(3):
        assert x != qgr.ring.zero
        x = qgr.ring.add_rows[x][one]
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
    p.ring.check_axioms()
    assert p.ring.name(p.ring.one) == "(1,1)"
    # componentwise multiplication: (2,3)*(2,3) = (0,0)
    idx = 2 * 9 + 3
    assert p.ring.name(idx) == "(2,3)"
    assert p.ring.mul_rows[idx][idx] == p.ring.zero


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
    assert lgr.ring.size == len(oracle_localization_classes(gr.ring, s.elements))
    lgr.ring.check_axioms()
    # the canonical map sends every s in S to a unit
    units = lgr.ring.units()
    assert all(canonical(t) in units for t in s.elements)


def test_localize_classes_match_union_find(corpus):
    # element i of S^-1 R is the i-th class by least pair, named after that
    # pair, and equals b/u for every pair (b, u) of the class
    for entry in corpus:
        ring = entry.gr.ring
        for s in enumerate_multiplicative_sets(entry.gr):
            lgr, canonical = localize(entry.gr, s)
            classes = oracle_localization_classes(ring, s.elements)
            assert lgr.ring.size == len(classes), (entry.label, s)
            for idx, cls in enumerate(classes):
                a, t = cls[0]
                rep = ring.name(a) if t == ring.one else f"{ring.name(a)}/{ring.name(t)}"
                assert lgr.ring.name(idx) == rep, (entry.label, s, cls)
                for b, u in cls:
                    assert lgr.ring.mul_rows[idx][canonical(u)] == canonical(b), (entry.label, s, b, u)


def test_localize_matches_oracle_where_one_is_not_index_1(corpus):
    # products put 1 at index |S| + 1, and their multiplicative sets hold
    # non-units, so K and the classes are not those of an element order
    by_label = {entry.label: entry.gr for entry in corpus}
    rings = [
        by_label["Z/4 x Z/9"],
        by_label["Z/2[i] x Z/2[i]"],
        product(
            z2_graded(GaussMod(2), "Z/2[i]/Z2"),
            z2_graded(PolyQuotient(Cyclic(3), (2, 0, 1)), "F3[u]/(u^2-1)/Z2"),
        ),
    ]
    for gr in rings:
        ring = gr.ring
        mult_sets = enumerate_multiplicative_sets(gr)
        assert ring.one != 1 and any(s.elements - ring.units() for s in mult_sets), gr
        for s in mult_sets:
            lgr, canonical = localize(gr, s)
            lring = lgr.ring
            tables = [list(r) for r in lring.add_rows], [list(r) for r in lring.mul_rows]
            assert tables == oracles.localize_tables(gr, s), (gr, s)
            names, components, mapping = oracles.localize_grading(gr, s)
            assert [lring.name(x) for x in lring.elements()] == names, (gr, s)
            assert lgr.components == components, (gr, s)
            assert canonical.mapping == mapping, (gr, s)


def test_localize_grading_where_a_shift_leaves_the_support():
    # A = F3[u]/(u^2-1) with deg u = (1,0) and B the same ring with deg u = (0,1),
    # over Z2 x Z2.  S = {1, (u,0), (1,0)} kills B, so B's u, shifted by
    # deg (u,0)^-1, names degree (1,1), where S^-1(A x B) has only 0
    group = GradingGroup((2, 2))
    ring = build_ring(PolyQuotient(Cyclic(3), (2, 0, 1)))
    u = ring.parse("u")
    scalars, multiples = range(3), {0, u, ring.mul_rows[u][2]}
    a = attach_grading(ring, group, {(0, 0): scalars, (1, 0): multiples}, label="A")
    b = attach_grading(ring, group, {(0, 0): scalars, (0, 1): multiples}, label="B")
    gr = product(a, b)
    n = ring.size
    # (u,0) and (1,0): the pair (a, b) is at index a*|B| + b
    s = MultiplicativeSet.create(gr, {u * n + ring.zero, ring.one * n + ring.zero})
    lgr, canonical = localize(gr, s)
    lring, zero = lgr.ring, lgr.ring.zero
    tables = [list(r) for r in lring.add_rows], [list(r) for r in lring.mul_rows]
    assert tables == oracles.localize_tables(gr, s)
    names, components, mapping = oracles.localize_grading(gr, s)
    assert [lring.name(x) for x in lring.elements()] == names
    assert canonical.mapping == mapping
    assert components[(1, 1)] == {zero}
    assert lgr.support == tuple(sorted(g for g, c in components.items() if c != {zero}))
    for g in {*components, *lgr.components}:
        assert lgr.component(g) == components.get(g, frozenset({zero})), g


def test_localize_graded_ring():
    g4 = gauss_z2(4)
    s = MultiplicativeSet.create(g4, {g4.ring.parse("1"), g4.ring.parse("3")})
    lgr, canonical = localize(g4, s)
    # S consists of units, so localization is an isomorphic copy
    assert lgr.ring.size == 16
    assert len(canonical.kernel) == 1 and canonical.is_surjective()
    assert len(lgr.component((0,))) * len(lgr.component((1,))) == 16


def test_multiplicative_set_validation():
    g12 = triv(12)
    with pytest.raises(InvalidSet):
        MultiplicativeSet.create(g12, {0, 1})
    with pytest.raises(InvalidSet):
        MultiplicativeSet.create(g12, {1, 2})  # 2*2=4 missing
    with pytest.raises(InvalidSet, match="12 is not an element"):
        MultiplicativeSet.create(g12, {12})
    g4 = gauss_z2(4)
    with pytest.raises(InvalidSet):
        MultiplicativeSet.create(g4, {g4.ring.parse("1+i")})


def test_enumerate_multiplicative_sets_matches_brute_force():
    # Z/17's 16 units are the closed set the cap excludes; in F5[u]/(u^2-1)
    # graded by Z2 only the homogeneous elements count
    f5 = z2_graded(PolyQuotient(Cyclic(5), (4, 0, 1)), "F5[u]/(u^2-1)/Z2")
    for gr in (triv(6), triv(9), triv(12), triv(17), f5):
        ring = gr.ring
        others = sorted(gr.homogeneous() - {ring.zero, ring.one})
        expected = set()
        for k in range(MAX_MULT_SET_SIZE):
            for subset in combinations(others, k):
                s = frozenset(subset) | {ring.one}
                if all(ring.mul_rows[a][b] in s for a in s for b in s):
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


def test_hom_build_rejects_entry_that_is_not_an_element():
    g4 = triv(4)
    with pytest.raises(NotAdditive, match="2.0 is not an element of Z/4"):
        hom_build(g4, g4, (0, 1, 2.0, 3))


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


def test_canonical_maps_read_image_and_kernel_lazily():
    g12 = triv(12)
    s = MultiplicativeSet.create(g12, {1, 3, 9})
    maps = [
        quotient(g12, ideal_generated(g12.ring, (4,)))[1],
        localize(g12, s)[1],
        identity_subring(gauss_z2(4))[1],
    ]
    for hom in maps:
        assert "image" not in hom._cache and "kernel" not in hom._cache
        assert hom.image == frozenset(hom.mapping)
        zero = hom.target.ring.zero
        kernel = {x for x in hom.source.ring.elements() if hom(x) == zero}
        assert hom.kernel == IdealSet(hom.source.ring, kernel)
        assert {"image", "kernel"} <= hom._cache.keys()


def test_image_and_kernel_are_computed_once():
    g12 = triv(12)
    homs = [
        quotient(g12, ideal_generated(g12.ring, (4,)))[1],
        localize(g12, MultiplicativeSet.create(g12, {1, 3, 9}))[1],
        hom_build(g12, triv(4), tuple(x % 4 for x in range(12))),
    ]
    for hom in homs:
        assert hom.image is hom.image
        assert hom.kernel is hom.kernel


# ------------------------------------------------------- identity component


def test_identity_subring():
    g4 = gauss_z2(4)
    sub, inclusion = identity_subring(g4)
    assert sub.ring.size == 4
    assert len(inclusion.kernel) == 1
    two_r = ideal_generated(g4.ring, (g4.ring.parse("2"), g4.ring.parse("2i")))
    restricted = hom_transport(inclusion, two_r, "preimage")
    assert {sub.ring.name(x) for x in restricted.elements} == {"0", "2"}
