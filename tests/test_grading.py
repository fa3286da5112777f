from __future__ import annotations

import pytest

from gradedrings.errors import (
    IdentityNotInRe,
    MalformedSpec,
    NotDirectSum,
    NotMultiplicative,
    NotSubgroup,
)
from gradedrings.finring import Cyclic, GaussMod, PolyQuotient, build_ring
from gradedrings.grading import (
    TRIVIAL_GROUP,
    Z2,
    Z_GRADING,
    GradingGroup,
    attach_grading,
    trivial_grading,
)


def gauss_z2(n):
    ring = build_ring(GaussMod(n))
    return attach_grading(
        ring,
        Z2,
        {(0,): frozenset(range(n)), (1,): frozenset(b * n for b in range(n))},
    )


def graded_field_f3():
    ring = build_ring(PolyQuotient(Cyclic(3), (2, 0, 1)))
    return attach_grading(
        ring,
        Z2,
        {(0,): frozenset({0, 1, 2}), (1,): frozenset({0, 3, 6})},
    )


def test_group_arithmetic():
    assert Z2.op((1,), (1,)) == (0,)
    assert TRIVIAL_GROUP.identity == ()
    assert Z_GRADING.op(2, -3) == -1
    g = GradingGroup("finite_abelian", (2, 3))
    assert g.op((1, 2), (1, 2)) == (0, 1)


def test_gauss4_grading_valid():
    gr = gauss_z2(4)
    assert gr.support == ((0,), (1,))
    x = gr.ring.parse("2+3i")
    parts = gr.decompose(x)
    assert gr.ring.name(parts[(0,)]) == "2"
    assert gr.ring.name(parts[(1,)]) == "3i"
    assert all(p == 0 for p in gr.decompose(gr.ring.zero).values())


def test_trivial_grading_everything_homogeneous():
    gr = trivial_grading(build_ring(Cyclic(12)))
    assert gr.homogeneous() == frozenset(range(12))


def test_graded_field_grading():
    gr = graded_field_f3()
    ring = gr.ring
    parts = gr.decompose(ring.parse("1+u"))
    assert ring.name(parts[(0,)]) == "1"
    assert ring.name(parts[(1,)]) == "u"
    assert sorted(ring.name(x) for x in gr.homogeneous()) == ["0", "1", "2", "2u", "u"]


def test_gauss_homogeneous_count():
    gr = gauss_z2(4)
    # oracle: union of the two component scans, overlapping only at 0
    expected = set(range(4)) | {b * 4 for b in range(4)}
    assert gr.homogeneous() == frozenset(expected)
    assert len(gr.homogeneous()) == 7


def test_decompose_reconstructs_every_element():
    gr = gauss_z2(3)
    ring = gr.ring
    for x in ring.elements():
        total = ring.zero
        for g, part in gr.decompose(x).items():
            assert part in gr.component(g)
            total = ring.add_rows[total][part]
        assert total == x


def test_component_sizes_multiply_to_carrier():
    for gr in (gauss_z2(2), gauss_z2(4), graded_field_f3()):
        prod = 1
        for g in gr.support:
            prod *= len(gr.component(g))
        assert prod == gr.ring.size


def test_homogeneous_elements_have_one_nonzero_part():
    gr = gauss_z2(4)
    for x in gr.homogeneous():
        nonzero = [p for p in gr.decompose(x).values() if p != gr.ring.zero]
        assert len(nonzero) <= 1


def test_rejects_non_subgroup():
    ring = build_ring(GaussMod(2))
    with pytest.raises(NotSubgroup):
        attach_grading(ring, Z2, {(0,): {0, 1}, (1,): {0, 1, 2}})


def test_component_without_negatives_fails_closure_under_addition():
    # {0, 1} lacks -1 = 2 = 1+1; closure under + implies closure under negation
    ring = build_ring(Cyclic(3))
    with pytest.raises(NotSubgroup, match=r"^component 1 not closed under addition at 1\+1$"):
        attach_grading(ring, Z2, {(0,): {0, 1, 2}, (1,): {0, 1}})


def test_rejects_two_keys_of_one_degree():
    # (2,) is degree 0 of Z2: it must not silently replace the non-subgroup {0, u}
    ring = build_ring(PolyQuotient(Cyclic(3), (2, 0, 1)))
    with pytest.raises(MalformedSpec, match=r"keys \(0,\) and \(2,\) name one degree, 0"):
        attach_grading(ring, Z2, {(0,): {0, 3}, (1,): {0, 3, 6}, (2,): {0, 1, 2}})


def test_rejects_component_index_outside_carrier():
    ring = build_ring(Cyclic(4))
    with pytest.raises(NotSubgroup, match="-1 is not an element of Z/4"):
        attach_grading(ring, Z2, {(0,): {0, 1, 2, 3}, (1,): {0, -1}})


def test_rejects_bad_direct_sum():
    ring = build_ring(Cyclic(4))
    with pytest.raises(NotDirectSum):
        attach_grading(ring, Z2, {(0,): {0, 1, 2, 3}, (1,): {0, 2}})


def test_rejects_identity_missing():
    ring = build_ring(GaussMod(2))
    with pytest.raises(IdentityNotInRe):
        attach_grading(ring, Z2, {(0,): {0, 3}, (1,): {0, 1}})


def test_rejects_non_multiplicative():
    # Z/5 split as {0} + units-span cannot respect degrees: 1*1 must stay in R_1
    ring = build_ring(Cyclic(5))
    with pytest.raises((NotMultiplicative, IdentityNotInRe)):
        attach_grading(ring, Z2, {(0,): {0}, (1,): {0, 1, 2, 3, 4}})


def test_integer_grading_out_of_support_products_must_vanish():
    # F2[u]/(u^2): deg(u) = 1, u*u = 0 lands in the empty degree 2
    ring = build_ring(PolyQuotient(Cyclic(2), (0, 0, 1)))
    gr = attach_grading(ring, Z_GRADING, {0: {0, 1}, 1: {0, ring.parse("u")}})
    assert gr.ring.mul_rows[ring.parse("u")][ring.parse("u")] == ring.zero
    # genuine violation: u^2 = 1 cannot live in the empty degree 2
    ring2 = build_ring(PolyQuotient(Cyclic(2), (1, 0, 1)))
    with pytest.raises(NotMultiplicative):
        attach_grading(ring2, Z_GRADING, {0: {0, 1}, 1: {0, ring2.parse("u")}})


def test_trivial_grading_matches_attach_grading(corpus):
    rings = [e.gr.ring for e in corpus] + [build_ring(Cyclic(n)) for n in range(2, 65)]
    for ring in rings:
        for group in (TRIVIAL_GROUP, Z2, Z_GRADING):
            direct = trivial_grading(ring, group)
            checked = attach_grading(ring, group, {group.identity: frozenset(ring.elements())})
            assert direct.components == checked.components, (ring.label, group)
            assert direct.support == checked.support, (ring.label, group)
            for x in ring.elements():
                assert direct.decompose(x) == checked.decompose(x), (ring.label, group, x)
