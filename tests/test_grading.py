from __future__ import annotations

import math
import random
from itertools import combinations_with_replacement

import pytest

import oracles
from gradedrings.errors import (
    GradedRingError,
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


def parts(gr):
    """The oracle's table of every element's parts, checked to be one."""
    table = oracles.decomposition(gr.ring, gr.components)
    assert table is not None and None not in table, gr
    return table


def test_group_arithmetic():
    assert Z2.op((1,), (1,)) == (0,)
    assert TRIVIAL_GROUP.identity == ()
    assert Z_GRADING.op(2, -3) == -1
    g = GradingGroup("finite_abelian", (2, 3))
    assert g.op((1, 2), (1, 2)) == (0, 1)


def test_gauss4_grading_valid():
    gr = gauss_z2(4)
    assert gr.support == ((0,), (1,))
    table = parts(gr)
    x = table[gr.ring.parse("2+3i")]
    assert gr.ring.name(x[(0,)]) == "2"
    assert gr.ring.name(x[(1,)]) == "3i"
    assert all(p == 0 for p in table[gr.ring.zero].values())


def test_trivial_grading_everything_homogeneous():
    gr = trivial_grading(build_ring(Cyclic(12)))
    assert gr.homogeneous() == frozenset(range(12))


def test_graded_field_grading():
    gr = graded_field_f3()
    ring = gr.ring
    x = parts(gr)[ring.parse("1+u")]
    assert ring.name(x[(0,)]) == "1"
    assert ring.name(x[(1,)]) == "u"
    assert sorted(ring.name(x) for x in gr.homogeneous()) == ["0", "1", "2", "2u", "u"]


def test_gauss_homogeneous_count():
    gr = gauss_z2(4)
    # oracle: union of the two component scans, overlapping only at 0
    expected = set(range(4)) | {b * 4 for b in range(4)}
    assert gr.homogeneous() == frozenset(expected)
    assert len(gr.homogeneous()) == 7


def test_decompose_reconstructs_every_element():
    gr = gauss_z2(3)
    ring, table = gr.ring, parts(gr)
    for x in ring.elements():
        total = ring.zero
        for g, part in table[x].items():
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
    table = parts(gr)
    for x in gr.homogeneous():
        nonzero = [p for p in table[x].values() if p != gr.ring.zero]
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


PROPOSAL_SPECS = (
    Cyclic(4), Cyclic(6), Cyclic(8), Cyclic(9), GaussMod(2), GaussMod(3),
    PolyQuotient(Cyclic(2), (0, 0, 1)), PolyQuotient(Cyclic(2), (1, 0, 0, 1)),
)
PROPOSAL_GROUPS = (
    (Z2, ((0,), (1,))),
    (Z_GRADING, (0, 1, 2, -1)),
    (GradingGroup("finite_abelian", (3,)), ((0,), (1,), (2,))),
)


def component_proposals(seed, count):
    """`count` seeded (ring, group, components) proposals over PROPOSAL_SPECS:
    half are random degrees holding random subgroups (some a random subset
    with 0), half an R_e holding 1 and one other degree holding a subgroup of
    the size that makes the component sizes multiply to |R|."""
    rng = random.Random(seed)
    rings = [build_ring(spec) for spec in PROPOSAL_SPECS]
    subgroups = [
        sorted(
            {oracles.additive_closure(ring, pair)
             for pair in combinations_with_replacement(ring.elements(), 2)},
            key=sorted,
        )
        for ring in rings
    ]
    for _ in range(count):
        i = rng.randrange(len(rings))
        ring, subs = rings[i], subgroups[i]
        group, degrees = rng.choice(PROPOSAL_GROUPS)
        if rng.random() < 0.5:
            comps = {}
            for g in rng.sample(degrees, rng.randint(1, len(degrees))):
                if rng.random() < 0.15:
                    comps[g] = frozenset({0, *rng.sample(range(ring.size), rng.randint(1, 3))})
                else:
                    comps[g] = rng.choice(subs)
        else:
            r_e = rng.choice([c for c in subs if ring.one in c])
            fits = [c for c in subs if len(c) == ring.size // len(r_e)]
            other = rng.choice([g for g in degrees if g != group.identity])
            comps = {group.identity: r_e, other: rng.choice(fits)}
        yield ring, group, comps


def attach_outcome(ring, group, comps):
    """The graded ring `attach_grading` returns, or the error it raises."""
    try:
        return attach_grading(ring, group, comps)
    except GradedRingError as exc:
        return exc


def test_attach_grading_accepts_exactly_the_direct_sums_of_the_oracle_table():
    # past the subgroup, identity and size checks, attach_grading's span check
    # must reject exactly the proposals whose table of sums reaches an element
    # twice, naming the least element outside the span of the components
    reached = {"direct": 0, "not direct": 0, "accepted": 0}
    for ring, group, comps in component_proposals(27, 3000):
        got = attach_outcome(ring, group, comps)
        full = {group.identity: frozenset({ring.zero}), **comps}
        zero_only = frozenset({ring.zero})
        subgroups = all(
            ring.zero in c and all(ring.add_rows[x][y] in c for x in c for y in c)
            for c in full.values()
        )
        sized = math.prod(len(c) for c in full.values() if c != zero_only) == ring.size
        if not (subgroups and ring.one in full[group.identity] and sized):
            assert isinstance(got, (NotSubgroup, IdentityNotInRe, NotDirectSum)), got
            assert not isinstance(got, NotDirectSum) or str(got).startswith("component sizes")
            continue
        table = oracles.decomposition(ring, full)
        if table is None:
            reached["not direct"] += 1
            span = oracles.additive_closure(ring, set().union(*full.values()))
            least = min(set(ring.elements()) - span)
            assert isinstance(got, NotDirectSum), (ring.label, comps)
            assert str(got) == f"element {ring.name(least)} is not a sum of components"
            continue
        reached["direct"] += 1
        multiplicative = all(
            ring.mul_rows[x][y] in full.get(group.op(g, h), zero_only)
            for g in full for h in full for x in full[g] for y in full[h]
        )
        if multiplicative:
            reached["accepted"] += 1
            assert not isinstance(got, Exception), (ring.label, comps, got)
            assert got.components == full
        else:
            assert isinstance(got, NotMultiplicative), (ring.label, comps, got)
    assert min(reached.values()) >= 50, reached
