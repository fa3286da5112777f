from __future__ import annotations

from itertools import combinations

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import graded_ring, z2_graded

from gradedrings.errors import NotAnIdeal, NotGraded
from gradedrings.finring import MAX_CARRIER, Cyclic, GaussMod, PolyQuotient, build_ring
from gradedrings.grading import Z2, Z_GRADING, GradingGroup, attach_grading, trivial_grading
from gradedrings.ideals import (
    IdealSet,
    additive_closure,
    colon,
    combine,
    enumerate_graded_ideals,
    graded_radical,
    ideal_generated,
    is_graded_ideal,
    principal_graded_ideals,
    proper_graded_ideals,
    unit_ideal,
    zero_ideal,
)
from gradedrings.transport import product


def gauss_z2(n):
    ring = build_ring(GaussMod(n))
    return attach_grading(
        ring,
        Z2,
        {(0,): frozenset(range(n)), (1,): frozenset(b * n for b in range(n))},
    )


# ------------------------------------------------------------ oracle helpers


def oracle_is_ideal(ring, s):
    return all(ring.mul_rows[r][x] in s for x in s for r in ring.elements())


def oracle_is_graded(gr, s):
    table = oracles.decomposition(gr.ring, gr.components)
    return all(part in s for x in s for part in table[x].values())


def brute_force_graded_ideals(gr):
    """Subset filtering: every additive subgroup (closure of <= 4 generators)
    that absorbs multiplication and contains all components of its members."""
    ring = gr.ring
    assert ring.size <= 16
    subgroups = set()
    elems = list(ring.elements())
    for k in range(5):
        for gens in combinations(elems, k):
            subgroups.add(oracles.additive_closure(ring, gens))
    return {
        s for s in subgroups if oracle_is_ideal(ring, s) and oracle_is_graded(gr, s)
    }


# -------------------------------------------------------------------- tests


def test_ideal_generated_examples():
    c12 = build_ring(Cyclic(12))
    assert ideal_generated(c12, (4,)).elements == {0, 4, 8}
    c9 = build_ring(Cyclic(9))
    assert ideal_generated(c9, (3,)).elements == {0, 3, 6}
    gr = gauss_z2(4)
    two = gr.ring.parse("2")
    two_i = gr.ring.parse("2i")
    ideal = ideal_generated(gr.ring, (two, two_i))
    # oracle: 2*R by direct scan
    assert ideal.elements == {gr.ring.mul_rows[two][x] for x in gr.ring.elements()}
    assert len(ideal) == 4


def test_is_graded_ideal():
    gr = gauss_z2(4)
    triv = trivial_grading(build_ring(Cyclic(12)))
    for ideal in [zero_ideal(triv.ring), ideal_generated(triv.ring, (4,))]:
        assert is_graded_ideal(triv, ideal) == (True, None)
    # principal ideal of a homogeneous element is graded
    ok, _ = is_graded_ideal(gr, ideal_generated(gr.ring, (gr.ring.parse("2"),)))
    assert ok
    # 1+i is not homogeneous and generates a non-graded ideal
    one_plus_i = gr.ring.parse("1+i")
    ok, witness = is_graded_ideal(gr, ideal_generated(gr.ring, (one_plus_i,)))
    assert not ok
    assert witness == one_plus_i


@pytest.mark.parametrize(
    "make_graded, elements, message",
    [
        pytest.param(lambda: trivial_grading(build_ring(Cyclic(8))), {2, 4}, "missing 0", id="no-zero"),
        pytest.param(
            lambda: trivial_grading(build_ring(Cyclic(8))), {0, 2, 4}, "not closed under addition",
            id="not-additively-closed",
        ),
        # the reals {0,1,2} of Z/3[i]: an additive subgroup with i*1 = i outside it
        pytest.param(lambda: gauss_z2(3), {0, 1, 2}, "not absorbing", id="not-absorbing"),
        # -2 would read row 2 of Z/4's tables, and {0, -2, 2} pass as the ideal (2)
        pytest.param(
            lambda: trivial_grading(build_ring(Cyclic(4))), {0, -2, 2}, "-2 is not an element",
            id="negative-index",
        ),
        pytest.param(
            lambda: trivial_grading(build_ring(Cyclic(4))), {0, 9}, "9 is not an element",
            id="index-out-of-range",
        ),
        pytest.param(
            lambda: trivial_grading(build_ring(Cyclic(4))), {0, 2.0}, "2.0 is not an element",
            id="float-index",
        ),
    ],
)
def test_is_graded_ideal_rejects_non_ideals(make_graded, elements, message):
    gr = make_graded()
    for _ in range(2):  # an exception is never memoized: the second call raises too
        with pytest.raises(NotAnIdeal, match=message):
            is_graded_ideal(gr, IdealSet(gr.ring, elements))


def test_is_graded_ideal_matches_oracle_on_ungraded_ideals(corpus):
    # Ra for every a, homogeneous or not, and the sums of two of them: the
    # span of the homogeneous members against each member's decomposition.
    # F2[u]/(u^3) (deg u = 1 in Z) and F2[u]/(u^3-1) (deg u = 1 in Z/3) have
    # three supported degrees; the second has ungraded ideals, the first not
    rings = [e.gr for e in corpus if e.gr.group == Z2]
    z3 = GradingGroup("finite_abelian", (3,))
    three_degrees = [
        (PolyQuotient(Cyclic(2), (0, 0, 0, 1)), Z_GRADING, (0, 1, 2)),
        (PolyQuotient(Cyclic(2), (1, 0, 0, 1)), z3, ((0,), (1,), (2,))),
    ]
    for spec, group, degrees in three_degrees:
        ring = build_ring(spec)
        rings.append(attach_grading(ring, group, dict(zip(degrees, ({0, 1}, {0, 2}, {0, 4})))))
    rejected = set()
    for gr in rings:
        ring = gr.ring
        principals = {ideal_generated(ring, (a,)).elements for a in ring.elements()}
        sums = {
            combine(IdealSet(ring, i), IdealSet(ring, j), "sum").elements
            for i, j in combinations(principals, 2)
        }
        for members in sorted(principals | sums, key=sorted):
            ideal = IdealSet(ring, members)
            expected = oracles.is_graded_ideal(gr, ideal)
            assert is_graded_ideal(gr, ideal) == expected, (gr.label, ideal)
            if not expected[0]:
                rejected.add(gr.label)
    assert rejected >= {"Z/2[i]/Z2 x Z/2[i]/Z2", rings[-1].label}, rejected


def test_ideal_generated_rejects_index_outside_carrier():
    ring = build_ring(Cyclic(4))
    with pytest.raises(NotAnIdeal, match="9 is not an element of Z/4"):
        ideal_generated(ring, (9,))


def test_graded_radical_examples():
    triv12 = trivial_grading(build_ring(Cyclic(12)))
    rad = graded_radical(triv12, IdealSet(triv12.ring, {0, 4, 8}))
    assert rad.elements == {0, 2, 4, 6, 8, 10}
    triv9 = trivial_grading(build_ring(Cyclic(9)))
    assert graded_radical(triv9, zero_ideal(triv9.ring)).elements == {0, 3, 6}


def test_graded_radical_requires_graded():
    gr = gauss_z2(4)
    bad = ideal_generated(gr.ring, (gr.ring.parse("1+i"),))
    if bad.is_proper():
        with pytest.raises(NotGraded):
            graded_radical(gr, bad)


def test_graded_radical_of_improper_is_ring():
    triv = trivial_grading(build_ring(Cyclic(12)))
    assert graded_radical(triv, unit_ideal(triv.ring)) == unit_ideal(triv.ring)


def test_colon_examples():
    c12 = build_ring(Cyclic(12))
    p = IdealSet(c12, {0, 4, 8})
    k = IdealSet(c12, {0, 2, 4, 6, 8, 10})
    # oracle: direct scan of 2r mod 12 in {0,4,8}
    expected = {r for r in range(12) if all((r * x) % 12 in {0, 4, 8} for x in k.elements)}
    got = colon(c12, p, k)
    assert got.elements == expected == {0, 2, 4, 6, 8, 10}
    assert colon(c12, p, unit_ideal(c12)) == p
    assert colon(c12, k, p) == unit_ideal(c12)  # P contained in K


def test_combine_examples():
    c12 = build_ring(Cyclic(12))
    i = IdealSet(c12, {0, 4, 8})
    j = IdealSet(c12, {0, 6})
    assert combine(i, zero_ideal(c12), "sum") == i
    assert combine(i, j, "product").elements == {0}
    assert combine(i, j, "intersection").elements == {0}
    assert combine(i, j, "sum").elements == {0, 2, 4, 6, 8, 10}


def test_radical_properties_on_corpus(corpus):
    for entry in corpus:
        gr = entry.gr
        lattice = proper_graded_ideals(gr)
        for ideal in lattice:
            rad = graded_radical(gr, ideal)
            assert is_graded_ideal(gr, rad)[0]
            assert ideal.elements <= rad.elements
            assert graded_radical(gr, rad) == rad or not rad.is_proper()
        for a in lattice:
            for b in lattice:
                if a.elements <= b.elements:
                    assert (
                        graded_radical(gr, a).elements
                        <= graded_radical(gr, b).elements
                    )


def test_colon_and_combine_stay_graded_on_corpus(corpus):
    for entry in corpus:
        gr = entry.gr
        lattice = enumerate_graded_ideals(gr)
        for a in lattice:
            for b in lattice:
                assert is_graded_ideal(gr, colon(gr.ring, a, b))[0]
                for op in ("sum", "product", "intersection"):
                    assert is_graded_ideal(gr, combine(a, b, op))[0]


def test_enumerate_matches_divisor_lattice():
    # one ideal dZ/n per divisor d of n: 6 for Z/12, 30 for Z/720, 11 at the carrier cap
    for n in (12, 720, MAX_CARRIER):
        triv = trivial_grading(build_ring(Cyclic(n)))
        lattice = enumerate_graded_ideals(triv)
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        assert len(lattice) == len(divisors)
        assert {i.elements for i in lattice} == {frozenset(range(0, n, d)) for d in divisors}


def test_enumerate_graded_field():
    
    gr = z2_graded(PolyQuotient(Cyclic(3), (2, 0, 1)), "F3[u]/(u^2-1)/Z2")
    assert [len(i) for i in enumerate_graded_ideals(gr)] == [1, 9]


def test_enumerate_matches_brute_force(small_corpus):
    for entry in small_corpus:
        gr = entry.gr
        got = {i.elements for i in enumerate_graded_ideals(gr)}
        assert got == brute_force_graded_ideals(gr), entry.label


def _snapshot(ideal):
    return ideal.elements, ideal.generators


def test_ideal_algebra_matches_oracle(corpus):
    cyclic = [trivial_grading(build_ring(Cyclic(n))) for n in range(2, 65)]
    for gr in [e.gr for e in corpus] + cyclic:
        ring = gr.ring
        lattice = enumerate_graded_ideals(gr)
        expected = oracles.enumerate_graded_ideals(gr)
        assert list(map(_snapshot, lattice)) == list(map(_snapshot, expected)), gr.label
        for x in ring.elements():
            got, want = ideal_generated(ring, (x,)), oracles.ideal_generated(ring, (x,))
            assert _snapshot(got) == _snapshot(want), (gr.label, x)
        for i in lattice:
            for j in lattice:
                gens = i.sorted_elements() + j.sorted_elements()
                got, want = ideal_generated(ring, gens), oracles.ideal_generated(ring, gens)
                assert _snapshot(got) == _snapshot(want), (gr.label, i, j)
                for op in ("sum", "product", "intersection"):
                    got, want = combine(i, j, op), oracles.combine(i, j, op)
                    assert _snapshot(got) == _snapshot(want), (gr.label, i, j, op)


def test_principal_graded_ideals_match_oracle(corpus):
    # in a Z2-graded ring a principal ideal holds non-homogeneous elements,
    # and its least generator is the least homogeneous one; Z/2 and
    # Z/2 x Z/2 have one unit each, so their ideals are read at one index
    z2 = trivial_grading(build_ring(Cyclic(2)))
    rings = [e.gr for e in corpus if e.gr.group == Z2 or e.parents]
    rings += [trivial_grading(build_ring(Cyclic(n))) for n in [*range(2, 129), 720]]
    rings.append(product(z2, z2))
    truncated = [  # F_p[u]/(u^k)
        PolyQuotient(Cyclic(p), (0,) * k + (1,))
        for p in (2, 3, 5, 7) for k in range(2, 7) if p**k <= 64
    ]
    for spec in [GaussMod(n) for n in range(2, 9)] + truncated:
        rings += [graded_ring(spec, False), graded_ring(spec, True)]
    for gr in rings:
        got, want = principal_graded_ideals(gr), oracles.principal_graded_ideals(gr)
        assert list(map(_snapshot, got)) == list(map(_snapshot, want)), gr.label


def _poly_specs(p):
    # monic moduli of every degree d with p^d <= 64
    degrees = st.integers(1, max(d for d in range(1, 7) if p**d <= 64))
    return degrees.flatmap(
        lambda d: st.lists(st.integers(0, p - 1), min_size=d, max_size=d).map(
            lambda low: PolyQuotient(Cyclic(p), (*low, 1))
        )
    )


SMALL_RING_SPECS = st.one_of(
    st.builds(Cyclic, st.integers(2, 64)),
    st.builds(GaussMod, st.integers(2, 8)),
    st.sampled_from((2, 3, 5, 7)).flatmap(_poly_specs),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(spec=SMALL_RING_SPECS, data=st.data())
def test_additive_closure_matches_oracle(spec, data):
    ring = build_ring(spec)
    seed = data.draw(st.lists(st.integers(0, ring.size - 1), max_size=6))
    assert additive_closure(ring, seed) == oracles.additive_closure(ring, seed)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(spec=SMALL_RING_SPECS, data=st.data())
def test_colon_matches_oracle_on_any_sets(spec, data):
    # (P : K) is defined for any sets, and K may be empty: then it is R
    ring = build_ring(spec)
    subsets = st.frozensets(st.integers(0, ring.size - 1))
    p, k = IdealSet(ring, data.draw(subsets)), IdealSet(ring, data.draw(subsets))
    assert colon(ring, p, k) == oracles.colon(ring, p, k)


def test_radical_and_colon_match_oracle(corpus):
    cyclic = [trivial_grading(build_ring(Cyclic(n))) for n in range(2, 65)]
    for gr in [e.gr for e in corpus] + cyclic:
        ring = gr.ring
        assert ring.nilradical() == oracles.nilradical(ring), gr.label
        lattice = enumerate_graded_ideals(gr)
        for i in lattice:
            assert graded_radical(gr, i) == oracles.graded_radical(gr, i), (gr.label, i)
            for j in lattice:
                assert colon(ring, i, j) == oracles.colon(ring, i, j), (gr.label, i, j)
