"""Work on principal generators, against the definitional oracles.

The lattice records for each member the least generators of the principal
ideals it sums (`IdealSet.spanning`); colon, product containment and the
ideal-form test read only those, and the kernels let x and y run over one
least homogeneous generator per proper principal ideal.  Every result must
equal the oracle's, least witnesses included.
"""

from __future__ import annotations

from pathlib import Path

import oracles
import pytest

from gradedrings.classify import (
    FLAGS,
    _nonunit_classes,
    classify_ideal,
    strongly_1abs_ideal_form,
)
from gradedrings.finring import Cyclic, PolyQuotient, build_ring
from gradedrings.grading import Z2, trivial_grading
from gradedrings.ideals import (
    IdealSet,
    colon,
    enumerate_graded_ideals,
    ideal_generated,
    principal_graded_ideals,
    product_contained,
    proper_graded_ideals,
)
from gradedrings.specdoc import load_corpus
from gradedrings.transport import product, quotient
from strategies import graded_ring

SPECS = Path(__file__).resolve().parent.parent / "specs"

TRUNCATED = [  # F_p[u]/(u^k), p^k <= 64
    PolyQuotient(Cyclic(p), (0,) * k + (1,)) for p in (2, 3, 5, 7) for k in range(2, 7) if p**k <= 64
]


def _parity_products():
    # a homogeneous pair has one degree, so (u^2) x (u) of F_p[u]/(u^k)
    # graded by parity is a sum of two principal ideals and not principal;
    # in the last product the ideal-form test's least witness has such a K
    def truncated(p, k):
        return graded_ring(PolyQuotient(Cyclic(p), (0,) * k + (1,)), True)

    pairs = (((2, 2), (2, 2)), ((2, 3), (2, 3)), ((2, 2), (5, 2)))
    return [product(truncated(*a), truncated(*b)) for a, b in pairs]


@pytest.fixture(scope="module")
def small_rings(corpus):
    """Rings where the oracles run: the Z2-graded corpus rings and both
    products, Z/2..64 and F_p[u]/(u^k) trivially and parity graded (each of
    at most 64 elements), and products of parity-graded rings."""
    rings = [e.gr for e in corpus if e.gr.group == Z2 or e.parents]
    rings += [trivial_grading(build_ring(Cyclic(n))) for n in range(2, 65)]
    rings += [graded_ring(spec, z2) for spec in TRUNCATED for z2 in (False, True)]
    return [gr for gr in rings if gr.ring.size <= 64] + _parity_products()


def _cyclic(n):
    return trivial_grading(build_ring(Cyclic(n)), label=f"Z/{n}")


def test_some_classes_hold_non_homogeneous_elements(small_rings):
    # U·a is the class {b : Rb = Ra}; in these rings it can leave h(R)
    mixed = []
    for gr in small_rings:
        units = gr.ring.units()
        for ra in principal_graded_ideals(gr):
            a = ra.spanning[0]
            if not {gr.ring.mul_rows[u][a] for u in units} <= gr.homogeneous():
                mixed.append(gr.label)
                break
    assert len(mixed) >= 10, mixed


def test_lattice_members_are_spanned_by_their_generators(small_rings):
    # the (Z/m)[u]/(u^k) family holds sums of two principals such as (2, u)
    family = [e.gr for e in load_corpus(SPECS / "family-nonprincipal.json") if e.gr.ring.size <= 64]
    sums = 0
    for gr in small_rings + family:
        lattice = enumerate_graded_ideals(gr)
        assert [i.elements for i in lattice] == [
            i.elements for i in oracles.enumerate_graded_ideals(gr)
        ], gr.label
        for member in lattice:
            assert ideal_generated(gr.ring, member.spanning) == member, (gr.label, member)
            sums += len(member.spanning) > 1
    assert sums >= 26  # 8 in the products of parity-graded rings, 18 in the family


@pytest.mark.parametrize("n", [*range(65, 301), 720])
def test_cyclic_lattice_and_flags_against_closed_forms(n):
    # the ideals of Z/n are dZ/n for d | n; with n = prod p^k and d > 1:
    # prime and maximal iff d is prime, primary and 1-absorbing iff d is a
    # prime power, 2-absorbing iff d has at most two prime factors, and
    # strongly iff n is a prime power
    gr = _cyclic(n)
    ring = gr.ring
    lattice = enumerate_graded_ideals(gr)
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    assert len(lattice) == len(divisors)
    assert {i.elements for i in lattice} == {frozenset(range(0, n, d)) for d in divisors}
    primes = [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]
    for member in lattice:
        assert ideal_generated(ring, member.spanning) == member
    for p in proper_graded_ideals(gr):
        d = n // len(p)
        factors = [q for q in primes if d % q == 0]
        expected = {
            "graded_prime": d in primes,
            "graded_primary": len(factors) == 1,
            "graded_1abs_primary": len(factors) == 1,
            "graded_2abs_primary": len(factors) <= 2,
            "graded_strongly_1abs_primary": len(primes) == 1,
            "graded_maximal": d in primes,
        }
        assert classify_ideal(gr, p).flags == expected, (n, d)


def test_colon_over_generators_matches_colon_over_elements(small_rings):
    for gr in small_rings + [_cyclic(n) for n in (120, 300, 720)]:
        ring, lattice = gr.ring, enumerate_graded_ideals(gr)
        for p in lattice:
            for k in lattice:
                by_elements = IdealSet(ring, k.elements)
                assert by_elements.spanning == k.sorted_elements()
                got = colon(ring, p, k)
                assert got == colon(ring, p, by_elements), (gr.label, p, k)
                if ring.size <= 100:
                    assert got == oracles.colon(ring, p, k), (gr.label, p, k)
                    for i, j, target in ((k, k, p), (p, k, k)):
                        expected = oracles.combine(i, j, "product").elements <= target.elements
                        assert product_contained(i, j, target) == expected, (gr.label, i, j)


def test_flags_witnesses_and_ideal_form_match_oracles(small_rings):
    kernels = {
        "graded_prime": oracles.is_graded_prime,
        "graded_primary": oracles.is_graded_primary,
        "graded_1abs_primary": oracles.is_graded_1abs_primary,
        "graded_2abs_primary": oracles.is_graded_2abs_primary,
        "graded_strongly_1abs_primary": oracles.is_graded_strongly_1abs_primary,
    }
    for gr in small_rings:
        lattice = oracles.enumerate_graded_ideals(gr)
        for p in proper_graded_ideals(gr):
            report = classify_ideal(gr, p)
            for flag, oracle in kernels.items():
                ok, witness = oracle(gr, p)
                assert report.flags[flag] == ok, (gr.label, p, flag)
                assert report.witnesses.get(flag) == witness, (gr.label, p, flag)
            above = [i for i in lattice if p.elements < i.elements]
            maximal = all(not i.is_proper() for i in above)
            assert report.flags["graded_maximal"] == maximal, (gr.label, p)
            assert set(report.flags) == set(FLAGS)
            got, want = strongly_1abs_ideal_form(gr, p), oracles.strongly_1abs_ideal_form(gr, p)
            assert got[0] == want[0], (gr.label, p)
            if not got[0]:
                assert [i.elements for i in got[1]] == [i.elements for i in want[1]], (gr.label, p)


def test_representatives_are_least_homogeneous_generators(small_rings):
    for gr in small_rings:
        ring = gr.ring
        by_ideal, nonunits = {}, oracles.nonunit_homogeneous(gr)
        for a in nonunits:
            by_ideal.setdefault(frozenset(ring.mul_rows[a]), a)
        mask = sum(1 << a for a in nonunits)
        assert _nonunit_classes(gr) == (sorted(by_ideal.values()), mask), gr.label


def test_quotient_labels_name_lattice_sums_by_spanning():
    # a sum of two principals is named by its spanning tuple, the least
    # generators of the principals in the order the lattice added them
    gr = _parity_products()[1]
    k = next(i for i in enumerate_graded_ideals(gr) if len(i) == 32 and len(i.spanning) > 1)
    assert quotient(gr, k)[0].label == "Z/2[u]/(u^3)/Z2 x Z/2[u]/(u^3)/Z2/{(u,u),(0,1)}"
