from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedrings.errors import MalformedSpec
from gradedrings.finring import (
    Cyclic,
    GaussMod,
    PolyQuotient,
    build_ring,
)


def brute_force_units(ring):
    # oracle: pair every element against every element
    out = set()
    for x in ring.elements():
        for y in ring.elements():
            if ring.mul(x, y) == ring.one:
                out.add(x)
    return out


def brute_force_nilradical(ring):
    out = set()
    for x in ring.elements():
        p = x
        for _ in range(ring.size):
            if p == ring.zero:
                out.add(x)
                break
            p = ring.mul(p, x)
    return out


def test_cyclic6_arithmetic():
    r = build_ring(Cyclic(6))
    assert r.size == 6
    assert r.mul(2, 3) == 0
    assert r.add(4, 5) == 3


def test_gauss4_defining_relation():
    r = build_ring(GaussMod(4))
    assert r.size == 16
    i = r.parse("i")
    assert r.name(r.mul(i, i)) == "3"  # i*i = -1 mod 4


def test_poly_quotient_zero_divisors():
    r = build_ring(PolyQuotient(Cyclic(3), (2, 0, 1)))  # u^2 - 1 over F3
    assert r.size == 9
    assert r.mul(r.parse("1+u"), r.parse("1-u")) == r.zero


@pytest.mark.parametrize(
    "spec",
    [Cyclic(1), GaussMod(1), PolyQuotient(Cyclic(4), (1, 1)), PolyQuotient(Cyclic(3), (1, 2))],
)
def test_malformed_specs_rejected(spec):
    with pytest.raises(MalformedSpec):
        build_ring(spec)


def test_unit_sets():
    assert build_ring(Cyclic(6)).units() == {1, 5}
    assert build_ring(Cyclic(9)).units() == {1, 2, 4, 5, 7, 8}
    g2 = build_ring(GaussMod(2))
    assert g2.units() == frozenset(brute_force_units(g2))
    assert g2.units() == {g2.parse("1"), g2.parse("i")}


def test_nilradicals():
    for n, expected in [(6, {0}), (9, {0, 3, 6}), (12, {0, 6})]:
        r = build_ring(Cyclic(n))
        assert r.nilradical() == frozenset(brute_force_nilradical(r))
        assert r.nilradical() == expected


@pytest.mark.parametrize(
    "spec",
    [Cyclic(12), GaussMod(4), GaussMod(3), PolyQuotient(Cyclic(3), (2, 0, 1))],
)
def test_axioms_thorough(spec):
    build_ring(spec).check_axioms(thorough=True)


@pytest.mark.parametrize("spec", [Cyclic(12), GaussMod(3), PolyQuotient(Cyclic(2), (1, 1, 1))])
def test_unit_zero_divisor_dichotomy(spec):
    ring = build_ring(spec)
    units = ring.units()
    for x in ring.elements():
        is_zero_or_divisor = x == ring.zero or any(
            ring.mul(x, y) == ring.zero for y in ring.elements() if y != ring.zero
        )
        assert (x in units) != is_zero_or_divisor


@pytest.mark.parametrize("spec", [Cyclic(12), GaussMod(4)])
def test_nilradical_is_ideal_and_units_closed(spec):
    ring = build_ring(spec)
    nil = ring.nilradical()
    for x in nil:
        for y in nil:
            assert ring.add(x, y) in nil
        for r in ring.elements():
            assert ring.mul(r, x) in nil
    units = ring.units()
    assert ring.one in units
    for x in units:
        for y in units:
            assert ring.mul(x, y) in units


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=40))
def test_cyclic_rings_pass_axioms(n):
    ring = build_ring(Cyclic(n))
    ring.check_axioms(thorough=True)
    assert ring.units() == frozenset(brute_force_units(ring))


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=2, max_value=6))
def test_gauss_rings_pass_axioms(n):
    ring = build_ring(GaussMod(n))
    ring.check_axioms(thorough=True)
    assert ring.nilradical() == frozenset(brute_force_nilradical(ring))
