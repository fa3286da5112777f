from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedrings.classify import ClassificationReport, LocalStructure, RingProfile
from gradedrings.errors import MalformedSpec
from gradedrings.finring import (
    Cyclic,
    FinRing,
    GaussMod,
    PolyQuotient,
    Record,
    build_ring,
)
from gradedrings.specdoc import RingSpecDocument
from gradedrings.transport import MultiplicativeSet


def brute_force_units(ring):
    # oracle: pair every element against every element
    out = set()
    for x in ring.elements():
        for y in ring.elements():
            if ring.mul_rows[x][y] == ring.one:
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
            p = ring.mul_rows[p][x]
    return out


def test_cyclic6_arithmetic():
    r = build_ring(Cyclic(6))
    assert r.size == 6
    assert r.mul_rows[2][3] == 0
    assert r.add_rows[4][5] == 3


def test_gauss4_defining_relation():
    r = build_ring(GaussMod(4))
    assert r.size == 16
    i = r.parse("i")
    assert r.name(r.mul_rows[i][i]) == "3"  # i*i = -1 mod 4


def test_poly_quotient_zero_divisors():
    r = build_ring(PolyQuotient(Cyclic(3), (2, 0, 1)))  # u^2 - 1 over F3
    assert r.size == 9
    assert r.mul_rows[r.parse("1+u")][r.parse("1-u")] == r.zero


F3_U2_MINUS_1 = PolyQuotient(Cyclic(3), (2, 0, 1))


@pytest.mark.parametrize(
    "spec, text, name",
    [
        (GaussMod(5), "1-i", "1+4i"),
        (GaussMod(5), "-i", "4i"),
        (GaussMod(5), "4+4i", "4+4i"),
        (GaussMod(5), "-1-i", "4+4i"),
        (GaussMod(5), "-1", "4"),
        (GaussMod(5), " 3 + 2*i ", "3+2i"),
        (GaussMod(5), "7i", "2i"),
        (F3_U2_MINUS_1, "1-u", "1+2u"),
        (F3_U2_MINUS_1, "-u+2", "2+2u"),
        (F3_U2_MINUS_1, "4*u^1", "u"),
        (Cyclic(7), "-1", "6"),
        (Cyclic(7), "2+3", "5"),
        (Cyclic(7), " 9 ", "2"),
    ],
)
def test_signed_element_parser(spec, text, name):
    r = build_ring(spec)
    assert r.name(r.parse(text)) == name


@pytest.mark.parametrize(
    "spec, label",
    [
        (PolyQuotient(Cyclic(2), (0, 1)), "Z/2[u]/(u)"),
        (PolyQuotient(Cyclic(2), (0, 0, 1)), "Z/2[u]/(u^2)"),
        (PolyQuotient(Cyclic(2), (1, 0, 1)), "Z/2[u]/(1+u^2)"),
        (F3_U2_MINUS_1, "Z/3[u]/(2+u^2)"),
    ],
)
def test_poly_quotient_labels(spec, label):
    assert build_ring(spec).label == label


@pytest.mark.parametrize(
    "spec",
    [
        Cyclic(1), GaussMod(1), PolyQuotient(Cyclic(3), (1, 2)),
        PolyQuotient(Cyclic(1), (1, 1)), PolyQuotient(Cyclic(0), (1, 1)), PolyQuotient(Cyclic(-1), (1, 1)),
    ],
)
def test_malformed_specs_rejected(spec):
    with pytest.raises(MalformedSpec):
        build_ring(spec)


@pytest.mark.parametrize("n", [4, 6, 9])
def test_gauss_mod_is_a_poly_quotient(n):
    # Z/n[i] is (Z/n)[u]/(u^2+1) but for the variable's name and the label
    gauss, poly = build_ring(GaussMod(n)), build_ring(PolyQuotient(Cyclic(n), (1, 0, 1)))
    assert (gauss.add_rows, gauss.mul_rows) == (poly.add_rows, poly.mul_rows)
    assert [gauss.name(x).replace("i", "u") for x in gauss.elements()] == list(map(poly.name, poly.elements()))
    assert (gauss.label, poly.label) == (f"Z/{n}[i]", f"Z/{n}[u]/(1+u^2)")


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
    "spec", [Cyclic(257), PolyQuotient(Cyclic(17), (16, 0, 1))], ids=["z257", "f17-u2-1"]
)
def test_rings_above_256_elements(spec):
    # Z/257 and F17[u]/(u^2-1): carriers above 256 elements are tables too
    ring = build_ring(spec)
    assert ring.size in (257, 289)
    assert ring.units() == frozenset(brute_force_units(ring))
    assert ring.nilradical() == frozenset(brute_force_nilradical(ring))
    ring.check_axioms()


def test_cyclic_tables_share_one_int_per_value():
    # composed and reflected rows hold the same int objects, not copies
    ring = build_ring(Cyclic(1024))
    for table in (ring.add_rows, ring.mul_rows):
        assert len({id(v) for row in table for v in row}) == 1024


@pytest.mark.parametrize(
    "spec",
    [
        Cyclic(1031), GaussMod(33), GaussMod(10**6), PolyQuotient(Cyclic(2), (1,) * 41),
        PolyQuotient(Cyclic(1031), (1, 1)),
    ],
    ids=["z1031", "gauss33", "gauss-huge", "poly-2^40", "poly-base-1031"],
)
def test_carrier_cap(spec):
    # rejected before any per-element work, however large the carrier
    with pytest.raises(MalformedSpec, match="exceeds cap 1024"):
        build_ring(spec)


def test_names_shorter_than_carrier_rejected():
    with pytest.raises(MalformedSpec, match="2 names for 3 elements"):
        FinRing(
            3,
            [[(i + j) % 3 for j in range(3)] for i in range(3)],
            [[i * j % 3 for j in range(3)] for i in range(3)],
            one=1,
            names=["0", "1"],
        )


def test_add_table_without_inverse_rejected():
    # max(i, j) has 0 as identity, but nothing adds to 0 with 1
    with pytest.raises(MalformedSpec, match="additive inverse"):
        FinRing(
            3,
            [[max(i, j) for j in range(3)] for i in range(3)],
            [[i * j % 3 for j in range(3)] for i in range(3)],
            one=1,
        )


@pytest.mark.parametrize(
    "spec",
    [
        Cyclic(12), GaussMod(4), GaussMod(3), PolyQuotient(Cyclic(3), (2, 0, 1)),
        # carriers at MAX_CARRIER: the exact laws take seconds, a triple scan minutes
        Cyclic(1024), GaussMod(32), PolyQuotient(Cyclic(2), (0,) * 10 + (1,)),
    ],
)
def test_axioms_thorough(spec):
    build_ring(spec).check_axioms()


@pytest.mark.parametrize("spec", [Cyclic(12), GaussMod(3), PolyQuotient(Cyclic(2), (1, 1, 1))])
def test_unit_zero_divisor_dichotomy(spec):
    ring = build_ring(spec)
    units = ring.units()
    for x in ring.elements():
        is_zero_or_divisor = x == ring.zero or any(
            ring.mul_rows[x][y] == ring.zero for y in ring.elements() if y != ring.zero
        )
        assert (x in units) != is_zero_or_divisor


@pytest.mark.parametrize("spec", [Cyclic(12), GaussMod(4)])
def test_nilradical_is_ideal_and_units_closed(spec):
    ring = build_ring(spec)
    nil = ring.nilradical()
    for x in nil:
        for y in nil:
            assert ring.add_rows[x][y] in nil
        for r in ring.elements():
            assert ring.mul_rows[r][x] in nil
    units = ring.units()
    assert ring.one in units
    for x in units:
        for y in units:
            assert ring.mul_rows[x][y] in units


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=40))
def test_cyclic_rings_pass_axioms(n):
    ring = build_ring(Cyclic(n))
    ring.check_axioms()
    assert ring.units() == frozenset(brute_force_units(ring))


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=2, max_value=6))
def test_gauss_rings_pass_axioms(n):
    ring = build_ring(GaussMod(n))
    ring.check_axioms()
    assert ring.nilradical() == frozenset(brute_force_nilradical(ring))


RECORDS = (
    Cyclic, GaussMod, PolyQuotient, LocalStructure, RingProfile, ClassificationReport,
    RingSpecDocument, MultiplicativeSet,
)


@pytest.mark.parametrize("record", RECORDS, ids=lambda cls: cls.__name__)
def test_record_constructor_takes_each_field_once(record):
    assert record.__init__ is Record.__init__
    fields = record.__slots__
    values = tuple(range(len(fields)))
    by_position, by_name = record(*values), record(**dict(zip(fields, values)))
    assert by_position == by_name
    assert tuple(getattr(by_name, k) for k in fields) == values
    assert record(*values[:1], **dict(zip(fields[1:], values[1:]))) == by_position
    for args, kwargs in (
        (values[:-1], {}),  # missing
        ((*values, 0), {}),  # extra
        (values, {"bogus": 0}),  # unknown
        (values, {fields[0]: 0}),  # doubled
    ):
        with pytest.raises(TypeError, match=rf"^{record.__name__}\(\) takes each of"):
            record(*args, **kwargs)
