"""The table-native ring core against the cell-by-cell oracles.

Constructors, derived rings, the axiom check, ideal validation and
homomorphism validation must give the oracle's rows, verdicts, messages
and witnesses exactly.
"""

from __future__ import annotations

import sys
from pathlib import Path

import oracles
import pytest
from hypothesis import given, settings
from strategies import graded_ring, graded_specs, z2_graded

from gradedrings import cli, finring, grading, ideals, specdoc, transport, verifier
from gradedrings.errors import GradedRingError, MalformedSpec
from gradedrings.finring import Cyclic, FinRing, GaussMod, PolyQuotient, build_ring
from gradedrings.grading import attach_grading, trivial_grading
from gradedrings.ideals import proper_graded_ideals, validate_ideal
from gradedrings.transport import (
    enumerate_multiplicative_sets,
    hom_build,
    identity_subring,
    localize,
    product,
    quotient,
)
from gradedrings.verifier import _cor_2_7, run_suite

POLY_SPECS = [
    PolyQuotient(Cyclic(p), modulus)
    for p, modulus in (
        (2, (1, 1)), (7, (3, 1)), (2, (0, 1)), (2, (0, 0, 1)), (2, (1, 0, 1)), (2, (1, 1, 1)),
        (3, (2, 0, 1)), (5, (4, 0, 1)), (3, (1, 2, 0, 1)), (5, (2, 3, 1)),
        (2, (1, 1, 0, 0, 0, 0, 1)), (2, (0,) * 7 + (1,)), (11, (10, 0, 1)),
        # composite bases: Z/6, a chain ring over Z/8, GR(4,2), GR(9,2), Z/4[u]/(u^3+2)
        (6, (5, 1)), (8, (6, 0, 1)), (4, (1, 1, 1)), (9, (1, 0, 1)), (4, (2, 0, 0, 1)),
    )
]
SPECS = [Cyclic(n) for n in range(2, 65)] + [GaussMod(n) for n in (2, 3, 4, 5, 6, 9, 11)]
SPECS += POLY_SPECS
Z256 = str(Path(__file__).resolve().parent.parent / "specs" / "cyclic256.json")

LAWS = (
    "additive identity", "multiplicative identity", "addition not commutative",
    "multiplication not commutative", "addition not associative",
    "multiplication not associative", "distributivity",
)


def rows(ring):
    return [list(r) for r in ring.add_rows], [list(r) for r in ring.mul_rows]


def outcome(check, *args):
    """None when `check` passes, else the error's class, message and witness."""
    try:
        check(*args)
    except GradedRingError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "witness", None)
    return None


def assert_axioms_agree(ring):
    expected = outcome(oracles.check_axioms, ring)
    assert outcome(ring.check_axioms) == expected, ring
    return expected


def callers_ring(ring, add, mul, cls=FinRing):
    """`cls` on a caller's tables, with `ring`'s zero, one and names."""
    names = [ring.name(v) for v in ring.elements()]
    return cls(ring.size, add, mul, one=ring.one, zero=ring.zero, names=names)


def assert_constructor_agrees(ring, add, mul):
    """FinRing(...) on the tables fails as the oracle's scan of them does,
    which reads them from a `_BuiltRing`, built without any check."""
    expected = outcome(oracles.check_axioms, callers_ring(ring, add, mul, finring._BuiltRing))
    assert outcome(callers_ring, ring, add, mul) == expected, ring
    return expected


def assert_grading_validates(gr):
    """The constructions skip `attach_grading`; it accepts their gradings
    with the same components, and the oracle's table of sums reaches every
    element once."""
    checked = attach_grading(gr.ring, gr.group, gr.components)
    assert checked.components == gr.components, gr
    table = oracles.decomposition(gr.ring, gr.components)
    assert table is not None and None not in table, gr


def derived_rings(gr):
    """(graded ring, canonical map, oracle rows) for the quotient by every
    proper graded ideal, every localization and the identity subring of gr."""
    for k in proper_graded_ideals(gr):
        yield *quotient(gr, k), oracles.quotient_tables(gr, k)
    for s in enumerate_multiplicative_sets(gr):
        yield *localize(gr, s), oracles.localize_tables(gr, s)
    yield *identity_subring(gr), oracles.identity_subring_tables(gr)


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_constructor_rows_match_oracle(spec):
    ring = build_ring(spec)
    assert rows(ring) == oracles.spec_tables(spec)
    assert (ring.label, [ring.name(x) for x in ring.elements()]) == oracles.spec_names(spec)
    assert_axioms_agree(ring)


@pytest.mark.parametrize("n", [97, 121, 128, 210, 243, 256, 257, 360, 512])
def test_large_cyclic_rows_match_oracle(n):
    # primes, prime powers, odd and even n: rows built by composition and
    # reflection about n/2; the axiom oracle is too slow at these sizes
    ring = build_ring(Cyclic(n))
    assert rows(ring) == oracles.spec_tables(Cyclic(n))
    assert (ring.label, [ring.name(x) for x in ring.elements()]) == oracles.spec_names(Cyclic(n))


def test_corpus_and_derived_rows_match_oracle(corpus):
    other_products = [
        (trivial_grading(build_ring(Cyclic(3))), trivial_grading(build_ring(Cyclic(5)))),
        (
            z2_graded(GaussMod(2), "Z/2[i]/Z2"),
            z2_graded(PolyQuotient(Cyclic(3), (2, 0, 1)), "F3[u]/(u^2-1)/Z2"),
        ),
    ]
    for left, right in other_products:
        prod = product(left, right)
        assert rows(prod.ring) == oracles.product_tables(left, right)
        assert_grading_validates(prod)
    for entry in corpus:
        if entry.parents:
            assert rows(entry.gr.ring) == oracles.product_tables(*entry.parents)
        assert_axioms_agree(entry.gr.ring)
        assert_grading_validates(entry.gr)
        for dgr, canonical, expected in derived_rings(entry.gr):
            assert rows(dgr.ring) == expected, dgr
            assert_axioms_agree(dgr.ring)
            assert_grading_validates(dgr)
            checked = hom_build(canonical.source, canonical.target, canonical.mapping)
            assert checked.kernel == canonical.kernel, dgr


def test_run_suite_validates_only_its_own_definitions(monkeypatch):
    # the corpus's Z2 gradings are its definitions; what transport builds from
    # them, and every spec ring, is valid by construction and not checked again
    calls = []

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls.append((name, sys._getframe(1).f_code.co_name))
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(transport, "hom_build", counting("hom_build", transport.hom_build))
    monkeypatch.setattr(FinRing, "check_axioms", counting("check_axioms", FinRing.check_axioms))
    attach = counting("attach_grading", grading.attach_grading)
    for module in (grading, specdoc, transport, verifier):  # every binding of the name
        if hasattr(module, "attach_grading"):
            monkeypatch.setattr(module, "attach_grading", attach)
    run_suite()
    assert calls == [("attach_grading", "parse_spec")] * 6


def test_only_a_callers_rows_are_checked(monkeypatch):
    # the library's builders make rings; FinRing(...) checks a caller's rows
    # and their axioms, once
    checked = []
    check_rows, check_axioms = finring._check_rows, FinRing.check_axioms

    def counting(size, rows, what):
        checked.append(what)
        return check_rows(size, rows, what)

    def counting_axioms(ring):
        checked.append("axioms")
        return check_axioms(ring)

    monkeypatch.setattr(finring, "_check_rows", counting)
    monkeypatch.setattr(FinRing, "check_axioms", counting_axioms)
    run_suite()
    assert cli.main(["ring", "describe", Z256]) == 0
    assert cli.main(["ideal", "classify", Z256, "--ideal", "2"]) == 0
    _cor_2_7(2, 64)
    assert checked == []
    FinRing(3, ADD3, MUL3, one=1)
    assert checked == ["addition", "multiplication", "axioms"]
    FinRing(3, ADD3, MUL3, one=1)
    assert checked == ["addition", "multiplication", "axioms"] * 2


def test_library_rings_are_fin_rings(corpus):
    gr = next(entry.gr for entry in corpus if entry.label == "Z/2[i] x Z/2[i]")
    built = [gr.ring, build_ring(Cyclic(256)), quotient(gr, proper_graded_ideals(gr)[1])[0].ring]
    built += [localize(gr, enumerate_multiplicative_sets(gr)[-1])[0].ring]
    built += [identity_subring(gr)[0].ring]
    for ring in built:
        add, mul = rows(ring)
        again = FinRing(ring.size, add, mul, one=ring.one, zero=ring.zero, label=ring.label)
        assert isinstance(ring, FinRing) and repr(ring) == repr(again), ring


def test_run_suite_never_validates_a_lattice_member(monkeypatch):
    # a lattice's members are sums of Ra, a homogeneous: graded ideals by
    # construction, recorded as such when the lattice is built.  A set checked
    # before its ring's lattice exists, such as the ideal a quotient is taken
    # by, is checked at the boundary, not again
    lattices: dict[FinRing, set] = {}  # ring -> the members of its lattices built so far
    revalidated = []
    enumerate_graded_ideals, validate = ideals.enumerate_graded_ideals, ideals.validate_ideal

    def enumerating(gr):
        lattice = enumerate_graded_ideals(gr)
        lattices.setdefault(gr.ring, set()).update(i.elements for i in lattice)
        return lattice

    def validating(ring, elements):
        if elements in lattices.get(ring, ()):
            revalidated.append(elements)
        return validate(ring, elements)

    for module in (ideals, verifier):  # every binding of the name
        monkeypatch.setattr(module, "enumerate_graded_ideals", enumerating)
    monkeypatch.setattr(ideals, "validate_ideal", validating)
    run_suite()
    assert lattices and not revalidated


@settings(max_examples=40, deadline=None, derandomize=True)
@given(drawn=graded_specs())
def test_generated_rings_match_oracle(drawn):
    spec, _ = drawn
    gr = graded_ring(*drawn)
    assert rows(gr.ring) == oracles.spec_tables(spec)
    assert_axioms_agree(gr.ring)
    assert rows(identity_subring(gr)[0].ring) == oracles.identity_subring_tables(gr)


def mutants(ring):
    """Single-cell mutants aimed at each ring law.  Every addition row keeps
    its 0, so each mutant is a well-formed table."""
    z, o = ring.zero, ring.one
    add, mul = ring.add_rows, ring.mul_rows
    others = [x for x in ring.elements() if x not in (z, o)]
    x = next(v for v in others if add[v][v] != z)  # some v with v + v != 0
    y = next(v for v in others if v != x and add[x][v] != z)

    def bump(v):
        return add[v][o]  # v + 1

    yield "add", x, y, bump(add[x][y])  # commutativity of +
    yield "mul", x, y, bump(mul[x][y])  # commutativity of *
    yield "add", x, z, bump(x)  # additive identity
    yield "mul", x, o, bump(x)  # multiplicative identity
    yield "add", x, x, bump(add[x][x])  # associativity of +
    # associativity of *: with s = v*v, (v*v)*s reads the mutated s*s, v*(v*s) does not
    s = next(mul[v][v] for v in others if mul[v][v] not in (z, o, v))
    yield "mul", s, s, bump(mul[s][s])
    yield "mul", z, z, o  # distributivity: 0*(0+0) = 1 but 0*0 + 0*0 = 1+1


def mutate(ring, table, i, j, value):
    """The tables of `ring` with cell (i, j) of one of them set to `value`."""
    add, mul = rows(ring)
    (add if table == "add" else mul)[i][j] = value
    return add, mul


# odd characteristic, so that some v + v != 0 (see `mutants`)
SMALL_MUTANT_SPECS = [
    Cyclic(12), Cyclic(36), GaussMod(3), GaussMod(6), PolyQuotient(Cyclic(3), (0, 0, 0, 1)),
]
LARGE_MUTANT_SPECS = [Cyclic(64), GaussMod(7), PolyQuotient(Cyclic(7), (4, 0, 1))]


@pytest.mark.parametrize("spec", SMALL_MUTANT_SPECS + LARGE_MUTANT_SPECS, ids=str)
def test_axiom_check_matches_oracle_on_mutants(spec):
    ring = build_ring(spec)
    assert assert_axioms_agree(ring) is None
    compared = [assert_constructor_agrees(ring, *mutate(ring, *mutant)) for mutant in mutants(ring)]
    assert len(compared) == 7 and None not in compared


def symmetric_mutants(ring):
    """The tables that set cells (i, j) and (j, i) of one table to another
    value and in which every element has an additive inverse (a table
    without one has its own test).  Both tables stay commutative, so the
    check reaches the three-variable laws."""
    for table in (0, 1):
        for i in ring.elements():
            for j in range(i, ring.size):
                for value in ring.elements():
                    tables = rows(ring)
                    if tables[table][i][j] == value:
                        continue
                    tables[table][i][j] = tables[table][j][i] = value
                    if all(ring.zero in row for row in tables[0]):
                        yield tables


def twisted_mutants(ring):
    """The multiplication with x*y moved by w wherever digit k of both x and
    y is 1, for each k >= 1 and w != 0; the constructors number x by its
    digits in base m, the additive order of 1.  Adding 1 keeps every digit
    k >= 1, so each law holds along 1 and can fail only along another
    additive generator, while every single-cell mutant fails along 1."""
    add, mul = rows(ring)
    m, x = 1, ring.one
    while x != ring.zero:
        m, x = m + 1, add[x][ring.one]
    k = m
    while k < ring.size:
        for w in ring.elements():
            if w != ring.zero:
                twisted = [
                    [add[xy][w] if x // k % m == 1 == y // k % m else xy for y, xy in enumerate(row)]
                    for x, row in enumerate(mul)
                ]
                yield add, twisted
        k *= m


# F3[u]/(u^2), Z/3[i] and F2[u]/(u^3) have non-cyclic additive groups,
# so the axiom check tests the laws on more than one additive generator;
# each spec's count of symmetric and twisted tables, so that none is skipped
SYMMETRIC_MUTANT_COUNTS = {
    Cyclic(6): 190, GaussMod(3): 688, PolyQuotient(Cyclic(3), (0, 0, 1)): 688,
    PolyQuotient(Cyclic(2), (0, 0, 0, 1)): 462,
}


@pytest.mark.parametrize("spec", SYMMETRIC_MUTANT_COUNTS, ids=str)
def test_axiom_check_matches_oracle_on_symmetric_mutants(spec):
    ring = build_ring(spec)
    tables = [*symmetric_mutants(ring), *twisted_mutants(ring)]
    assert len(tables) == SYMMETRIC_MUTANT_COUNTS[spec]
    for add, mul in tables:
        assert_constructor_agrees(ring, add, mul)


def test_small_mutants_hit_every_law():
    # the full scan (n <= 40) names each law on some mutant
    seen = set()
    for spec in SMALL_MUTANT_SPECS:
        ring = build_ring(spec)
        for mutant in mutants(ring):
            unchecked = callers_ring(ring, *mutate(ring, *mutant), finring._BuiltRing)
            kind, message, _ = outcome(oracles.check_axioms, unchecked)
            assert kind == "MalformedSpec"
            seen.update(law for law in LAWS if message.startswith(law))
    assert seen == set(LAWS)


def test_hom_build_matches_oracle_on_corrupted_maps(corpus):
    for entry in corpus:
        gr = entry.gr
        if gr.ring.size > 36:
            continue
        sub, inclusion = identity_subring(gr)
        maps = [(sub, gr, inclusion.mapping)]
        for k in proper_graded_ideals(gr)[1:4]:
            qgr, projection = quotient(gr, k)
            maps.append((gr, qgr, projection.mapping))
        for source, target, f in maps:
            assert outcome(hom_build, source, target, f) is None
            one = target.ring.one
            minus_one = target.ring.add_rows[one].index(target.ring.zero)
            for x in source.ring.elements():
                for shift in (one, minus_one):
                    bad = list(f)
                    bad[x] = target.ring.add_rows[f[x]][shift]
                    expected = outcome(oracles.hom_check, source, target, bad)
                    assert outcome(hom_build, source, target, bad) == expected, (source, x)


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_hom_build_matches_oracle_on_additive_maps(n):
    # a + b*i -> a + b*w is additive and keeps 1; it is multiplicative iff
    # w^2 = -1, and graded iff moreover w lies in degree 1
    gr = z2_graded(GaussMod(n), f"Z/{n}[i]/Z2")
    ring = gr.ring
    seen = set()
    for w in ring.elements():
        f = [ring.add_rows[x % n][ring.mul_rows[x // n][w]] for x in ring.elements()]
        expected = outcome(oracles.hom_check, gr, gr, f)
        assert outcome(hom_build, gr, gr, f) == expected, w
        seen.add(expected and expected[0])
    assert {None, "NotMultiplicativeMap"} <= seen


def test_validate_ideal_matches_oracle_on_corrupted_sets(corpus):
    for entry in corpus:
        ring = entry.gr.ring
        if ring.size > 36:
            continue
        for ideal in proper_graded_ideals(entry.gr)[:4]:
            for x in ring.elements():
                corrupted = ideal.elements ^ {x}
                expected = outcome(oracles.validate_ideal, ring, corrupted)
                assert outcome(validate_ideal, ring, corrupted) == expected, (ring, ideal, x)


ADD3 = [[(i + j) % 3 for j in range(3)] for i in range(3)]
MUL3 = [[i * j % 3 for j in range(3)] for i in range(3)]


@pytest.mark.parametrize(
    "add_rows",
    [
        ADD3[:2],
        [ADD3[0], ADD3[1], ADD3[2][:2]],
        [tuple(row) for row in ADD3],
        "012",
        [[0, 1, 2], [1, 2, 3], [2, 0, 1]],
        [[0, 1, 2], [1, 2, -3], [2, 0, 1]],
        [[0, 1, 2], [1, 2, 0.0], [2, 0, 1]],
        [[0, 1, 2], [1, 2, "0"], [2, 0, 1]],
        [[0, 1, 2], [1, 2, False], [2, 0, 1]],
    ],
    ids=[
        "two-rows", "short-row", "tuples", "string", "out-of-range", "negative", "float",
        "str-entry", "bool",
    ],
)
def test_malformed_rows_rejected(add_rows):
    with pytest.raises(MalformedSpec, match="addition table"):
        FinRing(3, add_rows, MUL3, one=1)
    with pytest.raises(MalformedSpec, match="multiplication table"):
        FinRing(3, ADD3, add_rows, one=1)


@pytest.mark.parametrize("zero, one", [(0, 3), (-1, 1), (0, 1.0), (0, True)])
def test_identities_outside_the_carrier_rejected(zero, one):
    with pytest.raises(MalformedSpec, match="not in range"):
        FinRing(3, ADD3, MUL3, zero=zero, one=one)


@pytest.mark.parametrize(
    "index_of",
    [[0, 1, 0, -1], [0, 1, 0, 2], [0, 1, 0, 1.0], (0, 1, 0, 2), [0, 1, 0, True]],
    ids=["negative", "size", "float", "tuple-size", "bool"],
)
def test_induced_ring_rejects_a_renumbering_out_of_range(index_of):
    # Z/4 onto {0, 1} by x -> x mod 2: a value outside range(2) would reach the rows
    z4 = build_ring(Cyclic(4))
    with pytest.raises(MalformedSpec, match=r"not an int in range\(2\)"):
        finring.induced_ring(z4, [0, 1], index_of, label="Z/4/(2)", names=["[0]", "[1]"])
