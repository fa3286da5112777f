from __future__ import annotations

import re
from pathlib import Path

import oracles
import pytest
from hypothesis import given, settings

from gradedrings import classify, ideals, verifier
from gradedrings.classify import (
    RingProfile,
    classify_ideal,
    is_graded_1abs_primary,
    is_graded_2abs_primary,
    is_graded_maximal,
    is_graded_primary,
    is_graded_prime,
    is_graded_strongly_1abs_primary,
    local_structure,
    ring_predicates,
    strongly_1abs_ideal_form,
)
from gradedrings.errors import NotGraded, NotProper, RingMismatch
from gradedrings.finring import Cyclic, GaussMod, PolyQuotient, build_ring
from gradedrings.grading import trivial_grading
from gradedrings.ideals import (
    IdealSet,
    graded_radical,
    ideal_generated,
    principal_graded_ideals,
    proper_graded_ideals,
    unit_ideal,
)
from gradedrings.specdoc import load_corpus
from gradedrings.transport import identity_subring, quotient
from strategies import graded_rings, z2_graded


def triv(n):
    return trivial_grading(build_ring(Cyclic(n)), label=f"Z/{n}")


def test_graded_prime():
    g6 = triv(6)
    assert is_graded_prime(g6, IdealSet(g6.ring, {0, 3})) == (True, None)
    g12 = triv(12)
    assert is_graded_prime(g12, IdealSet(g12.ring, {0, 4, 8})) == (False, (2, 2))
    with pytest.raises(NotProper):
        is_graded_prime(g12, unit_ideal(g12.ring))


def test_graded_primary():
    g12 = triv(12)
    assert is_graded_primary(g12, IdealSet(g12.ring, {0, 4, 8})) == (True, None)
    assert is_graded_primary(g12, IdealSet(g12.ring, {0, 6})) == (False, (2, 3))
    # every graded prime is graded primary
    g6 = triv(6)
    assert is_graded_primary(g6, IdealSet(g6.ring, {0, 3}))[0]


def test_graded_1abs_primary():
    g36 = triv(36)
    p = IdealSet(g36.ring, {0, 12, 24})
    assert is_graded_1abs_primary(g36, p) == (False, (2, 2, 3))
    # every graded primary ideal is 1-absorbing primary
    g12 = triv(12)
    q = IdealSet(g12.ring, {0, 4, 8})
    assert is_graded_1abs_primary(g12, q)[0]


def test_graded_2abs_primary():
    g36 = triv(36)
    p = IdealSet(g36.ring, {0, 12, 24})
    assert is_graded_2abs_primary(g36, p) == (True, None)


def test_strongly_examples():
    g9 = triv(9)
    assert is_graded_strongly_1abs_primary(g9, IdealSet(g9.ring, {0, 3, 6})) == (True, None)
    g6 = triv(6)
    assert is_graded_strongly_1abs_primary(g6, IdealSet(g6.ring, {0, 3})) == (
        False,
        (2, 2, 3),
    )


def test_strongly_ideal_form():
    g9 = triv(9)
    assert strongly_1abs_ideal_form(g9, IdealSet(g9.ring, {0, 3, 6})) == (True, None)
    g6 = triv(6)
    ok, witness = strongly_1abs_ideal_form(g6, IdealSet(g6.ring, {0, 3}))
    assert not ok
    i, j, k = witness
    assert i.elements == j.elements == {0, 2, 4}
    assert k.elements == {0, 3}


def test_graded_maximal():
    g9 = triv(9)
    # a tuple is always truthy, so each verdict is compared as a pair
    assert is_graded_maximal(g9, IdealSet(g9.ring, {0, 3, 6})) == (True, None)
    g12 = triv(12)
    assert is_graded_maximal(g12, IdealSet(g12.ring, {0, 4, 8})) == (False, None)
    gf = z2_graded(PolyQuotient(Cyclic(3), (2, 0, 1)), "F3[u]/(u^2-1)/Z2")
    assert is_graded_maximal(gf, IdealSet(gf.ring, {0})) == (True, None)


def test_local_structure():
    ls9 = local_structure(triv(9))
    assert ls9.is_graded_local
    assert ls9.the_maximal.elements == {0, 3, 6}
    ls6 = local_structure(triv(6))
    assert not ls6.is_graded_local
    assert {frozenset(m.elements) for m in ls6.graded_maximal_ideals} == {
        frozenset({0, 2, 4}),
        frozenset({0, 3}),
    }
    g4 = z2_graded(GaussMod(4), "Z/4[i]/Z2")
    ls = local_structure(g4)
    assert ls.is_graded_local
    two = g4.ring.parse("2")
    two_i = g4.ring.parse("2i")
    assert ls.the_maximal.elements == {
        g4.ring.add_rows[g4.ring.mul_rows[a][two]][g4.ring.mul_rows[b][two_i]]
        for a in g4.ring.elements()
        for b in g4.ring.elements()
    }


def test_ring_predicates():
    gf = z2_graded(PolyQuotient(Cyclic(3), (2, 0, 1)), "F3[u]/(u^2-1)/Z2")
    profile = ring_predicates(gf)
    assert profile.graded_field
    # the underlying ring is not a field: it has zero divisors
    ring = gf.ring
    assert ring.mul_rows[ring.parse("1+u")][ring.parse("1-u")] == ring.zero
    p9 = ring_predicates(triv(9))
    assert p9.every_homogeneous_nilpotent_or_unit
    p6 = ring_predicates(triv(6))
    assert not (p6.graded_field or p6.graded_domain or p6.every_homogeneous_nilpotent_or_unit)


def test_ring_predicates_match_their_definitions(corpus):
    # read off (0) and Grad({0}) by the kernels, against the definitions
    # scanned pair by pair, on rings where each flag is true and false
    rings = [e.gr for e in corpus]
    for gr in list(rings):
        rings += [quotient(gr, k)[0] for k in proper_graded_ideals(gr) if len(k) > 1]
        rings.append(identity_subring(gr)[0])
    rings += [triv(n) for n in range(2, 129)]
    rings += [z2_graded(spec, f"{spec}/Z2") for spec in Z2_EXIT_SPECS]
    flags = {name: set() for name in RingProfile.__slots__}
    for gr in rings:
        profile = ring_predicates(gr).to_dict()
        assert profile == oracles.ring_profile(gr), gr.label
        for name, value in profile.items():
            flags[name].add(value)
    assert all(values == {True, False} for values in flags.values())


def test_classify_ideal_checks_its_ideal_through_the_kernels():
    g6 = triv(6)
    with pytest.raises(NotProper, match="operation requires a proper ideal"):
        classify_ideal(g6, unit_ideal(g6.ring))
    g2 = z2_graded(GaussMod(2), "Z/2[i]/Z2")
    with pytest.raises(NotGraded, match="ideal not graded; witness 1\\+i"):
        classify_ideal(g2, ideal_generated(g2.ring, [g2.ring.parse("1+i")]))


def test_classify_reports():
    g9 = triv(9)
    report = classify_ideal(g9, IdealSet(g9.ring, {0, 3, 6}))
    assert all(
        report.flags[f]
        for f in (
            "graded_prime",
            "graded_primary",
            "graded_1abs_primary",
            "graded_2abs_primary",
            "graded_strongly_1abs_primary",
        )
    )
    g6 = triv(6)
    report = classify_ideal(g6, IdealSet(g6.ring, {0, 3}))
    assert report.flags["graded_prime"]
    assert report.flags["graded_primary"]
    assert report.flags["graded_1abs_primary"]
    assert not report.flags["graded_strongly_1abs_primary"]
    assert report.witnesses["graded_strongly_1abs_primary"] == (2, 2, 3)
    g36 = triv(36)
    report = classify_ideal(g36, IdealSet(g36.ring, {0, 12, 24}))
    assert report.flags["graded_2abs_primary"]
    assert not report.flags["graded_1abs_primary"]


def count_masks(monkeypatch):
    """A list that grows by (ring rows, set, w) for every colon mask (T : w)
    built, whichever kernel or `colon` reads it first."""
    built = []
    missing = ideals.ColonMasks.__missing__

    def counting(table, w):
        built.append((id(table._rows), "".join(table._digits), w))
        return missing(table, w)

    monkeypatch.setattr(ideals.ColonMasks, "__missing__", counting)
    return built


@pytest.mark.parametrize(("generator", "most"), [(2, 9), (16, 11)])
def test_classify_builds_few_masks_on_a_local_ring(monkeypatch, generator, most):
    # every homogeneous element of Z/1024 is nilpotent or a unit, so no y
    # outside the escape and no kept z remain; the full scan built 1545 and
    # 2059 masks
    gr = triv(1024)
    p = ideal_generated(gr.ring, (generator,))
    built = count_masks(monkeypatch)
    classify_ideal(gr, p)
    assert len(built) <= most


@pytest.mark.parametrize("generator", [2, 16])
def test_kernels_scan_in_full_on_a_non_local_ring(monkeypatch, generator):
    # Z/720 has homogeneous elements neither nilpotent nor units: no early
    # exit fires and a passing ideal reads the masks of the full scan over
    # the class representatives, the divisors d < 720 of 720 and 0, each
    # (T : w) built once per ring and set T, whichever kernel reads it first;
    # the nonunits' mask is no colon mask, but built with the representatives
    primary, one_abs = {2: (6, 15), 16: (24, 49)}[generator]  # masks built
    gr = triv(720)
    ring, (reps, _) = gr.ring, classify._nonunit_classes(gr)
    assert reps == [0] + [d for d in range(2, 720) if 720 % d == 0]
    p = ideal_generated(ring, (generator,))
    built = count_masks(monkeypatch)
    assert is_graded_primary(gr, p)[0]
    outside = set(reps) - p.elements
    # (Grad(P) : 1), then a (P : x) per representative x outside P
    assert len(built) == 1 + len(outside) == primary
    assert is_graded_1abs_primary(gr, p)[0]
    products = {ring.mul_rows[x][y] for x in reps for y in reps} - p.elements
    # one (P : xy) per product outside P; Grad(P)'s mask is shared
    assert len(built) == len(set(built)) == 1 + len(outside | products) == one_abs
    for kernel in (is_graded_prime, is_graded_strongly_1abs_primary, is_graded_2abs_primary):
        kernel(gr, p)
    assert len(built) == len(set(built))


def test_implication_chain_on_corpus(corpus):
    for entry in corpus:
        gr = entry.gr
        for p in proper_graded_ideals(gr):
            strongly = is_graded_strongly_1abs_primary(gr, p)[0]
            one_abs = is_graded_1abs_primary(gr, p)[0]
            two_abs = is_graded_2abs_primary(gr, p)[0]
            primary = is_graded_primary(gr, p)[0]
            if strongly:
                assert one_abs, (entry.label, p)
            if one_abs:
                assert two_abs, (entry.label, p)
            if primary:
                assert one_abs, (entry.label, p)


def test_ideal_form_agrees_on_corpus(corpus):
    for entry in corpus:
        gr = entry.gr
        for p in proper_graded_ideals(gr):
            assert (
                strongly_1abs_ideal_form(gr, p)[0]
                == is_graded_strongly_1abs_primary(gr, p)[0]
            ), (entry.label, p)


def test_grad_prime_lemma_on_corpus(corpus):
    for entry in corpus:
        gr = entry.gr
        for p in proper_graded_ideals(gr):
            if is_graded_1abs_primary(gr, p)[0]:
                assert is_graded_prime(gr, graded_radical(gr, p))[0], (entry.label, p)


def test_intersection_of_strongly_is_strongly(corpus):
    for entry in corpus:
        gr = entry.gr
        strongly = [
            p
            for p in proper_graded_ideals(gr)
            if is_graded_strongly_1abs_primary(gr, p)[0]
        ]
        for p in strongly:
            for k in strongly:
                inter = IdealSet(gr.ring, p.elements & k.elements)
                assert is_graded_strongly_1abs_primary(gr, inter)[0], (entry.label, p, k)


def maximal_by_lattice(gr, m):
    """M is graded maximal: no proper graded ideal holds it strictly."""
    return not any(m.elements < other.elements for other in proper_graded_ideals(gr))


def test_maximality_agrees_with_lattice(small_corpus):
    # cross-check the coset criterion against direct lattice comparison
    for entry in small_corpus:
        gr = entry.gr
        for m in proper_graded_ideals(gr):
            assert is_graded_maximal(gr, m) == (maximal_by_lattice(gr, m), None), (entry.label, m)


class RowReads(list):
    """A table that counts the reads of the rows of `watched`."""

    def __init__(self, rows, watched):
        super().__init__(rows)
        self.watched, self.reads = watched, 0

    def __getitem__(self, i):
        self.reads += i in self.watched
        return super().__getitem__(i)


def test_maximality_reads_no_unit_row(monkeypatch):
    # a unit a gives Ra = R, so M + Ra = R holds without reading row a; all
    # 512 units of Z/1024 lie outside (2)
    gr = triv(1024)
    ring = gr.ring
    units = ring.units()
    principal_graded_ideals(gr)
    m = ideal_generated(ring, (2,))
    rows = RowReads(ring.mul_rows, units)
    monkeypatch.setattr(ring, "mul_rows", rows)
    assert is_graded_maximal(gr, m) == (True, None)
    unit_rows_read = rows.reads
    assert unit_rows_read == 0


# Beyond Z/2..64, rings of at most 81 elements where the kernels' early exits
# fire (every homogeneous element nilpotent or a unit) and where they do not.
EXIT_SPECS = [
    Cyclic(81), GaussMod(3), GaussMod(9),
    *(
        PolyQuotient(Cyclic(p), (0,) * k + (1,))  # F_p[u]/(u^k)
        for p, k in ((2, 3), (2, 6), (3, 2), (3, 4), (5, 2), (7, 2))
    ),
    GaussMod(5), Cyclic(72), Cyclic(80),  # not local
]
# F_p[u]/(u^2-1) graded by the parity of the power of u; p = 3, 5 are in the corpus
Z2_EXIT_SPECS = [PolyQuotient(Cyclic(p), (p - 1, 0, 1)) for p in (2, 7)]


# Z/210, products, a quotient, a localization, Z2-graded chain rings over
# composite bases and Galois rings, and (Z/m)[u]/(u^k) with non-principal
# graded ideals such as (2, u), as the shipped family documents build them
FAMILIES = ("family-three-maximal.json", "family-chain-rings.json", "family-nonprincipal.json")
SPECS = Path(__file__).resolve().parent.parent / "specs"
# left out for time, each measured over the ring's proper graded ideals:
# Z/210's 2-absorbing oracle scans 210^3 triples per ideal, 2.7 s over its
# 15; the trivially graded Z/16[u]/(u^2) (256 elements) takes 13.6 s in the
# 2-absorbing oracle, 1.3 s in the 1-absorbing and 1.0 s in the strongly
# one, and the trivially graded Z/25[u]/(u^2) (625 elements) 82 s in the
# 2-absorbing oracle
LEFT_OUT = {
    ("Z/210", "is_graded_2abs_primary"),
    ("Z/16[u]/(u^2)", "is_graded_2abs_primary"),
    ("Z/16[u]/(u^2)", "is_graded_1abs_primary"),
    ("Z/16[u]/(u^2)", "is_graded_strongly_1abs_primary"),
    ("Z/25[u]/(u^2)", "is_graded_2abs_primary"),
}


def test_kernels_match_definitional_oracles(corpus):
    cyclic = [trivial_grading(build_ring(Cyclic(n))) for n in range(2, 65)]
    rings = [e.gr for e in corpus] + cyclic
    rings += [trivial_grading(build_ring(spec)) for spec in EXIT_SPECS]
    rings += [z2_graded(spec, f"{spec}/Z2") for spec in Z2_EXIT_SPECS]
    rings += [e.gr for family in FAMILIES for e in load_corpus(SPECS / family)]
    for gr in rings:
        for p in proper_graded_ideals(gr):
            for name in (
                "is_graded_prime",
                "is_graded_primary",
                "is_graded_1abs_primary",
                "is_graded_strongly_1abs_primary",
                "is_graded_2abs_primary",
            ):
                if (gr.label, name) not in LEFT_OUT:
                    expected = getattr(oracles, name)(gr, p)
                    assert getattr(classify, name)(gr, p) == expected, (gr.label, p, name)
            assert is_graded_maximal(gr, p) == (maximal_by_lattice(gr, p), None), (gr.label, p)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(gr=graded_rings())
def test_kernels_match_oracles_on_generated_rings(gr):
    for p in proper_graded_ideals(gr):
        for name in ("is_graded_prime", "is_graded_primary", "is_graded_1abs_primary",
                     "is_graded_strongly_1abs_primary", "is_graded_2abs_primary"):
            expected = getattr(oracles, name)(gr, p)
            assert getattr(classify, name)(gr, p) == expected, (gr.label, p, name)


@pytest.mark.parametrize("flag", classify.FLAGS)
def test_a_kernel_checks_the_ring_after_a_memo_hit(flag):
    # two separately built Z/6: h's (3) has the elements of g's (3), which
    # the kernel has already classified, but belongs to another ring
    g, h = triv(6), triv(6)
    kernel = getattr(classify, f"is_{flag}")
    kernel(g, IdealSet(g.ring, {0, 3}))
    with pytest.raises(RingMismatch):
        kernel(g, IdealSet(h.ring, {0, 3}))


def test_unknown_flag_names_the_flags():
    g6 = triv(6)
    with pytest.raises(ValueError, match=re.escape(str(classify.FLAGS))):
        classify.flag_value(g6, IdealSet(g6.ring, {0, 3}), "graded_semiprime")


def test_a_rebound_kernel_is_seen_by_every_flag_reader(monkeypatch):
    # flag_value reads `is_<flag>` from classify on each call, so one
    # rebinding reaches classify_ideal and the counterexample search
    g6 = triv(6)
    monkeypatch.setattr(classify, "is_graded_prime", lambda gr, p: (False, (0, 0)))
    report = classify_ideal(g6, IdealSet(g6.ring, {0, 3}))
    assert (report.flags["graded_prime"], report.witnesses["graded_prime"]) == (False, (0, 0))
    found = verifier.search_counterexample(
        [verifier.CorpusEntry("Z/6", g6)], "graded_maximal", "graded_prime"
    )
    assert [(hit["ideal"], hit["witness"]) for hit in found] == [
        (["0", "3"], ["0", "0"]), (["0", "2", "4"], ["0", "0"])
    ]
