from __future__ import annotations

import oracles
import pytest

from gradedrings import classify
from gradedrings.classify import (
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
from gradedrings.errors import NotProper
from gradedrings.finring import Cyclic, build_ring
from gradedrings.grading import trivial_grading
from gradedrings.ideals import IdealSet, proper_graded_ideals, unit_ideal
from gradedrings.classify import radical_of
from gradedrings.verifier import _gauss_graded, _graded_field


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
    assert is_graded_maximal(g9, IdealSet(g9.ring, {0, 3, 6}))
    g12 = triv(12)
    assert not is_graded_maximal(g12, IdealSet(g12.ring, {0, 4, 8}))
    gf = _graded_field(3)
    assert is_graded_maximal(gf, IdealSet(gf.ring, {0}))


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
    g4 = _gauss_graded(4)
    ls = local_structure(g4)
    assert ls.is_graded_local
    two = g4.ring.parse("2")
    two_i = g4.ring.parse("2i")
    assert ls.the_maximal.elements == {
        g4.ring.add(g4.ring.mul(a, two), g4.ring.mul(b, two_i))
        for a in g4.ring.elements()
        for b in g4.ring.elements()
    }


def test_ring_predicates():
    gf = _graded_field(3)
    profile = ring_predicates(gf)
    assert profile.graded_field
    # the underlying ring is not a field: it has zero divisors
    ring = gf.ring
    assert ring.mul(ring.parse("1+u"), ring.parse("1-u")) == ring.zero
    p9 = ring_predicates(triv(9))
    assert p9.every_homogeneous_nilpotent_or_unit
    p6 = ring_predicates(triv(6))
    assert not (p6.graded_field or p6.graded_domain or p6.every_homogeneous_nilpotent_or_unit)


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
        lattice = proper_graded_ideals(gr)
        if len(lattice) > 64:
            continue
        for p in lattice:
            assert (
                strongly_1abs_ideal_form(gr, p)[0]
                == is_graded_strongly_1abs_primary(gr, p)[0]
            ), (entry.label, p)


def test_grad_prime_lemma_on_corpus(corpus):
    for entry in corpus:
        gr = entry.gr
        for p in proper_graded_ideals(gr):
            if is_graded_1abs_primary(gr, p)[0]:
                assert is_graded_prime(gr, radical_of(gr, p))[0], (entry.label, p)


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


def test_maximality_agrees_with_lattice(small_corpus):
    # cross-check the coset criterion against direct lattice comparison
    for entry in small_corpus:
        gr = entry.gr
        lattice = proper_graded_ideals(gr)
        for m in lattice:
            by_lattice = not any(
                m.elements < other.elements for other in lattice
            )
            assert is_graded_maximal(gr, m) == by_lattice, (entry.label, m)


def test_kernels_match_definitional_oracles(corpus):
    cyclic = [trivial_grading(build_ring(Cyclic(n), check=False)) for n in range(2, 65)]
    rings = [e.gr for e in corpus] + cyclic
    for gr in rings:
        for p in proper_graded_ideals(gr):
            for name in (
                "is_graded_prime",
                "is_graded_primary",
                "is_graded_1abs_primary",
                "is_graded_strongly_1abs_primary",
                "is_graded_2abs_primary",
            ):
                expected = getattr(oracles, name)(gr, p)
                assert getattr(classify, name)(gr, p) == expected, (gr.label, p, name)
