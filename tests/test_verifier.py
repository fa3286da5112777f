from __future__ import annotations

import json

import pytest

from gradedrings import verifier
from gradedrings.errors import ShapeMismatch
from gradedrings.finring import Cyclic, build_ring
from gradedrings.grading import trivial_grading
from gradedrings.ideals import ideal_generated
from gradedrings.transport import MultiplicativeSet, localize, product, quotient
from gradedrings.verifier import (
    ALL_STATEMENTS,
    CorpusEntry,
    _is_prime_power,
    default_corpus,
    parse_corpus,
    run_suite,
    search_counterexample,
    verify,
)


def triv(n):
    return trivial_grading(build_ring(Cyclic(n)), label=f"Z/{n}")


def one_ring(n):
    return [CorpusEntry(f"Z/{n}", triv(n))]


def test_default_corpus_shape(corpus):
    labels = [e.label for e in corpus]
    assert len(labels) == len(set(labels))
    products = {e.label: e.parents for e in corpus if e.parents}
    assert sorted(products) == ["Z/2[i] x Z/2[i]", "Z/4 x Z/9"]
    assert all(len(parents) == 2 for parents in products.values())
    assert {"Z/4[i]/2R", "Z/12 / 4R", "Localize(Z/12,{1,3,9})"} <= set(labels)


def test_suite_has_no_failures(corpus):
    reports = run_suite(corpus=corpus, n_range=(2, 32))
    assert reports
    assert all(r.outcome in {"PASS", "FAIL", "VACUOUS"} for r in reports)
    failures = [r for r in reports if r.outcome == "FAIL"]
    assert failures == [], [r.format_text() for r in failures]


def test_thm_2_6_on_z6():
    # Z/6: not graded local and Grad({0}) = {0} is not prime, so no
    # graded strongly 1-absorbing primary ideal may exist
    (report,) = verify("THM_2_6", corpus=one_ring(6))
    assert report.outcome == "PASS"
    assert report.counters.get("existence_instances", 0) == 0
    assert any("strongly ideal exists: False" in n for n in report.notes)


def test_thm_2_2_on_z9():
    (report,) = verify("THM_2_2", corpus=one_ring(9))
    assert report.outcome == "PASS"
    assert report.counters["strongly_instances"] >= 1


def test_cor_2_7_prime_power_table():
    (report,) = verify("COR_2_7", n_range=(2, 32))
    assert report.outcome == "PASS"
    expected = sum(1 for n in range(2, 33) if _is_prime_power(n))
    assert report.counters["existence_instances"] == expected
    assert report.counters["rings"] == 31


def test_is_prime_power_oracle():
    # independent sieve-style oracle
    def oracle(n):
        for p in range(2, n + 1):
            if all(p % d for d in range(2, p)):
                m = n
                while m % p == 0:
                    m //= p
                if m == 1:
                    return True
        return False

    for n in range(2, 128):
        assert _is_prime_power(n) == oracle(n), n


def test_cor_2_8_products_only(corpus):
    reports = verify("COR_2_8", corpus=corpus)
    assert len(reports) == sum(1 for e in corpus if e.parents)
    assert all(r.outcome == "PASS" for r in reports)


def test_cor_2_8_on_a_corpus_without_products_is_one_vacuous_report():
    (report,) = verify("COR_2_8", corpus=one_ring(9))
    assert (report.subject, report.outcome) == ("corpus", "VACUOUS")
    assert report.notes == ["no entry of the corpus is a product"]


def test_parse_corpus_builds_each_construction_from_earlier_entries():
    cyclic = [{"label": f"Z/{n}", "ring": {"kind": "cyclic", "n": n}} for n in (4, 9, 12)]
    corpus = parse_corpus([
        *cyclic,
        {"kind": "product", "of": ["Z/4", "Z/9"]},
        {"label": "Z/12 / 4R", "kind": "quotient", "of": "Z/12", "by": ["4"]},
        {"kind": "localize", "of": "Z/12", "at": ["3", "9"]},
    ])
    assert [e.label for e in corpus] == [
        "Z/4", "Z/9", "Z/12", "corpus[3]", "Z/12 / 4R", "corpus[5]",
    ]
    c4, c9, c12 = (e.gr for e in corpus[:3])
    assert corpus[3].parents == (c4, c9) and corpus[3].parents[0] is c4
    assert [e.parents for e in corpus if e is not corpus[3]] == [()] * 5
    z12 = triv(12)
    expected = [
        product(triv(4), triv(9)),
        quotient(z12, ideal_generated(z12.ring, (4,)))[0],
        localize(z12, MultiplicativeSet.create(z12, {3, 9}))[0],
    ]
    for entry, gr in zip(corpus[3:], expected):
        built = entry.gr
        assert built.ring.label == gr.ring.label, entry.label
        assert built.ring.add_rows == gr.ring.add_rows and built.ring.mul_rows == gr.ring.mul_rows
        assert built.components == gr.components


def test_unknown_statement_rejected(monkeypatch):
    # rejected before the default corpus is built
    monkeypatch.setattr(verifier, "default_corpus", lambda: pytest.fail("corpus built"))
    with pytest.raises(ShapeMismatch):
        verify("THM_9_9")


def test_reports_name_the_registry_id_and_the_entry_label():
    # the ring's own label differs from the entry's, which the reports name
    corpus = [CorpusEntry("custom", triv(9))]
    for sid in verifier.RING_STATEMENTS:
        (report,) = verify(sid, corpus=corpus)
        assert (report.statement_id, report.subject) == (sid, "custom")


def test_prop_3_4_reduction_labels_derived_claims():
    (report,) = verify("PROP_3_4_REDUCTION", corpus=one_ring(9))
    assert report.outcome == "PASS"
    assert any("NOT independently verified" in n for n in report.notes)


def test_reports_are_deterministic(corpus):
    a = [r.to_dict() for r in run_suite(corpus=corpus, n_range=(2, 16))]
    b = [r.to_dict() for r in run_suite(corpus=default_corpus(), n_range=(2, 16))]
    assert json.dumps(a, sort_keys=True, default=str) == json.dumps(
        b, sort_keys=True, default=str
    )


def test_all_statements_registered():
    assert "THM_2_2" in ALL_STATEMENTS
    assert "COR_2_7" in ALL_STATEMENTS
    assert len(ALL_STATEMENTS) == len(set(ALL_STATEMENTS)) == 20


def test_search_separating_examples(corpus):
    # a graded prime that is not graded strongly 1-absorbing primary
    hits = search_counterexample(
        corpus, "graded_prime", "graded_strongly_1abs_primary"
    )
    by_ring = {h["ring"]: h for h in hits}
    z6 = by_ring["Z/6"]
    assert sorted(z6["ideal"]) in (["0", "2", "4"], ["0", "3"])
    three_r = next(h for h in hits if h["ring"] == "Z/6" and h["ideal"] == ["0", "3"])
    assert three_r["witness"] == ["2", "2", "3"]
    # 2-absorbing primary but not 1-absorbing primary
    hits = search_counterexample(corpus, "graded_2abs_primary", "graded_1abs_primary")
    z36 = next(
        h for h in hits if h["ring"] == "Z/36" and h["ideal"] == ["0", "12", "24"]
    )
    assert z36["witness"] == ["2", "2", "3"]
    # nothing separates strongly from 1-absorbing in the wrong direction
    assert (
        search_counterexample(corpus, "graded_strongly_1abs_primary", "graded_1abs_primary")
        == []
    )


def test_verify_single_target_matches_corpus_entry(corpus):
    entry = next(e for e in corpus if e.label == "Z/9")
    (solo,) = verify("THM_2_2", corpus=[entry])
    from_corpus = next(
        r for r in verify("THM_2_2", corpus=corpus) if r.subject == "Z/9"
    )
    assert solo.to_dict() == from_corpus.to_dict()


def test_transport_statements_do_not_depend_on_order():
    # PROP_3_1, COR_3_2 and COR_RE report from one memoized check per ring,
    # so none may depend on which of them fills it: each order on a fresh corpus
    ids = [sid for sid in ALL_STATEMENTS if sid in ("PROP_3_1", "COR_3_2", "COR_RE")]

    def by_statement(order):
        reports = run_suite(order, corpus=default_corpus())
        return {sid: [r.to_dict() for r in reports if r.statement_id == sid] for sid in ids}

    expected = by_statement(ids)
    assert by_statement(ids[::-1]) == expected
    for sid in ids:
        alone = [verify(sid, corpus=[entry])[0].to_dict() for entry in default_corpus()]
        assert alone == expected[sid], sid


def test_prop_3_3_localizes_once_per_kernel(monkeypatch):
    # 59 multiplicative sets of the default corpus miss a strongly ideal, and
    # they have 15 kernels K_S: one localization each
    calls = {"localize": 0, "localization_kernel": 0}
    for name in calls:
        def counted(gr, s, name=name, real=getattr(verifier, name)):
            calls[name] += 1
            return real(gr, s)

        monkeypatch.setattr(verifier, name, counted)
    reports = verify("PROP_3_3", corpus=default_corpus())
    assert calls == {"localize": 15, "localization_kernel": 59}
    assert sum(r.counters.get("instances", 0) for r in reports) == 123
    outcomes = [r.outcome for r in reports]
    assert (outcomes.count("PASS"), outcomes.count("VACUOUS")) == (15, 5)


def test_prop_2_9_runs_on_a_ring_with_127_proper_ideals():
    # (Z/2)^7, a product nested six deep, has 2^7 - 1 proper graded ideals
    document = [{"label": "(Z/2)^1", "ring": {"kind": "cyclic", "n": 2}}] + [
        {"label": f"(Z/2)^{k}", "kind": "product", "of": [f"(Z/2)^{k - 1}", "(Z/2)^1"]}
        for k in range(2, 8)
    ]
    report = verify("PROP_2_9", corpus=parse_corpus(document))[-1]
    assert (report.subject, report.outcome, report.counters) == ("(Z/2)^7", "PASS", {"ideals": 127})
    assert report.notes == []
