"""The replay's failure reports under wrong kernels.

Each mutant replaces one kernel by a wrong one, in `classify` and in
`verifier`, which imports the kernels by name.  `run_suite()` on a fresh
corpus must then report FAIL, and the FAIL reports (counts per statement
and a digest of their JSON, witnesses included) are pinned, so a change to
the statement bodies that alters a failure witness shows here.  PROP_3_3,
which checks one localization per kernel K_S, must report as the per-set
oracle does under the real kernels and under each of `MUTANTS`.

`MUTANTS` fail on the default corpus.  A grading-blind kernel is the real
one run on the same ring graded trivially, over the same element set.  The
default corpus cannot tell the grading-blind primary and 1-absorbing
kernels from the real ones; the chain-ring family
(`shipped.CHAIN_RINGS`) kills both, through LEMMA_2_18 and
THM_2_2 (`CHAIN_MUTANTS`).  Grading-blind 2-absorbing still passes: it
gives 0 FAIL on that family too, so whether it equals the graded kernel on
every finite graded ring is open.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter

import oracles
import pytest
import shipped

from gradedrings import classify, verifier
from gradedrings.classify import (
    is_graded_1abs_primary,
    is_graded_primary,
    is_graded_prime,
)
from gradedrings.finring import memo
from gradedrings.grading import trivial_grading
from gradedrings.ideals import graded_radical
from gradedrings.transport import enumerate_multiplicative_sets


def strongly_escaping_into_grad_p(gr, p):
    """The strongly kernel with Grad(P) in place of Grad({0}) as its escape."""
    return classify._triple_kernel(gr, p, "mutant strongly", lambda: graded_radical(gr, p).elements)


# both strongly mutants are the 1-absorbing kernel, so they fail alike
STRONGLY = (
    {
        "COR_2_4": 5, "COR_2_7": 1, "COR_2_8": 2, "PROP_2_9": 5, "PROP_2_10": 5,
        "PROP_2_12": 5, "PROP_2_14": 5, "THM_2_2": 5, "THM_2_6": 5,
    },
    "bd25fe30781074cb03b944feaf34c74727d948725dd62318f5cdcd6d89192566",
)

# name: (kernel name -> wrong kernel, FAIL reports per statement, sha256 of their JSON)
MUTANTS = {
    "strongly := 1-absorbing": (
        {"is_graded_strongly_1abs_primary": is_graded_1abs_primary},
        *STRONGLY,
    ),
    "strongly escaping into Grad(P)": (
        {"is_graded_strongly_1abs_primary": strongly_escaping_into_grad_p},
        *STRONGLY,
    ),
    "prime := primary": (
        {"is_graded_prime": is_graded_primary},
        {"COR_2_4": 10, "PROP_2_12": 3},
        "bff31eceb27ceb22f79853ef0a4f42c2e8114d1fa97cf37ac8b68f86445f7e45",
    ),
    "primary := prime": (
        {"is_graded_primary": is_graded_prime},
        {"LEMMA_2_18": 6},
        "20a9de34a96b6b33007373e6d2af4b3508de5f0a4ecfef71e9a1b0889fa4c235",
    ),
}


def grading_blind(kernel):
    """`kernel` on the ring with every element in degree e: the same ideal,
    read as an ideal of the ungraded ring."""
    def blind(gr, p):
        return kernel(memo(gr.ring, "trivially graded", lambda: trivial_grading(gr.ring)), p)

    return blind


NO_FAIL = hashlib.sha256(b"[]").hexdigest()

# the same over the chain-ring family: grading-blind primary fails LEMMA_2_18 on
# Z/25[u]/(u^2-1)/Z2 and Z/27[u]/(u^2-1)/Z2, grading-blind 1-absorbing THM_2_2 on the latter
CHAIN_MUTANTS = {
    "grading-blind primary": (
        {"is_graded_primary": grading_blind(is_graded_primary)},
        {"LEMMA_2_18": 2},
        "640e97816bf607698c74afe9b773142dd4702e03bc4653288369c7365d7a195c",
    ),
    "grading-blind 1-absorbing": (
        {"is_graded_1abs_primary": grading_blind(is_graded_1abs_primary)},
        {"THM_2_2": 1},
        "93979f9472508c020e59ebdc42caa38a38002ea47d2835641e5d519da1a0d71e",
    ),
}


def _rebind(monkeypatch, rebind):
    for attr, kernel in rebind.items():
        monkeypatch.setattr(classify, attr, kernel)
        monkeypatch.setattr(verifier, attr, kernel)


def _replay_fails(corpus, counts, digest):
    fails = [r for r in verifier.run_suite(corpus=corpus) if r.outcome == "FAIL"]
    assert Counter(r.statement_id for r in fails) == counts
    dump = json.dumps([r.to_dict() for r in fails], sort_keys=True)
    assert hashlib.sha256(dump.encode()).hexdigest() == digest


@pytest.mark.parametrize("name", MUTANTS)
def test_replay_fails_under_kernel_mutant(monkeypatch, name):
    rebind, counts, digest = MUTANTS[name]
    _rebind(monkeypatch, rebind)
    _replay_fails(verifier.default_corpus(), counts, digest)


@pytest.mark.parametrize("name", CHAIN_MUTANTS)
def test_chain_family_fails_under_grading_blind_kernel(monkeypatch, name):
    rebind, counts, digest = CHAIN_MUTANTS[name]
    _rebind(monkeypatch, rebind)
    _replay_fails(verifier.default_corpus(), {}, NO_FAIL)  # which lets it pass
    _replay_fails(shipped.corpus(shipped.CHAIN_RINGS), counts, digest)


CORPORA = {
    "default": verifier.default_corpus,
    "family": lambda: shipped.corpus(shipped.THREE_MAXIMAL),
}
_MULT_SETS: dict = {}  # (corpus, label) -> the entry's multiplicative sets, which no kernel changes


def strongly_failing_off_corpus(corpus):
    """The strongly kernel, but rejecting every ideal of an even-sized ring
    outside `corpus`, such as a localization, with the witness (0,)."""
    rings, real = {id(e.gr) for e in corpus}, classify.is_graded_strongly_1abs_primary

    def kernel(gr, p):
        if id(gr) not in rings and gr.ring.size % 2 == 0:
            return False, (gr.ring.zero,)
        return real(gr, p)

    return kernel


def _shape(report):
    """A report but for the names of kernel witnesses: those name elements of
    whichever localization at an S with the same K_S gave the verdict."""
    return (
        report.outcome, report.counters, report.notes,
        [{k: v for k, v in w.items() if k != "witness"} for w in report.witnesses],
    )


@pytest.mark.parametrize("corpus_name", CORPORA)
@pytest.mark.parametrize("name", [None, *MUTANTS, "strongly failing off the corpus"])
def test_prop_3_3_matches_the_per_set_oracle(monkeypatch, corpus_name, name):
    corpus = CORPORA[corpus_name]()
    if name in MUTANTS:
        _rebind(monkeypatch, MUTANTS[name][0])
    elif name is not None:
        _rebind(monkeypatch, {"is_graded_strongly_1abs_primary": strongly_failing_off_corpus(corpus)})
    label_of = {id(e.gr): e.label for e in corpus}

    def mult_sets(gr):
        key = (corpus_name, label_of[id(gr)])
        if key not in _MULT_SETS:
            _MULT_SETS[key] = enumerate_multiplicative_sets(gr)
        return _MULT_SETS[key]

    for module in (verifier, oracles):
        monkeypatch.setattr(module, "enumerate_multiplicative_sets", mult_sets)
    new = verifier.verify("PROP_3_3", corpus=corpus)
    old = [oracles.prop_3_3(verifier.VerificationReport("PROP_3_3", e.label), e.gr) for e in corpus]
    assert [_shape(r) for r in new] == [_shape(r) for r in old]
    if name == "strongly failing off the corpus":
        assert any(r.outcome == "FAIL" for r in new)
