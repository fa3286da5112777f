"""Ring build, axiom check, transport and CLI timings, before and after a change.

In process: `build_ring` (with whatever checks it runs in that checkout)
and `check_axioms()` on three rings, the corpus's quotients, localizations
and identity subrings (each construction over the whole corpus in one
sample), the corpus build and `run_suite`.  Every sample starts from fresh
state (rings, corpus, ideals), built without timing it.  Each row comes
twice: `[cold]` times the first call on that state, `[warm]` a second
call, after an untimed first one has filled the memos.  The COR_2_7 sweep
`_cor_2_7(2, N)` builds its own rings, so its rows are cold only, as are
the multiplicative-set search over the corpus and `trivial_grading` of
Z/1024, each on rings no earlier call has read.  Fresh process:
`python3 -m gradedrings.cli`, always cold.  `bench/harness.py` runs the
rows.  Standard library only.
"""

from __future__ import annotations

import os

from harness import fresh, main, timed

# the statements that check the quotient images and R_e preimages, in suite order
TRANSPORT_STATEMENTS = ("COR_3_2", "COR_RE", "PROP_3_1")
Z1024 = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "specs", "cyclic1024.json")
CLI_CASES = (  # (name, CLI arguments)
    ("verify all", ("verify", "all")),
    ("ring describe Z/1024", ("ring", "describe", Z1024)),
    ("ideal classify (16) Z/1024", ("ideal", "classify", Z1024, "--ideal", "16")),
    ("verify COR_2_7 --range 2..256", ("verify", "COR_2_7", "--range", "2..256")),
    ("verify COR_2_7 --range 2..512", ("verify", "COR_2_7", "--range", "2..512")),
)


def cold_and_warm(name: str, prepare) -> dict:
    """The rows `name [cold]` and `name [warm]` of the call `prepare()` returns."""
    def warmed():
        work = prepare()
        work()
        return work

    return {f"{name} [cold]": timed(prepare), f"{name} [warm]": timed(warmed)}


def rows() -> dict:
    from gradedrings.finring import Cyclic, PolyQuotient, build_ring
    from gradedrings.grading import trivial_grading
    from gradedrings.ideals import proper_graded_ideals
    from gradedrings.transport import enumerate_multiplicative_sets, identity_subring
    from gradedrings.transport import localize, quotient
    from gradedrings.verifier import ALL_STATEMENTS, _cor_2_7, default_corpus, run_suite

    def graded():
        return [entry.gr for entry in default_corpus()]

    def quotients():
        ideals = [(gr, k) for gr in graded() for k in proper_graded_ideals(gr)]
        return lambda: [quotient(gr, k) for gr, k in ideals]

    def localizations():
        mult_sets = [(gr, s) for gr in graded() for s in enumerate_multiplicative_sets(gr)]
        return lambda: [localize(gr, s) for gr, s in mult_sets]

    def multiplicative_sets():
        rings = graded()
        return lambda: [enumerate_multiplicative_sets(gr) for gr in rings]

    def trivial_grading_1024():
        ring = build_ring(Cyclic(1024))
        return lambda: trivial_grading(ring)

    def identity_subrings():
        rings = graded()
        return lambda: [identity_subring(gr) for gr in rings]

    def suite(ids):
        corpus = default_corpus()
        return lambda: run_suite(ids, corpus=corpus)

    table = {}
    for spec in (Cyclic(256), Cyclic(1024), PolyQuotient(Cyclic(2), (0,) * 10 + (1,))):
        table |= cold_and_warm(f"build_ring {spec}", lambda spec=spec: lambda: build_ring(spec))
        table |= cold_and_warm(
            f"check_axioms() {spec}", lambda spec=spec: build_ring(spec).check_axioms
        )
    table |= cold_and_warm("quotient by every proper graded ideal of the corpus", quotients)
    table |= cold_and_warm("localize by every multiplicative set of the corpus", localizations)
    table |= cold_and_warm("identity_subring of every corpus ring", identity_subrings)
    table["enumerate_multiplicative_sets of every corpus ring [cold]"] = timed(multiplicative_sets)
    table["trivial_grading Z/1024 [cold]"] = timed(trivial_grading_1024)
    table |= cold_and_warm("default_corpus()", lambda: default_corpus)
    table |= cold_and_warm("run_suite() building its own corpus", lambda: run_suite)
    table |= cold_and_warm("run_suite()", lambda: suite(ALL_STATEMENTS))
    for ids in (*((sid,) for sid in TRANSPORT_STATEMENTS), TRANSPORT_STATEMENTS):
        table |= cold_and_warm(f"run_suite({' + '.join(ids)})", lambda ids=ids: suite(ids))
    for hi in (64, 256):
        table[f"_cor_2_7(2, {hi})"] = timed(lambda hi=hi: lambda: _cor_2_7(2, hi))
    for name, args in CLI_CASES:
        table[name] = fresh(["-m", "gradedrings.cli", *args])
    return table


if __name__ == "__main__":
    main(rows, __doc__, "BENCH_table_core.json")
