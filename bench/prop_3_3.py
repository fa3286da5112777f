"""PROP_3_3 in process and a fresh `verify all`, before and after a change.

The in-process row times `verify("PROP_3_3")` on a fresh default corpus,
after the statements that `run_suite()` runs before it have run on that
corpus untimed, so PROP_3_3 finds the lattices and kernel verdicts of the
corpus rings as it does inside `verify all`, and builds its own
multiplicative sets and localizations cold.  The `fresh` row is one fresh
`python3 -m gradedrings.cli verify all` process, with the worker's
environment.  `bench/harness.py` runs the rows on both checkouts and writes
the record.  Standard library only.
"""

from __future__ import annotations

from harness import fresh, main, timed


def rows() -> dict:
    from gradedrings.verifier import ALL_STATEMENTS, default_corpus, verify

    before = ALL_STATEMENTS[: ALL_STATEMENTS.index("PROP_3_3")]

    def prop_3_3_after_the_earlier_statements():
        corpus = default_corpus()
        for sid in before:
            verify(sid, corpus=corpus)
        return lambda: verify("PROP_3_3", corpus=corpus)

    return {
        "PROP_3_3 cold, after the statements run_suite runs before it": timed(
            prop_3_3_after_the_earlier_statements
        ),
        "fresh": fresh(("-m", "gradedrings.cli", "verify", "all")),
    }


def facts() -> dict:
    """PROP_3_3's reports on the default corpus, which both sides must share."""
    from gradedrings.verifier import verify

    reports = verify("PROP_3_3")
    outcomes = [r.outcome for r in reports]
    return {
        "PROP_3_3": {
            "instances": sum(r.counters.get("instances", 0) for r in reports),
            **{o: outcomes.count(o) for o in ("PASS", "FAIL", "VACUOUS")},
        }
    }


if __name__ == "__main__":
    main(rows, __doc__, "BENCH_prop_3_3.json", facts)
