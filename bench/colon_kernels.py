"""In-process timings of the predicate kernels and the replay, before and after a change.

Cold means a fresh graded ring for every sample: building the ring, its
grading, the ideal and (for the rows over every proper ideal) the lattice
is not timed, but everything the kernels compute themselves (graded check,
radical, masks) is.  `classify_ideal` is timed as a whole, because its
kernels share memoized work that would be charged to whichever ran first.
Its rows cover local rings, where every homogeneous element is nilpotent
or a unit, and non-local ones.  Each kernel is also timed alone on every
proper ideal of a non-local Z/n, with the lattice and the radicals warm.
The lattice rows time `enumerate_graded_ideals` on a fresh ring.  The
COR_2_7 step rows time one step of the sweep over Z/2..128 (the rings, their
units, their lattices, the strongly kernel up to the first strongly ideal),
the earlier steps done untimed.  The replay rows time a
statement or the whole suite on the default corpus: cold on a fresh corpus
per sample (built untimed), warm on one corpus whose memos an untimed first
call filled.  `bench/harness.py` runs the rows on both checkouts and writes
the record.  Standard library only.
"""

from __future__ import annotations

from harness import main, timed


def rows() -> dict:
    from gradedrings import classify as kernels
    from gradedrings.classify import classify_ideal, is_graded_strongly_1abs_primary
    from gradedrings.finring import Cyclic, GaussMod, PolyQuotient, build_ring
    from gradedrings.grading import trivial_grading
    from gradedrings.ideals import (
        enumerate_graded_ideals,
        graded_radical,
        ideal_generated,
        proper_graded_ideals,
    )
    from gradedrings.verifier import _cor_2_7, default_corpus, run_suite, verify

    def classify(spec, generator):
        gr = trivial_grading(build_ring(spec))
        ideal = ideal_generated(gr.ring, (generator,))
        return lambda: classify_ideal(gr, ideal)

    def on_every_proper_ideal(kernel, spec):
        gr = trivial_grading(build_ring(spec))
        lattice = proper_graded_ideals(gr)
        return lambda: [kernel(gr, p) for p in lattice]

    def kernel_alone(kernel, n):
        gr = trivial_grading(build_ring(Cyclic(n)))
        lattice = proper_graded_ideals(gr)
        for p in lattice:
            graded_radical(gr, p)
        return lambda: [kernel(gr, p) for p in lattice]

    def cor_2_7_step(step):
        """Z/2..128 through the sweep's steps before `step`, untimed, and
        then `step` as the timed call."""
        def prepare():
            def build():
                return [trivial_grading(build_ring(Cyclic(n))) for n in range(2, 129)]

            if step == "rings":
                return build
            grs = build()
            if step == "units":
                return lambda: [gr.ring.units() for gr in grs]
            for gr in grs:
                gr.ring.units()
            if step == "lattices":
                return lambda: [enumerate_graded_ideals(gr) for gr in grs]
            lattices = [proper_graded_ideals(gr) for gr in grs]
            return lambda: [
                any(is_graded_strongly_1abs_primary(gr, p)[0] for p in lattice)
                for gr, lattice in zip(grs, lattices)
            ]

        return prepare

    def lattice(spec):
        gr = trivial_grading(build_ring(spec))
        return lambda: enumerate_graded_ideals(gr)

    def on_corpus(work, warm):
        """A row timing `work(corpus)` on the default corpus, cold or warm."""
        kept = []

        def prepare():
            if not warm:
                corpus = default_corpus()
                return lambda: work(corpus)
            if not kept:
                kept.append(default_corpus())
                work(kept[0])
            return lambda: work(kept[0])

        return timed(prepare)

    table = {}
    for n in (256, 720):
        for generator in (2, 16):
            table[f"Z/{n} ({generator}) classify_ideal"] = timed(
                lambda n=n, generator=generator: classify(Cyclic(n), generator)
            )
    table["Z/1024 strongly on every proper ideal"] = timed(
        lambda: on_every_proper_ideal(is_graded_strongly_1abs_primary, Cyclic(1024))
    )
    table["verifier._cor_2_7(2, 128)"] = timed(lambda: lambda: _cor_2_7(2, 128))
    for step in ("rings", "units", "lattices", "strongly"):
        table[f"COR_2_7 steps over Z/2..128: {step}"] = timed(cor_2_7_step(step))
    for n in (720, 840, 1000):
        for name in (
            "is_graded_prime", "is_graded_primary", "is_graded_1abs_primary",
            "is_graded_strongly_1abs_primary", "is_graded_2abs_primary",
        ):
            table[f"Z/{n} {name} on every proper ideal, warm lattice and radicals"] = timed(
                lambda n=n, name=name: kernel_alone(getattr(kernels, name), n)
            )
    for label, spec in (
        ("Z/1024", Cyclic(1024)),
        ("F2[u]/(u^10)", PolyQuotient(Cyclic(2), (0,) * 10 + (1,))),
        ("Z/32[i]", GaussMod(32)),
        ("Z/720", Cyclic(720)),
        ("Z/1000", Cyclic(1000)),
    ):
        table[f"{label} classify_ideal on every proper ideal"] = timed(
            lambda spec=spec: on_every_proper_ideal(classify_ideal, spec)
        )
    for n in (1024, 720):
        table[f"Z/{n} lattice, cold"] = timed(lambda n=n: lattice(Cyclic(n)))
    for warm in (False, True):
        state = "warm" if warm else "cold"
        table[f"verify('LEMMA_2') on the default corpus, {state}"] = on_corpus(
            lambda corpus: verify("LEMMA_2", corpus=corpus), warm
        )
        table[f"run_suite() on the default corpus, {state}"] = on_corpus(
            lambda corpus: run_suite(corpus=corpus), warm
        )
    return table


if __name__ == "__main__":
    main(rows, __doc__, "BENCH_colon_kernels.json")
