"""Cold in-process timings of the predicate kernels, before and after a change.

    python3 bench/colon_kernels.py --before OLD_CHECKOUT --after NEW_CHECKOUT \
        --out BENCH_colon_kernels.json

Each side runs in its own child process with `PYTHONPATH=<checkout>/src`.
Cold means a fresh graded ring for every sample: building the ring, its
grading, the ideal and (for the rows over every proper ideal) the lattice
is not timed, but everything the kernels compute themselves (graded check,
radical, masks) is.  `classify_ideal` is timed as a whole, because its
kernels share memoized work that would be charged to whichever ran first.
Its rows cover local rings, where every homogeneous element is nilpotent
or a unit, and non-local ones.  Each row reports the median of
FAST_REPEAT samples, or of SLOW_REPEAT when its first sample takes a
second or more.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

FAST_REPEAT = 15  # samples per row; the median is reported
SLOW_REPEAT = 3  # samples per row whose first sample takes a second or more


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _samples(sample) -> list[float]:
    """Timings from `sample()`: FAST_REPEAT, or SLOW_REPEAT if the first is 1 s or more."""
    first = sample()
    return [first] + [sample() for _ in range((SLOW_REPEAT if first >= 1 else FAST_REPEAT) - 1)]


def measure() -> dict:
    from gradedrings.classify import classify_ideal, is_graded_strongly_1abs_primary
    from gradedrings.finring import Cyclic, GaussMod, PolyQuotient, build_ring
    from gradedrings.grading import trivial_grading
    from gradedrings.ideals import ideal_generated, proper_graded_ideals
    from gradedrings.verifier import _cor_2_7

    def fresh(spec):
        return trivial_grading(build_ring(spec))

    def classify_sample(spec, generator):
        gr = fresh(spec)
        ideal = ideal_generated(gr.ring, (generator,))
        return _timed(lambda: classify_ideal(gr, ideal))

    def classify_all_sample(spec):
        gr = fresh(spec)
        lattice = proper_graded_ideals(gr)
        return _timed(lambda: [classify_ideal(gr, p) for p in lattice])

    def strongly_z1024_sample():
        gr = fresh(Cyclic(1024))
        lattice = proper_graded_ideals(gr)
        return _timed(lambda: [is_graded_strongly_1abs_primary(gr, p) for p in lattice])

    rows = {}
    for n in (256, 720):
        for generator in (2, 16):
            rows[f"Z/{n} ({generator}) classify_ideal"] = _samples(
                lambda: classify_sample(Cyclic(n), generator)
            )
    rows["Z/1024 strongly on every proper ideal"] = _samples(strongly_z1024_sample)
    rows["verifier._cor_2_7(2, 128)"] = _samples(lambda: _timed(lambda: _cor_2_7(2, 128)))
    for label, spec in (
        ("Z/1024", Cyclic(1024)),
        ("F2[u]/(u^10)", PolyQuotient(Cyclic(2), (0,) * 10 + (1,))),
        ("Z/32[i]", GaussMod(32)),
        ("Z/720", Cyclic(720)),
        ("Z/1000", Cyclic(1000)),
    ):
        rows[f"{label} classify_ideal on every proper ideal"] = _samples(
            lambda: classify_all_sample(spec)
        )
    return {key: {"median_s": statistics.median(s), "samples_s": s} for key, s in rows.items()}


def _commit(root: str) -> str:
    out = subprocess.run(
        ["git", "-C", root, "describe", "--always", "--dirty"], capture_output=True, text=True
    )
    return out.stdout.strip() or "unknown"


def _side(root: str) -> dict:
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
    out = subprocess.run(
        [sys.executable, __file__, "--measure"],
        env=env, capture_output=True, text=True, check=True,
    )
    return {"commit": _commit(root), "timings": json.loads(out.stdout)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", help="checkout measured as the parent")
    parser.add_argument("--after", help="checkout measured as the change")
    parser.add_argument("--out", default="BENCH_colon_kernels.json")
    parser.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.measure:
        json.dump(measure(), sys.stdout)
        return
    if not (args.before and args.after):
        parser.error("--before and --after are required")
    before = _side(args.before)
    after = _side(args.after)
    doc = {
        "what": "cold in-process kernel timings, perf_counter, one process per side",
        "machine": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "repeat": {"fast": FAST_REPEAT, "slow": SLOW_REPEAT},
        "before": before,
        "after": after,
        "speedup": {
            key: round(before["timings"][key]["median_s"] / after["timings"][key]["median_s"], 1)
            for key in before["timings"]
        },
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
