"""Ring build, axiom check, transport and CLI timings, before and after a change.

    python3 bench/table_core.py --before OLD_CHECKOUT --after NEW_CHECKOUT \
        --out BENCH_table_core.json

In process, one child per side with `PYTHONPATH=<checkout>/src`:
`build_ring` of Z/256, Z/1024 and F2[u]/(u^10), each with whatever checks
`build_ring` runs in that checkout; `check_axioms()` on those rings, built
beforehand; the quotients by every proper graded ideal, the localizations
and the identity subrings of the default corpus, each construction over
the whole corpus in one sample; `default_corpus()`; `run_suite()` building
its own corpus; `run_suite()` on one corpus; and, each on a fresh corpus,
`run_suite` of PROP_3_1, COR_3_2 and COR_RE alone and of the three
together.  Cold is the first sample in the child; warm is the median of the
next REPEAT samples in the same child.  For `run_suite` on one corpus warm
means on the corpus whose memos the cold run filled.

Fresh process: wall time, CPU time (user + system, from `wait4`) and peak
RSS of one `python3 -m gradedrings.cli` per sample, with its exit status.
Every fresh process is cold.  `verify COR_2_7 --range 2..512` runs once,
because it takes seconds.  `bench/startup.py` shares the fresh-process
helpers (`run_fresh`, `summary`, `commit`, `machine`).  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

REPEAT = 15  # warm in-process samples, and fresh-process samples of the short commands
# the statements that check the quotient images and R_e preimages, in suite order
TRANSPORT_STATEMENTS = ("COR_3_2", "COR_RE", "PROP_3_1")
Z1024_SPEC = {"ring": {"kind": "cyclic", "n": 1024}, "group": {"kind": "trivial"}}
CLI_CASES = (  # (name, argv with {spec} for the Z/1024 spec file, samples)
    ("verify all", ("verify", "all"), REPEAT),
    ("ring describe Z/1024", ("ring", "describe", "{spec}"), REPEAT),
    ("ideal classify (16) Z/1024", ("ideal", "classify", "{spec}", "--ideal", "16"), REPEAT),
    ("verify COR_2_7 --range 2..256", ("verify", "COR_2_7", "--range", "2..256"), 3),
    ("verify COR_2_7 --range 2..512", ("verify", "COR_2_7", "--range", "2..512"), 1),
)


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _cold_warm(fn) -> dict:
    cold = _timed(fn)
    warm = [_timed(fn) for _ in range(REPEAT)]
    return {"cold_s": cold, "warm_median_s": statistics.median(warm), "warm_samples_s": warm}


def measure() -> dict:
    from gradedrings.finring import Cyclic, PolyQuotient, build_ring
    from gradedrings.ideals import proper_graded_ideals
    from gradedrings.transport import (
        enumerate_multiplicative_sets,
        identity_subring,
        localize,
        quotient,
    )
    from gradedrings.verifier import default_corpus, run_suite

    rows = {}
    for spec in (Cyclic(256), Cyclic(1024), PolyQuotient(Cyclic(2), (0,) * 10 + (1,))):
        rows[f"build_ring {spec}"] = _cold_warm(lambda spec=spec: build_ring(spec))
        rows[f"check_axioms() {spec}"] = _cold_warm(build_ring(spec).check_axioms)
    graded = [entry.gr for entry in default_corpus()]
    ideals = [(gr, k) for gr in graded for k in proper_graded_ideals(gr)]
    mult_sets = [(gr, s) for gr in graded for s in enumerate_multiplicative_sets(gr)]
    rows["quotient by every proper graded ideal of the corpus"] = _cold_warm(
        lambda: [quotient(gr, k) for gr, k in ideals]
    )
    rows["localize by every multiplicative set of the corpus"] = _cold_warm(
        lambda: [localize(gr, s) for gr, s in mult_sets]
    )
    rows["identity_subring of every corpus ring"] = _cold_warm(
        lambda: [identity_subring(gr) for gr in graded]
    )
    rows["default_corpus()"] = _cold_warm(default_corpus)
    rows["run_suite() building its own corpus"] = _cold_warm(run_suite)
    corpus = default_corpus()
    rows["run_suite()"] = _cold_warm(lambda: run_suite(corpus=corpus))
    for ids in (*((sid,) for sid in TRANSPORT_STATEMENTS), TRANSPORT_STATEMENTS):
        corpus = default_corpus()  # fresh for each row: its first sample is cold
        rows[f"run_suite({' + '.join(ids)})"] = _cold_warm(
            lambda ids=ids, corpus=corpus: run_suite(ids, corpus=corpus)
        )
    return rows


def run_fresh(argv: list[str], env: dict) -> dict:
    """One fresh `python3 *argv`: wall time, CPU time and peak RSS (wait4), exit status."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *argv], env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    )
    _, status, usage = os.wait4(proc.pid, 0)
    return {
        "wall_s": time.perf_counter() - start,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "exit": os.waitstatus_to_exitcode(status),
    }


def summary(runs: list[dict]) -> dict:
    """Medians of fresh-process samples, the exit statuses seen, and the samples."""
    return {
        **{
            f"median_{k}": statistics.median(r[k] for r in runs)
            for k in ("wall_s", "cpu_s", "peak_rss_mb")
        },
        "exit": sorted({r["exit"] for r in runs}),
        "samples": runs,
    }


def commit(root: str) -> str:
    out = subprocess.run(
        ["git", "-C", root, "describe", "--always", "--dirty"], capture_output=True, text=True
    )
    return out.stdout.strip() or "unknown"


def machine() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }


def _cli_side(root: str) -> dict:
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
    out = {}
    with tempfile.TemporaryDirectory() as work:
        spec = os.path.join(work, "z1024.json")
        with open(spec, "w") as fh:
            json.dump(Z1024_SPEC, fh)
        for name, argv, samples in CLI_CASES:
            args = ["-m", "gradedrings.cli", *(a.replace("{spec}", spec) for a in argv)]
            out[name] = summary([run_fresh(args, env) for _ in range(samples)])
    return out


def _side(root: str) -> dict:
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
    out = subprocess.run(
        [sys.executable, __file__, "--measure"],
        env=env, capture_output=True, text=True, check=True,
    )
    return {
        "commit": commit(root),
        "in_process": json.loads(out.stdout),
        "fresh_process": _cli_side(root),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", help="checkout measured as the parent")
    parser.add_argument("--after", help="checkout measured as the change")
    parser.add_argument("--out", default="BENCH_table_core.json")
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
        "what": "in-process cold/warm timings (perf_counter) and fresh CLI processes (wait4)",
        "machine": machine(),
        "repeat": REPEAT,
        "before": before,
        "after": after,
        "speedup": {
            "in_process_warm": {
                key: round(row["warm_median_s"] / after["in_process"][key]["warm_median_s"], 1)
                for key, row in before["in_process"].items()
            },
            "fresh_process_cpu": {  # only where both sides exit alike
                key: round(row["median_cpu_s"] / after["fresh_process"][key]["median_cpu_s"], 1)
                for key, row in before["fresh_process"].items()
                if row["exit"] == after["fresh_process"][key]["exit"]
            },
        },
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
