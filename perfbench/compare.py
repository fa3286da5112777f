"""Compare two sets of saved benchmark results, metric by metric.

Usage: python3 perfbench/compare.py BEFORE_DIR AFTER_DIR

Each directory holds the JSON records that ``run.py`` writes to
``.perfbench-work/results`` (copy them aside between commits).  For every
workload and end-to-end metric it prints each side's median and quartiles,
the change of the median, and the verdict against the bound in
``BENCHMARK.json``: ``worse`` beyond the bound, ``ok`` within it, and
``unresolved`` when the before side's own spread is wider than the bound.
Records made in differing environments (Python, machine, core count) are
flagged, as are runs that started on a machine already saturated.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV_KEYS = ("python", "implementation", "machine", "nproc")


def load(directory: str) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted(Path(directory).glob("*.json"))]


def by_metric(records: list[dict]) -> dict:
    out = defaultdict(list)
    for r in records:
        if not r["trace"]:
            for name, m in r["metrics"].items():
                out[(r["workload"], name)].append(m["value"])
    return out


def load_warning(label: str, records: list[dict]) -> str | None:
    """A run that starts with at least as many runnable tasks as cores shares them."""
    loaded = [r for r in records if r["env"]["loadavg_start"][0] >= r["env"]["nproc"]]
    if not loaded:
        return None
    return f"{label}: {len(loaded)} of {len(records)} runs started with the 1-minute load at or above the core count"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = load(argv[0]), load(argv[1])
    envs = {tuple(r["env"][k] for k in ENV_KEYS) for r in before + after}
    if len(envs) > 1:
        print("WARNING: records come from differing environments " + f"{ENV_KEYS}: {sorted(envs)}")
    for note in (load_warning("before", before), load_warning("after", after)):
        if note:
            print("WARNING: " + note)
    bounds = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    a, b = by_metric(before), by_metric(after)
    worse = False
    for key in sorted(set(a) & set(b)):
        workload, name = key
        if name not in bounds or len(a[key]) < 2 or len(b[key]) < 2:
            continue
        qa, qb = statistics.quantiles(a[key], n=4), statistics.quantiles(b[key], n=4)
        ma, mb = statistics.median(a[key]), statistics.median(b[key])
        change = (mb - ma) / ma if bounds[name]["better"] == "lower" else (ma - mb) / ma
        bound = bounds[name]["bound"]
        if (qa[2] - qa[0]) / ma > bound:
            verdict = "unresolved"
        else:
            verdict = "worse" if change > bound else "ok"
        worse |= verdict == "worse"
        print(f"{workload:18s} {name:12s} before {ma:.4g} [{qa[0]:.4g}, {qa[2]:.4g}] n={len(a[key])}"
              f"  after {mb:.4g} [{qb[0]:.4g}, {qb[2]:.4g}] n={len(b[key])}"
              f"  worse by {100 * change:+.1f}% (bound {100 * bound:.0f}%)  {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
