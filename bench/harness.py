"""Before/after comparison of two checkouts, shared by the scripts in bench/.

    python3 bench/SCRIPT.py --before OLD_CHECKOUT --after NEW_CHECKOUT --out FILE

A script's `rows()` maps row names to functions that return one sample, a
dict of metrics (`timed` and `fresh` build them).  Each checkout gets one
long-lived worker, the script itself with `PYTHONPATH=<checkout>/src`.
Each row runs sample by sample, the side that goes first alternating on
every sample, so a drift of the host's speed falls on both sides: SAMPLES
per side, or SLOW_SAMPLES when a first sample takes a second or more.  The
record holds the machine, each side's commit and `facts()`, and per row and
side the median and quartiles of every metric and the samples, and
`after_over_before`, the ratio of the medians of the first metric (`s` in
process, `cpu_s` for a fresh process).  Standard library only; `fresh`
needs `os.posix_spawn` and `os.wait4` (Linux, macOS).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

SAMPLES = 15
SLOW_SAMPLES = 3  # for a row whose first sample takes a second or more
SIDES = ("before", "after")


def timed(prepare):
    """A row timing the call that `prepare()` returns; `prepare` itself, which
    builds fresh state for the sample, is not timed."""
    def sample():
        work = prepare()
        start = perf_counter()
        work()
        return {"s": perf_counter() - start}

    return sample


# The process `fresh` starts, which starts the measured one and prints its
# sample.  A process keeps across exec the resident high-water mark of the
# process it was forked from, so the measured process is started by this
# small one: started by the worker, it would report the worker's peak.
_LAUNCHER = """
import json, os, sys, time
start = time.perf_counter()
quiet = [(os.POSIX_SPAWN_OPEN, fd, os.devnull, os.O_WRONLY, 0) for fd in (1, 2)]
argv = [sys.executable, *sys.argv[1:]]
pid = os.posix_spawn(sys.executable, argv, os.environ, file_actions=quiet)
_, status, usage = os.wait4(pid, 0)
print(json.dumps({
    "cpu_s": usage.ru_utime + usage.ru_stime,
    "wall_s": time.perf_counter() - start,
    "peak_rss_mb": usage.ru_maxrss / 1024,
    "exit": os.waitstatus_to_exitcode(status),
}))
"""


def fresh(args, env=None):
    """A row running `python3 *args` in a fresh process, in the worker's
    environment or `env`: its CPU time (user + system, from `wait4`), wall
    time, peak RSS and exit status.  A small launcher process starts it and
    waits for it, so the peak is the process's own."""
    def sample():
        out = subprocess.run(
            [sys.executable, "-c", _LAUNCHER, *args], env=env, stdin=subprocess.DEVNULL,
            capture_output=True, text=True, check=True,
        )
        return json.loads(out.stdout)

    return sample


def _serve(rows, facts) -> None:
    """The worker: announce the row names and facts, then answer each row
    name read from stdin with one sample of that row."""
    reply, sys.stdout = sys.stdout, sys.stderr  # what the rows print stays off the replies
    table = rows()
    print(json.dumps({"rows": list(table), "facts": facts()}), file=reply, flush=True)
    for line in sys.stdin:
        print(json.dumps(table[json.loads(line)]()), file=reply, flush=True)


def _ask(worker: subprocess.Popen, row: str | None = None) -> dict:
    """The worker's next reply, to a request for a sample of `row` if given."""
    if row is not None:
        print(json.dumps(row), file=worker.stdin, flush=True)
    line = worker.stdout.readline()
    if not line:
        sys.exit(f"a worker stopped (exit status {worker.wait()})")
    return json.loads(line)


def _summary(samples: list[dict]) -> dict:
    columns = {k: [s[k] for s in samples] for k in samples[0]}
    return {
        "median": {k: statistics.median(v) for k, v in columns.items()},
        "quartiles": {
            k: statistics.quantiles(v, n=4, method="inclusive")[::2] for k, v in columns.items()
        },
        "samples": samples,
    }


def _row(workers: dict, name: str) -> dict:
    samples = {side: [_ask(workers[side], name)] for side in SIDES}
    lead = next(iter(samples["before"][0]))  # the metric the sample rule and the ratio read
    slow = max(samples[side][0][lead] for side in SIDES) >= 1
    for i in range(1, SLOW_SAMPLES if slow else SAMPLES):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            samples[side].append(_ask(workers[side], name))
    out = {side: _summary(samples[side]) for side in SIDES}
    medians = [out[side]["median"][lead] for side in SIDES]
    out["after_over_before"] = round(medians[1] / medians[0], 3)
    return out


def _commit(root: str) -> str:
    """The commit checked out at `root`, read only when `root` is the top of a
    git work tree: a copy made by `git archive` is not one, and inside another
    work tree it would read that tree's commit."""
    def git(*args):
        return subprocess.run(["git", "-C", root, *args], capture_output=True, text=True).stdout.strip()

    top = git("rev-parse", "--show-toplevel")
    if not top or os.path.realpath(top) != os.path.realpath(root):
        print(f"warning: {root} is not a git work tree; make it with git clone to record its "
              "commit", file=sys.stderr)
        return "not a git work tree"
    return git("describe", "--always", "--dirty") or "unknown"


def _compare(script: str, what: str, roots: dict) -> dict:
    """The record of `script`'s rows on the checkouts `roots["before"]` and `roots["after"]`."""
    workers = {
        side: subprocess.Popen(
            [sys.executable, script, "--measure"],
            env={**os.environ, "PYTHONPATH": os.path.join(roots[side], "src")},
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        for side in SIDES
    }
    try:
        hello = {side: _ask(workers[side]) for side in SIDES}
        if hello["before"]["rows"] != hello["after"]["rows"]:
            sys.exit("the two workers name different rows")
        return {
            "what": what,
            "machine": {
                "python": platform.python_version(),
                "implementation": platform.python_implementation(),
                "machine": platform.machine(),
                "cpus": os.cpu_count(),
            },
            **{side: {"commit": _commit(roots[side]), **hello[side]["facts"]} for side in SIDES},
            "rows": {name: _row(workers, name) for name in hello["before"]["rows"]},
        }
    finally:
        for worker in workers.values():
            worker.stdin.close()
            worker.wait()


def main(rows, doc: str, out: str, facts=dict) -> None:
    """The command line of a bench script: `rows()` builds its rows in each
    worker, `facts()` what the record keeps per side besides the commit."""
    if sys.argv[1:] == ["--measure"]:  # a worker, started by `_compare`
        _serve(rows, facts)
        return
    what = doc.strip().splitlines()[0]
    parser = argparse.ArgumentParser(description=what)
    parser.add_argument("--before", required=True, help="checkout measured as the parent")
    parser.add_argument("--after", required=True, help="checkout measured as the change")
    parser.add_argument("--out", default=out)
    args = parser.parse_args()
    roots = {"before": args.before, "after": args.after}
    record = _compare(os.path.abspath(sys.argv[0]), what, roots)
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
