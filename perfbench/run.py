"""gradedrings benchmark: fresh CLI processes, one at a time, checked and timed.

Usage (from the repository root):

    python3 perfbench/run.py --workload corpus-replay --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seconds 35       # every workload
    python3 perfbench/run.py --workload describe-large --trace 1   # per-layer run

The client is closed-loop: a single process starts the next
``python3 -m gradedrings.cli`` only after the previous one exited, so at most
one of the machine's cores runs the program.  Each invocation is timed from
outside (wall clock around the child, CPU time and peak RSS from ``wait4``)
and its output is checked (see ``workloads.py``).  Times are reported in
units of ``reference.py``, a fixed workload run next to every invocation,
because the host's speed swings far more than the bounds allow.  Passes over
the workload's invocations, in an order drawn from ``--seed``, repeat until
``--seconds`` have elapsed.  With ``--trace 1`` each pass runs the
invocations untraced and then traced; the spans give the per-layer metrics.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit status is 0 when every
output was correct, 1 when any check failed and 2 when the program cannot be
found or imported (then no result line is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer
from workloads import WORKLOADS, Invocation, check_output, write_specs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

INVOCATION_TIMEOUT_S = 120
REFERENCE_SHARE = 0.1
# setup_s is given in seconds at a fixed host speed: the import time over the
# wall time of the reference run just before it, times 0.3 s, the reference's
# typical wall time on the 2-vCPU x86_64 VM (CPython 3.11) the benchmark was
# written on.  Raw import times follow the host's speed swings, up to 2x
# between runs of one commit.
REFERENCE_WALL_S = 0.3

END_TO_END = {  # name -> unit; "ref" is a multiple of the reference workload's time
    "cpu_rel": "ref",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class SetupError(Exception):
    """The program under test is missing or cannot be imported."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(cmd: list[str], stdout_path: Path) -> tuple[float, float, float, int, bytes]:
    """Run one child process; return wall s, CPU s, peak RSS MB, status, stdout."""
    with open(stdout_path, "wb") as out, open(WORK / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=child_env())
        killer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode, stdout_path.read_bytes()


def import_time() -> float:
    return run_child([sys.executable, "-c", "import gradedrings.cli"], WORK / "stdout.txt")[0]


def setup() -> None:
    """Write the spec files, warm the bytecode cache and check what is imported."""
    write_specs(WORK)
    probe = "import gradedrings.cli, sys; sys.stdout.write(gradedrings.cli.__file__)"
    cmd = [sys.executable, "-c", probe]
    _, _, _, status, out = run_child(cmd, WORK / "stdout.txt")
    if status != 0 or not Path(out.decode()).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"importing gradedrings.cli from {SRC} failed (status {status})")


class Samples:
    """Per-invocation samples and the correctness tally.

    A sample is (wall s, CPU s, peak RSS MB), plus in timed runs the wall and
    CPU seconds of the reference around it.
    """

    def __init__(self, invocations):
        self.by_inv = {inv.name: [] for inv in invocations}
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, inv: Invocation, measured, status: int, stdout: bytes) -> None:
        self.attempted += 1
        reason = check_output(inv, status, stdout)
        if reason is not None:
            self.failures.append(reason)
            print(f"check failed: {reason}", file=sys.stderr)
        self.by_inv[inv.name].append(measured)

    def pass_median(self, value) -> float:
        """Median of `value(sample)` per invocation, summed over the invocations."""
        return sum(statistics.median(value(s) for s in ss) for ss in self.by_inv.values())


def passes(workload, rng: random.Random, seconds: float, run_pass, min_passes: int = 1) -> int:
    start = time.perf_counter()
    done = 0
    while done < min_passes or time.perf_counter() - start < seconds:
        run_pass(rng.sample(workload.invocations, len(workload.invocations)))
        done += 1
    return done


def cli_cmd(inv: Invocation) -> list[str]:
    return [sys.executable, "-m", "gradedrings.cli", *inv.args(WORK)]


def reference() -> tuple[float, float]:
    wall, cpu, _, status, _ = run_child([sys.executable, str(HERE / "reference.py")], WORK / "stdout.txt")
    if status != 0:
        raise SetupError(f"reference workload exited with status {status}")
    return wall, cpu


def tail(samples: Samples) -> tuple[float, float, int] | None:
    """Highest percentile with at least ten samples beyond it, in pass units.

    Each sample is scaled by its invocation's share of a pass so invocations
    of different sizes pool into one distribution.  None below 11 samples.
    """
    per_pass = samples.pass_median(lambda s: s[0])
    pooled = sorted(
        w / statistics.median(x[0] for x in ss) * per_pass
        for ss in samples.by_inv.values()
        for w, *_ in ss
    )
    n = len(pooled)
    if n < 11:
        return None
    return pooled[n - 11], 100 * (n - 10) / n, n


def timed_run(workload, rng, seconds: float):
    """Every invocation is followed by reference runs taking about
    REFERENCE_SHARE of its time (at least one) and by one bare import.  An
    invocation's times are divided by the mean of the reference runs next to
    it, an import's wall time by that of the reference run just before it."""
    samples = Samples(workload.invocations)
    refs = [reference()]
    imports: list[tuple[float, float]] = []  # (import wall s, reference wall s before it)

    def run_pass(order):
        for inv in order:
            before = refs[-1]
            wall, cpu, rss, status, out = run_child(cli_cmd(inv), WORK / "stdout.txt")
            after = reference()
            refs.append(after)
            samples.record(inv, (wall, cpu, rss, (before[0] + after[0]) / 2, (before[1] + after[1]) / 2), status, out)
            spent = after[0]
            while spent < REFERENCE_SHARE * wall:
                refs.append(reference())
                spent += refs[-1][0]
            imports.append((import_time(), refs[-1][0]))

    n_passes = passes(workload, rng, seconds, run_pass)
    metrics = {
        "cpu_rel": samples.pass_median(lambda s: s[1] / s[4]),
        "peak_rss_mb": max(statistics.median(s[2] for s in ss) for ss in samples.by_inv.values()),
        "setup_s": statistics.median(i / r for i, r in imports) * REFERENCE_WALL_S,
    }
    t = tail(samples)
    notes = {
        "passes": n_passes,
        "samples": {k: len(v) for k, v in samples.by_inv.items()},
        "wall_s": samples.pass_median(lambda s: s[0]),
        "cpu_s": samples.pass_median(lambda s: s[1]),
        "wall_rel": samples.pass_median(lambda s: s[0] / s[3]),
        "import_s": statistics.median(i for i, _ in imports),
        "reference_wall_s": statistics.median(r[0] for r in refs),
        "reference_cpu_s": statistics.median(r[1] for r in refs),
        "wall_s_tail": None if t is None else {"value": t[0], "percentile": t[1], "samples": t[2]},
        "reference_samples": refs,
        "import_samples": imports,
    }
    return samples, {k: (v, END_TO_END[k]) for k, v in metrics.items()}, notes


def traced_run(workload, rng, seconds: float):
    """Each pass runs the invocations untraced, then traced in the same order;
    the tracing overhead is the median over passes of the difference."""
    samples = Samples(workload.invocations)
    overheads: list[float] = []
    layer_passes: list[dict] = []

    def run_pass(order):
        t0 = time.perf_counter()
        for inv in order:
            wall, cpu, rss, status, out = run_child(cli_cmd(inv), WORK / "stdout.txt")
            samples.record(inv, (wall, cpu, rss), status, out)
        t1 = time.perf_counter()
        dumps = []
        for i, inv in enumerate(order):
            spans_path = WORK / f"spans-{i}.json"
            spans_path.unlink(missing_ok=True)
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), *inv.args(WORK)]
            wall, cpu, rss, status, out = run_child(cmd, WORK / "stdout.txt")
            samples.record(inv, (wall, cpu, rss), status, out)
            if spans_path.exists():  # a crashed child is already counted as failed
                dumps.append(json.loads(spans_path.read_text()))
        overheads.append((time.perf_counter() - t1) - (t1 - t0))
        layer_passes.append(tracer.layer_metrics(dumps))

    n_passes = passes(workload, rng, seconds, run_pass)
    metrics = tracer.median_metrics(layer_passes)
    metrics["trace.overhead_s"] = statistics.median(overheads)
    metrics["error_rate"] = len(samples.failures) / samples.attempted
    notes = {"passes": n_passes, "overhead_s": overheads}
    return samples, {k: (v, per_layer_unit(k)) for k, v in metrics.items()}, notes


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share", "_rate", "coverage")):
        return "ratio"
    return "count"


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "commit": git_commit(),
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    workload = WORKLOADS[name]
    rng = random.Random(seed)
    setup()
    if trace:
        return traced_run(workload, rng, seconds)
    return timed_run(workload, rng, seconds)


def save_record(record: dict) -> None:
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = results / f"{stamp}-{record['workload']}-seed{record['env']['seed']}-trace{int(record['trace'])}.json"
    path.write_text(json.dumps(record, indent=1))


def write_golden() -> int:
    """Capture each invocation's stdout as its golden output, after the oracle passes."""
    setup()
    for workload in WORKLOADS.values():
        for inv in workload.invocations:
            _, _, _, status, out = run_child(cli_cmd(inv), WORK / "stdout.txt")
            inv.golden.parent.mkdir(exist_ok=True)
            inv.golden.write_bytes(out)
            reason = check_output(inv, status, out)
            if reason is not None:
                inv.golden.unlink()
                print(f"not written: {reason}", file=sys.stderr)
                return 1
            print(f"wrote {inv.golden.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true", help="capture the golden outputs and exit")
    args = parser.parse_args(argv)
    try:
        if not (SRC / "gradedrings" / "cli.py").is_file():
            raise SetupError(f"no gradedrings sources under {SRC}")
        if args.write_golden:
            return write_golden()
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        env = environment(args.seed)
        print("env: " + json.dumps(env))
        attempted = failed = 0
        out_metrics = {}
        for name in names:
            samples, metrics, notes = run_workload(name, args.seed, args.seconds, bool(args.trace))
            attempted += samples.attempted
            failed += len(samples.failures)
            save_record({"workload": name, "trace": bool(args.trace), "env": env, "notes": notes,
                         "attempted": samples.attempted, "failed": len(samples.failures),
                         "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                         "samples": samples.by_inv})
            print(f"{name}: {samples.attempted} invocations, error_rate {len(samples.failures) / samples.attempted:g}, {json.dumps({k: v for k, v in notes.items() if not k.endswith('_samples')})}")
            for key, (value, unit) in metrics.items():
                print(f"  {key} = {value:.6g} {unit}")
                out_metrics[key if len(names) == 1 else f"{name}.{key}"] = {"value": value, "unit": unit}
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out_metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
