"""Start-up cost of fresh gradedrings processes, before and after a change.

    python3 bench/startup.py --before OLD_CHECKOUT --after NEW_CHECKOUT \
        --out BENCH_startup.json

Each case is one fresh `python3` process with `PYTHONPATH=<checkout>/src`:
a bare interpreter, `import gradedrings.cli`, `ring describe` Z/256,
`ideal classify` (16) on Z/256 and `verify all`.  Its wall time, CPU time
(user + system, from `wait4`) and peak RSS are recorded in two modes:

- `no_cache`: `PYTHONDONTWRITEBYTECODE=1`, so every process compiles the
  package (the standard library still reads its own cached bytecode).  A
  checkout that holds a `__pycache__` under `src/` is refused;
- `cache`: bytecode is cached under a temporary `PYTHONPYCACHEPREFIX`,
  filled by one unrecorded run of each case.

The two checkouts alternate sample by sample, so that a drift of the
host's speed falls on both.  For each checkout the record also lists the
modules each case loads beyond the interpreter's own start-up set, as
`bench/modules_loaded.py` prints them.  The fresh-process runner and the
summary come from `bench/table_core.py`.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

from table_core import commit, machine, run_fresh, summary

SAMPLES = 7
MODULES_LOADED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "modules_loaded.py")
Z256_SPEC = {"ring": {"kind": "cyclic", "n": 256}, "group": {"kind": "trivial"}}
CASES = (  # (name, CLI arguments with {spec} for the Z/256 spec file)
    ("bare interpreter", None),
    ("import gradedrings.cli", ()),
    ("ring describe Z/256", ("ring", "describe", "{spec}")),
    ("ideal classify (16) Z/256", ("ideal", "classify", "{spec}", "--ideal", "16")),
    ("verify all", ("verify", "all")),
)


def _env(root: str, pycache: str | None) -> dict:
    """No bytecode cache for the package when `pycache` is None, else one there."""
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPYCACHEPREFIX", None)
    if pycache is None:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    else:
        env["PYTHONPYCACHEPREFIX"] = pycache
    return env


def _python_args(cli_args) -> list[str]:
    if cli_args is None:
        return ["-c", "pass"]
    if not cli_args:
        return ["-c", "import gradedrings.cli"]
    return ["-m", "gradedrings.cli", *cli_args]


def _modules(cli_args: list[str], env: dict) -> list[str]:
    out = subprocess.run(
        [sys.executable, MODULES_LOADED, *cli_args], env=env, capture_output=True, text=True
    )
    return out.stderr.split()


def measure(sides: dict[str, str]) -> dict:
    with tempfile.TemporaryDirectory() as work:
        spec = os.path.join(work, "z256.json")
        with open(spec, "w") as fh:
            json.dump(Z256_SPEC, fh)
        cases = [
            (name, None if args is None else [a.replace("{spec}", spec) for a in args])
            for name, args in CASES
        ]
        envs = {}
        for side, root in sides.items():
            envs[side, "no_cache"] = _env(root, None)
            envs[side, "cache"] = _env(root, os.path.join(work, side))
            for _, args in cases:  # fill the cache
                run_fresh(_python_args(args), envs[side, "cache"])
        runs = {(side, mode, name): [] for side, mode in envs for name, _ in cases}
        for i in range(SAMPLES):
            order = list(sides) if i % 2 == 0 else list(reversed(sides))
            for mode in ("no_cache", "cache"):
                for name, args in cases:
                    for side in order:
                        runs[side, mode, name].append(run_fresh(_python_args(args), envs[side, mode]))
        return {
            side: {
                "commit": commit(root),
                **{
                    mode: {name: summary(runs[side, mode, name]) for name, _ in cases}
                    for mode in ("no_cache", "cache")
                },
                "modules_loaded": {
                    name: _modules(args, envs[side, "cache"]) for name, args in cases if args is not None
                },
            }
            for side, root in sides.items()
        }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", required=True, help="checkout measured as the parent")
    parser.add_argument("--after", required=True, help="checkout measured as the change")
    parser.add_argument("--out", default="BENCH_startup.json")
    args = parser.parse_args()
    for root in (args.before, args.after):
        for dirpath, dirnames, _ in os.walk(os.path.join(root, "src")):
            if "__pycache__" in dirnames:
                parser.error(f"{dirpath}/__pycache__ would be read in the no_cache mode; remove it")
    sides = measure({"before": args.before, "after": args.after})
    doc = {
        "what": "fresh processes: wall (perf_counter), CPU and peak RSS (wait4), medians of the samples",
        "machine": machine(),
        "samples": SAMPLES,
        **sides,
        "cpu_after_over_before": {
            mode: {
                name: round(row["median_cpu_s"] / sides["before"][mode][name]["median_cpu_s"], 3)
                for name, row in sides["after"][mode].items()
            }
            for mode in ("no_cache", "cache")
        },
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
