"""Start-up cost of fresh gradedrings processes, before and after a change.

Each case is one fresh `python3` process with `PYTHONPATH=<checkout>/src`:
a bare interpreter, `import gradedrings.cli`, `ring describe` Z/256,
`ideal classify` (16) on Z/256 and `verify all`, in two modes:

- `CASE [no_cache]`: `PYTHONDONTWRITEBYTECODE=1`, so every process compiles
  the package (the standard library still reads its own cached bytecode).
  A checkout that holds a `__pycache__` under `src/` is refused;
- `CASE [cache]`: bytecode is cached under a temporary `PYTHONPYCACHEPREFIX`,
  filled by one unrecorded run of each case.

For each checkout the record also lists the modules each case loads beyond
the interpreter's own start-up set, as `bench/modules_loaded.py` prints
them.  `bench/harness.py` runs the rows.  Standard library only.
"""

from __future__ import annotations

import atexit
import os
import shutil
import subprocess
import sys
import tempfile

from harness import fresh, main, refuse_pycache

BENCH = os.path.dirname(os.path.abspath(__file__))
Z256 = os.path.join(BENCH, "..", "specs", "cyclic256.json")
CLI = ("-m", "gradedrings.cli")
CASES = (  # (name, python arguments); from the second on, args[2:] are the CLI's own
    ("bare interpreter", ("-c", "pass")),
    ("import gradedrings.cli", ("-c", "import gradedrings.cli")),
    ("ring describe Z/256", (*CLI, "ring", "describe", Z256)),
    ("ideal classify (16) Z/256", (*CLI, "ideal", "classify", Z256, "--ideal", "16")),
    ("verify all", (*CLI, "verify", "all")),
)


def rows() -> dict:
    refuse_pycache("in the no_cache mode")
    pycache = tempfile.mkdtemp()
    atexit.register(shutil.rmtree, pycache)
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPYCACHEPREFIX", None)
    envs = {
        "no_cache": {**env, "PYTHONDONTWRITEBYTECODE": "1"},
        "cache": {**env, "PYTHONPYCACHEPREFIX": pycache},
    }
    table = {
        f"{name} [{mode}]": fresh(args, envs[mode])
        for mode in envs
        for name, args in CASES
    }
    for name, _ in CASES:  # fill the cache
        table[f"{name} [cache]"]()
    return table


def facts() -> dict:
    """The modules each case loads; no bytecode is written into the checkout."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    return {
        "modules_loaded": {
            name: subprocess.run(
                [sys.executable, os.path.join(BENCH, "modules_loaded.py"), *args[2:]],
                env=env, capture_output=True, text=True,
            ).stderr.split()
            for name, args in CASES[1:]
        }
    }


if __name__ == "__main__":
    main(rows, __doc__, "BENCH_startup.json", facts)
