"""Cold `default_corpus()` in fresh processes, before and after a change.

    python3 bench/default_corpus.py --before OLD_CHECKOUT --after NEW_CHECKOUT

Each sample is one fresh `python3` process with `PYTHONPATH=<checkout>/src`
and `PYTHONDONTWRITEBYTECODE=1`, as perfbench starts the CLI, so every
module is compiled in it.  The process imports `gradedrings.cli`, as
`verify` runs, and then times with `perf_counter` the import of
`gradedrings.verifier` (`import_s`, the compile of the corpus included) and
its first `default_corpus()` call (`s`), which builds every ring, grading
and construction cold.  `bench/harness.py` runs the rows; a
checkout that holds a `__pycache__` under `src/` is refused.  Standard
library only.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from harness import main, refuse_pycache

PROBE = """
import json, time
import gradedrings.cli
start = time.perf_counter()
from gradedrings.verifier import default_corpus
imported = time.perf_counter()
default_corpus()
print(json.dumps({"s": time.perf_counter() - imported, "import_s": imported - start}))
"""


def cold():
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPYCACHEPREFIX", None)

    def sample():
        out = subprocess.run(
            [sys.executable, "-c", PROBE], env=env, stdin=subprocess.DEVNULL,
            capture_output=True, text=True, check=True,
        )
        return json.loads(out.stdout)

    return sample


def rows() -> dict:
    refuse_pycache("instead of compiling")
    return {"default_corpus() cold, fresh process": cold()}


if __name__ == "__main__":
    main(rows, __doc__, "BENCH_default_corpus.json")
