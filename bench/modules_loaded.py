"""Print the modules one gradedrings CLI invocation loads beyond start-up.

    PYTHONPATH=src python3 bench/modules_loaded.py [CLI ARGUMENTS...]

Runs `gradedrings.cli.main` on the arguments (with none, only imports
`gradedrings.cli`) and writes to stderr, one a line, the modules loaded
beyond this interpreter's own start-up set, so site hooks do not count.
The CLI's output goes to stdout; the exit status is the CLI's.
"""

import sys

before = set(sys.modules)
from gradedrings.cli import main  # noqa: E402

status = main(sys.argv[1:]) if len(sys.argv) > 1 else 0
sys.stderr.write("\n".join(sorted(set(sys.modules) - before)))
sys.exit(status)
