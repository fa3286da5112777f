"""Run one gradedrings CLI invocation under the span tracer.

Usage: python3 perfbench/traced_cli.py SPANS_OUT [CLI ARGS...]

The exit status and stdout are those of ``gradedrings.cli.main``; the spans
and counters go to SPANS_OUT as JSON when the invocation ends.
"""

import sys
from time import perf_counter_ns

import gradedrings.cli as cli
from tracer import Tracer


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    start = perf_counter_ns()
    tracer = Tracer()
    tracer.install()
    try:
        status = cli.main(argv)
    finally:
        tracer.uninstall()
    end = perf_counter_ns()
    tracer.dump(out_path, start, end)
    return status


if __name__ == "__main__":
    sys.exit(main())
