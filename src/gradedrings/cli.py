"""Command-line frontend.

Subcommands:
    ring describe <spec>                       structural summary of a graded ring
    ideal classify <spec> --ideal <name|gens>  classification report
    verify <statement-id|all> [...]            replay the statement suite
    search --hypothesis F --conclusion G       separating witnesses between flags

Exit status: 0 when every outcome is PASS/VACUOUS, 1 on any FAIL,
2 on usage or spec errors and when the output cannot be written.

`run()` is the process entry point (the `gradedrings` script and
`python -m gradedrings.cli`); `main(argv)` is the in-process API.

Only `verify` and `search` import the verifier, and with it the transport
layer, when they run; `ring describe` and `ideal classify` never load them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import NoReturn, Optional

from .classify import FLAGS, classify_ideal, local_structure, ring_predicates
from .errors import GradedRingError, MalformedSpec
from .ideals import enumerate_graded_ideals
from .specdoc import decimal, load_corpus, load_spec, resolve_ideal


def _names(gr, xs) -> str:
    return "{" + ",".join(gr.ring.name(x) for x in sorted(xs)) + "}"


def _cmd_ring_describe(args) -> int:
    spec = load_spec(args.spec)
    gr = spec.graded_ring
    ring = gr.ring
    ls = local_structure(gr)
    nil = ring.nilradical()
    grad0 = gr.graded_nilradical()
    info = {
        "ring": gr.label,
        "carrier_size": ring.size,
        "units": _names(gr, ring.units()),
        "nilradical": _names(gr, nil),
        "grad_zero": _names(gr, grad0),
        "grad_zero_equals_nilradical": grad0 == nil,  # recorded, never asserted
        "homogeneous_elements": _names(gr, gr.homogeneous()),
        "graded_ideals": [_names(gr, i.elements) for i in enumerate_graded_ideals(gr)],
        "graded_maximal_ideals": [_names(gr, m.elements) for m in ls.graded_maximal_ideals],
        "is_graded_local": ls.is_graded_local,
        "profile": ring_predicates(gr).to_dict(),
    }
    if args.format == "json":
        print(json.dumps(info, indent=2))
    else:
        print(f"ring: {info['ring']} ({info['carrier_size']} elements)")
        print(f"units: {info['units']}")
        print(f"nilradical: {info['nilradical']}")
        print(f"Grad({{0}}): {info['grad_zero']}"
              f"  (equals nilradical: {info['grad_zero_equals_nilradical']})")
        print(f"homogeneous: {info['homogeneous_elements']}")
        print(f"graded ideals ({len(info['graded_ideals'])}):")
        for i in info["graded_ideals"]:
            print(f"  {i}")
        print(f"graded maximal ideals: {', '.join(info['graded_maximal_ideals'])}")
        print(f"graded local: {info['is_graded_local']}")
        for key, value in info["profile"].items():
            print(f"{key}: {value}")
    return 0


def _cmd_ideal_classify(args) -> int:
    spec = load_spec(args.spec)
    gr = spec.graded_ring
    ideal = resolve_ideal(spec, args.ideal)
    report = classify_ideal(gr, ideal)
    if args.format == "json":
        print(json.dumps(report.to_dict(gr), indent=2))
    else:
        print(f"ring: {gr.label}")
        print(f"ideal: {_names(gr, ideal.elements)}")
        print(f"Grad: {_names(gr, report.radical.elements)}")
        for flag, value in report.flags.items():
            line = f"{flag}: {value}"
            if flag in report.witnesses:
                witness = ",".join(gr.ring.name(x) for x in report.witnesses[flag])
                line += f"  (witness: {witness})"
            print(line)
    return 0


# Largest HI for `verify COR_2_7 --range`: one fresh process took 2.1 s of
# CPU for 2..512 and 18.9 s for 2..1024 (CPython 3.11.7, 2-vCPU x86_64).
MAX_RANGE_HI = 512


def _parse_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("..")
    try:
        lo, hi = decimal(lo), decimal(hi)
    except ValueError:
        raise MalformedSpec(f"--range {text!r}: expected LO..HI, e.g. 2..64") from None
    if not 2 <= lo <= hi <= MAX_RANGE_HI:
        raise MalformedSpec(f"--range {text!r}: need 2 <= LO <= HI <= {MAX_RANGE_HI}")
    return lo, hi


def _cmd_verify(args) -> int:
    from .verifier import ALL_STATEMENTS, DEFAULT_RANGE, run_suite

    if args.range and args.statement not in ("COR_2_7", "all"):
        raise MalformedSpec(f"--range applies to COR_2_7 and all, not to {args.statement}")
    if args.corpus and args.statement == "COR_2_7":
        raise MalformedSpec("--corpus does not apply to COR_2_7, which sweeps Z/n over --range")
    corpus = load_corpus(args.corpus) if args.corpus else None
    n_range = _parse_range(args.range) if args.range else DEFAULT_RANGE
    ids = ALL_STATEMENTS if args.statement == "all" else (args.statement,)
    reports = run_suite(ids, corpus=corpus, n_range=n_range)
    if args.format == "json":
        print(json.dumps([r.to_dict() for r in reports], indent=2))
    else:
        for r in reports:
            print(r.format_text())
        totals = {"PASS": 0, "FAIL": 0, "VACUOUS": 0}
        for r in reports:
            totals[r.outcome] += 1
        print(f"summary: {totals['PASS']} PASS, {totals['FAIL']} FAIL, {totals['VACUOUS']} VACUOUS")
    return 1 if any(r.outcome == "FAIL" for r in reports) else 0


def _cmd_search(args) -> int:
    from .verifier import default_corpus, search_counterexample

    corpus = load_corpus(args.corpus) if args.corpus else default_corpus()
    found = search_counterexample(corpus, args.hypothesis, args.conclusion)
    rows = [
        {"ring": w["ring"], "ideal": w["ideal"], "witness": w["witness"]} for w in found
    ]
    if args.format == "json":
        print(json.dumps(rows, indent=2))
    else:
        if not rows:
            print(f"no counterexample: {args.hypothesis} => {args.conclusion} on this corpus")
        for w in rows:
            witness = ",".join(w["witness"]) if w["witness"] else "-"
            print(f"{w['ring']}: ideal {{{','.join(w['ideal'])}}}  witness ({witness})")
    return 0


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):  # argparse's own drops a failed write
        (file or sys.stdout).write(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gradedrings",
        description="Finite graded commutative rings: ideal classification and theorem replay.",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    ring = sub.add_parser("ring", help="ring-level operations")
    ring_sub = ring.add_subparsers(dest="ring_command", required=True)
    describe = ring_sub.add_parser("describe", help="structural summary from a spec file")
    describe.add_argument("spec")
    describe.set_defaults(func=_cmd_ring_describe)

    ideal = sub.add_parser("ideal", help="ideal-level operations")
    ideal_sub = ideal.add_subparsers(dest="ideal_command", required=True)
    classify = ideal_sub.add_parser("classify", help="classification report for one ideal")
    classify.add_argument("spec")
    classify.add_argument("--ideal", required=True, help="named ideal or generator list")
    classify.set_defaults(func=_cmd_ideal_classify)

    ver = sub.add_parser("verify", help="replay the statement suite over a corpus")
    ver.add_argument("statement", help="statement id or 'all'; an unknown id lists the statements")
    ver.add_argument("--corpus", help="JSON corpus: ring specs and constructions on them")
    ver.add_argument("--range", help="n range for COR_2_7, e.g. 2..64")
    ver.set_defaults(func=_cmd_verify)

    search = sub.add_parser("search", help="find flag-separating witnesses")
    search.add_argument("--hypothesis", required=True, choices=FLAGS)
    search.add_argument("--conclusion", required=True, choices=FLAGS)
    search.add_argument("--corpus", help="JSON corpus: ring specs and constructions on them")
    search.set_defaults(func=_cmd_search)
    return parser


def _fail(exc: GradedRingError | OSError) -> int:
    """Report `exc` as one `error:` line on stderr, where stderr still works; status 2."""
    # `run` or the interpreter flushes a failed stream again: let it write nowhere
    if isinstance(exc, OSError):
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    try:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
    except OSError:  # stderr failed too (`2>&1 | head`): the status alone tells
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())
    return 2


def main(argv: Optional[list[str]] = None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # a usage error, or the help text of -h
            status = 2 if exc.code not in (0, None) else 0
        else:
            status = args.func(args)
        sys.stdout.flush()  # so that a full disk or a closed pipe fails here
        return status
    except (GradedRingError, OSError) as exc:  # OSError: the output failed
        return _fail(exc)


def run() -> NoReturn:
    """The process entry point: `main()`, a flush of both streams, then `os._exit`.

    Once both streams are flushed the output is complete, so the process ends
    without the interpreter's finalization (module teardown, a last garbage
    collection, freeing every memo), which costs about 10 ms of CPU. `atexit`
    handlers therefore never run. An exception that `main` does not catch
    propagates with its traceback, as `os._exit` is reached only after `main`
    returns. Never call this in a process that must go on.
    """
    status = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()  # e.g. argparse's usage, whose failed write it ignores
    except OSError as exc:
        status = _fail(exc)
    os._exit(status)


if __name__ == "__main__":
    run()
