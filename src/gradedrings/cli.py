"""Command-line frontend.

Subcommands:
    ring describe <spec>                       structural summary of a graded ring
    ideal classify <spec> --ideal <name|gens>  classification report
    verify <statement-id|all> [...]            replay the statement suite
    search --hypothesis F --conclusion G       separating witnesses between flags

Exit status: 0 when every outcome is PASS/VACUOUS, 1 on any FAIL,
2 on usage or spec errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .classify import (
    FLAGS,
    classify_ideal,
    local_structure,
    ring_predicates,
)
from .errors import GradedRingError, MalformedSpec
from .ideals import IdealSet, proper_graded_ideals
from .specdoc import load_spec, parse_spec, read_json, resolve_ideal
from .verifier import (
    ALL_STATEMENTS,
    CorpusEntry,
    default_corpus,
    run_suite,
    search_counterexample,
    verify,
)


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
        "graded_ideals": [_names(gr, i.elements) for i in proper_graded_ideals(gr)]
        + [_names(gr, frozenset(ring.elements()))],
        "graded_maximal_ideals": [_names(gr, m.elements) for m in ls.graded_maximal_ideals],
        "is_graded_local": ls.is_graded_local,
        "profile": vars(ring_predicates(gr)),
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


def _load_corpus(path: Optional[str]) -> list[CorpusEntry]:
    if path is None:
        return default_corpus()
    docs = read_json(path)
    if not isinstance(docs, list):
        raise MalformedSpec(f"{path}: corpus must be a JSON list of ring spec documents")
    entries = []
    for i, doc in enumerate(docs):
        if not isinstance(doc, dict):
            raise MalformedSpec(f"{path}[{i}]: expected a ring spec object, got {type(doc).__name__}")
        spec = parse_spec(doc, label=doc.get("label", f"corpus[{i}]"))
        entries.append(CorpusEntry(spec.graded_ring.label, spec.graded_ring))
    return entries


def _parse_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("..")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise MalformedSpec(f"--range {text!r}: expected LO..HI, e.g. 2..64") from None


def _cmd_verify(args) -> int:
    corpus = _load_corpus(args.corpus)
    n_range = _parse_range(args.range) if args.range else (2, 64)
    if args.statement == "all":
        reports = run_suite(corpus=corpus, n_range=n_range)
    else:
        reports = verify(args.statement, corpus=corpus, n_range=n_range)
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
    corpus = _load_corpus(args.corpus)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    ver.add_argument("statement", help="statement id or 'all'; see --list via 'all'")
    ver.add_argument("--corpus", help="JSON file with a list of ring spec documents")
    ver.add_argument("--range", help="n range for COR_2_7, e.g. 2..64")
    ver.set_defaults(func=_cmd_verify)

    search = sub.add_parser("search", help="find flag-separating witnesses")
    search.add_argument("--hypothesis", required=True, choices=FLAGS)
    search.add_argument("--conclusion", required=True, choices=FLAGS)
    search.add_argument("--corpus", help="JSON file with a list of ring spec documents")
    search.set_defaults(func=_cmd_search)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except GradedRingError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
