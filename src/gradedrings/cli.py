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

import json
import os
import sys
from types import SimpleNamespace
from typing import NoReturn, Optional

from .classify import FLAGS, classify_ideal, local_structure, ring_predicates
from .errors import GradedRingError, MalformedSpec
from .ideals import braced, element_names, enumerate_graded_ideals
from .specdoc import decimal, load_corpus, load_spec, resolve_ideal


def _cmd_ring_describe(args) -> int:
    gr = load_spec(args.spec).gr
    ring = gr.ring
    ls = local_structure(gr)
    nil = ring.nilradical()
    grad0 = gr.graded_nilradical()
    info = {
        "ring": gr.label,
        "carrier_size": ring.size,
        "units": braced(element_names(ring, ring.units())),
        "nilradical": braced(element_names(ring, nil)),
        "grad_zero": braced(element_names(ring, grad0)),
        "grad_zero_equals_nilradical": grad0 == nil,  # recorded, never asserted
        "homogeneous_elements": braced(element_names(ring, gr.homogeneous())),
        "graded_ideals": [braced(element_names(ring, i)) for i in enumerate_graded_ideals(gr)],
        "graded_maximal_ideals": [braced(element_names(ring, m)) for m in ls.graded_maximal_ideals],
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
    entry = load_spec(args.spec)
    gr = entry.gr
    ideal = resolve_ideal(entry, args.ideal)
    report = classify_ideal(gr, ideal)
    if args.format == "json":
        print(json.dumps(report.to_dict(gr), indent=2))
    else:
        print(f"ring: {gr.label}")
        print(f"ideal: {braced(element_names(gr.ring, ideal))}")
        print(f"Grad: {braced(element_names(gr.ring, report.radical))}")
        for flag, value in report.flags.items():
            line = f"{flag}: {value}"
            if flag in report.witnesses:
                line += f"  (witness: {','.join(element_names(gr.ring, report.witnesses[flag]))})"
            print(line)
    return 0


# Largest HI for `verify COR_2_7 --range`: one fresh process took 1.5 s of
# CPU for 2..512 and 12.7 s for 2..1024 (CPython 3.11.7, 2-vCPU x86_64).
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
            print(f"{w['ring']}: ideal {braced(w['ideal'])}  witness ({witness})")
    return 0


PROG = "gradedrings"
SPEC = "JSON spec file: a ring, its grading and named ideals"
CORPUS = "JSON corpus: ring specs and constructions on them"
# An option is `--name: (choices or None, required, help)`, a positional
# `(name, help)`. The root's options come before the command words.
ROOT = (
    {"--format": (("text", "json"), False, "report form (default: text)")},
    "Finite graded commutative rings: ideal classification and theorem replay.",
)
# The command table: words -> (handler, positionals, options, help line).
# `parse_args`, every usage line, help text and usage error are read off it.
COMMANDS = {
    ("ring", "describe"): (_cmd_ring_describe, (("spec", SPEC),), {}, "structural summary from a spec file"),
    ("ideal", "classify"): (
        _cmd_ideal_classify, (("spec", SPEC),), {"--ideal": (None, True, "named ideal or generator list")},
        "classification report for one ideal",
    ),
    ("verify",): (
        _cmd_verify,
        (("statement", "statement id or 'all'; an unknown id lists the statements"),),
        {"--corpus": (None, False, CORPUS), "--range": (None, False, "n range for COR_2_7, e.g. 2..64")},
        "replay the statement suite over a corpus",
    ),
    ("search",): (
        _cmd_search, (),
        {
            "--hypothesis": (FLAGS, True, "a flag the reported ideals have"),
            "--conclusion": (FLAGS, True, "a flag they lack"),
            "--corpus": (None, False, CORPUS),
        },
        "find flag-separating witnesses",
    ),
}


def _under(words: tuple[str, ...]) -> list[tuple[str, ...]]:
    """The commands whose words start with `words`."""
    return [w for w in COMMANDS if w[: len(words)] == words]


def _next_words(words: tuple[str, ...]) -> list[str]:
    return list(dict.fromkeys(w[len(words)] for w in _under(words)))


def _form(name: str, choices) -> str:
    return f"{name} {{{','.join(choices)}}}" if choices else f"{name} {name[2:].upper()}"


def _usage(words: tuple[str, ...]) -> str:
    if words in COMMANDS:
        _, positionals, options, _ = COMMANDS[words]
        tail = [p for p, _ in positionals]
    else:  # the root, or a command word that needs a subcommand
        options, tail = {} if words else ROOT[0], ["{" + ",".join(_next_words(words)) + "}", "..."]
    shown = [_form(n, c) if required else f"[{_form(n, c)}]" for n, (c, required, _) in options.items()]
    return " ".join(["usage:", PROG, *words, "[-h]", *shown, *tail]) + "\n"


def _help(words: tuple[str, ...]) -> NoReturn:
    """Write the help of a command, or of the commands whose words start with `words`."""
    if words in COMMANDS:
        _, rows, options, about = COMMANDS[words]
        title = "positional arguments"
    else:
        options, about = ({}, "") if words else ROOT
        rows, title = [(" ".join(w), COMMANDS[w][3]) for w in _under(words)], "commands"
    flags = [("-h, --help", "show this help message and exit")]
    flags += [(_form(n, c), text) for n, (c, _, text) in options.items()]
    # help texts start in one column, at most the 24th; a longer left part
    # puts its help text on the next line
    column = min(max(len(left) for left, _ in [*rows, *flags]) + 4, 24)
    text = _usage(words) + (f"\n{about}\n" if about else "")
    for heading, section in ((title, rows), ("options", flags)):
        text += f"\n{heading}:\n" if section else ""
        for left, right in section:
            lead = f"  {left}".ljust(column) if len(left) + 4 <= column else f"  {left}\n{'':{column}}"
            text += (lead + right).rstrip() + "\n"
    sys.stdout.write(text)  # a failed write raises, and `main` exits 2 through `_fail`
    raise SystemExit(0)


def _error(words: tuple[str, ...], message: str) -> NoReturn:
    sys.stderr.write(f"{_usage(words)}{PROG}: error: {message}\n")
    raise SystemExit(2)


def _choose(words: tuple[str, ...], argument: str, value: str, choices) -> None:
    if choices and value not in choices:
        listed = ", ".join(map(repr, choices))
        _error(words, f"argument {argument}: invalid choice: {value!r} (choose from {listed})")


def parse_args(argv: list[str]) -> SimpleNamespace:
    """Read `argv` against `COMMANDS`: `[--format F] WORDS... ARGUMENTS...`.

    An option reads `--opt VALUE` or `--opt=VALUE`; VALUE may start with `-`,
    the last of a repeated option wins, `--` ends the options, and no option
    is abbreviated. The result holds `func`, `format` and one attribute per
    positional and option of the command (None for an option not given).
    `-h`/`--help` writes the help to stdout and raises SystemExit(0); a usage
    error writes the usage and `gradedrings: error: …` to stderr and raises
    SystemExit(2).
    """
    rest, words, options = argv[::-1], (), ROOT[0]
    values, found, extra, ended = {"format": "text"}, [], [], False
    while rest:
        arg = rest.pop()
        name, eq, value = arg.partition("=")
        if ended or not arg.startswith("-") or arg == "-":
            if words in COMMANDS:
                (found if len(found) < len(COMMANDS[words][1]) else extra).append(arg)
                continue
            _choose(words, "command", arg, _next_words(words))
            words += (arg,)
            options = COMMANDS[words][2] if words in COMMANDS else {}
        elif arg == "--":
            ended = True
        elif arg in ("-h", "--help"):
            _help(words)
        elif name in options:
            if not (eq or rest):
                _error(words, f"argument {name}: expected one argument")
            values[name[2:]] = value if eq else rest.pop()
            _choose(words, name, values[name[2:]], options[name][0])
        elif words in COMMANDS:
            extra.append(arg)
        else:
            _error(words, f"unrecognized arguments: {arg}")
    if words not in COMMANDS:
        _error(words, "the following arguments are required: command")
    func, positionals, options, _ = COMMANDS[words]
    missing = [p for p, _ in positionals[len(found):]]
    missing += [n for n, (_, required, _) in options.items() if required and n[2:] not in values]
    if missing:
        _error(words, f"the following arguments are required: {', '.join(missing)}")
    if extra:
        _error(words, f"unrecognized arguments: {' '.join(extra)}")
    named = {n[2:]: None for n in options} | values
    return SimpleNamespace(func=func, **named, **{p: v for (p, _), v in zip(positionals, found)})


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
            args = parse_args(sys.argv[1:] if argv is None else argv)
        except SystemExit as exc:  # a usage error, or the help text of -h
            status = exc.code
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
        sys.stderr.flush()  # line-buffered: a write not ended by a newline is still held
    except OSError as exc:
        status = _fail(exc)
    os._exit(status)


if __name__ == "__main__":
    run()
