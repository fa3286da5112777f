"""The one registry of what the repository ships: golden outputs and corpus documents.

`GOLDENS` maps each golden file, by its path from the repository root, to the
arguments after `gradedrings --format json` whose output it is; `{specs}` is the
`specs/` directory and `{z256}` a file `z256.json` holding `Z256` (its stem is the
ring label the goldens print).  `DOCUMENTS` maps the default corpus and each corpus
document under `specs/` to its `Pins`.  The tier-1 tests replay every golden, check
every pin, and fail for a golden or a corpus document that is not registered here.

`python tests/shipped.py`, run from any directory, writes `z256.json` there and
replays every golden through the installed `gradedrings` console script; it names
each output that differs and exits 1 if any does.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SPECS = ROOT / "specs"
GOLDEN_DIRS = ("perfbench/golden", "tests/golden")
Z256 = '{"ring": {"kind": "cyclic", "n": 256}, "group": {"kind": "trivial"}}'

# Z/30, Z/60, Z/210, (Z/2 x Z/3) x Z/5, a quotient and a localization
THREE_MAXIMAL = "family-three-maximal.json"
# Z2-graded chain rings over composite Z/m, and two Galois rings
CHAIN_RINGS = "family-chain-rings.json"
# (Z/m)[u]/(u^k), holding non-principal graded ideals such as (2, u)
NONPRINCIPAL = "family-nonprincipal.json"

GOLDENS = {
    # the benchmark's four commands
    "perfbench/golden/verify-all.out": ("verify", "all"),
    "perfbench/golden/describe-z256.out": ("ring", "describe", "{z256}"),
    "perfbench/golden/classify-z256-2.out": ("ideal", "classify", "{z256}", "--ideal", "2"),
    "perfbench/golden/classify-z256-16.out": ("ideal", "classify", "{z256}", "--ideal", "16"),
    "tests/golden/verify-all-family.out": ("verify", "all", "--corpus", f"{{specs}}/{THREE_MAXIMAL}"),
    "tests/golden/verify-all-chain.out": ("verify", "all", "--corpus", f"{{specs}}/{CHAIN_RINGS}"),
    "tests/golden/verify-all-nonprincipal.out": ("verify", "all", "--corpus", f"{{specs}}/{NONPRINCIPAL}"),
    # 255 rings and 70 prime powers, past the benchmark's 2..64
    "tests/golden/verify-cor-2-7-2-256.out": ("verify", "COR_2_7", "--range", "2..256"),
    # F2[u]/(u^3) graded by Z and F2[u]/(u^3-1) by Z/3, deg u = 1
    "tests/golden/describe-f2-u3-z.out": ("ring", "describe", "{specs}/f2-u3-z.json"),
    "tests/golden/classify-f2-u3-z-M2.out": ("ideal", "classify", "{specs}/f2-u3-z.json", "--ideal", "M2"),
    "tests/golden/describe-f2-u3-z3.out": ("ring", "describe", "{specs}/f2-u3-z3.json"),
    "tests/golden/classify-f2-u3-z3-zero.out": ("ideal", "classify", "{specs}/f2-u3-z3.json", "--ideal", "zero"),
}


class Pins(NamedTuple):
    """A corpus document's counts: its entries, their proper graded ideals and
    the non-principal ones among them, `verify all --corpus`'s PASS, FAIL and
    VACUOUS reports, and the proper graded ideals of each flag pattern, six
    bits in `classify.FLAGS` order: prime, primary, 1abs, 2abs, strongly,
    maximal."""

    entries: int
    proper: int
    nonprincipal: int
    outcomes: tuple[int, int, int]
    patterns: dict[str, int]


DOCUMENTS = {
    "DEFAULT_CORPUS":
        Pins(20, 56, 0, (308, 0, 55), {"000100": 12, "011100": 5, "011110": 14, "111101": 10, "111111": 15}),
    THREE_MAXIMAL:
        Pins(10, 56, 0, (128, 0, 55), {"000000": 10, "000100": 22, "011100": 1, "111101": 20, "111111": 3}),
    CHAIN_RINGS: Pins(5, 15, 0, (86, 0, 6), {"011110": 10, "111111": 5}),
    NONPRINCIPAL: Pins(17, 153, 43, (290, 0, 18), {"011110": 136, "111111": 17}),
}


def corpus(document: str) -> list:
    """The entries of a `DOCUMENTS` key, parsed afresh."""
    # imported here: the script replays the goldens without the package on its path
    from gradedrings import verifier
    from gradedrings.specdoc import load_corpus

    return verifier.default_corpus() if document == "DEFAULT_CORPUS" else load_corpus(SPECS / document)


def arguments(golden: str, z256: str) -> list[str]:
    """The arguments after `gradedrings` whose output is `golden`, with the
    path `z256` for `{z256}`."""
    filled = (a.replace("{specs}", str(SPECS)).replace("{z256}", z256) for a in GOLDENS[golden])
    return ["--format", "json", *filled]


def main() -> int:
    """Replay every golden through the installed console script, in the
    current directory; 1 if any output differs."""
    Path("z256.json").write_text(Z256)
    mismatches = []
    for path in GOLDENS:
        proc = subprocess.run(["gradedrings", *arguments(path, "z256.json")], capture_output=True)
        if (proc.returncode, proc.stdout) != (0, (ROOT / path).read_bytes()):
            mismatches.append(path)
            print(f"mismatch: {path} (exit {proc.returncode})", file=sys.stderr)
            sys.stderr.write(proc.stderr.decode(errors="replace"))
    print(f"{len(GOLDENS) - len(mismatches)} of {len(GOLDENS)} goldens match")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
