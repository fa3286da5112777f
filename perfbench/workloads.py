"""Workload definitions: the CLI invocations each workload runs and their oracles.

Every invocation is checked three ways: exit status 0, stdout byte-identical
to the golden output stored in ``perfbench/golden``, and a closed-form check
computed here without the library.  The inputs are fixed; the seed only
permutes the order of invocations within a pass.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# Spec files written into the benchmark's work directory at set-up.  The file
# stem becomes the ring label in the CLI output, so the names are part of the
# golden outputs.
SPECS = {
    "z256.json": {"ring": {"kind": "cyclic", "n": 256}, "group": {"kind": "trivial"}},
}

STATEMENT_IDS = (
    "COR_2_4", "COR_3_2", "COR_RE", "LEMMA_2", "LEMMA_2_18", "LEMMA_GRAD_PRIME",
    "PROP_2_10", "PROP_2_11", "PROP_2_12", "PROP_2_14", "PROP_2_17", "PROP_2_19",
    "PROP_2_9", "PROP_3_1", "PROP_3_3", "PROP_3_4_REDUCTION", "THM_2_2", "THM_2_6",
    "COR_2_7", "COR_2_8",
)

FLAGS = (
    "graded_prime", "graded_primary", "graded_1abs_primary",
    "graded_2abs_primary", "graded_strongly_1abs_primary", "graded_maximal",
)


class OracleError(Exception):
    """An invocation's output contradicts a closed form."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise OracleError(message)


def _parse_set(text: str) -> list[str]:
    _require(text.startswith("{") and text.endswith("}"), f"not a set: {text[:40]!r}")
    body = text[1:-1]
    return body.split(",") if body else []


def _reports_pass(reports: list) -> None:
    for r in reports:
        _require(r["outcome"] in ("PASS", "VACUOUS"), f"{r['statement_id']} on {r['subject']}: {r['outcome']}")


def _prime_powers(lo: int, hi: int) -> int:
    def is_pp(n: int) -> bool:
        p = next(d for d in range(2, n + 1) if n % d == 0)
        while n % p == 0:
            n //= p
        return n == 1

    return sum(is_pp(n) for n in range(lo, hi + 1))


def check_verify_all(doc) -> None:
    _reports_pass(doc)
    _require({r["statement_id"] for r in doc} == set(STATEMENT_IDS), "statement ids differ from the 20 expected")
    # COR_2_7 over the default range 2..64: a strongly ideal exists iff n is a prime power.
    (cor,) = [r for r in doc if r["statement_id"] == "COR_2_7"]
    counters = cor["counters"]
    _require(counters.get("rings") == 63, f"COR_2_7 rings = {counters.get('rings')}, expected 63")
    expected = _prime_powers(2, 64)
    _require(
        counters.get("existence_instances") == expected,
        f"COR_2_7 existence_instances = {counters.get('existence_instances')}, expected {expected} prime powers",
    )


def check_describe_z256(doc) -> None:
    ideals = [set(_parse_set(s)) for s in doc["graded_ideals"]]
    # Z/256 is a chain ring: its ideals are exactly (2^k), k = 0..8.
    expected = [{str(x) for x in range(0, 256, 2**k)} for k in range(8, -1, -1)]
    _require(ideals == expected, f"graded ideals are not the 9-ideal chain (2^k): got {len(ideals)}")
    units = _parse_set(doc["units"])
    _require(sorted(units, key=int) == [str(x) for x in range(1, 256, 2)], f"{len(units)} units, expected the 128 odd residues")
    _require(doc["is_graded_local"] is True, "Z/256 must be graded local")


def _check_flags(expected_false: set[str]) -> Callable:
    def check(doc) -> None:
        want = {flag: flag not in expected_false for flag in FLAGS}
        _require(doc["flags"] == want, f"flags {doc['flags']} != {want}")

    return check


@dataclass(frozen=True)
class Invocation:
    name: str
    argv: tuple[str, ...]  # "{work}" is replaced by the work directory
    check: Callable

    def args(self, work: Path) -> list[str]:
        return [a.replace("{work}", str(work)) for a in self.argv]

    @property
    def golden(self) -> Path:
        return GOLDEN_DIR / f"{self.name}.out"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    invocations: tuple[Invocation, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "corpus-replay",
            "verify all on the default corpus: the only workload with transport, statements and memo reuse",
            (Invocation("verify-all", ("--format", "json", "verify", "all"), check_verify_all),),
        ),
        Workload(
            "describe-large",
            "ring describe on Z/256: the lattice plus axiom, unit and nilradical scans on a large carrier",
            (Invocation("describe-z256", ("--format", "json", "ring", "describe", "{work}/z256.json"), check_describe_z256),),
        ),
        Workload(
            "classify-large",
            "ideal classify (2) and (16) on Z/256: the element kernels on the same ring, never the lattice",
            (
                Invocation(
                    "classify-z256-2",
                    ("--format", "json", "ideal", "classify", "{work}/z256.json", "--ideal", "2"),
                    _check_flags(set()),
                ),
                Invocation(
                    "classify-z256-16",
                    ("--format", "json", "ideal", "classify", "{work}/z256.json", "--ideal", "16"),
                    _check_flags({"graded_prime", "graded_maximal"}),
                ),
            ),
        ),
    )
}


def write_specs(work: Path) -> None:
    work.mkdir(parents=True, exist_ok=True)
    for name, doc in SPECS.items():
        (work / name).write_text(json.dumps(doc, indent=2) + "\n")


def check_output(inv: Invocation, status: int, stdout: bytes) -> str | None:
    """Return None when the output is right, else a one-line reason."""
    if status != 0:
        return f"{inv.name}: exit status {status}"
    try:
        golden = inv.golden.read_bytes()
    except OSError as exc:
        return f"{inv.name}: no golden output ({exc.strerror})"
    if stdout != golden:
        return f"{inv.name}: stdout differs from {inv.golden.name}"
    try:
        inv.check(json.loads(stdout))
    except (OracleError, KeyError, TypeError, ValueError) as exc:
        return f"{inv.name}: {exc}"
    return None
