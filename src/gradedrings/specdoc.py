"""Ring-spec documents: JSON files describing a graded ring and named ideals.

Schema:
    {
      "ring": {"kind": "cyclic", "n": 9}
            | {"kind": "gauss_mod", "n": 4}
            | {"kind": "poly_quotient", "p": 3, "modulus": [2, 0, 1]},
      "group": {"kind": "trivial"}
             | {"kind": "finite_abelian", "factors": [2]}
             | {"kind": "integers"},
      "components": {"<degree>": ["<element expr>", ...], ...} | null,
      "ideals": {"<name>": ["<generator expr>", ...], ...}
    }

Degrees are comma-separated decimal integers for finite abelian groups
("0", "1", "0,1"), plain decimal integers for Z; two keys of one degree
("0" and "2" under Z2) are an error.  Element expressions use the ring's own
syntax: signed sums of integers ("2+3", "-1") for cyclic rings, "a+b*i"
for gauss_mod, polynomials in u for poly_quotient.  Omitting "components"
means the trivial grading (everything in the identity degree).

A corpus (`verify --corpus`, `search --corpus`, `verifier.DEFAULT_CORPUS`)
is a JSON list of entries, each with a "label" unique in the corpus
(default "corpus[<index>]"): a document as above, or a construction on
entries above it, which it names by label:
    {"kind": "product", "of": ["<label>", "<label>"]}
    {"kind": "quotient", "of": "<label>", "by": ["<generator expr>", ...]}
    {"kind": "localize", "of": "<label>", "at": ["<element expr>", ...]}
A product's two factors are its `parents`; a quotient is by the ideal the
expressions generate, a localization at the homogeneous elements listed
and 1, which must be closed under multiplication and miss 0.
`verifier.parse_corpus` reads a corpus.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Optional

from .errors import MalformedSpec
from .finring import Cyclic, GaussMod, PolyQuotient, Record, build_ring
from .grading import GradedRing, GradingGroup, TRIVIAL_GROUP, attach_grading, trivial_grading
from .ideals import IdealSet, ideal_generated


class RingSpecDocument(Record):
    __slots__ = ("graded_ring", "ideals")

    def __init__(self, graded_ring: GradedRing, ideals: Optional[dict[str, IdealSet]] = None):
        self.graded_ring = graded_ring
        self.ideals = {} if ideals is None else ideals


_JSON_TYPES = {dict: "an object", list: "a list", str: "a string", int: "an integer"}


def expect(value, kind: type, where: str):
    """`value` if it is a JSON value of exactly `kind`, else MalformedSpec
    naming the JSON path `where` (so a boolean is never an integer)."""
    if type(value) is not kind:
        got = _JSON_TYPES.get(type(value)) or json.dumps(value)
        raise MalformedSpec(f"{where}: expected {_JSON_TYPES[kind]}, got {got}")
    return value


def list_of(value, kind: type, where: str) -> list:
    return [expect(v, kind, f"{where}[{i}]") for i, v in enumerate(expect(value, list, where))]


def field(doc: dict, key: str, kind: type, where: str):
    if key not in doc:
        raise MalformedSpec(f"{where}: missing {key!r}")
    return expect(doc[key], kind, f"{where}.{key}")


def _build_ring(rdoc: dict, where: str):
    kind = rdoc.get("kind")
    if kind == "cyclic":
        spec = Cyclic(field(rdoc, "n", int, where))
    elif kind == "gauss_mod":
        spec = GaussMod(field(rdoc, "n", int, where))
    elif kind == "poly_quotient":
        modulus = list_of(field(rdoc, "modulus", list, where), int, f"{where}.modulus")
        spec = PolyQuotient(Cyclic(field(rdoc, "p", int, where)), tuple(modulus))
    else:
        raise MalformedSpec(f"{where}.kind: unknown ring kind {kind!r}")
    return build_ring(spec)


def _build_group(gdoc: dict, where: str) -> GradingGroup:
    kind = gdoc.get("kind", "trivial")
    if kind == "trivial":
        return TRIVIAL_GROUP
    if kind == "finite_abelian":
        at = f"{where}.factors"
        factors = list_of(gdoc.get("factors", []), int, at)
        try:
            return GradingGroup("finite_abelian", tuple(factors))
        except MalformedSpec as exc:
            raise MalformedSpec(f"{at}: {exc}") from None
    if kind == "integers":
        return GradingGroup("integers")
    raise MalformedSpec(f"{where}.kind: unknown group kind {kind!r}")


_DECIMAL = re.compile(r"-?[0-9]+")


def decimal(text: str) -> int:
    """`text` as an int if it is a plain signed decimal integer, else ValueError
    (`int` would also take "1_0", " 1" and other digits than 0-9)."""
    if not _DECIMAL.fullmatch(text):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


def _parse_degree(group: GradingGroup, key: str, where: str):
    try:
        if group.kind == "integers":
            return decimal(key)
        parts = key.split(",") if key not in ("", "e") else []
        return group.normalize(tuple(decimal(t) for t in parts))
    except ValueError:
        raise MalformedSpec(f"{where}: degree {key!r} is not comma-separated integers") from None
    except MalformedSpec as exc:  # a degree of the wrong rank
        raise MalformedSpec(f"{where}: {exc}") from None


def _object(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object; ValueError for a key given twice, whose values
    `json.loads` would otherwise merge into the last."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [k for k, _ in pairs]
        twice = next(k for i, k in enumerate(keys) if k in keys[:i])
        raise ValueError(f"key {twice!r} given twice in one object")
    return obj


def read_json(path: str | Path):
    """The JSON document in the file at `path`; MalformedSpec if unreadable."""
    try:
        text = Path(path).read_text(encoding="utf-8")
        return json.loads(text, object_pairs_hook=_object)
    except json.JSONDecodeError as exc:
        raise MalformedSpec(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    except (OSError, ValueError) as exc:  # ValueError: text not UTF-8, or a key given twice
        raise MalformedSpec(f"{path}: {exc}") from exc


def load_spec(path: str | Path) -> RingSpecDocument:
    return parse_spec(read_json(path), label=Path(path).stem)


def parse_spec(doc: dict, label: str = "", where: str = "$") -> RingSpecDocument:
    """The document `doc`; MalformedSpec names the JSON path of any fault,
    rooted at `where`."""
    expect(doc, dict, where)
    ring = _build_ring(field(doc, "ring", dict, where), f"{where}.ring")
    group = _build_group(expect(doc.get("group", {}), dict, f"{where}.group"), f"{where}.group")

    def parse_elements(value, at: str) -> list[int]:
        return [ring.parse(e) for e in list_of(value, str, at)]

    label = label or ring.label
    components = doc.get("components")
    if components is None:
        gr = trivial_grading(ring, group, label=label)
    else:
        at = f"{where}.components"
        comps, key_of = {}, {}
        for key, exprs in expect(components, dict, at).items():
            degree = _parse_degree(group, key, f"{at}[{key!r}]")
            if degree in key_of:
                raise MalformedSpec(
                    f"{at}: keys {key_of[degree]!r} and {key!r} name one degree, "
                    f"{group.describe(degree)}"
                )
            key_of[degree] = key
            comps[degree] = frozenset(parse_elements(exprs, f"{at}[{key!r}]"))
        gr = attach_grading(ring, group, comps, label=label)
    at = f"{where}.ideals"
    ideals = {
        name: ideal_generated(ring, tuple(parse_elements(gens, f"{at}[{name!r}]")))
        for name, gens in expect(doc.get("ideals", {}), dict, at).items()
    }
    return RingSpecDocument(graded_ring=gr, ideals=ideals)


def resolve_ideal(spec: RingSpecDocument, text: str) -> IdealSet:
    """An ideal by document name or by comma-separated generator expressions."""
    if text in spec.ideals:
        return spec.ideals[text]
    ring = spec.graded_ring.ring
    gens = tuple(ring.parse(part) for part in text.split(",") if part.strip())
    return ideal_generated(ring, gens)
