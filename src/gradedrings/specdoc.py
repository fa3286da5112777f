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

Degrees are comma-separated integers for finite abelian groups ("0", "1",
"0,1"), plain integers for Z.  Element expressions use the ring's own
syntax: integers for cyclic rings, "a+b*i" for gauss_mod, polynomials in
u for poly_quotient.  Omitting "components" means the trivial grading
(everything in the identity degree).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import MalformedSpec
from .finring import Cyclic, GaussMod, PolyQuotient, build_ring
from .grading import GradedRing, GradingGroup, TRIVIAL_GROUP, attach_grading, trivial_grading
from .ideals import IdealSet, ideal_generated


@dataclass
class RingSpecDocument:
    graded_ring: GradedRing
    ideals: dict[str, IdealSet] = field(default_factory=dict)


def _build_group(doc: dict) -> GradingGroup:
    kind = doc.get("kind", "trivial")
    if kind == "trivial":
        return TRIVIAL_GROUP
    if kind == "finite_abelian":
        return GradingGroup("finite_abelian", tuple(doc.get("factors", ())))
    if kind == "integers":
        return GradingGroup("integers")
    raise MalformedSpec(f"unknown group kind {kind!r}")


def _parse_degree(group: GradingGroup, key: str):
    if group.kind == "integers":
        return int(key)
    return group.normalize(tuple(int(t) for t in key.split(",")) if key not in ("", "e") else ())


def read_json(path: str | Path):
    """The JSON document in the file at `path`; MalformedSpec if unreadable."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise MalformedSpec(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    except OSError as exc:
        raise MalformedSpec(f"{path}: {exc}") from exc


def load_spec(path: str | Path) -> RingSpecDocument:
    return parse_spec(read_json(path), label=Path(path).stem)


def parse_spec(doc: dict, label: str = "") -> RingSpecDocument:
    if "ring" not in doc:
        raise MalformedSpec("spec document missing 'ring'")
    rdoc = doc["ring"]
    kind = rdoc.get("kind")
    try:
        if kind == "cyclic":
            spec = Cyclic(int(rdoc["n"]))
        elif kind == "gauss_mod":
            spec = GaussMod(int(rdoc["n"]))
        elif kind == "poly_quotient":
            spec = PolyQuotient(Cyclic(int(rdoc["p"])), tuple(int(c) for c in rdoc["modulus"]))
        else:
            raise MalformedSpec(f"unknown ring kind {kind!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedSpec(f"ring spec {rdoc!r}: {exc!r}") from exc
    ring = build_ring(spec)
    group = _build_group(doc.get("group", {}))
    components = doc.get("components")
    if components is None:
        gr = trivial_grading(ring, group, label=label or ring.label)
    else:
        comps = {
            _parse_degree(group, key): frozenset(ring.parse(e) for e in exprs)
            for key, exprs in components.items()
        }
        gr = attach_grading(ring, group, comps, label=label or ring.label)
    ideals = {
        name: ideal_generated(ring, tuple(ring.parse(e) for e in gens))
        for name, gens in doc.get("ideals", {}).items()
    }
    return RingSpecDocument(graded_ring=gr, ideals=ideals)


def resolve_ideal(spec: RingSpecDocument, text: str) -> IdealSet:
    """An ideal by document name or by comma-separated generator expressions."""
    if text in spec.ideals:
        return spec.ideals[text]
    ring = spec.graded_ring.ring
    gens = tuple(ring.parse(part) for part in text.split(",") if part.strip())
    return ideal_generated(ring, gens)
