"""Ring-spec and corpus documents: their JSON schema, and the one reader of both.

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

A poly_quotient is (Z/m)[u]/(modulus) with m = "p", any integer >= 2 (a
prime gives F_p[u]/(f)), and the modulus monic, coefficients ascending.
Degrees are comma-separated decimal integers, one per invariant factor
("0", "1", "0,1"; "e" or "" under the trivial group), and a single
integer under Z, the factor 0 ("-1"); two keys of one degree ("0" and "2"
under Z2) are an error.  Element expressions use the ring's own
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
A key that its object does not read, such as a misspelling, is an error.
Each error in a document names its JSON path first: `$.ideals['I']: ...`.
"""

from __future__ import annotations

import json
import re
from contextlib import contextmanager
from pathlib import Path

from .errors import GradedRingError, MalformedSpec
from .finring import Cyclic, GaussMod, PolyQuotient, Record, build_ring
from .grading import GradedRing, GradingGroup, TRIVIAL_GROUP, Z_GRADING, attach_grading, trivial_grading
from .ideals import IdealSet, ideal_generated


class CorpusEntry(Record):
    """A graded ring under the label its reports name, with the ideals its
    document names (`ideals` maps each name to an IdealSet).  A product
    R1 x R2 carries its factors as `parents` (R1, R2), and COR_2_8 runs on
    exactly the entries that have them."""

    __slots__ = ("label", "gr", "parents", "ideals")

    def __init__(self, label: str, gr: GradedRing, parents: tuple = (), ideals: dict | None = None):
        self.label = label
        self.gr = gr
        self.parents = parents
        self.ideals = {} if ideals is None else ideals


@contextmanager
def _at(where: str):
    """Re-raise a `GradedRingError` of the block as its class, prefixed `where: `."""
    try:
        yield
    except GradedRingError as exc:
        raise type(exc)(f"{where}: {exc}") from None


_JSON_TYPES = {dict: "an object", list: "a list", str: "a string", int: "an integer"}


def _expect(value, kind: type, where: str):
    """`value` if it is a JSON value of exactly `kind`, else MalformedSpec
    naming the JSON path `where` (so a boolean is never an integer)."""
    if type(value) is not kind:
        got = _JSON_TYPES.get(type(value)) or json.dumps(value)
        raise MalformedSpec(f"{where}: expected {_JSON_TYPES[kind]}, got {got}")
    return value


def _list_of(value, kind: type, where: str) -> list:
    return [_expect(v, kind, f"{where}[{i}]") for i, v in enumerate(_expect(value, list, where))]


def _field(doc: dict, key: str, kind: type, where: str):
    if key not in doc:
        raise MalformedSpec(f"{where}: missing {key!r}")
    return _expect(doc[key], kind, f"{where}.{key}")


def _elements(ring, value, where: str) -> tuple[int, ...]:
    """The elements of `ring` that the JSON list of expressions `value` names."""
    exprs = _list_of(value, str, where)
    with _at(where):
        return tuple(ring.parse(e) for e in exprs)


# the keys that a spec, and each kind of object, reads
_SPEC_KEYS = ("ring", "group", "components", "ideals")
_RING_KEYS = {"cyclic": ("kind", "n"), "gauss_mod": ("kind", "n"), "poly_quotient": ("kind", "p", "modulus")}
_GROUP_KEYS = {"trivial": ("kind",), "integers": ("kind",), "finite_abelian": ("kind", "factors")}
_ENTRY_KEYS = {"product": ("label", "kind", "of"), "quotient": ("label", "kind", "of", "by"),
               "localize": ("label", "kind", "of", "at")}


def _only(doc: dict, keys: tuple[str, ...], where: str) -> None:
    """MalformedSpec naming the first key of `doc` outside `keys`, such as a misspelling."""
    for key in doc:
        if key not in keys:
            raise MalformedSpec(f"{where}: unknown key {key!r}; expected {', '.join(map(repr, keys))}")


def _kind(doc: dict, kinds: dict, what: str, where: str, default=None) -> str:
    """The kind of the object `doc`, a key of `kinds`, once `doc` is known to
    hold only the keys that `kinds` lists for it."""
    kind = doc.get("kind", default)
    if not (type(kind) is str and kind in kinds):
        raise MalformedSpec(f"{where}.kind: unknown {what} kind {kind!r}")
    _only(doc, kinds[kind], where)
    return kind


def _build_ring(rdoc: dict, where: str):
    kind = _kind(rdoc, _RING_KEYS, "ring", where)
    if kind == "poly_quotient":
        modulus = _list_of(_field(rdoc, "modulus", list, where), int, f"{where}.modulus")
        spec = PolyQuotient(Cyclic(_field(rdoc, "p", int, where)), tuple(modulus))
    else:
        spec = (Cyclic if kind == "cyclic" else GaussMod)(_field(rdoc, "n", int, where))
    with _at(where):
        return build_ring(spec)


def _build_group(gdoc: dict, where: str) -> GradingGroup:
    kind = _kind(gdoc, _GROUP_KEYS, "group", where, default="trivial")
    if kind == "trivial":
        return TRIVIAL_GROUP
    if kind == "integers":
        return Z_GRADING
    at = f"{where}.factors"
    factors = _list_of(gdoc.get("factors", []), int, at)
    if any(f < 2 for f in factors):  # a factor 0, a copy of Z, is the kind "integers"
        raise MalformedSpec(f"{at}: invariant factors must be >= 2")
    return GradingGroup(tuple(factors))


_DECIMAL = re.compile(r"-?[0-9]+")


def decimal(text: str) -> int:
    """`text` as an int if it is a plain signed decimal integer, else ValueError
    (`int` would also take "1_0", " 1" and other digits than 0-9)."""
    if not _DECIMAL.fullmatch(text):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


def _parse_degree(group: GradingGroup, key: str, where: str):
    with _at(where):  # also a degree of the wrong rank
        try:
            parts = key.split(",") if key not in ("", "e") else []
            return group.normalize(tuple(decimal(t) for t in parts))
        except ValueError:
            raise MalformedSpec(f"degree {key!r} is not comma-separated integers") from None


def _object(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object; ValueError for a key given twice, whose values
    `json.loads` would otherwise merge into the last."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [k for k, _ in pairs]
        twice = next(k for i, k in enumerate(keys) if k in keys[:i])
        raise ValueError(f"key {twice!r} given twice in one object")
    return obj


def _json(source: str | Path, text: str | None = None):
    """The JSON document `text`, or else the one in the file at `source`;
    MalformedSpec naming `source` if it cannot be read."""
    try:
        text = Path(source).read_text(encoding="utf-8") if text is None else text
        return json.loads(text, object_pairs_hook=_object)
    except json.JSONDecodeError as exc:
        raise MalformedSpec(f"{source}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    except (OSError, ValueError) as exc:  # ValueError: text not UTF-8, or a key given twice
        raise MalformedSpec(f"{source}: {exc}") from exc
    except RecursionError:
        raise MalformedSpec(f"{source}: JSON nested too deeply") from None


def load_spec(path: str | Path) -> CorpusEntry:
    return parse_spec(_json(path), label=Path(path).stem)


def load_corpus(path: str | Path) -> list[CorpusEntry]:
    return parse_corpus(_expect(_json(path), list, "$"))


def parse_spec(doc: dict, label: str = "", where: str = "$") -> CorpusEntry:
    """The document `doc` as an entry with its named ideals; MalformedSpec
    names the JSON path of any fault, rooted at `where`."""
    _only(_expect(doc, dict, where), _SPEC_KEYS, where)
    ring = _build_ring(_field(doc, "ring", dict, where), f"{where}.ring")
    group = _build_group(_expect(doc.get("group", {}), dict, f"{where}.group"), f"{where}.group")
    components = doc.get("components")
    if components is None:
        gr = trivial_grading(ring, group, label=label)
    else:
        at = f"{where}.components"
        comps, key_of = {}, {}
        for key, exprs in _expect(components, dict, at).items():
            degree = _parse_degree(group, key, f"{at}[{key!r}]")
            if degree in key_of:
                raise MalformedSpec(
                    f"{at}: keys {key_of[degree]!r} and {key!r} name one degree, "
                    f"{group.describe(degree)}"
                )
            key_of[degree] = key
            comps[degree] = frozenset(_elements(ring, exprs, f"{at}[{key!r}]"))
        with _at(at):  # not a direct sum of subgroups that multiply by degree
            gr = attach_grading(ring, group, comps, label=label)
    at = f"{where}.ideals"
    ideals = {
        name: ideal_generated(ring, _elements(ring, gens, f"{at}[{name!r}]"))
        for name, gens in _expect(doc.get("ideals", {}), dict, at).items()
    }
    return CorpusEntry(gr.label, gr, ideals=ideals)


def parse_corpus(docs) -> list[CorpusEntry]:
    """The entries of the corpus document `docs`, its JSON text or the value
    parsed from it, in order."""
    if isinstance(docs, str):
        docs = _json("$", docs)
    entries: dict[str, CorpusEntry] = {}
    for i, doc in enumerate(_expect(docs, list, "$")):
        where = f"$[{i}]"
        label = _expect(_expect(doc, dict, where).get("label", f"corpus[{i}]"), str, f"{where}.label")
        if label in entries:
            raise MalformedSpec(f"{where}.label: {label!r} labels an earlier entry")
        if "kind" in doc:
            entries[label] = _construction(doc, label, entries, where)
        else:
            _only(doc, ("label", *_SPEC_KEYS), where)
            spec = {k: v for k, v in doc.items() if k != "label"}
            entries[label] = parse_spec(spec, label, where)
    if not entries:
        raise MalformedSpec("$: the corpus is empty")
    return list(entries.values())


def _construction(doc: dict, label: str, earlier: dict[str, CorpusEntry], where: str) -> CorpusEntry:
    """The product, quotient or localization entry `doc`, built by `transport`."""
    from . import transport  # loaded by constructions only, never by `ring describe`

    kind, at = _kind(doc, _ENTRY_KEYS, "entry", where), f"{where}.of"
    if kind == "product":
        names = _list_of(_field(doc, "of", list, where), str, at)
        if len(names) != 2:
            raise MalformedSpec(f"{at}: a product names 2 entries, not {len(names)}")
    else:
        names, key = [_field(doc, "of", str, where)], "by" if kind == "quotient" else "at"
        exprs = _field(doc, key, list, where)
    for name in names:
        if name not in earlier:
            raise MalformedSpec(f"{at}: no earlier entry is labelled {name!r}")
    parents = tuple(earlier[name].gr for name in names)
    gr = parents[0]
    if kind != "product":
        at = f"{where}.{key}"
        elements = _elements(gr.ring, exprs, at)
    with _at(at):  # GroupMismatch, a carrier above the cap, NotProper, NotGraded, InvalidSet
        if kind == "product":
            return CorpusEntry(label, transport.product(*parents), parents)
        if kind == "quotient":
            return CorpusEntry(label, transport.quotient(gr, ideal_generated(gr.ring, elements))[0])
        return CorpusEntry(label, transport.localize(gr, transport.MultiplicativeSet.create(gr, elements))[0])


def resolve_ideal(entry: CorpusEntry, text: str) -> IdealSet:
    """An ideal by document name or by comma-separated generator expressions.

    An empty generator (`''`, `,`, `2,,3`) is MalformedSpec: read as no
    generator, an unset shell variable would classify (0)."""
    if text in entry.ideals:
        return entry.ideals[text]
    parts = text.split(",")
    if not all(part.strip() for part in parts):
        raise MalformedSpec(f"--ideal {text!r}: empty generator; give a name or generators, e.g. 2,3")
    ring = entry.gr.ring
    return ideal_generated(ring, tuple(ring.parse(part) for part in parts))
