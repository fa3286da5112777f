"""Fuzz test of `cli.main`: arbitrary JSON spec and corpus documents, the
latter with product, quotient and localization entries, and argument lists
over every subcommand.  Whatever the input, the exit status is 0 or 2 (1
would claim a counterexample to a theorem) and no traceback escapes; an
element expression that does not parse exits 2 naming its JSON path.  Rings
stay at most 81 elements and `--range` within 2..16, so that no example
builds a slow ring."""

from __future__ import annotations

import contextlib
import copy
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from gradedrings.classify import FLAGS
from gradedrings.cli import main
from gradedrings.verifier import ALL_STATEMENTS

SMALL_INTS = st.integers(-2, 64)
TEXT = st.text(alphabet="0123456789+-*^,. iuxIMP", max_size=6)
LEAF = st.none() | st.booleans() | SMALL_INTS | TEXT
JSON = st.recursive(
    LEAF,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=6,
)
ELEMENT = TEXT | st.sampled_from(
    ("0", "1", "2", "3", "4", "-1", "2+3", "i", "1+i", "2i", "u", "u^2", "1-u")
)


def or_leaf(strategy):
    """`strategy`, or a JSON value of any type in its place."""
    return strategy | LEAF


# At most 64 elements: Z/n with n <= 64, Z/n[i] with n <= 8, and (Z/p)[u]/(f)
# with p <= 8 and deg f <= 2.
RING = st.one_of(
    st.fixed_dictionaries({"kind": st.just("cyclic"), "n": or_leaf(SMALL_INTS)}),
    st.fixed_dictionaries({"kind": st.just("gauss_mod"), "n": or_leaf(st.integers(-2, 8))}),
    st.fixed_dictionaries({
        "kind": st.just("poly_quotient"),
        "p": or_leaf(st.integers(-1, 8)),
        "modulus": or_leaf(st.lists(or_leaf(st.integers(-2, 8)), max_size=3)),
    }),
    JSON,
)
GROUP = st.one_of(
    st.sampled_from(({"kind": "trivial"}, {"kind": "integers"})),
    st.fixed_dictionaries({
        "kind": st.just("finite_abelian"),
        "factors": or_leaf(st.lists(or_leaf(st.integers(-1, 4)), max_size=2)),
    }),
    JSON,
)
DEGREE = st.sampled_from(("0", "1", "2", "-1", "0,1", "1,0", "e", "")) | TEXT
ELEMENTS = or_leaf(st.lists(or_leaf(ELEMENT), max_size=4))
ANY_SPEC = st.fixed_dictionaries(
    {"ring": RING},
    optional={
        "group": GROUP,
        "components": st.dictionaries(DEGREE, ELEMENTS, max_size=3) | JSON,
        "ideals": st.dictionaries(st.sampled_from(("I", "M", "P")), ELEMENTS, max_size=2) | JSON,
        "label": JSON,
    },
)


@st.composite
def valid_specs(draw, small: bool = False) -> dict:
    """A well-formed document, so that examples reach the ring and its ideals;
    a `small` ring has at most 9 elements."""
    kind = draw(st.sampled_from(("cyclic", "gauss_mod", "poly_quotient")))
    if kind == "cyclic":
        n = draw(st.integers(2, 9 if small else 64))
        ring, words = {"kind": kind, "n": n}, ("1", "2", "3", "4", "6", "-1")
    elif kind == "gauss_mod":
        n = draw(st.integers(2, 3 if small else 8))
        ring, words = {"kind": kind, "n": n}, ("1", "2", "i", "1+i", "2i")
    else:
        p = draw(st.sampled_from((2, 3, 4, 6, 8, 9) if small else (2, 3, 4, 5, 6, 7, 8, 9)))
        degree = 2 if p**2 <= (9 if small else 64) else 1
        low = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=degree))
        ring = {"kind": kind, "p": p, "modulus": [*low, 1]}
        # terms of degree below the modulus's only, so that every word names an element
        words = ("1", "2", "u", "1+u", "2u") if len(low) == 2 else ("1", "2", "-1")
    names = st.sampled_from(("I", "M", "P"))
    ideals = st.dictionaries(names, st.lists(st.sampled_from(words), max_size=2), max_size=2)
    group = st.sampled_from(({"kind": "trivial"}, {"kind": "integers"}))
    return draw(st.fixed_dictionaries({"ring": st.just(ring)}, optional={"group": group, "ideals": ideals}))


# No ring parses an "x": element variables are "u" and "i".
UNPARSABLE = st.builds("{}x{}".format, TEXT, TEXT)


@st.composite
def with_unparsable_element(draw) -> dict:
    """A well-formed document but for one element expression, in a component
    or in an ideal's generators, that no ring parses."""
    doc = draw(valid_specs())
    exprs = draw(st.lists(st.sampled_from(("0", "1")), max_size=2))
    exprs.insert(draw(st.integers(0, len(exprs))), draw(UNPARSABLE))
    if draw(st.booleans()):  # under a degree key that the group accepts
        key = "0" if doc.get("group", {}).get("kind") == "integers" else "e"
        return {**doc, "components": {key: exprs}}
    return {**doc, "ideals": {**doc.get("ideals", {}), "B": exprs}}


def _paths(value, path=()):
    yield path
    items = ()
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    for key, item in items:
        yield from _paths(item, (*path, key))


@st.composite
def corrupted(draw, docs) -> object:
    """A document from `docs` with one node, the root included, replaced by any JSON value."""
    doc = copy.deepcopy(draw(docs))
    path = draw(st.sampled_from(list(_paths(doc))))
    if not path:
        return draw(JSON)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = draw(JSON)
    return doc


@st.composite
def constructed_corpora(draw) -> list:
    """A well-formed corpus of small labelled rings and constructions that
    name earlier entries: a product only of rings, so none passes 81 elements."""
    docs = [{**doc, "label": f"R{i}"} for i, doc in enumerate(draw(
        st.lists(valid_specs(small=True), min_size=1, max_size=2)
    ))]
    rings = [doc["label"] for doc in docs]
    for i in range(len(docs), len(docs) + draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("product", "quotient", "localize")))
        if kind == "product":
            doc = {"kind": kind, "of": draw(st.lists(st.sampled_from(rings), min_size=2, max_size=2))}
        else:
            words = st.sampled_from(("0", "1", "2", "3", "4", "-1", "i", "u", "1+i", "u+1"))
            key = "by" if kind == "quotient" else "at"
            of = draw(st.sampled_from([d["label"] for d in docs]))
            doc = {"kind": kind, "of": of, key: draw(st.lists(words, max_size=2))}
        docs.append({"label": f"C{i}", **doc})
    return docs


SPEC = st.one_of(valid_specs(), corrupted(valid_specs()), with_unparsable_element(), ANY_SPEC)
VALID_CORPUS = st.lists(valid_specs(), min_size=1, max_size=2)
CORPUS = st.one_of(
    VALID_CORPUS, corrupted(VALID_CORPUS), st.lists(SPEC, max_size=2),
    constructed_corpora(), corrupted(constructed_corpora()),
)

RANGE = st.one_of(
    st.integers(2, 16).flatmap(lambda lo: st.integers(lo, 16).map(lambda hi: f"{lo}..{hi}")),
    st.sampled_from(("abc", "1..3", "9..2", "2..", "..8", "2..1025", "")),
)
STATEMENT = st.sampled_from((*ALL_STATEMENTS, "all", "THM_0_0", ""))
FLAG = st.sampled_from((*FLAGS, "graded_nothing"))
FORMAT = st.sampled_from(((), ("--format", "json"), ("--format", "text"), ("--format", "xml")))


@st.composite
def argv(draw, command: str) -> list[str]:
    """An argument list; {spec} and {corpus} stand for the drawn documents' files."""
    if command == "describe":
        args = ["ring", "describe", "{spec}"]
    elif command == "classify":
        ideal = draw(st.sampled_from(("I", "M", "P", "0", "2", "3", "4", "2,3", "u", "1+i")) | ELEMENT)
        args = ["ideal", "classify", "{spec}", "--ideal", ideal]
    elif command == "verify":
        args = ["verify", draw(STATEMENT), "--corpus", "{corpus}"]
        if draw(st.booleans()):
            args += ["--range", draw(RANGE)]
    elif command == "search":
        args = ["search", "--hypothesis", draw(FLAG), "--conclusion", draw(FLAG)]
        args += ["--corpus", "{corpus}"]
    else:
        words = st.sampled_from(("ring", "ideal", "verify", "search", "describe", "classify", "--ideal", "-h"))
        args = draw(st.lists(words | TEXT, max_size=4))
    return [*draw(FORMAT), *args]


@pytest.mark.parametrize("command", ("describe", "classify", "verify", "search", "junk"))
@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(data=st.data(), spec=SPEC, corpus=CORPUS)
def test_main_exits_0_or_2_without_traceback(command, data, spec, corpus):
    args = data.draw(argv(command))
    with tempfile.TemporaryDirectory() as work:
        files = {"{spec}": Path(work, "spec.json"), "{corpus}": Path(work, "corpus.json")}
        files["{spec}"].write_text(json.dumps(spec))
        files["{corpus}"].write_text(json.dumps(corpus))
        argv_ = [str(files[a]) if a in files else a for a in args]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(argv_)
    event(f"exit {status}")
    assert status in (0, 2), (argv_, err.getvalue())
    assert "Traceback" not in err.getvalue()


ELEMENT_PATH = re.compile(
    r"error: MalformedSpec: \$(\[0\])?\.(components\['(0|e)'\]|ideals\['B'\]): (cannot parse|term )"
)


@pytest.mark.parametrize("command", ("describe", "classify", "verify"))
@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(spec=with_unparsable_element())
def test_unparsable_element_names_its_json_path(command, spec):
    with tempfile.TemporaryDirectory() as work:
        path = Path(work, "doc.json")
        path.write_text(json.dumps([spec] if command == "verify" else spec))
        argv_ = {
            "describe": ["ring", "describe", str(path)],
            "classify": ["ideal", "classify", str(path), "--ideal", "0"],
            "verify": ["verify", "all", "--corpus", str(path)],
        }[command]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(argv_)
    assert status == 2
    assert ELEMENT_PATH.match(err.getvalue()), err.getvalue()
