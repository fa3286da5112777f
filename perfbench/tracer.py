"""Span tracer around the public functions of each gradedrings module.

`Tracer.install()` replaces every listed function, method and registry
entry, and every name another module bound to the same object by a direct
import, with a wrapper that records a span (name, start, end, parent).
`Tracer.uninstall()` puts every original back.  Spans are kept in memory and
written by `dump()`; `layer_metrics()` turns the dumps of one pass into the
per-layer metrics.  The rings' own add/mul closures are never wrapped.
"""

from __future__ import annotations

import importlib
import json
import statistics
from collections import Counter, defaultdict
from functools import partial
from time import perf_counter_ns

from workloads import STATEMENT_IDS

MODULES = ("finring", "grading", "ideals", "classify", "transport", "verifier", "specdoc", "cli")

# (module, attribute, span name); "Class.method" wraps the method on the class.
SPANS = (
    ("finring", "FinRing.__init__", "finring.build"),
    ("finring", "build_ring", "finring.build"),
    ("finring", "FinRing.check_axioms", "finring.axioms"),
    ("finring", "FinRing.units", "finring.units"),
    ("finring", "FinRing.nilradical", "finring.nilradical"),
    ("grading", "attach_grading", "grading.attach"),
    ("grading", "GradedRing.graded_nilradical", "grading.grad_zero"),
    ("ideals", "enumerate_graded_ideals", "ideals.lattice"),
    ("ideals", "ideal_generated", "ideals.generate"),
    ("ideals", "combine", None),  # named ideals.<op>
    ("ideals", "graded_radical", "ideals.radical"),
    ("ideals", "colon", "ideals.colon"),
    ("ideals", "is_graded_ideal", "ideals.graded_check"),
    ("ideals", "require_graded", "ideals.graded_check"),
    ("classify", "is_graded_prime", "classify.prime"),
    ("classify", "is_graded_primary", "classify.primary"),
    ("classify", "is_graded_1abs_primary", "classify.1abs"),
    ("classify", "is_graded_strongly_1abs_primary", "classify.strongly"),
    ("classify", "is_graded_2abs_primary", "classify.2abs"),
    ("classify", "is_graded_maximal", "classify.maximal"),
    ("classify", "strongly_1abs_ideal_form", "classify.ideal_form"),
    ("classify", "local_structure", "classify.local_structure"),
    ("classify", "ring_predicates", "classify.ring_predicates"),
    ("classify", "classify_ideal", "classify.classify_ideal"),
    ("transport", "quotient", "transport.quotient"),
    ("transport", "product", "transport.product"),
    ("transport", "localize", "transport.localize"),
    ("transport", "identity_subring", "transport.identity_subring"),
    ("transport", "hom_build", "transport.hom_build"),
    ("transport", "hom_transport", "transport.hom_transport"),
    ("transport", "enumerate_multiplicative_sets", "transport.mult_sets"),
    ("verifier", "default_corpus", "verifier.corpus"),
    ("verifier", "verify", "verifier.verify"),
    ("verifier", "run_suite", "verifier.run_suite"),
    ("verifier", "_cor_2_7", "verifier.COR_2_7"),
    ("verifier", "_cor_2_8", "verifier.COR_2_8"),
    ("specdoc", "load_spec", "specdoc.load"),
    ("specdoc", "parse_spec", "specdoc.load"),
    ("specdoc", "resolve_ideal", "specdoc.resolve"),
    ("cli", "main", "cli.main"),
)

KERNELS = {
    "classify.prime", "classify.primary", "classify.1abs",
    "classify.strongly", "classify.2abs", "classify.maximal",
}
CLOSURE_LIMIT = 256  # FinRing keeps dense tables up to this carrier size

LAYERS = ("finring", "grading", "ideals", "classify", "transport", "verifier", "specdoc", "cli")

# per-layer metric -> span name whose self time it sums
SELF_TIME_METRICS = {
    "finring.build_s": "finring.build",
    "finring.axioms_s": "finring.axioms",
    "finring.units_s": "finring.units",
    "finring.nilradical_s": "finring.nilradical",
    "grading.attach_s": "grading.attach",
    "grading.grad_zero_s": "grading.grad_zero",
    "ideals.lattice_s": "ideals.lattice",
    "ideals.generate_s": "ideals.generate",
    "ideals.sum_s": "ideals.sum",
    "ideals.radical_s": "ideals.radical",
    "ideals.colon_s": "ideals.colon",
    "ideals.graded_check_s": "ideals.graded_check",
    "classify.prime_s": "classify.prime",
    "classify.primary_s": "classify.primary",
    "classify.1abs_s": "classify.1abs",
    "classify.strongly_s": "classify.strongly",
    "classify.2abs_s": "classify.2abs",
    "classify.maximal_s": "classify.maximal",
    "classify.ideal_form_s": "classify.ideal_form",
    "classify.local_structure_s": "classify.local_structure",
    "transport.quotient_s": "transport.quotient",
    "transport.product_s": "transport.product",
    "transport.localize_s": "transport.localize",
    "transport.identity_subring_s": "transport.identity_subring",
    "transport.hom_build_s": "transport.hom_build",
    "transport.hom_transport_s": "transport.hom_transport",
    "transport.mult_sets_s": "transport.mult_sets",
    "verifier.corpus_s": "verifier.corpus",
    "specdoc.load_s": "specdoc.load",
    **{f"verifier.{sid}.self_s": f"verifier.{sid}" for sid in STATEMENT_IDS},
}

COUNT_METRICS = (
    "finring.rings_built", "finring.closure_mode_rings", "grading.attach_calls",
    "ideals.lattice_calls", "ideals.lattice_hit_ratio", "ideals.lattice_size",
    "ideals.closure_calls", "classify.kernel_calls", "classify.memo_hit_ratio",
    "classify.false_share", "transport.rings_built", "verifier.instances",
)


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start_ns, end_ns, parent index]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self._lattice_keys: set = set()
        self._kernel_keys: set = set()
        self._keep: list = []  # keeps keyed rings alive so their ids stay unique
        self._restore: list = []

    # ------------------------------------------------------------ recording

    def _wrap(self, name, fn, hook=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span_name = name if name is not None else f"ideals.{args[2] if len(args) > 2 else kwargs['op']}"
            idx = len(spans)
            spans.append([span_name, 0, 0, stack[-1] if stack else -1])
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx][1], spans[idx][2] = start, end
            if hook is not None:
                hook(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counted(self, counter, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _in_transport(self) -> bool:
        return any(self.spans[i][0].startswith("transport.") for i in self._stack)

    def _on_ring(self, args, result) -> None:
        ring = args[0]
        self.counts["finring.rings_built"] += 1
        if ring.size > CLOSURE_LIMIT:
            self.counts["finring.closure_mode_rings"] += 1
        if self._in_transport():
            self.counts["transport.rings_built"] += 1

    def _on_lattice(self, args, result) -> None:
        gr = args[0]
        cap = args[1] if len(args) > 1 else None
        self.counts["ideals.lattice_calls"] += 1
        key = (id(gr), cap)
        if key not in self._lattice_keys:
            self._lattice_keys.add(key)
            self._keep.append(gr)
            self.counts["ideals.lattice_distinct"] += 1
            self.counts["ideals.lattice_size"] += len(result)

    def _kernel_hook(self, kernel):
        def hook(args, result) -> None:
            gr, ideal = args[0], args[1]
            self.counts["classify.kernel_calls"] += 1
            key = (id(gr), ideal.elements, kernel)
            if key not in self._kernel_keys:
                self._kernel_keys.add(key)
                self._keep.append(gr)
                self.counts["classify.kernel_distinct"] += 1
                verdict = result if isinstance(result, bool) else result[0]
                if not verdict:
                    self.counts["classify.kernel_false"] += 1

        return hook

    def _on_statement(self, args, result) -> None:
        reports = result if isinstance(result, list) else [result]
        for rep in reports:
            self.counts["verifier.instances"] += sum(rep.counters.values())

    def _hook_for(self, name):
        if name in KERNELS:
            return self._kernel_hook(name)
        return {
            "ideals.lattice": self._on_lattice,
            "verifier.COR_2_7": self._on_statement,
            "verifier.COR_2_8": self._on_statement,
        }.get(name)

    # ------------------------------------------------------- install/restore

    def install(self) -> None:
        mods = {m: importlib.import_module(f"gradedrings.{m}") for m in MODULES}
        namespaces = [vars(importlib.import_module("gradedrings"))] + [vars(m) for m in mods.values()]
        for module, attr, name in SPANS:
            owner = mods[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                hook = self._on_ring if attr == "FinRing.__init__" else None
                self._set(cls, meth, orig, self._wrap(name, orig, hook))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig, self._hook_for(name))
            self._rebind(namespaces, orig, wrapped)
        ideals = mods["ideals"]
        self._rebind(namespaces, ideals.additive_closure, self._counted("ideals.closure_calls", ideals.additive_closure))
        registry = mods["verifier"].RING_STATEMENTS
        for sid, fn in list(registry.items()):
            self._restore.append((registry.__setitem__, sid, fn))
            registry[sid] = self._wrap(f"verifier.{sid}", fn, self._on_statement)

    def _set(self, obj, attr, orig, new) -> None:
        self._restore.append((partial(setattr, obj), attr, orig))
        setattr(obj, attr, new)

    def _rebind(self, namespaces, orig, new) -> None:
        for ns in namespaces:
            for key, value in list(ns.items()):
                if value is orig:
                    self._restore.append((ns.__setitem__, key, orig))
                    ns[key] = new

    def uninstall(self) -> None:
        while self._restore:
            setter, key, orig = self._restore.pop()
            setter(key, orig)

    def dump(self, path, start_ns: int, end_ns: int) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts, "start": start_ns, "end": end_ns}, fh)


# ------------------------------------------------------------ aggregation


def self_times(spans: list) -> dict[str, float]:
    """Seconds of self time per span name: duration minus direct children's."""
    child = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for (name, start, end, _), c in zip(spans, child):
        out[name] += (end - start - c) / 1e9
    return out


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(dumps: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one pass: the sum over its invocations' dumps."""
    selfs: dict[str, float] = defaultdict(float)
    counts: Counter = Counter()
    in_process = 0.0
    for d in dumps:
        for name, s in self_times(d["spans"]).items():
            selfs[name] += s
        counts.update(d["counts"])
        counts["grading.attach_calls"] += sum(span[0] == "grading.attach" for span in d["spans"])
        in_process += (d["end"] - d["start"]) / 1e9
    m = {metric: selfs.get(span, 0.0) for metric, span in SELF_TIME_METRICS.items()}
    m["cli.self_s"] = sum(s for n, s in selfs.items() if n.startswith("cli."))
    for key in COUNT_METRICS:
        m[key] = float(counts.get(key, 0))
    lattice, kernel = counts["ideals.lattice_calls"], counts["classify.kernel_calls"]
    m["ideals.lattice_hit_ratio"] = _ratio(lattice - counts["ideals.lattice_distinct"], lattice)
    m["classify.memo_hit_ratio"] = _ratio(kernel - counts["classify.kernel_distinct"], kernel)
    m["classify.false_share"] = _ratio(counts["classify.kernel_false"], counts["classify.kernel_distinct"])
    m["trace.coverage"] = _ratio(sum(s for n, s in selfs.items() if n.split(".")[0] in LAYERS), in_process)
    return m


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in passes) for k in passes[0]}
