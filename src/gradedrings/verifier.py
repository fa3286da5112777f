"""Replays each numbered statement as an executable check over a ring corpus.

`verify()` makes each ring statement's report, named by its id in
`RING_STATEMENTS` and by the corpus entry's label, for the body to fill in.
Biconditionals are split into two implications with separate instance
counters, so a PASS discloses whether both directions were nontrivially
exercised; branches with zero realizable instances are flagged in the
notes and a statement with no instances at all reports VACUOUS.
PROP_3_1, COR_3_2 and COR_RE report from one memoized check per ring, and
PROP_3_3 builds one localization per kernel K_S, not one per set S.
A corpus is a document that `specdoc.parse_corpus` reads, the default one too.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from .classify import (
    flag_value, is_graded_1abs_primary, is_graded_maximal, is_graded_primary, is_graded_prime,
    is_graded_strongly_1abs_primary, local_structure, ring_predicates, strongly_1abs_ideal_form,
)
from .errors import ShapeMismatch
from .finring import Cyclic, Record, build_ring, memo, pairs
from .grading import GradedRing, trivial_grading
from .ideals import (
    IdealSet, braced, colon, combine, element_names, enumerate_graded_ideals, graded_radical,
    ideal_generated, is_graded_ideal, principal_graded_ideals, product_contained,
    proper_graded_ideals, zero_ideal,
)
from .specdoc import CorpusEntry, parse_corpus
from .transport import (
    enumerate_multiplicative_sets, hom_transport, identity_subring, localization_kernel, localize,
    quotient,
)


class VerificationReport(Record):
    __slots__ = ("statement_id", "subject", "outcome", "counters", "witnesses", "notes")

    def __init__(self, statement_id: str, subject: str):
        self.statement_id = statement_id
        self.subject = subject
        self.outcome = "PASS"  # PASS | FAIL | VACUOUS
        self.counters: dict[str, int] = {}
        self.witnesses: list[dict] = []
        self.notes: list[str] = []

    def fail(self, **witness) -> None:
        self.outcome = "FAIL"
        self.witnesses.append(witness)

    def bump(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def bump_if(self, **conditions: bool) -> None:
        """Bump each counter whose condition holds."""
        for key, holds in conditions.items():
            if holds:
                self.bump(key)

    def finish(self, instance_keys: Iterable[str]) -> "VerificationReport":
        """Mark VACUOUS when no instance counter fired; note dead branches."""
        keys = list(instance_keys)
        if self.outcome == "PASS":
            if all(self.counters.get(k, 0) == 0 for k in keys):
                self.outcome = "VACUOUS"
            else:
                for k in keys:
                    if self.counters.get(k, 0) == 0:
                        self.notes.append(f"branch {k} vacuous at this scope")
        return self

    def to_dict(self) -> dict:
        return {
            "statement_id": self.statement_id,
            "subject": self.subject,
            "outcome": self.outcome,
            "counters": dict(sorted(self.counters.items())),
            "witnesses": self.witnesses,
            "notes": list(self.notes),
        }

    def format_text(self) -> str:
        lines = [f"{self.statement_id} [{self.subject}] -> {self.outcome}"]
        if self.counters:
            counts = ", ".join(f"{k}={v}" for k, v in sorted(self.counters.items()))
            lines.append(f"  counters: {counts}")
        for w in self.witnesses:
            lines.append(f"  witness: {w}")
        for n in self.notes:
            lines.append(f"  note: {n}")
        return "\n".join(lines)


# The default corpus, a corpus document (`specdoc`): Z/n, (Z/m)[v]/(v^2 - c) graded by
# Z2 with the constants in degree 0 and the multiples of v in degree 1, and constructions.
DEFAULT_CORPUS = """[
{"label": "Z/4", "ring": {"kind": "cyclic", "n": 4}}, {"label": "Z/6", "ring": {"kind": "cyclic", "n": 6}},
{"label": "Z/8", "ring": {"kind": "cyclic", "n": 8}}, {"label": "Z/9", "ring": {"kind": "cyclic", "n": 9}},
{"label": "Z/12", "ring": {"kind": "cyclic", "n": 12}}, {"label": "Z/16", "ring": {"kind": "cyclic", "n": 16}},
{"label": "Z/25", "ring": {"kind": "cyclic", "n": 25}}, {"label": "Z/27", "ring": {"kind": "cyclic", "n": 27}},
{"label": "Z/36", "ring": {"kind": "cyclic", "n": 36}},
{"label": "Z/2[i]/Z2", "ring": {"kind": "gauss_mod", "n": 2}, "group": {"kind": "finite_abelian", "factors": [2]},
 "components": {"0": ["0", "1"], "1": ["0", "i"]}},
{"label": "Z/3[i]/Z2", "ring": {"kind": "gauss_mod", "n": 3}, "group": {"kind": "finite_abelian", "factors": [2]},
 "components": {"0": ["0", "1", "2"], "1": ["0", "i", "2i"]}},
{"label": "Z/4[i]/Z2", "ring": {"kind": "gauss_mod", "n": 4}, "group": {"kind": "finite_abelian", "factors": [2]},
 "components": {"0": ["0", "1", "2", "3"], "1": ["0", "i", "2i", "3i"]}},
{"label": "Z/9[i]/Z2", "ring": {"kind": "gauss_mod", "n": 9}, "group": {"kind": "finite_abelian", "factors": [2]},
 "components": {"0": ["0", "1", "2", "3", "4", "5", "6", "7", "8"],
                "1": ["0", "i", "2i", "3i", "4i", "5i", "6i", "7i", "8i"]}},
{"label": "F3[u]/(u^2-1)/Z2", "ring": {"kind": "poly_quotient", "p": 3, "modulus": [2, 0, 1]},
 "group": {"kind": "finite_abelian", "factors": [2]}, "components": {"0": ["0", "1", "2"], "1": ["0", "u", "2u"]}},
{"label": "F5[u]/(u^2-1)/Z2", "ring": {"kind": "poly_quotient", "p": 5, "modulus": [4, 0, 1]},
 "group": {"kind": "finite_abelian", "factors": [2]},
 "components": {"0": ["0", "1", "2", "3", "4"], "1": ["0", "u", "2u", "3u", "4u"]}},
{"label": "Z/4 x Z/9", "kind": "product", "of": ["Z/4", "Z/9"]},
{"label": "Z/2[i] x Z/2[i]", "kind": "product", "of": ["Z/2[i]/Z2", "Z/2[i]/Z2"]},
{"label": "Z/4[i]/2R", "kind": "quotient", "of": "Z/4[i]/Z2", "by": ["2", "2i"]},
{"label": "Z/12 / 4R", "kind": "quotient", "of": "Z/12", "by": ["4"]},
{"label": "Localize(Z/12,{1,3,9})", "kind": "localize", "of": "Z/12", "at": ["1", "3", "9"]}
]"""


def default_corpus() -> list[CorpusEntry]:
    """The fixed, versioned corpus: `DEFAULT_CORPUS` read as `--corpus` reads a file."""
    return parse_corpus(DEFAULT_CORPUS)


def _ideals_where(
    gr: GradedRing, kernel: Callable[[GradedRing, IdealSet], tuple]
) -> list[IdealSet]:
    """The proper graded ideals of `gr` that `kernel` accepts.  Callers pass
    the kernel by its module-level name, so a rebinding of that name is seen."""
    return [p for p in proper_graded_ideals(gr) if kernel(gr, p)[0]]


def _grad_zero_prime(gr: GradedRing) -> tuple[IdealSet, bool]:
    """Grad({0}), and whether it is a proper graded prime."""
    grad_zero = IdealSet(gr.ring, gr.graded_nilradical())
    return grad_zero, grad_zero.is_proper() and is_graded_prime(gr, grad_zero)[0]


def _non_maximal_primes(gr: GradedRing) -> list[IdealSet]:
    return [p for p in _ideals_where(gr, is_graded_prime) if not is_graded_maximal(gr, p)[0]]


def _tally(cases: Iterable[tuple[GradedRing, IdealSet, dict]]) -> tuple[int, list[dict]]:
    """How many (ring, ideal, where) `cases` there are, and `where` with the
    witness of each ideal that is not graded strongly 1-absorbing primary."""
    count, failures = 0, []
    for gr, ideal, where in cases:
        count += 1
        ok, witness = is_graded_strongly_1abs_primary(gr, ideal)
        if not ok:
            failures.append({**where, "witness": element_names(gr.ring, witness)})
    return count, failures


def _epimorphism_tally(gr: GradedRing) -> tuple[int, list[dict]]:
    """P strongly => P/K strongly in R/K, for every P strongly and proper
    graded K inside P.  Memoized on the ring as the count and the witness
    names, not the quotient rings."""
    def cases():
        strongly = _ideals_where(gr, is_graded_strongly_1abs_primary)
        for k in proper_graded_ideals(gr):
            above = [p for p in strongly if k <= p]
            if above:
                qgr, proj = quotient(gr, k)
                for p in above:
                    where = {"kernel": element_names(gr.ring, k), "ideal": element_names(gr.ring, p)}
                    yield qgr, hom_transport(proj, p, "image"), where

    return memo(gr, "epimorphism_tally", lambda: _tally(cases()))


def _monomorphism_tally(gr: GradedRing) -> tuple[int, list[dict]]:
    """P strongly => P cap R_e strongly in R_e, pulled back along R_e -> R,
    for every P strongly.  Memoized like `_epimorphism_tally`."""
    def cases():
        strongly = _ideals_where(gr, is_graded_strongly_1abs_primary)
        sub, inc = identity_subring(gr)
        for p in strongly:
            yield sub, hom_transport(inc, p, "preimage"), {"ideal": element_names(gr.ring, p)}

    return memo(gr, "monomorphism_tally", lambda: _tally(cases()))


def _report_tally(rep: VerificationReport, counter: str, tally: tuple[int, list[dict]]) -> None:
    count, failures = tally
    if count:
        rep.bump(counter, count)
    for where in failures:
        rep.fail(**where)


# ---------------------------------------------------------------- statements


def _thm_2_2(rep: VerificationReport, gr: GradedRing) -> VerificationReport:
    grad_zero = gr.graded_nilradical()
    ls = local_structure(gr)
    for p in proper_graded_ideals(gr):
        strongly = is_graded_strongly_1abs_primary(gr, p)[0]
        rad = graded_radical(gr, p)
        cond1 = is_graded_1abs_primary(gr, p)[0] and rad.elements == grad_zero
        cond2 = (
            ls.is_graded_local
            and ls.the_maximal == rad
            and product_contained(ls.the_maximal, ls.the_maximal, p)
        )
        rep.bump_if(
            ideals=True, strongly_instances=strongly,
            branch1_instances=cond1, branch2_instances=cond2,
        )
        if strongly != (cond1 or cond2):
            rep.fail(ideal=element_names(gr.ring, p), strongly=strongly, cond1=cond1, cond2=cond2)
    return rep.finish(
        ["ideals", "strongly_instances", "branch1_instances", "branch2_instances"]
    )


def _cor_2_4(rep: VerificationReport, gr: GradedRing) -> VerificationReport:
    grad_zero = gr.graded_nilradical()
    ls = local_structure(gr)
    for p in _ideals_where(gr, is_graded_prime):
        strongly = is_graded_strongly_1abs_primary(gr, p)[0]
        cond1 = p.elements == grad_zero
        cond2 = ls.is_graded_local and ls.the_maximal == p
        rep.bump_if(primes=True, branch1_instances=cond1, branch2_instances=cond2)
        if strongly != (cond1 or cond2):
            rep.fail(ideal=element_names(gr.ring, p), strongly=strongly, cond1=cond1, cond2=cond2)
    return rep.finish(["primes", "branch1_instances", "branch2_instances"])


def _lemma_grad_prime(rep: VerificationReport, gr: GradedRing) -> VerificationReport:
    for p in _ideals_where(gr, is_graded_1abs_primary):
        rep.bump("one_abs_instances")
        ok, witness = is_graded_prime(gr, graded_radical(gr, p))
        if not ok:
            rep.fail(ideal=element_names(gr.ring, p), witness=element_names(gr.ring, witness))
    return rep.finish(["one_abs_instances"])


def _lemma_2(rep: VerificationReport, gr: GradedRing) -> VerificationReport:
    lattice = enumerate_graded_ideals(gr)
    for p in lattice:
        for k in lattice:
            rep.bump("pairs")
            c = colon(gr.ring, p, k)
            ok, witness = is_graded_ideal(gr, c)
            if not ok:
                rep.fail(
                    p=element_names(gr.ring, p), k=element_names(gr.ring, k),
                    witness=gr.ring.name(witness),
                )
    return rep.finish(["pairs"])


def _thm_2_6(rep: VerificationReport, gr: GradedRing) -> VerificationReport:
    exists = bool(_ideals_where(gr, is_graded_strongly_1abs_primary))
    prime0 = _grad_zero_prime(gr)[1]
    local = local_structure(gr).is_graded_local
    rep.bump_if(
        rings=True,
        existence_instances=exists,
        grad_zero_prime_instances=prime0,
        graded_local_instances=local,
    )
    if exists != (prime0 or local):
        rep.fail(exists=exists, grad_zero_prime=prime0, graded_local=local)
    rep.notes.append(
        f"strongly ideal exists: {exists}; Grad({{0}}) prime: {prime0}; graded local: {local}"
    )
    return rep.finish(
        ["rings", "existence_instances", "grad_zero_prime_instances", "graded_local_instances"]
    )


def _is_prime_power(n: int) -> bool:
    for p in range(2, n + 1):
        if n % p == 0:
            while n % p == 0:
                n //= p
            return n == 1
    return False


def _cor_2_7(lo: int, hi: int) -> VerificationReport:
    rep = VerificationReport("COR_2_7", f"Z/n, n={lo}..{hi}")
    for n in range(lo, hi + 1):
        gr = trivial_grading(build_ring(Cyclic(n)), label=f"Z/{n}")
        # stops at the first strongly ideal; the kernel is read by its
        # module-level name, so a rebinding of that name is seen
        exists = any(is_graded_strongly_1abs_primary(gr, p)[0] for p in proper_graded_ideals(gr))
        expected = _is_prime_power(n)
        rep.bump_if(rings=True, existence_instances=exists)
        if exists != expected:
            rep.fail(n=n, exists=exists, prime_power=expected)
    return rep.finish(["rings"])


def _cor_2_8(entry: CorpusEntry) -> VerificationReport:
    rep = VerificationReport("COR_2_8", entry.label)
    gr = entry.gr
    rep.bump("product_rings")
    rep.bump("graded_ideals_scanned", len(proper_graded_ideals(gr)))
    for p in _ideals_where(gr, is_graded_strongly_1abs_primary):
        rep.fail(ideal=element_names(gr.ring, p))
    left, right = entry.parents
    combined = pairs(left.graded_nilradical(), right.graded_nilradical(), right.ring.size)
    if combined != gr.graded_nilradical():
        rep.fail(note="Grad({0}) of product differs from componentwise product")
    else:
        rep.bump("grad_zero_product_identity")
    return rep.finish(["product_rings"])


def _prop_2_9(rep: VerificationReport, gr: GradedRing) -> VerificationReport:
    for p in proper_graded_ideals(gr):
        elem_form = is_graded_strongly_1abs_primary(gr, p)[0]
        ideal_form, witness = strongly_1abs_ideal_form(gr, p)
        rep.bump_if(ideals=True, strongly_instances=elem_form)
        if elem_form != ideal_form:
            w = None if witness is None else [element_names(gr.ring, i) for i in witness]
            rep.fail(
                ideal=element_names(gr.ring, p), elem_form=elem_form, ideal_form=ideal_form, ideals=w
            )
    return rep.finish(["ideals"])


def _prop_2_10(rep: VerificationReport, gr: GradedRing) -> VerificationReport:
    strongly = _ideals_where(gr, is_graded_strongly_1abs_primary)
    _report_tally(rep, "pairs", _tally(
        (gr, combine(p, k, "intersection"),
         {"p": element_names(gr.ring, p), "k": element_names(gr.ring, k)})
        for p in strongly for k in strongly
    ))
    return rep.finish(["pairs"])


def _prop_2_11(rep: VerificationReport, gr: GradedRing) -> VerificationReport:
    profile = ring_predicates(gr)
    if not profile.every_homogeneous_nilpotent_or_unit:
        rep.notes.append("hypothesis (homogeneous elements nilpotent or unit) not met")
        return rep.finish(["principal_instances"])
    _report_tally(rep, "principal_instances", _tally(
        (gr, ra, {"ideal": element_names(gr.ring, ra)})
        for ra in principal_graded_ideals(gr) if ra.is_proper()
    ))
    _report_tally(rep, "all_proper_instances", _tally(
        (gr, p, {"ideal": element_names(gr.ring, p)}) for p in proper_graded_ideals(gr)
    ))
    return rep.finish(["principal_instances", "all_proper_instances"])


def _prop_2_12(rep: VerificationReport, gr: GradedRing) -> VerificationReport:
    primes = _ideals_where(gr, is_graded_prime)
    lhs = all(is_graded_strongly_1abs_primary(gr, p)[0] for p in primes)
    non_maximal = _non_maximal_primes(gr)
    rhs = local_structure(gr).is_graded_local and len(non_maximal) <= 1
    rep.bump_if(rings=True, lhs_instances=lhs, rhs_instances=rhs)
    rep.bump("non_maximal_primes", len(non_maximal))
    if lhs != rhs:
        rep.fail(all_primes_strongly=lhs, graded_local_at_most_one_non_maximal=rhs)
    if not non_maximal:
        rep.notes.append("no non-maximal graded primes at desk scale")
    return rep.finish(["rings", "lhs_instances", "rhs_instances"])


def _prop_2_14(rep: VerificationReport, gr: GradedRing) -> VerificationReport:
    primaries = _ideals_where(gr, is_graded_primary)
    lhs = all(is_graded_strongly_1abs_primary(gr, p)[0] for p in primaries)
    cond1 = ring_predicates(gr).every_homogeneous_nilpotent_or_unit
    ls = local_structure(gr)
    cond2 = False
    if ls.is_graded_local:
        x, grad_zero = ls.the_maximal, gr.graded_nilradical()
        non_maximal = _non_maximal_primes(gr)
        # statement (2) read per the proof: exactly two graded primes,
        # Grad({0}) (non-maximal) and X, and every X-primary ideal contains X^2
        if len(non_maximal) == 1 and non_maximal[0].elements == grad_zero != x.elements:
            cond2 = all(
                product_contained(x, x, q) for q in primaries if graded_radical(gr, q) == x
            )
    rep.bump_if(rings=True, lhs_instances=lhs, branch1_instances=cond1, branch2_instances=cond2)
    rep.bump("primary_ideals", len(primaries))
    if lhs != (cond1 or cond2):
        rep.fail(all_primary_strongly=lhs, nilpotent_or_unit=cond1, local_branch=cond2)
    return rep.finish(["rings", "lhs_instances", "branch1_instances", "branch2_instances"])


def _prop_2_17(rep: VerificationReport, gr: GradedRing) -> VerificationReport:
    lhs = _ideals_where(gr, is_graded_strongly_1abs_primary) == [zero_ideal(gr.ring)]
    profile = ring_predicates(gr)
    domain_not_local = profile.graded_domain and not local_structure(gr).is_graded_local
    rep.bump_if(
        rings=True,
        lhs_instances=lhs,
        branch1_instances=profile.graded_field,
        branch2_instances=domain_not_local,
    )
    if lhs != (profile.graded_field or domain_not_local):
        rep.fail(
            zero_only_strongly=lhs,
            graded_field=profile.graded_field,
            domain_not_local=domain_not_local,
        )
    return rep.finish(["rings", "lhs_instances", "branch1_instances", "branch2_instances"])


def _lemma_2_18(rep: VerificationReport, gr: GradedRing) -> VerificationReport:
    lattice = proper_graded_ideals(gr)
    for p in _ideals_where(gr, is_graded_1abs_primary):
        for k in lattice:
            if k <= p:
                continue
            rep.bump("instances")
            ok, witness = is_graded_primary(gr, colon(gr.ring, p, k))
            if not ok:
                rep.fail(
                    p=element_names(gr.ring, p), k=element_names(gr.ring, k),
                    witness=element_names(gr.ring, witness),
                )
    return rep.finish(["instances"])


def _prop_2_19(rep: VerificationReport, gr: GradedRing) -> VerificationReport:
    def cases():
        lattice = proper_graded_ideals(gr)
        for p in _ideals_where(gr, is_graded_strongly_1abs_primary):
            rad = graded_radical(gr, p)
            for k in lattice:
                if not k <= rad:
                    where = {"p": element_names(gr.ring, p), "k": element_names(gr.ring, k)}
                    yield gr, colon(gr.ring, p, k), where

    _report_tally(rep, "instances", _tally(cases()))
    return rep.finish(["instances"])


def _prop_3_1(rep: VerificationReport, gr: GradedRing) -> VerificationReport:
    _report_tally(rep, "epimorphism_instances", _epimorphism_tally(gr))
    _report_tally(rep, "monomorphism_instances", _monomorphism_tally(gr))
    return rep.finish(["epimorphism_instances", "monomorphism_instances"])


def _cor_3_2(rep: VerificationReport, gr: GradedRing) -> VerificationReport:
    _report_tally(rep, "quotient_instances", _epimorphism_tally(gr))
    return rep.finish(["quotient_instances"])


def _cor_re(rep: VerificationReport, gr: GradedRing) -> VerificationReport:
    _report_tally(rep, "instances", _monomorphism_tally(gr))
    return rep.finish(["instances"])


def _prop_3_3(rep: VerificationReport, gr: GradedRing) -> VerificationReport:
    """P strongly, S a multiplicative set with S cap P empty => S^-1 P strongly.

    S^-1 R and S^-1 P depend on S only through K_S = {d : vd = 0 for some
    v in S}.  a -> a/1 is onto, as every t in S is a unit modulo K_S (the
    `localize` docstring), and its kernel is K_S, so S^-1 R is R/K_S, graded
    by the images of R's components, which is the quotient's grading.  S^-1 P
    is generated by the image of P, so it is (P + K_S)/K_S.  So two sets with
    one K_S give isomorphic graded rings and ideals, and whether S^-1 P is
    proper and strongly is one verdict.  It is found once per (K_S, P), on
    the localization at the first such S, whose element names any witness
    carries.  S cap P, the unit check of each t in S and the instance count
    stay per (S, P).
    """
    strongly = _ideals_where(gr, is_graded_strongly_1abs_primary)
    if not strongly:
        rep.notes.append("no graded strongly 1-absorbing primary ideals in this ring")
        return rep.finish(["instances"])
    localized: dict[frozenset[int], tuple] = {}  # K_S -> (S^-1 R, a -> a/1, verdict per P)
    for s in enumerate_multiplicative_sets(gr):
        disjoint = [p for p in strongly if not (p.elements & s.elements)]
        if not disjoint:
            continue
        kernel = localization_kernel(gr, s)
        if kernel not in localized:
            localized[kernel] = (*localize(gr, s), {})
        lgr, canonical, verdicts = localized[kernel]
        for t in s.elements:
            if canonical(t) not in lgr.ring.units():
                rep.fail(note="canonical map fails to invert S", element=gr.ring.name(t))
        for p in disjoint:
            if p not in verdicts:
                verdicts[p] = _localized_verdict(lgr, canonical, p)
            proper, witness = verdicts[p]
            rep.bump("instances")
            if not proper:
                rep.fail(ideal=element_names(gr.ring, p), note="S^-1 P not proper")
            elif witness is not None:
                rep.fail(
                    ideal=element_names(gr.ring, p), mult_set=element_names(gr.ring, s.elements),
                    witness=witness,
                )
    return rep.finish(["instances"])


def _localized_verdict(lgr: GradedRing, canonical, p: IdealSet) -> tuple[bool, Optional[list[str]]]:
    """Whether S^-1 P, the ideal of `lgr` generated by the image of `p`, is
    proper, and the names of the strongly kernel's witness against it (None
    when it is graded strongly 1-absorbing primary)."""
    sp = ideal_generated(lgr.ring, tuple(canonical(x) for x in sorted(p.elements)))
    if not sp.is_proper():
        return False, None
    ok, witness = is_graded_strongly_1abs_primary(lgr, sp)
    return True, None if ok else element_names(lgr.ring, witness)


def prop_3_4_reduction(rep: VerificationReport, gr: GradedRing) -> VerificationReport:
    """R-side conditions of the polynomial-extension statements.

    The conclusions about R[X] are derived from the statement's equivalences
    and explicitly labeled as not independently verified (R[X] is infinite).
    """
    grad_zero, prime0 = _grad_zero_prime(gr)
    rep.bump_if(rings=True, grad_zero_prime_instances=prime0)
    verdict = "has" if prime0 else "has no"
    rep.notes.append(
        f"Grad({{0}}) = {braced(element_names(gr.ring, grad_zero))} graded prime: {prime0}; "
        f"derived (NOT independently verified): R[X] {verdict} a graded strongly "
        f"1-absorbing primary ideal"
    )
    for p in _ideals_where(gr, is_graded_primary):
        if graded_radical(gr, p) == grad_zero:
            rep.bump("statement4_candidates")
            rep.notes.append(
                f"P = {braced(element_names(gr.ring, p))}: graded primary with "
                f"Grad(P)=Grad({{0}}); derived (NOT independently verified): P[X] is "
                f"graded strongly 1-absorbing primary"
            )
    return rep.finish(["rings"])


# ------------------------------------------------------------------ registry

RingStatement = Callable[[VerificationReport, GradedRing], VerificationReport]

RING_STATEMENTS: dict[str, RingStatement] = {
    "THM_2_2": _thm_2_2,
    "COR_2_4": _cor_2_4,
    "LEMMA_GRAD_PRIME": _lemma_grad_prime,
    "LEMMA_2": _lemma_2,
    "THM_2_6": _thm_2_6,
    "PROP_2_9": _prop_2_9,
    "PROP_2_10": _prop_2_10,
    "PROP_2_11": _prop_2_11,
    "PROP_2_12": _prop_2_12,
    "PROP_2_14": _prop_2_14,
    "PROP_2_17": _prop_2_17,
    "LEMMA_2_18": _lemma_2_18,
    "PROP_2_19": _prop_2_19,
    "PROP_3_1": _prop_3_1,
    "COR_3_2": _cor_3_2,
    "COR_RE": _cor_re,
    "PROP_3_3": _prop_3_3,
    "PROP_3_4_REDUCTION": prop_3_4_reduction,
}

ALL_STATEMENTS = tuple(sorted(RING_STATEMENTS)) + ("COR_2_7", "COR_2_8")
DEFAULT_RANGE = (2, 64)  # the n of the Z/n that COR_2_7 sweeps unless told otherwise


def verify(
    statement_id: str,
    *,
    corpus: Optional[list[CorpusEntry]] = None,
    n_range: tuple[int, int] = DEFAULT_RANGE,
) -> list[VerificationReport]:
    """Run one statement over the corpus (by default `default_corpus()`);
    COR_2_7 sweeps Z/n for n in `n_range` instead and reads no corpus."""
    if statement_id not in ALL_STATEMENTS:
        choices = ", ".join(ALL_STATEMENTS)
        raise ShapeMismatch(f"unknown statement {statement_id!r}; choose from {choices}")
    if statement_id == "COR_2_7":
        return [_cor_2_7(*n_range)]
    if corpus is None:
        corpus = default_corpus()
    if statement_id == "COR_2_8":
        reports = [_cor_2_8(e) for e in corpus if e.parents]
        if not reports:
            rep = VerificationReport("COR_2_8", "corpus")
            rep.notes.append("no entry of the corpus is a product")
            reports.append(rep.finish(["product_rings"]))
        return reports
    fn = RING_STATEMENTS[statement_id]
    return [fn(VerificationReport(statement_id, e.label), e.gr) for e in corpus]


def run_suite(
    statement_ids: Iterable[str] = ALL_STATEMENTS,
    corpus: Optional[list[CorpusEntry]] = None,
    n_range: tuple[int, int] = DEFAULT_RANGE,
) -> list[VerificationReport]:
    """Run each statement in turn over one corpus, built once if not given."""
    if corpus is None:
        corpus = default_corpus()
    return [r for sid in statement_ids for r in verify(sid, corpus=corpus, n_range=n_range)]


def search_counterexample(
    corpus: list[CorpusEntry], hypothesis: str, conclusion: str
) -> list[dict]:
    """All (ring, ideal, witness) triples where hypothesis holds and conclusion fails."""
    out = []
    for entry in corpus:
        gr = entry.gr
        for p in proper_graded_ideals(gr):
            if not flag_value(gr, p, hypothesis)[0]:
                continue
            ok, witness = flag_value(gr, p, conclusion)
            if not ok:
                out.append(
                    {
                        "ring": entry.label,
                        "ideal": element_names(gr.ring, p),
                        "ideal_raw": p,
                        "graded_ring": gr,
                        "witness": element_names(gr.ring, witness) if witness else None,
                        "witness_raw": witness,
                    }
                )
    return out
