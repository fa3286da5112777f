"""Replays each numbered statement as an executable check over a ring corpus.

Biconditionals are split into two implications with separate instance
counters, so a PASS discloses whether both directions were nontrivially
exercised; branches with zero realizable instances are flagged in the
notes and a statement with no instances at all reports VACUOUS.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from .classify import (
    is_graded_1abs_primary,
    is_graded_maximal,
    is_graded_primary,
    is_graded_prime,
    is_graded_strongly_1abs_primary,
    flag_value,
    local_structure,
    radical_of,
    ring_predicates,
    strongly_1abs_ideal_form,
)
from .errors import ShapeMismatch
from .finring import Cyclic, GaussMod, PolyQuotient, build_ring
from .grading import TRIVIAL_GROUP, Z2, GradedRing, attach_grading, trivial_grading
from .ideals import (
    IdealSet,
    colon,
    combine,
    enumerate_graded_ideals,
    ideal_generated,
    is_graded_ideal,
    principal_graded_ideals,
    product_contained,
    proper_graded_ideals,
    zero_ideal,
)
from .transport import (
    MultiplicativeSet,
    enumerate_multiplicative_sets,
    hom_transport,
    identity_subring,
    localize,
    product,
    quotient,
)


@dataclass
class VerificationReport:
    statement_id: str
    subject: str
    outcome: str = "PASS"  # PASS | FAIL | VACUOUS
    counters: dict[str, int] = field(default_factory=dict)
    witnesses: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def fail(self, **witness) -> None:
        self.outcome = "FAIL"
        self.witnesses.append(witness)

    def bump(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

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


@dataclass
class CorpusEntry:
    label: str
    gr: GradedRing
    kind: str = "base"  # base | product | quotient | localization
    parents: tuple = ()


def _gauss_graded(n: int) -> GradedRing:
    ring = build_ring(GaussMod(n))
    reals = frozenset(range(n))
    imags = frozenset(b * n for b in range(n))
    return attach_grading(ring, Z2, {(0,): reals, (1,): imags}, label=f"Z/{n}[i]/Z2")


def _graded_field(p: int) -> GradedRing:
    ring = build_ring(PolyQuotient(Cyclic(p), (p - 1, 0, 1)))  # u^2 - 1
    constants = frozenset(range(p))
    u_multiples = frozenset(c * p for c in range(p))
    return attach_grading(
        ring, Z2, {(0,): constants, (1,): u_multiples}, label=f"F{p}[u]/(u^2-1)/Z2"
    )


def default_corpus() -> list[CorpusEntry]:
    """Fixed, versioned corpus; every member passes the structural validators."""
    entries: list[CorpusEntry] = []
    for n in (4, 6, 8, 9, 12, 16, 25, 27, 36):
        gr = trivial_grading(build_ring(Cyclic(n)), label=f"Z/{n}")
        entries.append(CorpusEntry(f"Z/{n}", gr))
    for n in (2, 3, 4, 9):
        gr = _gauss_graded(n)
        entries.append(CorpusEntry(gr.label, gr))
    for p in (3, 5):
        gr = _graded_field(p)
        entries.append(CorpusEntry(gr.label, gr))

    c4 = trivial_grading(build_ring(Cyclic(4)), label="Z/4")
    c9 = trivial_grading(build_ring(Cyclic(9)), label="Z/9")
    prod1 = product(c4, c9)
    entries.append(CorpusEntry("Z/4 x Z/9", prod1, kind="product", parents=(c4, c9)))
    g2a = _gauss_graded(2)
    g2b = _gauss_graded(2)
    prod2 = product(g2a, g2b)
    entries.append(
        CorpusEntry("Z/2[i] x Z/2[i]", prod2, kind="product", parents=(g2a, g2b))
    )

    g4 = _gauss_graded(4)
    two_r = ideal_generated(g4.ring, (g4.ring.parse("2"), g4.ring.parse("2i")))
    q1, _ = quotient(g4, two_r)
    entries.append(CorpusEntry("Z/4[i]/2R", q1, kind="quotient"))
    c12 = trivial_grading(build_ring(Cyclic(12)), label="Z/12")
    q2, _ = quotient(c12, ideal_generated(c12.ring, (4,)))
    entries.append(CorpusEntry("Z/12 / 4R", q2, kind="quotient"))

    s = MultiplicativeSet.create(c12, {1, 3, 9})
    loc, _ = localize(c12, s)
    entries.append(CorpusEntry("Localize(Z/12,{1,3,9})", loc, kind="localization"))
    return entries


def _grad_zero_ideal(gr: GradedRing) -> IdealSet:
    return IdealSet(gr.ring, gr.graded_nilradical())


def _strongly_ideals(gr: GradedRing) -> list[IdealSet]:
    return [
        p for p in proper_graded_ideals(gr) if is_graded_strongly_1abs_primary(gr, p)[0]
    ]


def _expect_strongly(
    rep: VerificationReport, counter: str, gr: GradedRing, ideal: IdealSet, /, **where
) -> None:
    """Count one instance of `counter`; fail with `where` and the witness
    unless `ideal` is graded strongly 1-absorbing primary in `gr`."""
    rep.bump(counter)
    ok, witness = is_graded_strongly_1abs_primary(gr, ideal)
    if not ok:
        rep.fail(**where, witness=_elem_names(gr, witness))


def _quotient_images(gr: GradedRing, ideals: list[IdealSet]):
    """(K, P, R/K, P/K) for every proper graded K and every P in `ideals` containing K."""
    for k in proper_graded_ideals(gr):
        above = [p for p in ideals if k <= p]
        if not above:
            continue
        qgr, proj = quotient(gr, k)
        for p in above:
            yield k, p, qgr, hom_transport(proj, p, "image")


def _identity_preimages(gr: GradedRing, ideals: list[IdealSet]):
    """(P, R_e, P cap R_e) for every P in `ideals`, pulled back along R_e -> R."""
    sub, inc = identity_subring(gr)
    for p in ideals:
        yield p, sub, hom_transport(inc, p, "preimage")


def _ideal_names(gr: GradedRing, ideal: IdealSet) -> list[str]:
    return [gr.ring.name(x) for x in ideal.sorted_elements()]


def _elem_names(gr: GradedRing, xs: Iterable[int]) -> list[str]:
    return [gr.ring.name(x) for x in xs]


# ---------------------------------------------------------------- statements


def _thm_2_2(gr: GradedRing, label: str) -> VerificationReport:
    rep = VerificationReport("THM_2_2", label)
    grad_zero = _grad_zero_ideal(gr)
    ls = local_structure(gr)
    for p in proper_graded_ideals(gr):
        rep.bump("ideals")
        strongly = is_graded_strongly_1abs_primary(gr, p)[0]
        rad = radical_of(gr, p)
        cond1 = is_graded_1abs_primary(gr, p)[0] and rad == grad_zero
        cond2 = (
            ls.is_graded_local
            and ls.the_maximal == rad
            and product_contained(ls.the_maximal, ls.the_maximal, p)
        )
        if strongly:
            rep.bump("strongly_instances")
        if cond1:
            rep.bump("branch1_instances")
        if cond2:
            rep.bump("branch2_instances")
        if strongly != (cond1 or cond2):
            rep.fail(ideal=_ideal_names(gr, p), strongly=strongly, cond1=cond1, cond2=cond2)
    return rep.finish(
        ["ideals", "strongly_instances", "branch1_instances", "branch2_instances"]
    )


def _cor_2_4(gr: GradedRing, label: str) -> VerificationReport:
    rep = VerificationReport("COR_2_4", label)
    grad_zero = _grad_zero_ideal(gr)
    ls = local_structure(gr)
    for p in proper_graded_ideals(gr):
        if not is_graded_prime(gr, p)[0]:
            continue
        rep.bump("primes")
        strongly = is_graded_strongly_1abs_primary(gr, p)[0]
        cond1 = p == grad_zero
        cond2 = ls.is_graded_local and ls.the_maximal == p
        if cond1:
            rep.bump("branch1_instances")
        if cond2:
            rep.bump("branch2_instances")
        if strongly != (cond1 or cond2):
            rep.fail(ideal=_ideal_names(gr, p), strongly=strongly, cond1=cond1, cond2=cond2)
    return rep.finish(["primes", "branch1_instances", "branch2_instances"])


def _lemma_grad_prime(gr: GradedRing, label: str) -> VerificationReport:
    rep = VerificationReport("LEMMA_GRAD_PRIME", label)
    for p in proper_graded_ideals(gr):
        if not is_graded_1abs_primary(gr, p)[0]:
            continue
        rep.bump("one_abs_instances")
        rad = radical_of(gr, p)
        ok, witness = is_graded_prime(gr, rad)
        if not ok:
            rep.fail(ideal=_ideal_names(gr, p), witness=_elem_names(gr, witness))
    return rep.finish(["one_abs_instances"])


def _lemma_2(gr: GradedRing, label: str) -> VerificationReport:
    rep = VerificationReport("LEMMA_2", label)
    lattice = enumerate_graded_ideals(gr)
    for p in lattice:
        for k in lattice:
            rep.bump("pairs")
            c = colon(gr.ring, p, k)
            ok, witness = is_graded_ideal(gr, c)
            if not ok:
                rep.fail(
                    p=_ideal_names(gr, p),
                    k=_ideal_names(gr, k),
                    witness=gr.ring.name(witness),
                )
    return rep.finish(["pairs"])


def _thm_2_6(gr: GradedRing, label: str) -> VerificationReport:
    rep = VerificationReport("THM_2_6", label)
    exists = bool(_strongly_ideals(gr))
    grad_zero = _grad_zero_ideal(gr)
    prime0 = grad_zero.is_proper() and is_graded_prime(gr, grad_zero)[0]
    local = local_structure(gr).is_graded_local
    rep.bump("rings")
    if exists:
        rep.bump("existence_instances")
    if prime0:
        rep.bump("grad_zero_prime_instances")
    if local:
        rep.bump("graded_local_instances")
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
        gr = trivial_grading(build_ring(Cyclic(n), check=False), label=f"Z/{n}")
        exists = bool(_strongly_ideals(gr))
        expected = _is_prime_power(n)
        rep.bump("rings")
        if exists:
            rep.bump("existence_instances")
        if exists != expected:
            rep.fail(n=n, exists=exists, prime_power=expected)
    return rep.finish(["rings"])


def _cor_2_8(entry: CorpusEntry) -> VerificationReport:
    rep = VerificationReport("COR_2_8", entry.label)
    gr = entry.gr
    strongly = _strongly_ideals(gr)
    rep.bump("product_rings")
    rep.bump("graded_ideals_scanned", len(proper_graded_ideals(gr)))
    for p in strongly:
        rep.fail(ideal=_ideal_names(gr, p))
    if entry.parents:
        left, right = entry.parents
        n2 = right.ring.size
        combined = frozenset(
            a * n2 + b
            for a in left.graded_nilradical()
            for b in right.graded_nilradical()
        )
        if combined != gr.graded_nilradical():
            rep.fail(note="Grad({0}) of product differs from componentwise product")
        else:
            rep.bump("grad_zero_product_identity")
    return rep.finish(["product_rings"])


def _prop_2_9(gr: GradedRing, label: str) -> VerificationReport:
    rep = VerificationReport("PROP_2_9", label)
    lattice = proper_graded_ideals(gr)
    if len(lattice) > 64:
        rep.notes.append(f"lattice has {len(lattice)} ideals (> 64), skipped")
        return rep.finish(["ideals"])
    for p in lattice:
        rep.bump("ideals")
        elem_form = is_graded_strongly_1abs_primary(gr, p)[0]
        ideal_form, witness = strongly_1abs_ideal_form(gr, p)
        if elem_form:
            rep.bump("strongly_instances")
        if elem_form != ideal_form:
            w = (
                [_ideal_names(gr, i) for i in witness]
                if witness is not None
                else None
            )
            rep.fail(ideal=_ideal_names(gr, p), elem_form=elem_form, ideal_form=ideal_form, ideals=w)
    return rep.finish(["ideals"])


def _prop_2_10(gr: GradedRing, label: str) -> VerificationReport:
    rep = VerificationReport("PROP_2_10", label)
    strongly = _strongly_ideals(gr)
    for p in strongly:
        for k in strongly:
            inter = combine(p, k, "intersection")
            _expect_strongly(rep, "pairs", gr, inter, p=_ideal_names(gr, p), k=_ideal_names(gr, k))
    return rep.finish(["pairs"])


def _prop_2_11(gr: GradedRing, label: str) -> VerificationReport:
    rep = VerificationReport("PROP_2_11", label)
    profile = ring_predicates(gr)
    if not profile.every_homogeneous_nilpotent_or_unit:
        rep.notes.append("hypothesis (homogeneous elements nilpotent or unit) not met")
        return rep.finish(["principal_instances"])
    for ra in principal_graded_ideals(gr):
        if ra.is_proper():
            _expect_strongly(rep, "principal_instances", gr, ra, ideal=_ideal_names(gr, ra))
    for p in proper_graded_ideals(gr):
        _expect_strongly(rep, "all_proper_instances", gr, p, ideal=_ideal_names(gr, p))
    return rep.finish(["principal_instances", "all_proper_instances"])


def _graded_primes(gr: GradedRing) -> list[IdealSet]:
    return [p for p in proper_graded_ideals(gr) if is_graded_prime(gr, p)[0]]


def _prop_2_12(gr: GradedRing, label: str) -> VerificationReport:
    rep = VerificationReport("PROP_2_12", label)
    primes = _graded_primes(gr)
    lhs = all(is_graded_strongly_1abs_primary(gr, p)[0] for p in primes)
    non_maximal = [p for p in primes if not is_graded_maximal(gr, p)]
    rhs = local_structure(gr).is_graded_local and len(non_maximal) <= 1
    rep.bump("rings")
    if lhs:
        rep.bump("lhs_instances")
    if rhs:
        rep.bump("rhs_instances")
    rep.bump("non_maximal_primes", len(non_maximal))
    if lhs != rhs:
        rep.fail(all_primes_strongly=lhs, graded_local_at_most_one_non_maximal=rhs)
    if not non_maximal:
        rep.notes.append("no non-maximal graded primes at desk scale")
    return rep.finish(["rings", "lhs_instances", "rhs_instances"])


def _prop_2_14(gr: GradedRing, label: str) -> VerificationReport:
    rep = VerificationReport("PROP_2_14", label)
    grad_zero = _grad_zero_ideal(gr)
    primaries = [p for p in proper_graded_ideals(gr) if is_graded_primary(gr, p)[0]]
    lhs = all(is_graded_strongly_1abs_primary(gr, p)[0] for p in primaries)
    cond1 = ring_predicates(gr).every_homogeneous_nilpotent_or_unit
    ls = local_structure(gr)
    cond2 = False
    if ls.is_graded_local:
        x = ls.the_maximal
        primes = _graded_primes(gr)
        non_maximal = [p for p in primes if not is_graded_maximal(gr, p)]
        # statement (2) read per the proof: exactly two graded primes,
        # Grad({0}) (non-maximal) and X, and every X-primary ideal contains X^2
        if len(non_maximal) == 1 and non_maximal[0] == grad_zero and grad_zero != x:
            x_primaries = [q for q in primaries if radical_of(gr, q) == x]
            cond2 = all(
                product_contained(x, x, q) for q in x_primaries
            )
    rep.bump("rings")
    rep.bump("primary_ideals", len(primaries))
    if lhs:
        rep.bump("lhs_instances")
    if cond1:
        rep.bump("branch1_instances")
    if cond2:
        rep.bump("branch2_instances")
    if lhs != (cond1 or cond2):
        rep.fail(all_primary_strongly=lhs, nilpotent_or_unit=cond1, local_branch=cond2)
    return rep.finish(["rings", "lhs_instances", "branch1_instances", "branch2_instances"])


def _prop_2_17(gr: GradedRing, label: str) -> VerificationReport:
    rep = VerificationReport("PROP_2_17", label)
    strongly = _strongly_ideals(gr)
    lhs = strongly == [zero_ideal(gr.ring)]
    profile = ring_predicates(gr)
    local = local_structure(gr).is_graded_local
    rhs = profile.graded_field or (profile.graded_domain and not local)
    rep.bump("rings")
    if lhs:
        rep.bump("lhs_instances")
    if profile.graded_field:
        rep.bump("branch1_instances")
    if profile.graded_domain and not local:
        rep.bump("branch2_instances")
    if lhs != rhs:
        rep.fail(
            zero_only_strongly=lhs,
            graded_field=profile.graded_field,
            domain_not_local=profile.graded_domain and not local,
        )
    return rep.finish(["rings", "lhs_instances", "branch1_instances", "branch2_instances"])


def _lemma_2_18(gr: GradedRing, label: str) -> VerificationReport:
    rep = VerificationReport("LEMMA_2_18", label)
    lattice = proper_graded_ideals(gr)
    for p in lattice:
        if not is_graded_1abs_primary(gr, p)[0]:
            continue
        for k in lattice:
            if k <= p:
                continue
            rep.bump("instances")
            c = colon(gr.ring, p, k)
            ok, witness = is_graded_primary(gr, c)
            if not ok:
                rep.fail(
                    p=_ideal_names(gr, p),
                    k=_ideal_names(gr, k),
                    witness=_elem_names(gr, witness),
                )
    return rep.finish(["instances"])


def _prop_2_19(gr: GradedRing, label: str) -> VerificationReport:
    rep = VerificationReport("PROP_2_19", label)
    lattice = proper_graded_ideals(gr)
    for p in lattice:
        if not is_graded_strongly_1abs_primary(gr, p)[0]:
            continue
        rad = radical_of(gr, p)
        for k in lattice:
            if k.elements <= rad.elements:
                continue
            c = colon(gr.ring, p, k)
            _expect_strongly(rep, "instances", gr, c, p=_ideal_names(gr, p), k=_ideal_names(gr, k))
    return rep.finish(["instances"])


def _prop_3_1(gr: GradedRing, label: str) -> VerificationReport:
    rep = VerificationReport("PROP_3_1", label)
    strongly = _strongly_ideals(gr)
    for k, p, qgr, image in _quotient_images(gr, strongly):
        _expect_strongly(
            rep, "epimorphism_instances", qgr, image,
            kernel=_ideal_names(gr, k), ideal=_ideal_names(gr, p),
        )
    for p, sub, pre in _identity_preimages(gr, strongly):
        _expect_strongly(rep, "monomorphism_instances", sub, pre, ideal=_ideal_names(gr, p))
    return rep.finish(["epimorphism_instances", "monomorphism_instances"])


def _cor_3_2(gr: GradedRing, label: str) -> VerificationReport:
    rep = VerificationReport("COR_3_2", label)
    for k, p, qgr, image in _quotient_images(gr, _strongly_ideals(gr)):
        _expect_strongly(
            rep, "quotient_instances", qgr, image,
            kernel=_ideal_names(gr, k), ideal=_ideal_names(gr, p),
        )
    return rep.finish(["quotient_instances"])


def _cor_re(gr: GradedRing, label: str) -> VerificationReport:
    rep = VerificationReport("COR_RE", label)
    for p, sub, pre in _identity_preimages(gr, _strongly_ideals(gr)):
        _expect_strongly(rep, "instances", sub, pre, ideal=_ideal_names(gr, p))
    return rep.finish(["instances"])


def _prop_3_3(gr: GradedRing, label: str, max_set_size: int = 8) -> VerificationReport:
    rep = VerificationReport("PROP_3_3", label)
    strongly = _strongly_ideals(gr)
    if not strongly:
        rep.notes.append("no graded strongly 1-absorbing primary ideals in this ring")
        return rep.finish(["instances"])
    for s in enumerate_multiplicative_sets(gr, max_set_size):
        disjoint = [p for p in strongly if not (p.elements & s.elements)]
        if not disjoint:
            continue
        lgr, canonical = localize(gr, s)
        for t in s.elements:
            if not lgr.ring.is_unit(canonical(t)):
                rep.fail(note="canonical map fails to invert S", element=gr.ring.name(t))
        for p in disjoint:
            sp = ideal_generated(lgr.ring, tuple(canonical(x) for x in sorted(p.elements)))
            if sp.is_proper():
                _expect_strongly(
                    rep, "instances", lgr, sp,
                    ideal=_ideal_names(gr, p), mult_set=_elem_names(gr, sorted(s.elements)),
                )
            else:
                rep.bump("instances")
                rep.fail(ideal=_ideal_names(gr, p), note="S^-1 P not proper")
    return rep.finish(["instances"])


def prop_3_4_reduction(gr: GradedRing, label: str = "") -> VerificationReport:
    """R-side conditions of the polynomial-extension statements.

    The conclusions about R[X] are derived from the statement's equivalences
    and explicitly labeled as not independently verified (R[X] is infinite).
    """
    rep = VerificationReport("PROP_3_4_REDUCTION", label or gr.label)
    grad_zero = _grad_zero_ideal(gr)
    prime0 = grad_zero.is_proper() and is_graded_prime(gr, grad_zero)[0]
    rep.bump("rings")
    if prime0:
        rep.bump("grad_zero_prime_instances")
    verdict = "has" if prime0 else "has no"
    rep.notes.append(
        f"Grad({{0}}) = {{{','.join(_ideal_names(gr, grad_zero))}}} graded prime: {prime0}; "
        f"derived (NOT independently verified): R[X] {verdict} a graded strongly "
        f"1-absorbing primary ideal"
    )
    for p in proper_graded_ideals(gr):
        primary = is_graded_primary(gr, p)[0]
        rad_matches = radical_of(gr, p) == grad_zero
        if primary and rad_matches:
            rep.bump("statement4_candidates")
            rep.notes.append(
                f"P = {{{','.join(_ideal_names(gr, p))}}}: graded primary with "
                f"Grad(P)=Grad({{0}}); derived (NOT independently verified): P[X] is "
                f"graded strongly 1-absorbing primary"
            )
    return rep.finish(["rings"])


# ------------------------------------------------------------------ registry

RingStatement = Callable[[GradedRing, str], VerificationReport]

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
    "PROP_3_4_REDUCTION": lambda gr, label: prop_3_4_reduction(gr, label),
}

ALL_STATEMENTS = tuple(sorted(RING_STATEMENTS)) + ("COR_2_7", "COR_2_8")


def verify(
    statement_id: str,
    target=None,
    *,
    corpus: Optional[list[CorpusEntry]] = None,
    n_range: tuple[int, int] = (2, 64),
) -> list[VerificationReport]:
    """Run one statement over a single target or the whole corpus."""
    if statement_id == "COR_2_7":
        if target is not None:
            if not (isinstance(target, tuple) and len(target) == 2):
                raise ShapeMismatch("COR_2_7 takes an integer range (lo, hi)")
            n_range = target
        return [_cor_2_7(*n_range)]
    if corpus is None:
        corpus = default_corpus()
    if statement_id == "COR_2_8":
        if target is not None:
            if not isinstance(target, CorpusEntry) or target.kind != "product":
                raise ShapeMismatch("COR_2_8 takes a product corpus entry")
            return [_cor_2_8(target)]
        return [_cor_2_8(e) for e in corpus if e.kind == "product"]
    if statement_id not in RING_STATEMENTS:
        raise ShapeMismatch(f"unknown statement {statement_id!r}")
    fn = RING_STATEMENTS[statement_id]
    if target is not None:
        if not isinstance(target, GradedRing):
            raise ShapeMismatch(f"{statement_id} takes a single graded ring")
        return [fn(target, target.label)]
    return [fn(entry.gr, entry.label) for entry in corpus]


def run_suite(
    statement_ids: Iterable[str] = ALL_STATEMENTS,
    corpus: Optional[list[CorpusEntry]] = None,
    n_range: tuple[int, int] = (2, 64),
) -> list[VerificationReport]:
    if corpus is None:
        corpus = default_corpus()
    reports: list[VerificationReport] = []
    for sid in statement_ids:
        reports.extend(verify(sid, corpus=corpus, n_range=n_range))
    return reports


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
                        "ideal": _ideal_names(gr, p),
                        "ideal_raw": p,
                        "graded_ring": gr,
                        "witness": _elem_names(gr, witness) if witness else None,
                        "witness_raw": witness,
                    }
                )
    return out
