"""Definitional loops: the reference the library's fast paths must match.

Ring arithmetic goes one table cell at a time: the constructors'
coefficient formulas and per-kind element names and the closures of the
derived rings (quotient, product, localization, identity subring) are one
function call per cell, and the axiom, ideal and homomorphism checks read
`ring.add_rows[x][y]` / `ring.mul_rows[x][y]`, each raising the first
failure in scan order. A grading is read through `decomposition`, the
table of every sum of one part per component, built once per call (the
library checks that a sum is direct by a span). The ideal algebra is the
frontier-search additive closure and the lattice closed under sums of
every pair of ideals found so far; radicals, Grad({0}) included, search
the powers x, x^2, ..., x^|R| one by one; colons test every product. Each
predicate scans its quantifier domain in lexicographic order and returns
the first violating tuple, exactly as the predicates did before they were
merged into shared kernels. The ring flags test their definitions on
pairs of elements. Nothing here is memoized, so a comparison never reads
back a value the library cached.  The one exception is PROP_3_3, replayed
on the library's kernels and localizations as it was before they were
shared: one localization for each multiplicative set.
"""

from __future__ import annotations

import itertools

from gradedrings import verifier
from gradedrings.errors import (
    GroupMismatch,
    MalformedSpec,
    NotAdditive,
    NotAnIdeal,
    NotDegreePreserving,
    NotMultiplicativeMap,
    UnitNotPreserved,
)
from gradedrings.finring import Cyclic, GaussMod, PolyQuotient
from gradedrings.ideals import IdealSet, require_graded
from gradedrings.transport import enumerate_multiplicative_sets, localize


def tables(size, add, mul):
    """The addition and multiplication rows of two cell functions."""
    cells = range(size)
    return [[add(i, j) for j in cells] for i in cells], [[mul(i, j) for j in cells] for i in cells]


def spec_tables(spec):
    """The rows of a ring spec from the coefficient formulas, cell by cell."""
    if isinstance(spec, Cyclic):
        n = spec.n
        return tables(n, lambda i, j: (i + j) % n, lambda i, j: (i * j) % n)
    if isinstance(spec, GaussMod):
        n = spec.n  # index a + b*n for a + b*i

        def add(x, y):
            return (x % n + y % n) % n + (((x // n + y // n) % n) * n)

        def mul(x, y):
            a, b = x % n, x // n
            c, d = y % n, y // n
            return (a * c - b * d) % n + (((a * d + b * c) % n) * n)

        return tables(n * n, add, mul)
    assert isinstance(spec, PolyQuotient)
    p = spec.base.n
    mod = [c % p for c in spec.modulus]
    d = len(mod) - 1

    def to_coeffs(x):
        cs = []
        for _ in range(d):
            cs.append(x % p)
            x //= p
        return cs

    def from_coeffs(cs):
        x = 0
        for c in reversed(cs):
            x = x * p + c % p
        return x

    def add(x, y):
        return from_coeffs([(u + v) % p for u, v in zip(to_coeffs(x), to_coeffs(y))])

    def mul(x, y):
        a, b = to_coeffs(x), to_coeffs(y)
        prod = [0] * (2 * d - 1)
        for i, u in enumerate(a):
            for j, v in enumerate(b):
                prod[i + j] = (prod[i + j] + u * v) % p
        for k in range(len(prod) - 1, d - 1, -1):  # u^d = -(mod_0 + ... + mod_(d-1) u^(d-1))
            c, prod[k] = prod[k], 0
            for j in range(d):
                prod[k - d + j] = (prod[k - d + j] - c * mod[j]) % p
        return from_coeffs(prod[:d])

    return tables(p**d, add, mul)


def _poly_name(coeffs):
    """A polynomial in u, ascending: `2+u^2`, `u`, `0`."""
    terms = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        if k == 0:
            terms.append(str(c))
        else:
            power = "u" if k == 1 else f"u^{k}"
            terms.append(power if c == 1 else f"{c}{power}")
    return "+".join(terms) if terms else "0"


def spec_names(spec):
    """The label of a ring spec and the name of every element, by kind:
    decimal residues, `a+bi`, or polynomials in u."""
    if isinstance(spec, Cyclic):
        return f"Z/{spec.n}", [str(x) for x in range(spec.n)]
    if isinstance(spec, GaussMod):
        n = spec.n

        def gauss(a, b):
            if b == 0:
                return str(a)
            imag = "i" if b == 1 else f"{b}i"
            return imag if a == 0 else f"{a}+{imag}"

        return f"Z/{n}[i]", [gauss(x % n, x // n) for x in range(n * n)]
    p = spec.base.n
    mod = [c % p for c in spec.modulus]
    d = len(mod) - 1
    names = [_poly_name([x // p**k % p for k in range(d)]) for x in range(p**d)]
    return f"Z/{p}[u]/({_poly_name(mod)})", names


def check_axioms(ring):
    """Scan the commutative-ring axioms cell by cell, every triple in (i, j, k) order."""
    for i in ring.elements():
        if ring.add_rows[i][ring.zero] != i:
            raise MalformedSpec(f"additive identity fails at {ring.name(i)}")
        if ring.mul_rows[i][ring.one] != i:
            raise MalformedSpec(f"multiplicative identity fails at {ring.name(i)}")
    for i in ring.elements():
        for j in ring.elements():
            if ring.add_rows[i][j] != ring.add_rows[j][i]:
                raise MalformedSpec(f"addition not commutative at ({i},{j})")
            if ring.mul_rows[i][j] != ring.mul_rows[j][i]:
                raise MalformedSpec(f"multiplication not commutative at ({i},{j})")
    add, mul = ring.add_rows, ring.mul_rows
    for i in ring.elements():
        for j in ring.elements():
            i_plus_j, i_times_j = add[i][j], mul[i][j]
            for k in ring.elements():
                j_plus_k = add[j][k]
                if add[i_plus_j][k] != add[i][j_plus_k]:
                    raise MalformedSpec(f"addition not associative at ({i},{j},{k})")
                if mul[i_times_j][k] != mul[i][mul[j][k]]:
                    raise MalformedSpec(f"multiplication not associative at ({i},{j},{k})")
                if mul[i][j_plus_k] != add[i_times_j][mul[i][k]]:
                    raise MalformedSpec(f"distributivity fails at ({i},{j},{k})")


def cosets(ring, k):
    """Coset index of every element modulo `k`, and the least element of each coset."""
    coset_of = [None] * ring.size
    reps = []
    for x in ring.elements():
        if coset_of[x] is None:
            reps.append(x)
            for d in k:
                coset_of[ring.add_rows[x][d]] = len(reps) - 1
    return coset_of, reps


def quotient_tables(gr, k):
    ring = gr.ring
    coset_of, reps = cosets(ring, k.elements)
    return tables(
        len(reps),
        lambda i, j: coset_of[ring.add_rows[reps[i]][reps[j]]],
        lambda i, j: coset_of[ring.mul_rows[reps[i]][reps[j]]],
    )


def product_tables(gr, gs):
    r1, r2 = gr.ring, gs.ring
    n2 = r2.size
    return tables(
        r1.size * n2,
        lambda x, y: r1.add_rows[x // n2][y // n2] * n2 + r2.add_rows[x % n2][y % n2],
        lambda x, y: r1.mul_rows[x // n2][y // n2] * n2 + r2.mul_rows[x % n2][y % n2],
    )


def _localize_classes(gr, s):
    """The classes of pairs (a, t), numbered by their least pair: their
    least pairs, and the class of a pair."""
    ring = gr.ring
    slist = sorted(s.elements)
    killed = [d for d in ring.elements() if any(ring.mul_rows[v][d] == ring.zero for v in slist)]
    coset_of, _ = cosets(ring, killed)
    one_coset = coset_of[ring.one]
    inverse = {
        t: next(v for v in ring.elements() if coset_of[ring.mul_rows[t][v]] == one_coset) for t in slist
    }
    class_of, reps = {}, []
    for a in ring.elements():
        for t in slist:
            key = coset_of[ring.mul_rows[a][inverse[t]]]
            if key not in class_of:
                class_of[key] = len(reps)
                reps.append((a, t))

    def cls(a, t):
        return class_of[coset_of[ring.mul_rows[a][inverse[t]]]]

    return reps, cls


def localize_tables(gr, s):
    """Sums and products of S^-1 R from the fraction formulas."""
    ring = gr.ring
    reps, cls = _localize_classes(gr, s)

    def add(i, j):
        (a, t1), (b, t2) = reps[i], reps[j]
        return cls(ring.add_rows[ring.mul_rows[a][t2]][ring.mul_rows[b][t1]], ring.mul_rows[t1][t2])

    def mul(i, j):
        (a, t1), (b, t2) = reps[i], reps[j]
        return cls(ring.mul_rows[a][b], ring.mul_rows[t1][t2])

    return tables(len(reps), add, mul)


def _inverse(group, g):
    """The degree h with gh = e: -g in Z, else the one found by trying every
    degree of the finite group."""
    if group.kind == "integers":
        return -g
    return next(
        h for h in itertools.product(*map(range, group.factors)) if group.op(g, h) == group.identity
    )


def localize_grading(gr, s):
    """The element names of S^-1 R (a class is named a or a/t after its
    least pair), its components (a/t, a of degree h, in degree h g(t)^-1)
    and the canonical map a -> a/1."""
    ring, group = gr.ring, gr.group
    reps, cls = _localize_classes(gr, s)
    names = [ring.name(a) if t == ring.one else f"{ring.name(a)}/{ring.name(t)}" for a, t in reps]
    components = {}
    for h in gr.support:
        for t in s.elements:
            degree = next(g for g in gr.support if t in gr.component(g))
            g = group.op(h, _inverse(group, degree))
            components.setdefault(g, set()).update(cls(a, t) for a in gr.component(h))
    canonical = tuple(cls(a, ring.one) for a in ring.elements())
    return names, {g: frozenset(c) for g, c in components.items()}, canonical


def identity_subring_tables(gr):
    ring = gr.ring
    carrier = sorted(gr.component(gr.group.identity))
    back = {x: i for i, x in enumerate(carrier)}
    return tables(
        len(carrier),
        lambda i, j: back[ring.add_rows[carrier[i]][carrier[j]]],
        lambda i, j: back[ring.mul_rows[carrier[i]][carrier[j]]],
    )


def validate_ideal(ring, elements):
    if ring.zero not in elements:
        raise NotAnIdeal("missing 0")
    for x in elements:
        for y in elements:
            if ring.add_rows[x][y] not in elements:
                raise NotAnIdeal(f"not closed under addition at {ring.name(x)}+{ring.name(y)}")
        for r in ring.elements():
            if ring.mul_rows[r][x] not in elements:
                raise NotAnIdeal(f"not absorbing at {ring.name(r)}*{ring.name(x)}")


def hom_check(source, target, mapping):
    """The checks of hom_build, every pair (x, y) in turn."""
    if source.group != target.group:
        raise GroupMismatch("graded homomorphism requires a shared grading group")
    f = tuple(mapping)
    rs, rt = source.ring, target.ring
    if len(f) != rs.size or any(not (0 <= v < rt.size) for v in f):
        raise NotAdditive("mapping is not total on the source carrier", None)
    if f[rs.one] != rt.one:
        raise UnitNotPreserved(f"f(1) = {rt.name(f[rs.one])} != 1", (rs.one,))
    for x in rs.elements():
        for y in rs.elements():
            if f[rs.add_rows[x][y]] != rt.add_rows[f[x]][f[y]]:
                raise NotAdditive(
                    f"f({rs.name(x)}+{rs.name(y)}) != f({rs.name(x)})+f({rs.name(y)})", (x, y)
                )
            if f[rs.mul_rows[x][y]] != rt.mul_rows[f[x]][f[y]]:
                raise NotMultiplicativeMap(
                    f"f({rs.name(x)}*{rs.name(y)}) != f({rs.name(x)})*f({rs.name(y)})", (x, y)
                )
    for g in source.support:
        for x in source.component(g):
            if f[x] not in target.component(g):
                raise NotDegreePreserving(
                    f"f({rs.name(x)}) leaves degree {source.group.describe(g)}", (x,)
                )


def additive_closure(ring, seed):
    out = set(seed)
    out.add(ring.zero)
    frontier = list(out)
    while frontier:
        x = frontier.pop()
        for y in list(out):
            s = ring.add_rows[x][y]
            if s not in out:
                out.add(s)
                frontier.append(s)
    return frozenset(out)


def ideal_generated(ring, gens):
    gens = tuple(gens)
    multiples = {ring.zero} | {ring.mul_rows[r][g] for g in gens for r in ring.elements()}
    return IdealSet(ring, additive_closure(ring, multiples), generators=gens)


def combine(i, j, op):
    ring = i.ring
    if op == "sum":
        return IdealSet(ring, additive_closure(ring, i.elements | j.elements))
    if op == "product":
        prods = {ring.mul_rows[x][y] for x in i.elements for y in j.elements}
        return IdealSet(ring, additive_closure(ring, prods))
    assert op == "intersection"
    return IdealSet(ring, i.elements & j.elements)


def nilradical(ring):
    return frozenset(x for x in ring.elements() if has_power_in(ring, x, {ring.zero}))


def has_power_in(ring, x, target):
    """Some x^k, 1 <= k <= |R|, lies in target (a longer search finds nothing new)."""
    p = x
    for _ in range(ring.size):
        if p in target:
            return True
        p = ring.mul_rows[p][x]
    return False


def decomposition(ring, components):
    """The parts of every element by the definition of a direct sum: each sum
    of one part per component other than {0}, as a dict degree -> part at
    the index of the sum.  None if two sums reach one element; an element
    no sum reaches keeps None."""
    degrees = sorted(g for g, c in components.items() if set(c) != {ring.zero})
    table = [None] * ring.size
    for parts in itertools.product(*(sorted(components[g]) for g in degrees)):
        total = ring.zero
        for part in parts:
            total = ring.add_rows[total][part]
        if table[total] is not None:
            return None
        table[total] = dict(zip(degrees, parts))
    return table


def is_graded_ideal(gr, ideal):
    """Graded iff every component of every member is a member, by the
    decomposition of each member; the witness is the least member with a
    component outside the ideal."""
    members, table = ideal.elements, decomposition(gr.ring, gr.components)
    for x in sorted(members):
        if any(part not in members for part in table[x].values()):
            return False, x
    return True, None


def graded_radical(gr, ideal):
    ring = gr.ring
    if not ideal.is_proper():
        return IdealSet(ring, ring.elements())
    table = decomposition(ring, gr.components)
    return IdealSet(ring, {
        x for x in ring.elements()
        if all(has_power_in(ring, part, ideal.elements) for part in table[x].values())
    })


def colon(ring, p, k):
    return IdealSet(ring, {
        r for r in ring.elements() if all(ring.mul_rows[r][x] in p.elements for x in k.elements)
    })


def _lattice_order(ideal):
    return len(ideal), ideal.sorted_elements()


def principal_graded_ideals(gr):
    """The ideal generated by each homogeneous element, each ideal once with
    its least generator, sorted.  As in `ideal_generated`, that is the
    additive closure of the element's multiples; each distinct set of
    multiples is closed once per call."""
    ring = gr.ring
    closures = {}
    seen = {}
    for a in sorted(gr.homogeneous()):
        multiples = frozenset({ring.zero} | {ring.mul_rows[r][a] for r in ring.elements()})
        if multiples not in closures:
            closures[multiples] = additive_closure(ring, multiples)
        seen.setdefault(closures[multiples], IdealSet(ring, closures[multiples], generators=(a,)))
    return sorted(seen.values(), key=_lattice_order)


def enumerate_graded_ideals(gr):
    """Principal ideals of homogeneous elements (least generator kept),
    closed under the sum of every pair of ideals found so far."""
    seen = {ideal.elements: ideal for ideal in principal_graded_ideals(gr)}
    frontier = list(seen.values())
    while frontier:
        current = frontier.pop()
        for other in list(seen.values()):
            s = combine(current, other, "sum")
            if s.elements not in seen:
                seen[s.elements] = s
                frontier.append(s)
    return sorted(seen.values(), key=_lattice_order)


def is_graded_prime(gr, p):
    require_graded(gr, p, proper=True)
    homog = sorted(gr.homogeneous())
    mul = gr.ring.mul_rows
    for x in homog:
        if x in p.elements:
            continue
        for y in homog:
            if mul[x][y] in p.elements and y not in p.elements:
                return False, (x, y)
    return True, None


def is_graded_primary(gr, q):
    require_graded(gr, q, proper=True)
    rad = graded_radical(gr, q).elements
    homog = sorted(gr.homogeneous())
    mul = gr.ring.mul_rows
    for x in homog:
        if x in q.elements:
            continue
        for y in homog:
            if mul[x][y] in q.elements and y not in rad:
                return False, (x, y)
    return True, None


def is_graded_1abs_primary(gr, p):
    require_graded(gr, p, proper=True)
    rad = graded_radical(gr, p).elements
    nonunits = gr.nonunit_homogeneous()
    mul = gr.ring.mul_rows
    for x in nonunits:
        for y in nonunits:
            xy = mul[x][y]
            if xy in p.elements:
                continue
            for z in nonunits:
                if mul[xy][z] in p.elements and z not in rad:
                    return False, (x, y, z)
    return True, None


def is_graded_strongly_1abs_primary(gr, p):
    require_graded(gr, p, proper=True)
    grad_zero = graded_radical(gr, IdealSet(gr.ring, {gr.ring.zero})).elements
    nonunits = gr.nonunit_homogeneous()
    mul = gr.ring.mul_rows
    for x in nonunits:
        for y in nonunits:
            xy = mul[x][y]
            if xy in p.elements:
                continue
            for z in nonunits:
                if mul[xy][z] in p.elements and z not in grad_zero:
                    return False, (x, y, z)
    return True, None


def is_graded_2abs_primary(gr, i):
    require_graded(gr, i, proper=True)
    rad = graded_radical(gr, i).elements
    homog = sorted(gr.homogeneous())
    mul = gr.ring.mul_rows
    for x in homog:
        for y in homog:
            xy = mul[x][y]
            if xy in i.elements:
                continue
            for z in homog:
                if (
                    mul[xy][z] in i.elements
                    and mul[x][z] not in rad
                    and mul[y][z] not in rad
                ):
                    return False, (x, y, z)
    return True, None


def strongly_1abs_ideal_form(gr, p):
    """IJK in P forces IJ in P or K in Grad({0}), over the proper members
    of the oracle lattice, with IJ and IJK built as products."""
    require_graded(gr, p, proper=True)
    grad_zero = graded_radical(gr, IdealSet(gr.ring, {gr.ring.zero})).elements
    lattice = [i for i in enumerate_graded_ideals(gr) if i.is_proper()]
    for i in lattice:
        for j in lattice:
            ij = combine(i, j, "product")
            if ij.elements <= p.elements:
                continue
            for k in lattice:
                if not k.elements <= grad_zero and combine(ij, k, "product").elements <= p.elements:
                    return False, (i, j, k)
    return True, None


def ring_profile(gr):
    """The three ring flags by their definitions, over pairs of elements: every
    nonzero homogeneous element a unit; no product of two nonzero homogeneous
    elements 0; every homogeneous element nilpotent or a unit."""
    ring = gr.ring
    homog = sorted(gr.homogeneous())
    nonzero = [x for x in homog if x != ring.zero]

    def is_unit(x):
        return any(ring.mul_rows[x][y] == ring.one for y in ring.elements())

    return {
        "graded_field": all(is_unit(x) for x in nonzero),
        "graded_domain": all(ring.mul_rows[x][y] != ring.zero for x in nonzero for y in nonzero),
        "every_homogeneous_nilpotent_or_unit": all(
            is_unit(x) or has_power_in(ring, x, {ring.zero}) for x in homog
        ),
    }


def prop_3_3(rep, gr):
    """PROP_3_3 localizing once per multiplicative set: for each S that
    misses a strongly ideal, S^-1 R is built, each t in S is checked to map
    to a unit, and each S^-1 P, P strongly with S cap P empty, is checked.
    The kernels are read through `verifier`, so a rebinding there is seen."""
    strongly = verifier._ideals_where(gr, verifier.is_graded_strongly_1abs_primary)
    if not strongly:
        rep.notes.append("no graded strongly 1-absorbing primary ideals in this ring")
        return rep.finish(["instances"])
    for s in enumerate_multiplicative_sets(gr):
        disjoint = [p for p in strongly if not (p.elements & s.elements)]
        if not disjoint:
            continue
        lgr, canonical = localize(gr, s)
        for t in s.elements:
            if canonical(t) not in lgr.ring.units():
                rep.fail(note="canonical map fails to invert S", element=gr.ring.name(t))
        for p in disjoint:
            rep.bump("instances")
            sp = ideal_generated(lgr.ring, tuple(canonical(x) for x in sorted(p.elements)))
            if not sp.is_proper():
                rep.fail(ideal=verifier._names(gr, p), note="S^-1 P not proper")
                continue
            ok, witness = verifier.is_graded_strongly_1abs_primary(lgr, sp)
            if not ok:
                rep.fail(
                    ideal=verifier._names(gr, p), mult_set=verifier._names(gr, sorted(s.elements)),
                    witness=verifier._names(lgr, witness),
                )
    return rep.finish(["instances"])
