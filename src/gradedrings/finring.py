"""Exact arithmetic for finite commutative rings with nonzero identity.

Elements are dense 0-based indices into the carrier.  A ring is its dense
addition and multiplication tables.  Every spec ring is a polynomial
quotient (Z/m)[v]/(modulus): Z/n is (Z/n)[u]/(u) and Z/n[i] is
(Z/n)[i]/(i^2+1).  One constructor builds its rows from index arithmetic,
without a function call per cell.
"""

from __future__ import annotations

import re
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence

from .errors import MalformedSpec

MAX_CARRIER = 1024


class Record:
    """Base of the library's small records: equality, hash and a
    `Name(field=value, ...)` repr over the fields named in `__slots__`."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, k) for k in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={getattr(self, k)!r}" for k in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Cyclic(Record):
    """Z/nZ."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        self.n = n


class GaussMod(Record):
    """Z/nZ with an adjoined square root of -1; element (a, b) is a + b*i."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        self.n = n


class PolyQuotient(Record):
    """(Z/pZ)[u] / (modulus), modulus monic, coefficients ascending."""

    __slots__ = ("base", "modulus")

    def __init__(self, base: Cyclic, modulus: tuple[int, ...]):
        self.base = base
        self.modulus = modulus


RingSpec = Cyclic | GaussMod | PolyQuotient


def gather(idx: Sequence[int]) -> Callable[[Sequence], tuple]:
    """seq -> the tuple of seq[i] for i in `idx` (nonempty), read in C.  This
    is `itemgetter(*idx)`, except that one index still gives a 1-tuple."""
    if len(idx) == 1:
        i = idx[0]
        return lambda seq: (seq[i],)
    return itemgetter(*idx)


def memo(owner, key, compute: Callable):
    """`owner._cache[key]`, filled by `compute()` on first use.  An exception
    from `compute` is never stored, so it is raised again on every call."""
    cache = owner._cache
    if key not in cache:
        cache[key] = compute()
    return cache[key]


class FinRing:
    """Immutable finite commutative ring; all operations are pure.

    The ring owns the addition and multiplication rows it is given: row x
    holds x+y (resp. x*y) at index y.  `FinRing(...)` checks that a caller's
    rows are `size` lists of `size` ints in range(size); the library's own
    builders construct `_BuiltRing`, whose rows are well formed by
    construction and not scanned again.
    """

    _rows_checked = True  # False on `_BuiltRing`: rows well formed by construction

    def __init__(
        self,
        size: int,
        add_rows: list[list[int]],
        mul_rows: list[list[int]],
        *,
        one: int,
        zero: int = 0,
        label: str = "ring",
        names: Optional[Sequence[str]] = None,
        parse: Optional[Callable[[str], int]] = None,
    ):
        _check_carrier(size)
        if zero == one:
            raise MalformedSpec("zero == one (zero ring rejected)")
        if not all(type(v) is int and 0 <= v < size for v in (zero, one)):
            raise MalformedSpec(f"zero {zero!r} or one {one!r} is not in range({size})")
        if names is not None and len(names) != size:
            raise MalformedSpec(f"{len(names)} names for {size} elements")
        if self._rows_checked:
            _check_rows(size, add_rows, "addition")
            _check_rows(size, mul_rows, "multiplication")
        self.size = size
        self.zero = zero
        self.one = one
        self.label = label
        self._names = list(names if names is not None else map(str, range(size)))
        self._parse = parse
        self._add_table = add_rows
        self._mul_table = mul_rows
        try:
            self._neg_table = [row.index(zero) for row in add_rows]
        except ValueError:
            i = next(i for i, row in enumerate(add_rows) if zero not in row)
            raise MalformedSpec(f"{self._names[i]} has no additive inverse") from None
        # closures over the tables, not self: a ring in no reference cycle
        # is freed when dropped, not at the next full garbage collection
        add, mul, neg = self._add_table, self._mul_table, self._neg_table
        self.add = lambda i, j: add[i][j]
        self.mul = lambda i, j: mul[i][j]
        self.neg = lambda i: neg[i]
        self._cache: dict = {}

    def __repr__(self) -> str:
        return f"FinRing({self.label}, size={self.size})"

    def elements(self) -> range:
        return range(self.size)

    @property
    def add_rows(self) -> Sequence[Sequence[int]]:
        """The addition table: row x holds x+y at index y.  Read only."""
        return self._add_table

    @property
    def mul_rows(self) -> Sequence[Sequence[int]]:
        """The multiplication table: row x holds x*y at index y.  Read only."""
        return self._mul_table

    def require_elements(self, xs: Iterable, error: type[Exception]) -> None:
        """Raise `error` naming the first of `xs` that is not an element
        index, an int in range(size), such as -1, `size`, 2.0 or '2'."""
        for x in xs:
            if type(x) is not int or not 0 <= x < self.size:
                raise error(
                    f"{x!r} is not an element of {self.label}, an int in range({self.size})"
                )

    def sub(self, i: int, j: int) -> int:
        return self.add(i, self.neg(j))

    def name(self, x: int) -> str:
        return self._names[x]

    def parse(self, text: str) -> int:
        if self._parse is None:
            raise MalformedSpec(f"ring {self.label} has no element parser")
        try:
            return self._parse(text)
        except ValueError:
            raise MalformedSpec(f"cannot parse {text!r} as an element of {self.label}") from None

    def units(self) -> frozenset[int]:
        """Exactly the x with xy = 1 for some y."""
        return memo(self, "units", lambda: frozenset(
            x for x, row in enumerate(self._mul_table) if self.one in row
        ))

    def high_powers(self) -> tuple[int, ...]:
        """x -> x^(2^m) with 2^m > size, m = size.bit_length(): the diagonal
        x -> x^2 composed m times, each step one gather.  An ideal holds
        x^(2^m) exactly when it holds some power of x, because the least
        such power has exponent at most size."""
        def compute():
            square = tuple(map(list.__getitem__, self._mul_table, range(self.size)))
            powers = square
            for _ in range(self.size.bit_length() - 1):
                powers = gather(powers)(square)
            return powers

        return memo(self, "powers", compute)

    def nilradical(self) -> frozenset[int]:
        """The x with x^k = 0 for some k >= 1."""
        return memo(self, "nilradical", lambda: frozenset(
            x for x, power in enumerate(self.high_powers()) if power == self.zero
        ))

    def check_axioms(self) -> None:
        """Verify the commutative-ring axioms on the tables, exactly.

        The identities and commutativity are checked in full, by whole rows
        and columns.  The three-variable laws are tested only on triples
        that hold an element of G, a set whose closure under x -> x+g
        (g in G), started from G and computed on the table (no law
        assumed), is the carrier.  For each law, the a that pass form a set
        closed under + that holds G, so they are the carrier and the
        verdict equals the full scan's:

        - (x+a)+y = x+(a+y) for all x, y (Light's test; Clifford and
          Preston, The Algebraic Theory of Semigroups I, section 1.2): for
          passing a and b, (x+(a+b))+y = ((x+a)+b)+y = (x+a)+(b+y)
          = x+(a+(b+y)) = x+((a+b)+y).
        - i(a+y) = ia+iy for all i, y: closed under + once + is associative.
        - (ab)c = a(bc) for a, b in G and all c: with distributivity and *
          commutative, both sides are additive in a and in b.

        This reads about n^2 |G| cells.  Triples are scanned only when a law
        fails, so the message names the first failing element, pair or
        triple in (i, j, k) order.
        """
        n, add, mul = self.size, self._add_table, self._mul_table
        ids = list(range(n))
        if [row[self.zero] for row in add] != ids or [row[self.one] for row in mul] != ids:
            i = next(i for i in ids if add[i][self.zero] != i or mul[i][self.one] != i)
            which = "additive" if add[i][self.zero] != i else "multiplicative"
            raise MalformedSpec(f"{which} identity fails at {self.name(i)}")
        # each row against its column, read lazily: no transposed copy is built
        for i, (a_row, a_col, m_row, m_col) in enumerate(zip(add, zip(*add), mul, zip(*mul))):
            if tuple(a_row) != a_col or tuple(m_row) != m_col:
                j = next(j for j in ids if a_row[j] != a_col[j] or m_row[j] != m_col[j])
                which = "addition" if a_row[j] != a_col[j] else "multiplication"
                raise MalformedSpec(f"{which} not commutative at ({i},{j})")
        if _laws_hold(add, mul, _additive_generators(add, self.zero)):
            return
        # over k at once: (i+j)+k = i+(j+k), (ij)k = i(jk), i(j+k) = ij+ik
        for i in ids:
            plus_i, times_i = add[i].__getitem__, mul[i].__getitem__
            for j in ids:
                ij = mul[i][j]
                if (
                    add[add[i][j]] != list(map(plus_i, add[j]))
                    or mul[ij] != list(map(times_i, mul[j]))
                    or list(map(times_i, add[j])) != list(map(add[ij].__getitem__, mul[i]))
                ):
                    k = next(k for k in ids if _triple_law(add, mul, i, j, k))
                    raise MalformedSpec(f"{_triple_law(add, mul, i, j, k)} at ({i},{j},{k})")


class _BuiltRing(FinRing):
    """A ring whose rows the library built: `FinRing.__init__` runs every
    check but `_check_rows`.  Each builder's rows are `size` lists of `size`
    ints in range(size), because every cell is read from a list of such ints:

    - `_poly_ring`: one row of m^d cells per element; each addition cell is
      an entry of a rotation of range(m) or a pair index of `product_rows`,
      and each multiplication cell is 0, an entry of range(m) or an entry
      of an addition row.
    - `transport.quotient`, `localize` and `identity_subring`: `_rows_through`
      gives one row per new element, each the parent's row read at the new
      carrier and renumbered by a list (`coset_of`, the canonical map a ->
      a/1) or a dict (`back`, over R_e, which holds its sums and products)
      whose values are exactly range(new size).
    - `transport.product`: `product_rows` gathers from `range(|R| |S|)`, one
      row per pair.
    """

    _rows_checked = False


def _additive_generators(add: list[list[int]], zero: int) -> list[int]:
    """Elements, least first, whose closure under x -> x+g (g among them),
    started from them, is the carrier: each one not yet reached is added.
    Zero comes last, needed only if no sum reaches it."""
    n = len(add)
    gens: list[int] = []
    reached = [False] * n
    for x in [*range(zero), *range(zero + 1, n), zero]:
        if reached[x]:
            continue
        gens.append(x)
        reached[x] = True
        todo = [c for c in range(n) if reached[c]]
        while todo:
            row = add[todo.pop()]
            for d in map(row.__getitem__, gens):
                if not reached[d]:
                    reached[d] = True
                    todo.append(d)
    return gens


def _laws_hold(add: list[list[int]], mul: list[list[int]], gens: list[int]) -> bool:
    """Whether + is associative, * distributes over + and * is associative,
    tested on triples with generators in them (see `FinRing.check_axioms`)."""
    for a in gens:  # (x+a)+y = x+(a+y)
        for x_row in add:
            if add[x_row[a]] != list(map(x_row.__getitem__, add[a])):
                return False
    for m_row in mul:  # i(a+y) = ia+iy
        for a in gens:
            if list(map(m_row.__getitem__, add[a])) != list(map(add[m_row[a]].__getitem__, m_row)):
                return False
    return all(  # (ab)c = a(bc)
        mul[mul[a][b]] == list(map(mul[a].__getitem__, mul[b])) for a in gens for b in gens
    )


def _triple_law(add: list[list[int]], mul: list[list[int]], i: int, j: int, k: int) -> str:
    """The first three-variable law that fails at (i, j, k), or ''."""
    if add[add[i][j]][k] != add[i][add[j][k]]:
        return "addition not associative"
    if mul[mul[i][j]][k] != mul[i][mul[j][k]]:
        return "multiplication not associative"
    if mul[i][add[j][k]] != add[mul[i][j]][mul[i][k]]:
        return "distributivity fails"
    return ""


def _check_rows(size: int, rows, what: str) -> None:
    """Reject anything but `size` lists of `size` ints in range(size)."""
    if not (
        isinstance(rows, list)
        and len(rows) == size
        and all(isinstance(row, list) and len(row) == size for row in rows)
    ):
        raise MalformedSpec(f"{what} table is not {size} lists of {size} entries")
    values = frozenset(range(size))
    # 1.0, Fraction(1) or Decimal(1) would pass the membership test, as they
    # equal an int in range; any of them makes the sum something else than an int
    if not all(map(values.issuperset, rows)) or type(sum(map(sum, rows))) is not int:
        raise MalformedSpec(f"{what} table has an entry that is not an int in range({size})")


def _check_carrier(size: int) -> None:
    if size < 2:
        raise MalformedSpec(f"carrier size {size} < 2 (zero ring rejected)")
    if size > MAX_CARRIER:
        raise MalformedSpec(f"carrier size {size} exceeds cap {MAX_CARRIER}")


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def product_rows(rows1: Sequence[Sequence[int]], rows2: Sequence[Sequence[int]]) -> list[list[int]]:
    """The table of R x S from tables of R and S, the pair (a, b) at index
    a*|S| + b: (a,b) op (c,d) = (a op c, b op d)."""
    n2 = len(rows2)
    base = list(range(len(rows1) * n2))
    blocks = [base[a * n2:(a + 1) * n2] for a in range(len(rows1))]  # the pairs (a, *)
    along = [gather(row2) for row2 in rows2]  # block (a, *) -> the pairs (a, b op d) over d
    out = []
    for row1 in rows1:
        picked = gather(row1)(blocks)  # the blocks (a op c, *) over c
        for at in along:
            row: list[int] = []
            for block in picked:
                row += at(block)
            out.append(row)
    return out


def _digit_add_rows(m: int, d: int) -> list[list[int]]:
    """Addition rows of (Z/m)^d, the element with digits c_k at index sum c_k m^k.

    Row i of Z/m is range(m) rotated by i, and (Z/m)^d = Z/m x (Z/m)^(d-1)
    with the top digit first.
    """
    base = list(range(m))
    rotations = [base[i:] + base[:i] for i in base]
    rows = rotations
    for _ in range(d - 1):
        rows = product_rows(rotations, rows)
    return rows


def _cyclic_rows(n: int) -> tuple[list[list[int]], list[list[int]]]:
    """Addition and multiplication rows of Z/n.

    Row i of the multiplication table holds ij mod n.  Only a prime i <= n/2
    is computed cell by cell.  A composite i <= n/2 with least prime factor p
    is row p read at row i/p, as ij = p((i/p)j); a row i > n/2 is row n-i
    reflected, as (n-i)j = i(n-j).  Every cell is an object of `base`, so the
    table holds one int object per value.
    """
    base = list(range(n))
    half = n // 2
    least = [0] * (half + 1)  # the least prime factor of each i in 2..half
    for i in range(2, half + 1):
        if not least[i]:
            for k in range(i, half + 1, i):
                least[k] = least[k] or i
    mul = [[base[0]] * n, base]
    for i in range(2, half + 1):
        p = least[i]
        mul.append([base[i * j % n] for j in base] if p == i else list(gather(mul[i // p])(mul[p])))
    for i in range(len(mul), n):
        row = mul[n - i]
        mul.append(row[:1] + row[:0:-1])
    return _digit_add_rows(n, 1), mul


def _poly_rows(m: int, mod: Sequence[int]) -> tuple[list[list[int]], list[list[int]]]:
    """Addition and multiplication rows of (Z/m)[u] / (mod), mod monic of
    degree d, the element sum c_k u^k at index sum c_k m^k.

    Multiplying by x is additive, so x*y = sum_k y_k (x u^k): row x is built
    digit by digit from the d products x u^k, each the previous one times u.
    For d = 1 every element is a constant and the rows are those of Z/m.
    """
    d = len(mod) - 1
    if d == 1:
        return _cyclic_rows(m)
    add = _digit_add_rows(m, d)
    span = m ** (d - 1)
    # x = low + top*u^(d-1), so x*u = low*u - top*(mod_0 + ... + mod_(d-1) u^(d-1))
    reduced = [sum((-top * c) % m * m**k for k, c in enumerate(mod[:-1])) for top in range(m)]
    times_u = [add[low * m][reduced[top]] for top in range(m) for low in range(span)]
    mul = []
    for x in range(m**d):
        row, xu = [0], x  # row: x*y over y < m^k; xu = x*u^k
        for _ in range(d):
            multiples = [0]  # c * xu for c = 0 .. m-1
            for _ in range(m - 1):
                multiples.append(add[multiples[-1]][xu])
            longer: list[int] = []
            at_row = gather(row)
            for cxu in multiples:
                longer += at_row(add[cxu])
            row, xu = longer, times_u[xu]
        mul.append(row)
    return add, mul


def _parse_poly(text: str, var: str, p: int, d: int) -> int:
    """Index sum(c_k * p^k) of a signed sum of terms c, c*var, c*var^k with k < d."""
    s = text.strip().replace(" ", "").replace("-", "+-")
    if s.startswith("+"):
        s = s[1:]
    coeffs = [0] * d
    for term in s.split("+"):
        sign = 1
        if term.startswith("-"):
            sign, term = -1, term[1:]
        m = re.fullmatch(rf"(\d*)\*?{var}(?:\^(\d+))?", term)
        if m:
            c = int(m.group(1)) if m.group(1) else 1
            k = int(m.group(2)) if m.group(2) else 1
        elif term.isdigit():
            c, k = int(term), 0
        else:
            raise MalformedSpec(f"cannot parse {text!r} as a polynomial in {var}")
        if k >= d:
            raise MalformedSpec(f"term {term!r}: degree >= {d}")
        coeffs[k] = (coeffs[k] + sign * c) % p
    return sum(c * p**k for k, c in enumerate(coeffs))


def _poly_name(coeffs: Sequence[int], var: str) -> str:
    terms = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        if k == 0:
            terms.append(str(c))
        else:
            power = var if k == 1 else f"{var}^{k}"
            terms.append(power if c == 1 else f"{c}{power}")
    return "+".join(terms) if terms else "0"


def _poly_ring(m: int, modulus: Sequence[int], var: str, label: str) -> FinRing:
    """(Z/m)[var] / (modulus), modulus monic of degree d >= 1 with coefficients
    in range(m), the element sum c_k var^k at index sum c_k m^k."""
    d = len(modulus) - 1
    size = m**d
    _check_carrier(size)
    names = None  # for d = 1 the name of c is str(c), FinRing's default
    if d > 1:
        names = []
        for x in range(size):
            coeffs = []
            for _ in range(d):
                x, c = divmod(x, m)
                coeffs.append(c)
            names.append(_poly_name(coeffs, var))
    return _BuiltRing(
        size, *_poly_rows(m, modulus), one=1, label=label, names=names,
        parse=lambda text: _parse_poly(text, var, m, d),
    )


def build_ring(spec: RingSpec) -> FinRing:
    """Construct the ring described by `spec`, checking its parameters but not
    the axioms: (Z/m)[v]/(f), m >= 2 and f monic of degree d >= 1, is a
    commutative ring with 1 != 0 and free Z/m-basis 1, v, ..., v^(d-1)."""
    if isinstance(spec, Cyclic):
        n = spec.n
        if n < 2:
            raise MalformedSpec(f"Cyclic({n}): need n >= 2")
        return _poly_ring(n, (0, 1), "u", f"Z/{n}")
    if isinstance(spec, GaussMod):
        n = spec.n
        if n < 2:
            raise MalformedSpec(f"GaussMod({n}): need n >= 2")
        return _poly_ring(n, (1, 0, 1), "i", f"Z/{n}[i]")
    if isinstance(spec, PolyQuotient):
        p = spec.base.n
        if not (p <= MAX_CARRIER and _is_prime(p)):
            raise MalformedSpec(f"PolyQuotient base Z/{p}: {p} is not a prime <= {MAX_CARRIER}")
        mod = [c % p for c in spec.modulus]
        if len(mod) < 2 or mod[-1] != 1:
            raise MalformedSpec("PolyQuotient modulus must be monic of degree >= 1")
        return _poly_ring(p, mod, "u", f"Z/{p}[u]/({_poly_name(mod, 'u')})")
    raise MalformedSpec(f"unknown ring spec {spec!r}")
