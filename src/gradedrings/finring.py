"""Exact arithmetic for finite commutative rings with nonzero identity.

Elements are dense 0-based indices into the carrier.  Structured
constructors (cyclic, Gaussian-integer quotients, polynomial quotients)
define the arithmetic; operation tables are memoized for small carriers.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .errors import MalformedSpec

MAX_CARRIER = 4096
_TABLE_LIMIT = 256
_FULL_SCAN_LIMIT = 40
_SAMPLE_TRIPLES = 2000


@dataclass(frozen=True)
class Cyclic:
    """Z/nZ."""

    n: int


@dataclass(frozen=True)
class GaussMod:
    """Z/nZ with an adjoined square root of -1; element (a, b) is a + b*i."""

    n: int


@dataclass(frozen=True)
class PolyQuotient:
    """(Z/pZ)[u] / (modulus), modulus monic, coefficients ascending."""

    base: Cyclic
    modulus: tuple[int, ...]


RingSpec = Cyclic | GaussMod | PolyQuotient


class FinRing:
    """Immutable finite commutative ring; all operations are pure."""

    def __init__(
        self,
        size: int,
        add: Callable[[int, int], int],
        mul: Callable[[int, int], int],
        neg: Callable[[int], int],
        *,
        one: int,
        zero: int = 0,
        label: str = "ring",
        names: Optional[Sequence[str]] = None,
        parse: Optional[Callable[[str], int]] = None,
    ):
        if size < 2:
            raise MalformedSpec(f"carrier size {size} < 2 (zero ring rejected)")
        if size > MAX_CARRIER:
            raise MalformedSpec(f"carrier size {size} exceeds cap {MAX_CARRIER}")
        if zero == one:
            raise MalformedSpec("zero == one (zero ring rejected)")
        self.size = size
        self.zero = zero
        self.one = one
        self.label = label
        self._names = list(names) if names is not None else [str(i) for i in range(size)]
        self._parse = parse
        if size <= _TABLE_LIMIT:
            self._add_table = [[add(i, j) for j in range(size)] for i in range(size)]
            self._mul_table = [[mul(i, j) for j in range(size)] for i in range(size)]
            self._neg_table = [neg(i) for i in range(size)]
            self.add = lambda i, j: self._add_table[i][j]
            self.mul = lambda i, j: self._mul_table[i][j]
            self.neg = lambda i: self._neg_table[i]
        else:
            self.add = add
            self.mul = mul
            self.neg = neg
        self._units: Optional[frozenset[int]] = None
        self._nilradical: Optional[frozenset[int]] = None

    def __repr__(self) -> str:
        return f"FinRing({self.label}, size={self.size})"

    def elements(self) -> range:
        return range(self.size)

    def sub(self, i: int, j: int) -> int:
        return self.add(i, self.neg(j))

    def pow(self, x: int, k: int) -> int:
        acc = self.one
        for _ in range(k):
            acc = self.mul(acc, x)
        return acc

    def name(self, x: int) -> str:
        return self._names[x]

    def parse(self, text: str) -> int:
        if self._parse is None:
            raise MalformedSpec(f"ring {self.label} has no element parser")
        try:
            return self._parse(text)
        except ValueError:
            raise MalformedSpec(f"cannot parse {text!r} as an element of {self.label}") from None

    def is_unit(self, x: int) -> bool:
        return x in self.units()

    def is_nilpotent(self, x: int) -> bool:
        return x in self.nilradical()

    def units(self) -> frozenset[int]:
        """Exactly the x with xy = 1 for some y."""
        if self._units is None:
            units = set()
            for x in self.elements():
                for y in self.elements():
                    if self.mul(x, y) == self.one:
                        units.add(x)
                        break
            self._units = frozenset(units)
        return self._units

    def nilradical(self) -> frozenset[int]:
        """The x with x^k = 0 for some 1 <= k <= size (pigeonhole bound)."""
        if self._nilradical is None:
            nil = set()
            for x in self.elements():
                p = x
                for _ in range(self.size):
                    if p == self.zero:
                        nil.add(x)
                        break
                    p = self.mul(p, x)
            self._nilradical = frozenset(nil)
        return self._nilradical

    def check_axioms(self, thorough: bool = False) -> None:
        """Verify the commutative-ring axioms by scan.

        Pairwise laws are always scanned in full; the O(n^3) laws
        (associativity, distributivity) are scanned in full for small
        carriers or when `thorough`, otherwise on a seeded sample.
        """
        n = self.size
        for i in self.elements():
            if self.add(i, self.zero) != i:
                raise MalformedSpec(f"additive identity fails at {self.name(i)}")
            if self.add(i, self.neg(i)) != self.zero:
                raise MalformedSpec(f"additive inverse fails at {self.name(i)}")
            if self.mul(i, self.one) != i:
                raise MalformedSpec(f"multiplicative identity fails at {self.name(i)}")
        for i in self.elements():
            for j in self.elements():
                if self.add(i, j) != self.add(j, i):
                    raise MalformedSpec(f"addition not commutative at ({i},{j})")
                if self.mul(i, j) != self.mul(j, i):
                    raise MalformedSpec(f"multiplication not commutative at ({i},{j})")
        if thorough or n <= _FULL_SCAN_LIMIT:
            triples = (
                (i, j, k)
                for i in self.elements()
                for j in self.elements()
                for k in self.elements()
            )
        else:
            rng = random.Random(n)
            triples = (
                (rng.randrange(n), rng.randrange(n), rng.randrange(n))
                for _ in range(_SAMPLE_TRIPLES)
            )
        for i, j, k in triples:
            if self.add(self.add(i, j), k) != self.add(i, self.add(j, k)):
                raise MalformedSpec(f"addition not associative at ({i},{j},{k})")
            if self.mul(self.mul(i, j), k) != self.mul(i, self.mul(j, k)):
                raise MalformedSpec(f"multiplication not associative at ({i},{j},{k})")
            if self.mul(i, self.add(j, k)) != self.add(self.mul(i, j), self.mul(i, k)):
                raise MalformedSpec(f"distributivity fails at ({i},{j},{k})")


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _cyclic_ring(n: int) -> FinRing:
    if n < 2:
        raise MalformedSpec(f"Cyclic({n}): need n >= 2")
    return FinRing(
        n,
        lambda i, j: (i + j) % n,
        lambda i, j: (i * j) % n,
        lambda i: (-i) % n,
        one=1 % n,
        label=f"Z/{n}",
        parse=lambda s: int(s) % n,
    )


def _gauss_name(a: int, b: int) -> str:
    if b == 0:
        return str(a)
    imag = "i" if b == 1 else f"{b}i"
    if a == 0:
        return imag
    return f"{a}+{imag}"


_GAUSS_RE = re.compile(r"^\s*(?:(\d+)\s*\+\s*)?(?:(\d*)\s*\*?\s*i)?\s*$")


def _gauss_ring(n: int) -> FinRing:
    if n < 2:
        raise MalformedSpec(f"GaussMod({n}): need n >= 2")
    size = n * n
    # index = a + b*n for a + b*i

    def add(x: int, y: int) -> int:
        return (x % n + y % n) % n + (((x // n + y // n) % n) * n)

    def mul(x: int, y: int) -> int:
        a, b = x % n, x // n
        c, d = y % n, y // n
        return (a * c - b * d) % n + (((a * d + b * c) % n) * n)

    def neg(x: int) -> int:
        return (-x % n) % n + (((-(x // n)) % n) * n)

    def parse(text: str) -> int:
        s = text.strip().replace(" ", "")
        if "i" not in s:
            return int(s) % n
        m = _GAUSS_RE.match(s)
        if not m:
            raise MalformedSpec(f"cannot parse {text!r} as a+b*i")
        a = int(m.group(1) or 0)
        b = int(m.group(2)) if m.group(2) else 1
        return a % n + (b % n) * n

    names = [_gauss_name(x % n, x // n) for x in range(size)]
    return FinRing(size, add, mul, neg, one=1, label=f"Z/{n}[i]", names=names, parse=parse)


def _poly_name(coeffs: Sequence[int]) -> str:
    terms = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        if k == 0:
            terms.append(str(c))
        else:
            var = "u" if k == 1 else f"u^{k}"
            terms.append(var if c == 1 else f"{c}{var}")
    return "+".join(terms) if terms else "0"


_POLY_TERM_RE = re.compile(r"^(\d*)\*?u(?:\^(\d+))?$")


def _poly_ring(spec: PolyQuotient) -> FinRing:
    p = spec.base.n
    if not _is_prime(p):
        raise MalformedSpec(f"PolyQuotient base Z/{p}: {p} is not prime")
    mod = [c % p for c in spec.modulus]
    d = len(mod) - 1
    if d < 1 or mod[-1] != 1:
        raise MalformedSpec("PolyQuotient modulus must be monic of degree >= 1")
    size = p**d

    def to_coeffs(x: int) -> list[int]:
        cs = []
        for _ in range(d):
            cs.append(x % p)
            x //= p
        return cs

    def from_coeffs(cs: Sequence[int]) -> int:
        x = 0
        for c in reversed(cs):
            x = x * p + c % p
        return x

    def add(x: int, y: int) -> int:
        a, b = to_coeffs(x), to_coeffs(y)
        return from_coeffs([(u + v) % p for u, v in zip(a, b)])

    def neg(x: int) -> int:
        return from_coeffs([(-c) % p for c in to_coeffs(x)])

    def mul(x: int, y: int) -> int:
        a, b = to_coeffs(x), to_coeffs(y)
        prod = [0] * (2 * d - 1)
        for i, u in enumerate(a):
            if u:
                for j, v in enumerate(b):
                    prod[i + j] = (prod[i + j] + u * v) % p
        # reduce: u^d = -(mod[0] + ... + mod[d-1] u^{d-1})
        for k in range(len(prod) - 1, d - 1, -1):
            c = prod[k]
            if c:
                prod[k] = 0
                for j in range(d):
                    prod[k - d + j] = (prod[k - d + j] - c * mod[j]) % p
        return from_coeffs(prod[:d])

    def parse(text: str) -> int:
        s = text.strip().replace(" ", "").replace("-", "+-")
        if s.startswith("+"):
            s = s[1:]
        coeffs = [0] * d
        for term in filter(None, s.split("+")):
            sign = 1
            if term.startswith("-"):
                sign, term = -1, term[1:]
            m = _POLY_TERM_RE.match(term)
            if m:
                c = int(m.group(1)) if m.group(1) else 1
                k = int(m.group(2)) if m.group(2) else 1
            elif term.isdigit():
                c, k = int(term), 0
            else:
                raise MalformedSpec(f"cannot parse {text!r} as a polynomial in u")
            if k >= d:
                raise MalformedSpec(f"term {term!r}: degree >= {d}")
            coeffs[k] = (coeffs[k] + sign * c) % p
        return from_coeffs(coeffs)

    names = [_poly_name(to_coeffs(x)) for x in range(size)]
    mod_name = _poly_name(mod[:-1]) + ("+" if any(mod[:-1]) else "") + (f"u^{d}" if d > 1 else "u")
    return FinRing(
        size, add, mul, neg, one=1, label=f"Z/{p}[u]/({mod_name})", names=names, parse=parse
    )


def build_ring(spec: RingSpec, check: bool = True) -> FinRing:
    """Construct the ring described by `spec`; optionally scan the axioms."""
    if isinstance(spec, Cyclic):
        ring = _cyclic_ring(spec.n)
    elif isinstance(spec, GaussMod):
        ring = _gauss_ring(spec.n)
    elif isinstance(spec, PolyQuotient):
        ring = _poly_ring(spec)
    else:
        raise MalformedSpec(f"unknown ring spec {spec!r}")
    if check:
        ring.check_axioms()
    return ring
