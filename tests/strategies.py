"""Hypothesis strategies shared by the property tests."""

from __future__ import annotations

import math

from hypothesis import strategies as st

from gradedrings.finring import Cyclic, GaussMod, PolyQuotient, build_ring
from gradedrings.grading import Z2, attach_grading, trivial_grading


def parity_components(base, d):
    """Z2 components of sum c_k r^k (index sum c_k base^k, k < d): even k, odd k."""
    def part(parity):
        return frozenset(
            x for x in range(base**d)
            if all(x // base**k % base == 0 for k in range(d) if k % 2 != parity)
        )
    return {(0,): part(0), (1,): part(1)}


def z2_graded(spec, label: str = ""):
    """(Z/m)[v]/(v^2 - c), a + b*v at index a + b*m, graded by Z2: the
    constants in degree 0 and the multiples of v in degree 1, as in the
    default corpus."""
    ring = build_ring(spec)
    return attach_grading(ring, Z2, parity_components(math.isqrt(ring.size), 2), label=label)


@st.composite
def graded_specs(draw):
    """A ring spec and whether to Z2-grade it: Z/n (n <= 64), Z/n[i] (n <= 8)
    or (Z/m)[u]/(f) (m prime or 4, 6, 8, 9, and m^d <= 64); the last two may
    be Z2-graded by the parity of the power of i or u."""
    kind = draw(st.sampled_from(("cyclic", "gauss_mod", "poly_quotient")))
    z2 = kind != "cyclic" and draw(st.booleans())
    if kind == "cyclic":
        return Cyclic(draw(st.integers(2, 64))), z2
    if kind == "gauss_mod":
        return GaussMod(draw(st.integers(2, 8))), z2
    base = draw(st.sampled_from((2, 3, 4, 5, 6, 7, 8, 9)))
    top = max(k for k in range(1, 7) if base**k <= 64)
    z2 = z2 and top >= 2  # a Z2 grading needs u^2 (9^2 > 64)
    d = draw(st.integers(2 if z2 else 1, top))
    low = draw(st.lists(st.integers(0, base - 1), min_size=d, max_size=d))
    if z2:
        # f = u^d plus terms of d's parity only, so the parity grading is multiplicative
        low = [c if (d - k) % 2 == 0 else 0 for k, c in enumerate(low)]
    return PolyQuotient(Cyclic(base), (*low, 1)), z2


def graded_ring(spec, z2):
    """The ring of `spec`, graded as `graded_specs` drew it."""
    ring = build_ring(spec)
    if not z2:
        return trivial_grading(ring)
    if isinstance(spec, GaussMod):
        base, d = spec.n, 2
    else:
        base, d = spec.base.n, len(spec.modulus) - 1
    return attach_grading(ring, Z2, parity_components(base, d), label=f"{ring.label}/Z2")


def graded_rings():
    return graded_specs().map(lambda drawn: graded_ring(*drawn))
