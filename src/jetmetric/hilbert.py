"""Hilbert series, Hilbert-Samuel polynomials, dimension/multiplicity, and
Euler characteristics of polarized schemes given by their section rings.

Everything is exact.  The rational normal form Q(t)/(1-t)^d, with d the pole
order (the Krull dimension) and Q(1) the multiplicity, is read off the
certified leading ideal of `standard`; the series prefix is its expansion.

Two polynomials are kept, clearly labeled: the degreewise polynomial (degree
d-1, value = dimension of the degree-n piece for large n) and the cumulative
polynomial (degree d, value = length of the order-n jet).  The Euler
characteristic of the polarized scheme is the degreewise polynomial at 0, and
for pole order 2 (a curve) the genus 1 - chi is reported as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Optional, Sequence

from .errors import (
    CapacityError,
    GradingError,
    InternalInconsistencyError,
    PoleOrderZeroError,
    PrefixTooShortError,
    WindowTooSmallError,
)
from .poly import DEFAULT_CAPACITY
from .presentation import Presentation
from .standard import hilbert_numerator, series


# ---------------------------------------------------------------------------
# dense univariate polynomials over Q, coefficient lists low-first


def poly_eval(coeffs: Sequence[Fraction], n) -> Fraction:
    out = Fraction(0)
    for c in reversed(coeffs):
        out = out * n + c
    return out


def poly_add(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_scale(a: Sequence[Fraction], s: Fraction) -> list[Fraction]:
    return [] if s == 0 else [c * s for c in a]


def poly_mul(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    while out and out[-1] == 0:
        out.pop()
    return out


def binom_poly(a: int) -> list[Fraction]:
    """Coefficients of C(n + a, a) as a polynomial in n (degree a)."""
    out = [Fraction(1)]
    for i in range(1, a + 1):
        out = poly_mul(out, [Fraction(i), Fraction(1)])
    return poly_scale(out, Fraction(1, factorial(a)))


def poly_derivative_at_one(coeffs: Sequence[int], j: int) -> int:
    """j-th derivative of the integer polynomial at t = 1."""
    out = 0
    for k, c in enumerate(coeffs):
        if k >= j:
            fall = 1
            for i in range(j):
                fall *= k - i
            out += fall * c
    return out


# ---------------------------------------------------------------------------
# Hilbert data


@dataclass
class HilbertData:
    """Series prefix plus rational normal form and both HS polynomials."""

    series_prefix: list[int]
    numerator: list[int]                 # Q(t), Q(1) != 0
    pole_order: int                      # d = Krull dimension
    degreewise: Optional[list[Fraction]]  # degree d-1; None when d = 0
    cumulative: list[Fraction]           # degree d; length of the order-n jet
    dim: int
    mult: int
    source: str

    def degreewise_valid_from(self) -> int:
        """Degreewise polynomial matches the series from this degree on."""
        return max(len(self.numerator) - 1 - self.pole_order + 1, 0)


def _default_prefix_len(p: Presentation) -> int:
    return sum(g.degree() for g in p.gens) + p.nvars + 4


def hilbert_series(p: Presentation, prefix_len: Optional[int] = None,
                   capacity: int = DEFAULT_CAPACITY) -> HilbertData:
    """Exact Hilbert series of a graded presentation, in rational normal form
    from its certified leading ideal; `prefix_len` is the reported length and
    `capacity` bounds the leading-ideal engine and the prefix_len + 1
    coefficients an explicit prefix length expands to (the default length
    is a few more than the generators' degree sum)."""
    if p.mode != "graded":
        raise GradingError("Hilbert series needs a graded presentation")
    N = _default_prefix_len(p) if prefix_len is None else prefix_len
    degsum = sum(g.degree() for g in p.gens)
    if N <= degsum:
        raise PrefixTooShortError(
            f"prefix length {N} does not exceed the generator degree sum {degsum}")
    if prefix_len is not None and N + 1 > capacity:
        raise CapacityError(N + 1, capacity, what="series prefix length")
    Q, d = hilbert_numerator(p.base_field(), p.nvars, p.gens, capacity)
    return HilbertData(series_prefix=series(Q, d, N + 1), numerator=Q, pole_order=d,
                       degreewise=hs_polynomial_from_series(Q, d) if d else None,
                       cumulative=cumulative_polynomial(Q, d),
                       dim=d, mult=sum(Q), source="graded-exact")


def hs_polynomial_from_series(numerator: Sequence[int], pole_order: int) -> list[Fraction]:
    """Degreewise Hilbert polynomial from the rational normal form.

    P(n) = sum_{j=0}^{d-1} ((-1)^j / j!) * Q^{(j)}(1) * C(n + d - 1 - j, n).
    Pole order 0 (Artinian section ring) yields the zero polynomial — callers
    that need a nonempty scheme treat that as an error themselves.
    """
    if pole_order == 0:
        return []
    d = pole_order
    out: list[Fraction] = []
    for j in range(d):
        qj = poly_derivative_at_one(list(numerator), j)
        if qj == 0:
            continue
        term = poly_scale(binom_poly(d - 1 - j), Fraction((-1) ** j * qj, factorial(j)))
        out = poly_add(out, term)
    return out


def cumulative_polynomial(numerator: Sequence[int], pole_order: int) -> list[Fraction]:
    """Cumulative Hilbert-Samuel polynomial (degree d; the length of the
    order-n jet for large n), from the lengths' series t Q(t)/(1 - t)^(d + 1)."""
    return hs_polynomial_from_series([0] + list(numerator), pole_order + 1)


def hs_polynomial_from_jets(p: Presentation, window: tuple[int, int],
                            capacity: int = DEFAULT_CAPACITY
                            ) -> tuple[list[Fraction], bool]:
    """Cumulative Hilbert-Samuel polynomial from the certified leading ideal,
    so always certified; the window [n1, n2] is only checked, not fitted."""
    n1, n2 = window
    if n2 - n1 < 2 or n1 < 0:
        raise WindowTooSmallError(f"window [{n1}, {n2}] has too few points")
    Q, d = hilbert_numerator(p.base_field(), p.nvars, p.gens, capacity)
    return cumulative_polynomial(Q, d), True


def dim_mult(hd: HilbertData) -> tuple[int, int]:
    """(dimension, multiplicity) = (pole order, d! times cumulative lead)."""
    return hd.dim, hd.mult


def euler_characteristic(p: Presentation,
                         prefix_len: Optional[int] = None) -> tuple[int, Optional[int]]:
    """chi of the polarized scheme with section ring p, and the genus when the
    scheme is a curve (pole order 2)."""
    hd = hilbert_series(p, prefix_len)
    if hd.pole_order == 0:
        raise PoleOrderZeroError("empty scheme: section ring is Artinian")
    chi = poly_eval(hd.degreewise, 0)
    if chi.denominator != 1:
        raise InternalInconsistencyError(f"non-integral Euler characteristic {chi}")
    chi_int = int(chi)
    genus = 1 - chi_int if hd.pole_order == 2 else None
    return chi_int, genus
