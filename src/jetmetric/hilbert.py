"""Hilbert series, Hilbert-Samuel polynomials, dimension/multiplicity, and
Euler characteristics of polarized schemes given by their section rings.

Everything is exact.  The rational normal form Q(t)/(1-t)^d, with d the pole
order (the Krull dimension) and Q(1) the multiplicity, is read off the
certified leading ideal of `standard`; the series prefix is its expansion.

Two polynomials are kept, clearly labeled: the degreewise polynomial (degree
d-1, value = dimension of the degree-n piece for large n) and the cumulative
polynomial (degree d, value = length of the order-n jet).  The numerator, the
series and the lengths are integers, and so are (d-1)! times the degreewise
polynomial and d! times the cumulative one: `hs_polynomial_from_series` sums
those integer coefficients and divides by the factorial once, at its output.
One `HilbertData` serves graded series and local length models alike: the
order-n jet's Hilbert function is the series' first n coefficients.  The
Euler characteristic of the polarized scheme is the degreewise polynomial at
0, and for pole order 2 (a curve) the genus 1 - chi is reported as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Optional, Sequence

from .errors import (
    CapacityError,
    GradingError,
    InternalInconsistencyError,
    PoleOrderZeroError,
    PrefixTooShortError,
    RangeError,
    WindowTooSmallError,
    ZeroRingError,
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


# ---------------------------------------------------------------------------
# Hilbert data


def _check_order(n: int) -> None:
    if n < 0:
        raise RangeError(f"jet order must be nonnegative, got {n}")


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

    @property
    def poly_from(self) -> int:
        """The lengths t Q(t)/(1 - t)^(d+1) follow the cumulative polynomial
        from this order on."""
        return max(len(self.numerator) - self.pole_order, 1)

    def hf_prefix(self, n: int) -> list[int]:
        """Hilbert function of the order-n jet: the first n coefficients."""
        _check_order(n)
        return series(self.numerator, self.pole_order, n)

    def length(self, n: int) -> int:
        """Length of the order-n jet: the coefficient of t^n in
        t Q(t)/(1 - t)^(d+1), sum_{k<n} q_k C(n - 1 - k + d, d)."""
        _check_order(n)
        d = self.pole_order
        return sum(q * comb(n - 1 - k + d, d) for k, q in enumerate(self.numerator[:n]))

    def nilpotency_at(self, n: int) -> int:
        """Nilpotency index of the order-n jet.  By Nakayama a local ring's
        Hilbert function is positive up to its socle degree, so this is n in
        positive dimension and min(n, len(Q)) for an Artinian quotient."""
        _check_order(n)
        if n == 0:
            raise ZeroRingError("order-0 jet is the zero ring")
        return n if self.pole_order else min(n, len(self.numerator))


def _default_prefix_len(p: Presentation) -> int:
    return sum(g.degree() for g in p.gens) + p.nvars + 4


def _hilbert_data(p: Presentation, capacity: int,
                  count: Optional[int] = None) -> HilbertData:
    """Hilbert data of a graded or local presentation from its certified
    leading ideal, with `count` series coefficients (default: those below
    `poly_from`)."""
    Q, d = hilbert_numerator(p.base_field(), p.nvars, p.gens, capacity)
    if count is None:
        count = max(len(Q) - d, 1)
    return HilbertData(series_prefix=series(Q, d, count), numerator=Q, pole_order=d,
                       degreewise=hs_polynomial_from_series(Q, d) if d else None,
                       cumulative=cumulative_polynomial(Q, d),
                       dim=d, mult=sum(Q), source=f"{p.mode}-exact")


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
    return _hilbert_data(p, capacity, N + 1)


def length_model(p: Presentation, capacity: int = DEFAULT_CAPACITY) -> HilbertData:
    """The exact jet lengths of a graded or local presentation at every
    order, read off its certified leading ideal; no jet is built."""
    return _hilbert_data(p, capacity)


def hs_polynomial_from_series(numerator: Sequence[int], pole_order: int) -> list[Fraction]:
    """Degreewise Hilbert polynomial from the rational normal form.

    The coefficient of t^n in Q(t)/(1 - t)^d is sum_k q_k C(n - k + d - 1, d - 1),
    and C(n - k + d - 1, d - 1) = (n - k + 1) ... (n - k + d - 1) / (d - 1)!
    is a polynomial in n, so P(n) is that sum over the numerator's terms.
    The sum (d - 1)! P(n) is formed first, with integer coefficients for an
    integer numerator (a rational numerator is accepted too), and divided
    by (d - 1)! once.  Pole order 0 (Artinian section ring) yields the zero
    polynomial — callers that need a nonempty scheme treat that as an error
    themselves.
    """
    if pole_order == 0:
        return []
    out = [0] * pole_order
    for k, q in enumerate(numerator):
        if q:
            term = [q]
            for a in range(1 - k, pole_order - k):  # times (n + a)
                term = [a * c + b for c, b in zip(term + [0], [0] + term)]
            for i, c in enumerate(term):
                out[i] += c
    while out and out[-1] == 0:
        out.pop()
    scale = factorial(pole_order - 1)
    return [Fraction(c, scale) for c in out]


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
    return _hilbert_data(p, capacity).cumulative, True


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
