"""Hilbert series, Hilbert-Samuel polynomials, dimension/multiplicity, and
Euler characteristics of polarized schemes given by their section rings.

Everything is exact.  For a graded presentation the series prefix comes from
degreewise ranks; multiplying by (1-t)^r must clear the tail of the prefix
(certified, else PrefixTooShortError), and cancelling (1-t) factors until the
numerator stops vanishing at t = 1 yields the rational normal form
Q(t)/(1-t)^d with d the pole order — the Krull dimension.

Two polynomials are kept, clearly labeled: the degreewise polynomial (degree
d-1, value = dimension of the degree-n piece for large n) and the cumulative
polynomial (degree d, value = length of the order-n jet).  The Euler
characteristic of the polarized scheme is the degreewise polynomial at 0, and
for pole order 2 (a curve) the genus 1 - chi is reported as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import comb, factorial
from typing import Optional, Sequence

from .artin import jet_lengths
from .errors import (
    GradingError,
    InternalInconsistencyError,
    NotStabilizedError,
    PoleOrderZeroError,
    PrefixTooShortError,
    WindowTooSmallError,
)
from .poly import DEFAULT_CAPACITY, graded_component_rank
from .presentation import Presentation


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


def lagrange_interpolate(points: Sequence[tuple[int, int]]) -> list[Fraction]:
    """Exact interpolating polynomial through the given (x, y) points."""
    coeffs: list[Fraction] = []
    for i, (xi, yi) in enumerate(points):
        term = [Fraction(yi)]
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            term = poly_mul(term, [Fraction(-xj, 1), Fraction(1)])
            term = poly_scale(term, Fraction(1, xi - xj))
        coeffs = poly_add(coeffs, term)
    return coeffs


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


def hilbert_series(p: Presentation, prefix_len: Optional[int] = None) -> HilbertData:
    """Exact Hilbert series of a graded presentation, in rational normal form."""
    if p.mode != "graded":
        raise GradingError("Hilbert series needs a graded presentation")
    N = _default_prefix_len(p) if prefix_len is None else prefix_len
    degsum = sum(g.degree() for g in p.gens)
    if N <= degsum:
        raise PrefixTooShortError(
            f"prefix length {N} does not exceed the generator degree sum {degsum}")
    fld = p.base_field()
    prefix = [graded_component_rank(fld, p.nvars, p.gens, d)[1] for d in range(N + 1)]

    r = p.nvars
    # K(t) = prefix(t) * (1 - t)^r, exact in degrees <= N
    sign_binom = [(-1) ** i * comb(r, i) for i in range(r + 1)]
    K = [0] * (N + 1)
    for k in range(N + 1):
        acc = 0
        for i in range(min(r, k) + 1):
            acc += sign_binom[i] * prefix[k - i]
        K[k] = acc
    if any(K[k] != 0 for k in range(max(N - r + 1, 0), N + 1)):
        raise PrefixTooShortError(
            f"series prefix of length {N} does not certify a polynomial numerator")
    while K and K[-1] == 0:
        K.pop()
    if not K:
        raise InternalInconsistencyError("vanishing Hilbert numerator")

    cancels = 0
    Q = K
    while sum(Q) == 0:
        # synthetic division by (1 - t): Q(t) = (1 - t) * R(t)
        R = [0] * (len(Q) - 1)
        carry = 0
        for k in range(len(Q) - 1):
            carry = Q[k] + carry
            R[k] = carry
        Q = R
        while Q and Q[-1] == 0:
            Q.pop()
        cancels += 1
    d = r - cancels
    if d < 0:
        raise InternalInconsistencyError("pole order exceeded variable count")

    e = sum(Q)  # Q(1)
    degreewise = hs_polynomial_from_series(Q, d) if d >= 1 else None

    if d == 0:
        total = sum(prefix)
        cumulative = [Fraction(total)]
    else:
        n0 = max(len(Q) - 1 - d + 1, 1)
        need = n0 + d + 1
        if need > N + 1:
            raise PrefixTooShortError(
                f"prefix length {N} too short to pin the cumulative polynomial "
                f"(need jet lengths through order {need})")
        partial = list(accumulate(prefix, initial=0))
        # partial[n] = length of the order-n jet, valid for n <= N + 1
        pts = [(n, partial[n]) for n in range(n0, n0 + d + 1)]
        cumulative = lagrange_interpolate(pts)
        for n in range(n0 + d + 1, min(N + 2, n0 + 2 * d + 3)):
            if poly_eval(cumulative, n) != partial[n]:
                raise InternalInconsistencyError(
                    f"cumulative polynomial failed verification at order {n}")
        lead = cumulative[-1] if cumulative else Fraction(0)
        if factorial(d) * lead != e:
            raise InternalInconsistencyError(
                "multiplicity mismatch between numerator and cumulative polynomial")

    return HilbertData(series_prefix=prefix, numerator=Q, pole_order=d,
                       degreewise=degreewise, cumulative=cumulative,
                       dim=d, mult=e, source="graded-exact")


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


def hs_polynomial_from_jets(p: Presentation, window: tuple[int, int],
                            capacity: int = DEFAULT_CAPACITY
                            ) -> tuple[list[Fraction], bool]:
    """Cumulative Hilbert-Samuel polynomial fitted to exact jet lengths.

    Takes finite differences of the lengths over the window until they are
    constant (degree k), interpolates the first k + 1 lengths, and labels the
    polynomial certified when it also reproduces the two orders after the
    window.

    Every length comes from the one jet of order n2 + 2 (`jet_lengths`), by
    a prefix lemma: for n <= N, cutting below degree n maps (I + m^N)/m^N
    onto (I + m^n)/m^n and keeps the lowest monomial of each element whose
    lowest monomial has degree below n.  The Macaulay columns ascend in grlex
    order and each pivot is the lowest monomial of its row, so both
    eliminations have the same pivots below degree n, and the order-n jet's
    basis is the degree-< n part of the order-N basis.
    """
    n1, n2 = window
    if n2 - n1 < 2 or n1 < 0:
        raise WindowTooSmallError(f"window [{n1}, {n2}] has too few points")
    return _fit_lengths(jet_lengths(p, n2 + 2, capacity=capacity), n1, n2)


def _fit_lengths(lengths: Sequence[int], n1: int, n2: int) -> tuple[list[Fraction], bool]:
    """Fit lengths[n1..n2] as in `hs_polynomial_from_jets`; certified when
    the fit reproduces lengths[n2 + 1] and lengths[n2 + 2]."""
    rows = [list(lengths[n1:n2 + 1])]
    while True:
        row = rows[-1]
        if len(row) >= 3 and len(set(row)) == 1:
            break
        if len(row) < 4:
            raise NotStabilizedError(
                f"finite differences not constant over window [{n1}, {n2}]")
        rows.append([row[i + 1] - row[i] for i in range(len(row) - 1)])
    k = len(rows) - 1  # degree
    coeffs = lagrange_interpolate([(n, lengths[n]) for n in range(n1, n1 + k + 1)])
    certified = all(poly_eval(coeffs, n) == lengths[n] for n in (n2 + 1, n2 + 2))
    return coeffs, certified


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
