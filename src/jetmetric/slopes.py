"""Quasi-slopes of local algebras from jet lengths.

delta0 compares an Artinian algebra with its half-order truncation on a log
scale and converges to the Krull dimension along jets; eps0 compares the
square of the root-order truncation length with the full length and converges
to multiplicity/dim!.  rho is the exact sup-norm defect of the jet-length
sequence against its leading-term asymptotics, and the rounding certificate
turns delta0 at a single sufficiently large even order (n >= 10*rho) into the
dimension itself.

All values are exact rationals; the only decimals are reporting artifacts
(log2 printed to 12 places, with ln 2 computed once per precision).
Decisions — in particular the half-integer rounding of log2 — are made by
integer comparisons against powers of two, not by floating point.

rho is computed in integers: d! times the cumulative polynomial has integer
coefficients, so the defect numerator N = d! * cumulative - e * n^d and its
difference numerator are integer polynomials, their root bounds are exact
integer ceilings, and the scan compares |d! * length(n) - e * n^d| / (e *
n^(d-1)) across orders by cross-multiplying.  The divisions happen once, at
the output: one Fraction for the tail limit (the n^(d-1) coefficient of N
over e) and one for the supremum.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, ROUND_HALF_EVEN, localcontext
from fractions import Fraction
from functools import lru_cache, partial
from math import ceil, comb, factorial, isqrt
from typing import Callable, Optional, Sequence

from .artin import ArtinAlgebra, nilpotency_index
from .errors import (
    CapacityError,
    DimensionZeroError,
    InternalInconsistencyError,
    NilpotencyOneError,
    RangeError,
)
from .hilbert import HilbertData, length_model
from .poly import DEFAULT_CAPACITY
from .presentation import Presentation
from .standard import series


# ---------------------------------------------------------------------------
# exact log2 reporting and rounding

# decimal places of every reported log2
LOG2_DIGITS = 12


@lru_cache(maxsize=8)
def _ln2(prec: int) -> Decimal:
    """ln 2 to `prec` significant digits (correctly rounded, so the same in
    every context of that precision)."""
    with localcontext() as ctx:
        ctx.prec = prec
        return Decimal(2).ln()


def log2_decimal(ratio: Fraction, digits: int = LOG2_DIGITS) -> str:
    """log2 of a positive rational as a decimal string with `digits` places."""
    if ratio <= 0:
        raise ValueError("log2 of a non-positive ratio")
    with localcontext() as ctx:
        ctx.prec = digits + 20
        v = (Decimal(ratio.numerator).ln() - Decimal(ratio.denominator).ln()) \
            / _ln2(ctx.prec)
        q = v.quantize(Decimal(1).scaleb(-digits), rounding=ROUND_HALF_EVEN)
    return str(q)


def round_log2(ratio: Fraction) -> int:
    """The integer k with log2(ratio) in [k - 1/2, k + 1/2), decided exactly.

    Equivalent to 2^(2k-1) <= ratio^2 < 2^(2k+1); only integer arithmetic.
    """
    if ratio <= 0:
        raise ValueError("log2 of a non-positive ratio")
    r2 = ratio * ratio
    k = ratio.numerator.bit_length() - ratio.denominator.bit_length()
    while r2 >= Fraction(2) ** (2 * k + 1):
        k += 1
    while r2 < Fraction(2) ** (2 * k - 1):
        k -= 1
    return k


# ---------------------------------------------------------------------------
# delta0 and eps0


@dataclass(frozen=True)
class Delta0Value:
    """Lengths of the algebra and its half-order truncation, their ratio, and
    log2 of the ratio to 12 decimal places."""

    length: int
    half_length: int
    ratio: Fraction
    log2: str

    def rounded(self) -> int:
        return round_log2(self.ratio)


def _truncation_length(A: ArtinAlgebra, r: int) -> int:
    """Length of A / m^r: basis monomials of degree below r."""
    return sum(1 for d in A.degrees() if d < r)


def _delta0(length: Callable[[int], int], nilp: int) -> Delta0Value:
    """delta0 of an algebra of nilpotency index nilp, with length(r) the
    length of its truncation mod m^r."""
    if nilp == 1:
        raise NilpotencyOneError("half-order truncation of a field is the zero ring")
    top, half = length(nilp), length(nilp // 2)
    ratio = Fraction(top, half)
    return Delta0Value(top, half, ratio, log2_decimal(ratio))


def _eps0(length: Callable[[int], int], nilp: int) -> Fraction:
    """eps0 of an algebra of nilpotency index nilp, length as for _delta0."""
    root = length(isqrt(nilp))
    return Fraction(root * root, length(nilp))


def delta0(A: ArtinAlgebra) -> Delta0Value:
    """Log2 of length(A) / length(A/m^(n/2)), n the nilpotency index."""
    return _delta0(partial(_truncation_length, A), nilpotency_index(A))


def eps0(A: ArtinAlgebra) -> Fraction:
    """length(A/m^isqrt(n))^2 / length(A), n the nilpotency index."""
    return _eps0(partial(_truncation_length, A), nilpotency_index(A))


def delta0_at_order(model: HilbertData, n: int) -> Delta0Value:
    """delta0 of the order-n jet, from lengths alone: its nilpotency index
    is at most n, so below it the jet's truncations are the series' jets."""
    return _delta0(model.length, model.nilpotency_at(n))


def eps0_at_order(model: HilbertData, n: int) -> Fraction:
    """eps0 of the order-n jet, from lengths alone."""
    return _eps0(model.length, model.nilpotency_at(n))


# ---------------------------------------------------------------------------
# rho: exact sup-norm defect of jet lengths against n^d


def _root_ceil(a: int, b: int, i: int) -> int:
    """The i-th root of a / b rounded up, for a >= 0 and b > 0: the least
    integer r >= 0 with b * r^i >= a, by integer bisection."""
    lo, hi = 0, 1
    while b * hi ** i < a:
        lo, hi = hi, 2 * hi
    while lo < hi:
        mid = (lo + hi) // 2
        if b * mid ** i >= a:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _root_bound(coeffs: Sequence[int]) -> int:
    """Integer B with all complex roots of the integer polynomial in |z| <= B:
    the smaller of Cauchy's bound 1 + max_i |c_i| / |lead| and Fujiwara's
    2 max_i (|c_{n-i}| / |lead|)^(1/i), each rounded up exactly.  Cauchy's
    grows with the coefficients, so factorially with the dimension in a
    defect numerator; Fujiwara's with their roots."""
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    if len(cs) <= 1:
        return 0
    lead, n = abs(cs[-1]), len(cs) - 1
    cauchy = 1 - (-max(map(abs, cs[:-1])) // lead)
    fujiwara = 2 * max(_root_ceil(abs(cs[n - i]), lead, i) for i in range(1, n + 1))
    return min(cauchy, fujiwara)


@dataclass(frozen=True)
class RhoResult:
    """sup_n of the defect |d! * length(n) / (e * n^(d-1)) - n|.

    When the sup is attained at a finite order, `attained` is true and
    `argmax_n` records the first such order; otherwise the value is the
    (one-sided) limit `tail_limit` in absolute value.  `scan_bound` is the
    order up to which the defect was evaluated exactly, chosen past every root
    of the defect and of its forward difference so the tail is certified
    monotone of constant sign.
    """

    value: Fraction
    attained: bool
    argmax_n: Optional[int]
    tail_limit: Fraction
    scan_bound: int


def rho(p: Presentation, capacity: int = DEFAULT_CAPACITY) -> RhoResult:
    return _rho(length_model(p, capacity))


def _rho(model: HilbertData) -> RhoResult:
    d, e = model.dim, model.mult
    if d == 0:
        raise DimensionZeroError(
            "the defect normalizes by n^(dim-1); the quotient is Artinian")

    # f(n) = d! * length(n) / (e * n^(d-1)) - n; on the polynomial range this
    # is N(n) / (e * n^(d-1)) with N = d! * cumulative - e * n^d of degree
    # <= d - 1, an integer polynomial since d! * cumulative is one.
    scale = factorial(d)
    numer = [scale // c.denominator * c.numerator for c in model.cumulative]
    numer += [0] * (d + 1 - len(numer))
    numer[d] -= e
    while numer and numer[-1] == 0:
        numer.pop()
    if len(numer) > d:
        raise InternalInconsistencyError("defect numerator has full degree")
    tail_limit = Fraction(numer[d - 1] if len(numer) == d else 0, e)

    # difference numerator: N(n+1) * n^(d-1) - N(n) * (n+1)^(d-1), where
    # N(n+1) has the coefficients sum_k N_k C(k, i)
    diff = [0] * (d - 1) + [sum(c * comb(k, i) for k, c in enumerate(numer))
                            for i in range(len(numer))]
    for i, c in enumerate(numer):
        for j in range(d):
            diff[i + j] -= c * comb(d - 1, j)
    scan_bound = max(model.poly_from + d + 2, _root_bound(numer),
                     _root_bound(diff), 12)

    # |f(n)| = |d! * length(n) - e * n^d| / (e * n^(d-1)), compared as the
    # pair (top, bottom) by cross-multiplying; the lengths are the series
    # t Q(t)/(1 - t)^(d+1), expanded once
    lengths = series([0, *model.numerator], d + 1, scan_bound + 1)
    top, bottom, argmax = 0, 1, None
    for n in range(1, scan_bound + 1):
        t, b = abs(scale * lengths[n] - e * n ** d), e * n ** (d - 1)
        if argmax is None or t * bottom > top * b:
            top, bottom, argmax = t, b, n
    best = Fraction(top, bottom)
    if best >= abs(tail_limit):
        return RhoResult(best, True, argmax, tail_limit, scan_bound)
    return RhoResult(abs(tail_limit), False, None, tail_limit, scan_bound)


def defect_at(model: HilbertData, n: int) -> Fraction:
    """The signed defect f(n); rho is the sup of its absolute value.  It
    divides by n^(d-1), so order 0 is refused in dimension 2 or more."""
    d, e = model.dim, model.mult
    if d == 0:
        raise DimensionZeroError("defect undefined for an Artinian quotient")
    if n == 0 and d > 1:
        raise RangeError(f"defect undefined at order 0 in dimension {d}")
    return Fraction(factorial(d) * model.length(n), e * n ** (d - 1)) - n


# ---------------------------------------------------------------------------
# quasi-dimension via the rounding certificate


def quasi_dimension(p: Presentation, capacity: int = DEFAULT_CAPACITY
                    ) -> tuple[int, dict]:
    """Round delta0 of a single jet of even order n >= 10*rho to the nearest
    integer (half-integers round up); certified to equal the dimension."""
    model = length_model(p, capacity)
    r = _rho(model)
    ten_rho = 10 * r.value
    n = max(2, ceil(ten_rho))
    if n % 2:
        n += 1
    value = delta0_at_order(model, n)
    rounded = round_log2(value.ratio)
    if rounded != model.dim:
        raise InternalInconsistencyError(
            f"rounded delta0 {rounded} at order {n} disagrees with dimension {model.dim}")
    certificate = {"n_used": n, "rho_value": r.value,
                   "satisfied": Fraction(n) >= ten_rho}
    return rounded, certificate


# ---------------------------------------------------------------------------
# convergence traces


@dataclass(frozen=True)
class SlopeTrace:
    """Values of one slope on jets at increasing orders.

    For delta0 the values are Delta0Value entries (length pair, exact ratio,
    decimal log2); for eps0 exact rationals; for hilbert the per-jet Hilbert
    function prefixes together with the largest order up to which consecutive
    prefixes agree: every one is a prefix of the same series, so that is the
    first order."""

    slope: str
    orders: list[int]
    values: list
    limit_claim: Optional[tuple]
    agreement_order: Optional[int] = None


def slope_trace(p: Presentation, slope: str, orders: Sequence[int],
                capacity: int = DEFAULT_CAPACITY) -> SlopeTrace:
    """The slope on jets at each order; `capacity` bounds the numbers the
    trace reports: one per order, or n per order n for hilbert."""
    # every order adds at least one number: an over-long list is refused
    # before anything walks it
    if len(orders) > capacity:
        raise CapacityError(len(orders), capacity, what="trace size"
                            if slope != "hilbert" else "trace order count")
    if not orders or any(b <= a for a, b in zip(orders, orders[1:])) or orders[0] < 1:
        raise RangeError("orders must be nonempty, positive, and increasing")
    size = sum(orders) if slope == "hilbert" else len(orders)
    if size > capacity:
        raise CapacityError(size, capacity, what="trace size")
    orders = list(orders)
    model = length_model(p, capacity)
    claim: Optional[tuple] = None
    agreement: Optional[int] = None
    values: list = []
    if slope == "delta0":
        values = [delta0_at_order(model, n) for n in orders]
        if model.dim >= 1:
            claim = (Fraction(model.dim), "dimension")
    elif slope == "eps0":
        values = [eps0_at_order(model, n) for n in orders]
        if model.dim >= 1:
            claim = (Fraction(model.mult, factorial(model.dim)),
                     "multiplicity over dim factorial")
    elif slope == "hilbert":
        hf = model.hf_prefix(orders[-1])
        values = [hf[:n] for n in orders]
        agreement = orders[0]
    else:
        raise ValueError(f"unknown slope {slope!r}")
    return SlopeTrace(slope, orders, values, claim, agreement)
