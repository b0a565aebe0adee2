"""The Hilbert-Samuel polynomials and the rho certificate in integer
arithmetic, against the dense `Fraction` versions they replaced.

The references below are those versions, kept verbatim with the polynomial
helpers they called (the three the package still names carry a `reference_`
prefix), so every integer path is compared with the path it replaced: the
same values, the same types (compared by `repr`) and the same errors.  The
one change is the reference's root bound, which takes the smaller of
Cauchy's and Fujiwara's bounds as the package's does, so the scan bounds
the two report agree.
"""

from decimal import Decimal, ROUND_HALF_EVEN, localcontext
from fractions import Fraction
from math import ceil, comb, factorial
from typing import Optional, Sequence

from hypothesis import given, settings
from hypothesis import strategies as st

from jetmetric.errors import DimensionZeroError, InternalInconsistencyError
from jetmetric.hilbert import HilbertData, cumulative_polynomial, hs_polynomial_from_series
from jetmetric.slopes import RhoResult, _rho, log2_decimal
from jetmetric.standard import series


# ---------------------------------------------------------------------------
# the Fraction references


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


def reference_hs_polynomial_from_series(numerator: Sequence[int],
                                        pole_order: int) -> list[Fraction]:
    """Degreewise Hilbert polynomial from the rational normal form.

    The coefficient of t^n in Q(t)/(1 - t)^d is sum_k q_k C(n - k + d - 1, d - 1),
    and C(n - k + d - 1, d - 1) = (n - k + 1) ... (n - k + d - 1) / (d - 1)!
    is a polynomial in n, so P(n) is that sum over the numerator's terms.
    Pole order 0 (Artinian section ring) yields the zero polynomial — callers
    that need a nonempty scheme treat that as an error themselves.
    """
    if pole_order == 0:
        return []
    out: list[Fraction] = []
    for k, q in enumerate(numerator):
        if q:
            term = [Fraction(q)]
            for i in range(1, pole_order):
                term = poly_mul(term, [Fraction(i - k), Fraction(1)])
            out = poly_add(out, term)
    return poly_scale(out, Fraction(1, factorial(pole_order - 1)))


def _root_up(q: Fraction, i: int) -> int:
    """The least integer r >= 0 with r^i >= q, counted up from 0."""
    r = 0
    while r ** i < q:
        r += 1
    return r


def _root_bound(coeffs: Sequence[Fraction]) -> int:
    """Integer B with all roots of the polynomial in |z| <= B: the smaller of
    Cauchy's bound and Fujiwara's, 2 max_i ceil((|c_{n-i}| / |lead|)^(1/i))."""
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    if len(cs) <= 1:
        return 0
    lead, n = abs(cs[-1]), len(cs) - 1
    cauchy = ceil(1 + max(abs(c) / lead for c in cs[:-1]))
    fujiwara = 2 * max(_root_up(abs(cs[n - i]) / lead, i) for i in range(1, n + 1))
    return min(cauchy, fujiwara)


def _poly_shift_one(coeffs: Sequence[Fraction]) -> list[Fraction]:
    """p(n + 1) from p(n)."""
    out: list[Fraction] = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        binom_row = [Fraction(comb(k, i)) for i in range(k + 1)]
        out = poly_add(out, poly_scale(binom_row, c))
    return out


def defect_at(model: HilbertData, n: int) -> Fraction:
    """The signed defect f(n); rho is the sup of its absolute value."""
    d, e = model.dim, model.mult
    if d == 0:
        raise DimensionZeroError("defect undefined for an Artinian quotient")
    return Fraction(factorial(d) * model.length(n), e * n ** (d - 1)) - n


def reference_rho(model: HilbertData) -> RhoResult:
    d, e = model.dim, model.mult
    if d == 0:
        raise DimensionZeroError(
            "the defect normalizes by n^(dim-1); the quotient is Artinian")

    # f(n) = d! * length(n) / (e * n^(d-1)) - n; on the polynomial range this
    # is N(n) / (e * n^(d-1)) with N of degree <= d - 1.
    numer = poly_scale(model.cumulative, Fraction(factorial(d)))
    monic = [Fraction(0)] * d + [Fraction(e)]
    numer = poly_add(numer, poly_scale(monic, Fraction(-1)))
    if len(numer) > d:
        raise InternalInconsistencyError("defect numerator has full degree")
    tail_limit = (numer[d - 1] if len(numer) == d else Fraction(0)) / e

    # difference numerator: N(n+1) * n^(d-1) - N(n) * (n+1)^(d-1)
    n_pow = [Fraction(0)] * (d - 1) + [Fraction(1)]
    diff = poly_add(poly_mul(_poly_shift_one(numer), n_pow),
                    poly_scale(poly_mul(numer, _poly_shift_one(n_pow)), Fraction(-1)))
    scan_bound = max(model.poly_from + d + 2, _root_bound(numer),
                     _root_bound(diff), 12)

    best = Fraction(0)
    argmax: Optional[int] = None
    for n in range(1, scan_bound + 1):
        f = abs(defect_at(model, n))
        if f > best or argmax is None:
            best, argmax = f, n
    if best >= abs(tail_limit):
        return RhoResult(best, True, argmax, tail_limit, scan_bound)
    return RhoResult(abs(tail_limit), False, None, tail_limit, scan_bound)


def reference_log2_decimal(ratio: Fraction, digits: int = 12) -> str:
    """log2 of a positive rational as a decimal string with `digits` places."""
    if ratio <= 0:
        raise ValueError("log2 of a non-positive ratio")
    with localcontext() as ctx:
        ctx.prec = digits + 20
        v = (Decimal(ratio.numerator).ln() - Decimal(ratio.denominator).ln()) \
            / Decimal(2).ln()
        q = v.quantize(Decimal(1).scaleb(-digits), rounding=ROUND_HALF_EVEN)
    return str(q)


# ---------------------------------------------------------------------------
# the properties


def _model(numerator: list[int], d: int, hs) -> HilbertData:
    """The length model of the series Q(t) / (1 - t)^d, its polynomials built
    by `hs` (the integer path or the reference)."""
    return HilbertData(
        series_prefix=series(numerator, d, max(len(numerator) - d, 1)),
        numerator=numerator, pole_order=d,
        degreewise=hs(numerator, d) if d else None,
        cumulative=hs([0] + numerator, d + 1), dim=d, mult=sum(numerator),
        source="random")


def _outcome(f, model):
    try:
        return repr(f(model))
    except (ZeroDivisionError, InternalInconsistencyError) as e:
        return type(e).__name__


@given(st.lists(st.integers(-9, 9), min_size=1, max_size=10), st.integers(0, 6),
       st.booleans())
@settings(max_examples=300, deadline=None)
def test_integer_polynomials_match_the_fraction_reference(numerator, d, as_fractions):
    # an integer numerator, or the same numerator as Fraction values, at
    # every pole order 0-6: the degreewise and the cumulative polynomial
    # equal the reference's coefficient for coefficient and in type
    if as_fractions:
        numerator = [Fraction(q) for q in numerator]
    assert repr(hs_polynomial_from_series(numerator, d)) == \
        repr(reference_hs_polynomial_from_series(numerator, d))
    assert repr(cumulative_polynomial(numerator, d)) == \
        repr(reference_hs_polynomial_from_series([0] + list(numerator), d + 1))


def two_walk_hs_polynomial_from_series(numerator: Sequence[int], pole_order: int) -> list[Fraction]:
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


@given(st.lists(st.integers(-10**6, 10**6) | st.fractions(max_denominator=30), max_size=40),
       st.integers(0, 6))
@settings(max_examples=300, deadline=None)
def test_power_sums_match_the_two_walk_expansion(numerator, d):
    # the power-sum expansion against the per-term expansion it replaced,
    # over integer, rational and mixed numerators at pole orders 0-6
    assert repr(hs_polynomial_from_series(numerator, d)) == \
        repr(two_walk_hs_polynomial_from_series(numerator, d))
    assert repr(cumulative_polynomial(numerator, d)) == \
        repr(two_walk_hs_polynomial_from_series([0] + list(numerator), d + 1))


def test_the_twisted_cubic_numerator_matches_at_every_pole_order():
    numerator = [Fraction(1), Fraction(2)]
    for d in range(7):
        assert repr(hs_polynomial_from_series(numerator, d)) == \
            repr(reference_hs_polynomial_from_series(numerator, d))


def _ci_numerator(degrees: list[int]) -> list[int]:
    """prod_i (1 + t + ... + t^(a_i - 1)): the numerator of a complete
    intersection of degrees a_i, with Q(1) = prod_i a_i > 0."""
    out = [1]
    for a in degrees:
        out = [sum(out[max(0, k - a + 1):k + 1]) for k in range(len(out) + a - 1)]
    return out


@given(st.one_of(
    st.lists(st.integers(1, 4), max_size=3).map(_ci_numerator),
    # arbitrary numerators, signed so that Q(1) >= 0 (Q(1) = 0 raises)
    st.lists(st.integers(-9, 9), min_size=1, max_size=8).map(
        lambda q: q if sum(q) >= 0 else [-c for c in q])),
    st.integers(1, 5))
@settings(max_examples=300, deadline=None)
def test_rho_matches_the_fraction_reference(numerator, d):
    # the same RhoResult, compared by repr, on random length models with d
    # from 1 to 5; where either raises, both raise the same error
    assert _outcome(_rho, _model(numerator, d, hs_polynomial_from_series)) == \
        _outcome(reference_rho, _model(numerator, d, reference_hs_polynomial_from_series))


@given(st.fractions(min_value="1/100000", max_value=100000), st.integers(1, 30))
@settings(max_examples=150, deadline=None)
def test_log2_decimal_matches_the_reference_at_every_precision(ratio, digits):
    # ln 2 is computed once per precision; the digits are the same
    assert log2_decimal(ratio, digits) == reference_log2_decimal(ratio, digits)
