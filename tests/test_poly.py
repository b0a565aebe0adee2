from fractions import Fraction
from math import comb

from hypothesis import given, settings
from hypothesis import strategies as st

from jetmetric.exactcore import ExtensionField, PrimeField, finite_field, rationals
from jetmetric.poly import (
    Poly,
    count_monomials_below,
    graded_component_rank,
    grlex_key,
    mono_deg,
    mono_mul,
    monomials_below,
    monomials_of_degree,
    reduce_poly,
    truncated_quotient,
)


def test_monomials_of_degree_count_and_order():
    ms = monomials_of_degree(3, 2)
    assert len(ms) == comb(4, 2)
    keys = [grlex_key(m) for m in ms]
    assert keys == sorted(keys)
    assert all(mono_deg(m) == 2 for m in ms)


def test_monomials_below_is_graded_prefix():
    ms = monomials_below(2, 4)
    assert len(ms) == count_monomials_below(2, 4) == comb(5, 2)
    assert ms[0] == (0, 0)
    degs = [mono_deg(m) for m in ms]
    assert degs == sorted(degs)


def _poly_from(field, nvars, terms):
    return Poly(field, nvars, dict(terms))


def test_poly_arithmetic_over_q():
    F = rationals()
    x = Poly.variable(F, 2, 0)
    y = Poly.variable(F, 2, 1)
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert p.degree() == 2
    assert p.is_homogeneous()
    assert (x + y).pow(2) == x * x + x * y.scale(Fraction(2)) + y * y


def test_order_and_degree():
    F = rationals()
    x, y = (Poly.variable(F, 2, i) for i in range(2))
    p = x * y + x.pow(4)
    assert p.order() == 2
    assert p.degree() == 4
    assert not p.is_homogeneous()


@st.composite
def _f5_poly(draw):
    F = PrimeField(5)
    n = 2
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        m = (draw(st.integers(0, 3)), draw(st.integers(0, 3)))
        terms[m] = draw(st.integers(1, 4))
    return Poly(F, n, terms)


@given(_f5_poly(), _f5_poly(), _f5_poly())
@settings(max_examples=60, deadline=None)
def test_ring_axioms_over_f5(p, q, r):
    assert p * (q + r) == p * q + p * r
    assert (p * q) * r == p * (q * r)
    assert p + q == q + p
    assert (p - p).is_zero()


def test_equal_polys_over_separately_built_equal_fields_hash_alike():
    for F, G in [(PrimeField(5), finite_field(5, 1)),
                 (ExtensionField(2, 2, (1, 1, 1)), finite_field(2, 2))]:
        assert F is not G and F == G
        p, q = Poly(F, 2, {(1, 0): 3, (0, 2): 1}), Poly(G, 2, {(0, 2): 1, (1, 0): 3})
        assert p == q and hash(p) == hash(q) and len({p, q}) == 1


def test_truncated_quotient_cusp_normal_forms():
    # k[x,y]/(y^2 - x^3) truncated below degree 4: y^2 reduces to x^3
    F = rationals()
    x, y = (Poly.variable(F, 2, i) for i in range(2))
    tq = truncated_quotient(F, 2, [y * y - x * x * x], 4, capacity=500)
    # 10 monomials below degree 4, minus y^2, y^3 and x*y^2
    assert tq.dim == 7
    nf = reduce_poly(tq, y * y)
    assert [(tq.basis[i], c) for i, c in nf] == [((3, 0), Fraction(1))]
    # a basis term and a reducible one cancel to the zero element
    assert reduce_poly(tq, y * y - x * x * x) == []


def test_truncated_quotient_zero_ideal_is_free():
    F = PrimeField(2)
    tq = truncated_quotient(F, 2, [], 3, capacity=500)
    assert tq.dim == count_monomials_below(2, 3)


def test_graded_component_rank_full_polynomial_ring():
    F = rationals()
    for d in range(5):
        rk, hf = graded_component_rank(F, 3, [], d)
        assert rk == 0
        assert hf == comb(d + 2, 2)


def test_graded_component_rank_principal_ideal():
    # (f) with deg f = 2 in 2 vars: hf(d) = (d+1) - (d-1) = 2 for d >= 2
    F = rationals()
    x, y = (Poly.variable(F, 2, i) for i in range(2))
    g = x * x + y * y
    for d in range(2, 8):
        _, hf = graded_component_rank(F, 2, [g], d)
        assert hf == 2


@given(st.integers(1, 3), st.integers(0, 5))
@settings(max_examples=30, deadline=None)
def test_component_rank_of_empty_ideal_counts_monomials(nvars, d):
    rk, hf = graded_component_rank(rationals(), nvars, [], d)
    assert rk == 0
    assert hf == len(monomials_of_degree(nvars, d))
