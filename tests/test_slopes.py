import random
import time
from fractions import Fraction
from math import comb, factorial, log2
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetmetric.artin import hf_by_degree_count, jet, nilpotency_index
from jetmetric.errors import (
    CapacityError,
    DimensionZeroError,
    JetMetricError,
    NilpotencyOneError,
    RangeError,
    WindowTooSmallError,
    ZeroRingError,
)
from jetmetric.hilbert import hs_polynomial_from_jets
from jetmetric.presentation import parse_presentation
from jetmetric.standard import series
from jetmetric.slopes import (
    defect_at,
    delta0,
    delta0_at_order,
    eps0,
    eps0_at_order,
    length_model,
    log2_decimal,
    quasi_dimension,
    rho,
    round_log2,
    slope_trace,
)

from conftest import cpu_limit, random_presentation

GOLDEN_INPUTS = Path(__file__).resolve().parent.parent / "docs" / "golden" / "inputs"

KX = parse_presentation("ring Q[x]\ngraded\nideal: ;")
KXY = parse_presentation("ring Q[x, y]\ngraded\nideal: ;")
KXYZ = parse_presentation("ring Q[x, y, z]\ngraded\nideal: ;")
CUSP = parse_presentation("ring Q[x, y]\nlocal\nideal: y^2 - x^3")


def test_round_log2_powers_of_two():
    for k in range(0, 12):
        assert round_log2(Fraction(2 ** k)) == k


def test_round_log2_boundary_is_decided_exactly():
    # the cut sits at sqrt(2) * 2^k; 181/128 is just below, 182/128 above
    assert round_log2(Fraction(181, 128)) == 0
    assert round_log2(Fraction(182, 128)) == 1


@given(st.fractions(min_value="1/1000", max_value=1000))
@settings(max_examples=80, deadline=None)
def test_round_log2_matches_float_rounding_away_from_ties(ratio):
    k = round_log2(ratio)
    # exact inequality that defines the rounding
    assert Fraction(2) ** (2 * k - 1) <= ratio * ratio < Fraction(2) ** (2 * k + 1)


def test_log2_decimal_is_deterministic_and_close():
    d = log2_decimal(Fraction(22100, 2925))
    assert str(d) == "2.917537839808"
    assert abs(float(d) - log2(22100 / 2925)) < 1e-11


def test_delta0_of_plane_jet_10():
    val = delta0(jet(KXY, 10))
    assert val.length == 55 and val.half_length == 15
    assert val.ratio == Fraction(11, 3)
    assert val.rounded() == 2


def test_delta0_rejects_nilpotency_one():
    point = parse_presentation("ring Q[x]\ngraded\nideal: x")
    with pytest.raises(NilpotencyOneError):
        delta0(jet(point, 5))


def test_length_model_of_graded_plane_matches_jets():
    m = length_model(KXY)
    for n in range(1, 12):
        assert m.length(n) == jet(KXY, n).dim == comb(n + 1, 2)
    assert (m.dim, m.mult) == (2, 1)


def test_length_model_of_local_cusp_is_certified():
    m = length_model(CUSP)
    assert m.source == "local-exact"
    for n in range(1, 9):
        assert m.length(n) == jet(CUSP, n).dim == 2 * n - 1
    assert m.length(100) == 199
    assert (m.dim, m.mult) == (1, 2)


def test_nilpotency_at_tracks_jet_order():
    m = length_model(CUSP)
    for n in (3, 5, 9):
        assert m.nilpotency_at(n) == nilpotency_index(jet(CUSP, n))


def test_negative_orders_are_out_of_range_and_order_zero_is_the_zero_ring():
    m = length_model(CUSP)
    for read in (m.length, m.nilpotency_at, m.hf_prefix,
                 lambda n: series(m.numerator, m.pole_order, n)):
        with pytest.raises(RangeError, match="-1"):
            read(-1)
    assert m.length(0) == 0 and m.hf_prefix(0) == []
    with pytest.raises(ZeroRingError):
        m.nilpotency_at(0)


def test_delta0_at_order_agrees_with_jets():
    m = length_model(KXYZ)
    for n in (4, 10, 50):
        want = delta0(jet(KXYZ, n, capacity=30000)).ratio
        assert delta0_at_order(m, n).ratio == want


def test_frozen_three_variable_ratio_at_order_50():
    m = length_model(KXYZ)
    v = delta0_at_order(m, 50)
    assert v.ratio == Fraction(22100, 2925)
    assert v.rounded() == 3


def test_eps0_square_orders_on_the_line():
    for n in range(2, 13):
        assert eps0(jet(KX, n * n)) == 1


def test_eps0_at_order_plane_large():
    val = eps0_at_order(length_model(KXY), 10**4)
    assert val == Fraction(10201, 20002)
    assert abs(val - Fraction(1, 2)) <= Fraction(1, 20)


def test_rho_of_free_rings():
    assert (rho(KX).value, rho(KX).attained) == (Fraction(0), True)
    r2 = rho(KXY)
    assert (r2.value, r2.argmax_n) == (Fraction(1), 1)
    r3 = rho(KXYZ)
    assert r3.value == Fraction(5)
    assert r3.argmax_n == 1
    assert r3.tail_limit == Fraction(3)


def test_rho_of_the_cusp_is_one_half():
    r = rho(CUSP)
    assert r.value == Fraction(1, 2)
    assert r.tail_limit == Fraction(-1, 2)


V12 = ", ".join(f"v{i}" for i in range(12))


@pytest.mark.parametrize("text, want", [
    # Cauchy's root bound on the defect numerator is 3,747,543 here: it
    # grows factorially with the dimension, Fujiwara's with the roots
    (f"ring Q[{V12}]\nlocal\nideal: v0^2", (19958399, True, 1, Fraction(99, 2))),
    (f"ring Q[{V12}]\ngraded\nideal: ;", (479001599, True, 1, 66)),
    # 4,002 orders, whose lengths are read off one expansion of the series
    ("ring Q[x, y]\ngraded\nideal: x^4000",
     (Fraction(3999, 2), True, 3999, Fraction(-3999, 2))),
], ids=["12_local", "12_graded", "x4000"])
def test_rho_and_quasi_dimension_in_many_variables_or_of_long_numerators(text, want):
    p = parse_presentation(text)
    with cpu_limit(1.0):
        r = rho(p)
        dim, cert = quasi_dimension(p)
    assert (r.value, r.attained, r.argmax_n, r.tail_limit) == want
    assert dim == length_model(p).dim and cert["satisfied"]


def test_rho_rejects_dimension_zero(fat_point):
    with pytest.raises(DimensionZeroError):
        rho(fat_point)


def test_defect_is_bounded_by_rho_everywhere():
    for p in (KX, KXY, KXYZ, CUSP):
        r = rho(p)
        m = length_model(p)
        for n in range(1, 201):
            assert abs(defect_at(m, n)) <= r.value
        if r.attained:
            assert abs(defect_at(m, r.argmax_n)) == r.value


def test_rho_bound_is_tight():
    # shrinking the bound by any amount breaks it at the attained order
    for p in (KXY, KXYZ, CUSP):
        r = rho(p)
        m = length_model(p)
        smaller = r.value - Fraction(1, 1000)
        assert abs(defect_at(m, r.argmax_n)) > smaller


def test_defect_at_order_zero_is_a_range_error_from_dimension_two():
    # the defect divides by n^(d-1): at order 0 that is 0 from d = 2 on
    plane = parse_presentation((GOLDEN_INPUTS / "plane.pres").read_text())
    for p in (plane, KXYZ):
        m = length_model(p)
        assert m.dim >= 2
        with pytest.raises(RangeError):
            defect_at(m, 0)
        with pytest.raises(RangeError):
            defect_at(m, -1)
    assert defect_at(length_model(KX), 0) == 0


def test_quasi_dimension_frozen_cases():
    qd, cert = quasi_dimension(CUSP)
    assert qd == 1
    assert cert == {"n_used": 6, "rho_value": Fraction(1, 2), "satisfied": True}
    qd3, cert3 = quasi_dimension(KXYZ)
    assert qd3 == 3
    assert cert3["n_used"] == 50 and cert3["satisfied"]


def test_rounding_lemma_window_for_the_plane():
    m = length_model(KXY)
    for n in range(10, 61, 2):
        assert delta0_at_order(m, n).rounded() == 2


def test_trace_of_delta0_converges_to_dimension():
    tr = slope_trace(KXY, "delta0", [4, 8, 16, 32])
    assert [v.rounded() for v in tr.values] == [2, 2, 2, 2]
    assert tr.limit_claim == (Fraction(2), "dimension")


def test_trace_of_eps0_names_its_limit():
    tr = slope_trace(KXYZ, "eps0", [16, 64])
    assert tr.limit_claim[1] == "multiplicity over dim factorial"


def test_trace_of_hilbert_reports_agreement_order():
    tr = slope_trace(CUSP, "hilbert", [3, 5, 7])
    assert tr.agreement_order == 3
    assert tr.values == [[1, 2, 2], [1, 2, 2, 2, 2], [1, 2, 2, 2, 2, 2, 2]]


@pytest.mark.parametrize("slope, orders, size", [
    ("delta0", range(2, 2003), 2001),
    ("eps0", range(2, 2003), 2001),
    ("hilbert", range(2, 64), 2015),
])
def test_trace_above_the_capacity_raises_before_any_work(monkeypatch, slope,
                                                         orders, size):
    # one number per order for delta0 and eps0, n per order n for hilbert
    import jetmetric.slopes

    def no_model(*args, **kwargs):
        raise AssertionError("the length model was built")

    monkeypatch.setattr(jetmetric.slopes, "length_model", no_model)
    with pytest.raises(CapacityError, match=f"trace size {size} exceeds capacity 2000"):
        slope_trace(KXY, slope, orders)
    with pytest.raises(AssertionError, match="length model"):
        slope_trace(KXY, slope, orders, capacity=size)


def test_an_over_long_window_is_refused_before_it_is_walked(plane):
    # the orders are checked for increase and summed only after their count
    # is bounded, as each adds at least one number to the trace: a
    # decreasing list past the capacity is refused for its length
    start = time.perf_counter()
    with pytest.raises(CapacityError, match="trace order count 999999999998 exceeds"):
        slope_trace(plane, "hilbert", range(2, 10**12))
    with pytest.raises(CapacityError, match="trace size 2001 exceeds"):
        slope_trace(plane, "delta0", range(2002, 1, -1))
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# the length model against per-order jets


@given(st.integers(0, 10**6), st.sampled_from(["Q", "F_3"]), st.integers(1, 3),
       st.sampled_from([400, 40]), st.sampled_from(["local", "graded"]))
@settings(max_examples=40, deadline=None)
def test_length_model_matches_the_per_order_path(seed, field, nvars, capacity, mode):
    # every length, Hilbert function and nilpotency index the model answers
    # is that of the jet at that order (the prefix keeps n entries, zero past
    # the top degree of an Artinian quotient); the only error at a small
    # capacity is the capacity guard
    p = random_presentation(random.Random(seed), field, nvars, mode)
    try:
        m = length_model(p, capacity)
    except JetMetricError as e:
        assert isinstance(e, CapacityError)
        return
    assert m.source == f"{mode}-exact"
    assert m.length(0) == 0
    for n in range(1, 10):
        A = jet(p, n)
        assert m.length(n) == A.dim
        hf = hf_by_degree_count(A)
        assert m.hf_prefix(n) == hf + [0] * (n - len(hf))
        assert m.nilpotency_at(n) == nilpotency_index(A)
    if m.dim >= 1:
        assert m.mult == factorial(m.dim) * m.cumulative[-1]
    else:
        assert m.cumulative == [m.mult]


CI3 = parse_presentation(
    "ring Q[x, y, z]\nlocal\nideal: x^2 + 2*y^3 - z^3, y^2 - x*z^2 + 3*z^3")
LATE = parse_presentation("ring Q[x, y]\nlocal\nideal: x^8")


def test_length_model_builds_no_jet(monkeypatch):
    # lengths come from the leading ideal alone: no truncated quotient
    from jetmetric import artin

    calls = []

    def counting(*args, **kwargs):
        calls.append(args[3])
        raise AssertionError("a jet was built")

    monkeypatch.setattr(artin, "truncated_quotient", counting)
    m = length_model(CUSP)
    assert m.poly_from == 1 and (m.dim, m.mult) == (1, 2)
    assert quasi_dimension(CI3)[0] == 1
    coeffs, certified = hs_polynomial_from_jets(CUSP, (1, 9))
    assert certified and coeffs == [Fraction(-1), Fraction(2)]
    with pytest.raises(WindowTooSmallError):
        hs_polynomial_from_jets(CUSP, (2, 3))
    # lengths of (x^8) are n(n + 1)/2 through order 8 and 8n - 28 from
    # order 7 on, where the two agree
    m = length_model(LATE)
    assert m.poly_from == 7 and m.cumulative == [Fraction(-28), Fraction(8)]
    assert calls == []


@pytest.mark.parametrize("e", [10, 12])
def test_high_order_local_monomial_is_a_curve_of_multiplicity_e(e):
    # every element of (x^e) has order e, so the lengths agree with the
    # free plane's through order e: no window of them can tell the two apart
    p = parse_presentation(f"ring Q[x, y]\nlocal\nideal: x^{e}")
    m = length_model(p)
    assert (m.dim, m.mult, m.source) == (1, e, "local-exact")
    for n in (e - 1, e, e + 1, 2 * e):
        assert m.length(n) == jet(p, n).dim
    assert quasi_dimension(p)[0] == 1


def test_f3_space_germ_lengths_match_its_jets():
    p = parse_presentation(
        "ring F_3[x, y, z]\nlocal\n"
        "ideal: 2*x^3*y, 2*x + z^3 + 2*x*y^2, 2*x + 2*x*z^2 + y^3*z")
    # the window fit once reported mult 3 and length 69 at order 24;
    # jet(p, 24).dim is 50 (frozen: that elimination takes seconds)
    m = length_model(p)
    assert (m.dim, m.mult) == (1, 1)
    assert [m.length(n) for n in (16, 20, 24)] == [42, 46, 50]
    hf = hf_by_degree_count(jet(p, 20))
    assert [m.length(n) for n in (16, 20)] == [sum(hf[:16]), sum(hf[:20])]
