import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetmetric.artin import jet
from jetmetric.errors import (
    CapacityError,
    GradingError,
    PoleOrderZeroError,
    PrefixTooShortError,
    WindowTooSmallError,
)
from jetmetric.hilbert import (
    dim_mult,
    euler_characteristic,
    hilbert_series,
    hs_polynomial_from_jets,
    hs_polynomial_from_series,
    length_model,
    poly_eval,
)
from jetmetric.presentation import parse_presentation
from jetmetric.standard import series

from conftest import random_presentation


def test_free_plane_series(plane):
    hd = hilbert_series(plane)
    assert hd.numerator == [Fraction(1)]
    assert hd.pole_order == 2
    assert hd.series_prefix[:5] == [1, 2, 3, 4, 5]
    assert hd.dim == 2 and hd.mult == 1


def test_quartic_cone_series(quartic_cone):
    hd = hilbert_series(quartic_cone)
    # (1 - t^4)/(1 - t)^3 = (1 + t + t^2 + t^3)/(1 - t)^2
    assert hd.numerator == [Fraction(1)] * 4
    assert hd.pole_order == 2
    assert hd.dim == 2 and hd.mult == 4
    # P(n) = 4n - 2 once n clears the numerator degree
    assert hd.degreewise == [Fraction(-2), Fraction(4)]
    for n in range(hd.degreewise_valid_from(), len(hd.series_prefix)):
        assert poly_eval(hd.degreewise, n) == hd.series_prefix[n]


def test_fat_point_series_has_pole_order_zero(fat_point):
    hd = hilbert_series(fat_point)
    assert hd.pole_order == 0
    assert hd.numerator == [Fraction(1), Fraction(2)]
    assert hd.degreewise is None
    assert hd.dim == 0 and hd.mult == 3
    assert hd.cumulative == [Fraction(3)]


def test_series_requires_graded_mode(cusp):
    with pytest.raises(GradingError):
        hilbert_series(cusp)


def test_prefix_too_short_is_reported(quartic_cone):
    with pytest.raises(PrefixTooShortError):
        hilbert_series(quartic_cone, prefix_len=4)


def test_prefix_longer_than_the_capacity_is_refused(quartic_cone):
    # the series is expanded to prefix_len + 1 coefficients, so that count is
    # held to the capacity before anything is expanded
    with pytest.raises(CapacityError, match="series prefix length 400000001 "
                                            "exceeds capacity 2000"):
        hilbert_series(quartic_cone, prefix_len=400_000_000)
    with pytest.raises(CapacityError, match="series prefix length 41 exceeds capacity 40"):
        hilbert_series(quartic_cone, prefix_len=40, capacity=40)
    assert len(hilbert_series(quartic_cone, prefix_len=39, capacity=40).series_prefix) == 40


def test_cumulative_polynomial_matches_partial_sums(quartic_cone):
    hd = hilbert_series(quartic_cone, prefix_len=30)
    acc = 0
    for n in range(1, 31):
        acc += hd.series_prefix[n - 1]
        if n >= len(hd.numerator):
            assert poly_eval(hd.cumulative, n) == acc


def test_degreewise_polynomial_from_series_twisted_cubic_style():
    # numerator 1 + 2t with pole order 2: P(n) = 3n + 1
    P = hs_polynomial_from_series([Fraction(1), Fraction(2)], 2)
    assert [poly_eval(P, n) for n in range(5)] == [1, 4, 7, 10, 13]


@given(st.lists(st.integers(-9, 9), min_size=1, max_size=8), st.integers(1, 6))
@settings(max_examples=200, deadline=None)
def test_degreewise_polynomial_follows_the_series(numerator, d):
    # sum_k q_k C(n - k + d - 1, d - 1) is the coefficient of t^n for n past
    # the numerator's degree less d, of degree d - 1 with lead Q(1) / (d - 1)!
    P = hs_polynomial_from_series(numerator, d)
    coeffs = series(numerator, d, len(numerator) + 8)
    for n in range(max(len(numerator) - d, 0), len(coeffs)):
        assert poly_eval(P, n) == coeffs[n]
    assert all(type(c) is Fraction for c in P)
    if sum(numerator):
        assert len(P) == d and P[-1] == Fraction(sum(numerator), factorial(d - 1))


def test_polynomial_from_jets_on_the_cusp(cusp):
    coeffs, certified = hs_polynomial_from_jets(cusp, (1, 9))
    assert certified
    assert [poly_eval(coeffs, n) for n in (1, 5, 20)] == [1, 9, 39]  # 2n - 1


def test_polynomial_from_jets_window_too_small(plane):
    with pytest.raises(WindowTooSmallError):
        hs_polynomial_from_jets(plane, (2, 3))


def test_dim_mult_reads_off_the_series(plane, quartic_cone, fat_point):
    assert dim_mult(hilbert_series(plane)) == (2, 1)
    assert dim_mult(hilbert_series(quartic_cone)) == (2, 4)
    assert dim_mult(hilbert_series(fat_point)) == (0, 3)


def test_euler_characteristic_of_plane_curves():
    # smooth plane curve of degree d: chi = (d^2 - 3d)/(-2)... frozen:
    # d = 3 -> chi 0 genus 1; d = 4 -> chi -2 genus 3; d = 5 -> chi -5 genus 6
    expected = {3: (0, 1), 4: (-2, 3), 5: (-5, 6)}
    for d, (chi, g) in expected.items():
        p = parse_presentation(f"ring Q[x, y, z]\ngraded\nideal: x^{d} + y^{d} + z^{d}")
        assert euler_characteristic(p) == (chi, g)


def test_euler_characteristic_rejects_dimension_zero(fat_point):
    with pytest.raises(PoleOrderZeroError):
        euler_characteristic(fat_point)


def test_genus_only_reported_for_curves(plane):
    chi, genus = euler_characteristic(
        parse_presentation("ring Q[x, y, z]\ngraded\nideal: ;"))
    assert chi == 1
    assert genus is None  # pole order 3: not a section ring of a curve


@given(st.integers(0, 10**6), st.sampled_from(["Q", "F_2", "F_3"]),
       st.integers(1, 3))
@settings(max_examples=25, deadline=None)
def test_jet_lengths_are_partial_sums_of_the_series(seed, field, nvars):
    p = random_presentation(random.Random(seed), field, nvars, "graded")
    hd = hilbert_series(p)
    for n in (1, 3, 5):
        A = jet(p, n, capacity=3000)
        assert A.dim == sum(hd.series_prefix[:n])


@given(st.integers(0, 10**6), st.sampled_from(["Q", "F_3"]))
@settings(max_examples=20, deadline=None)
def test_degreewise_polynomial_agrees_beyond_its_threshold(seed, field):
    p = random_presentation(random.Random(seed), field, 2, "graded")
    hd = hilbert_series(p)
    if hd.pole_order == 0:
        return
    for n in range(hd.degreewise_valid_from(), len(hd.series_prefix)):
        assert poly_eval(hd.degreewise, n) == hd.series_prefix[n]


@given(st.integers(0, 10**6), st.sampled_from(["Q", "F_2", "F_3"]),
       st.sampled_from(["graded", "local"]), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_length_is_the_prefix_sum_then_the_cumulative_polynomial(seed, field, mode, nvars):
    # one integer sum over the numerator at every order: the sum of the
    # Hilbert function below poly_from, the cumulative polynomial from it on
    hd = length_model(random_presentation(random.Random(seed), field, nvars, mode))
    for n in range(hd.poly_from + 8):
        want = sum(hd.hf_prefix(n)) if n < hd.poly_from else poly_eval(hd.cumulative, n)
        assert hd.length(n) == want and type(hd.length(n)) is int, n
