import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jetmetric.artin import jet
from jetmetric.errors import CapacityError
from jetmetric.hilbert import hilbert_series
from jetmetric.poly import graded_component_rank
from jetmetric.presentation import parse_presentation
from jetmetric.standard import hilbert_numerator, leading_ideal, series

from conftest import random_presentation


def _numerator(text):
    p = parse_presentation(text)
    return hilbert_numerator(p.base_field(), p.nvars, p.gens)


def test_leading_ideal_of_the_cusp_is_y_squared():
    p = parse_presentation("ring Q[x, y]\nlocal\nideal: y^2 - x^3")
    assert leading_ideal(p.base_field(), p.nvars, p.gens) == ((0, 2),)


def test_local_leading_ideal_holds_the_lead_of_a_difference():
    # both generators lead with x; their difference y^2 - y^3 leads with y^2,
    # which the degree-3 span of the homogenized generators already holds
    p = parse_presentation("ring Q[x, y]\nlocal\nideal: x - y^2, x - y^3")
    assert leading_ideal(p.base_field(), p.nvars, p.gens) == ((1, 0), (0, 2))
    assert hilbert_numerator(p.base_field(), p.nvars, p.gens) == ([1, 1], 0)


def test_stop_rule_waits_for_the_s_pairs_above_the_generator_degrees():
    # at degree 3 the span's leading monomials are x*y and y^2, a curve;
    # the S-pair of degree 4 gives x * (y^2 + x^3) - y * (x*y) = x^4
    p = parse_presentation("ring Q[x, y]\nlocal\nideal: x*y, y^2 + x^3")
    fld = p.base_field()
    assert leading_ideal(fld, p.nvars, p.gens) == ((0, 2), (1, 1), (4, 0))
    assert hilbert_numerator(fld, p.nvars, p.gens) == ([1, 2, 1, 1], 0)
    assert jet(p, 8).dim == 5


def test_numerators_of_monomial_ideals():
    assert _numerator("ring Q[x, y]\ngraded\nideal: ;") == ([1], 2)
    assert _numerator("ring Q[x, y]\ngraded\nideal: x^2, x*y, y^2") == ([1, 2], 0)
    assert _numerator("ring Q[x, y, z]\ngraded\nideal: x*y, x*z, y*z") == ([1, 2], 1)
    assert _numerator("ring Q[x, y]\nlocal\nideal: x^10") == ([1] * 10, 1)


def test_series_expands_the_rational_form():
    assert series([1, 1, 1, 1], 2, 6) == [1, 3, 6, 10, 14, 18]
    assert series([1, 2], 0, 4) == [1, 2, 0, 0]


def test_capacity_guard_stops_the_degree_loop():
    # the guard counts the span's rows, not the monomials below the degree:
    # this input stops at degree 21 with 1,720 rows, where 2,024 monomials of
    # degree <= 21 would have outnumbered the default capacity of 2,000
    p = parse_presentation("ring Q[x, y, z]\nlocal\n"
                           "ideal: -x^3 + 2*x*y^3 - 2*y*z^2, 1/2*z + 2*z + 2*z^4")
    with pytest.raises(CapacityError, match=r"row count 1001 exceeds capacity 1000 "
                                            r"\(degree 18 in 3"):
        leading_ideal(p.base_field(), p.nvars, p.gens, capacity=1000)
    assert leading_ideal(p.base_field(), p.nvars, p.gens) == ((0, 0, 1), (3, 0, 0))


@given(st.integers(0, 10**6), st.sampled_from(["Q", "F_3", "F_4"]),
       st.sampled_from(["local", "graded"]), st.integers(1, 3))
@example(1225, "Q", "local", 3)
@settings(max_examples=60, deadline=None)
def test_engine_lengths_match_jet_dimensions(seed, field, mode, nvars):
    p = random_presentation(random.Random(seed), field, nvars, mode)
    Q, d = hilbert_numerator(p.base_field(), p.nvars, p.gens)
    assert sum(Q) > 0
    hf = series(Q, d, 9)
    for n in range(10):
        assert sum(hf[:n]) == jet(p, n).dim


@given(st.integers(0, 10**6), st.sampled_from(["Q", "F_2", "F_3", "F_4"]),
       st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_graded_series_matches_degreewise_ranks(seed, field, nvars):
    p = random_presentation(random.Random(seed), field, nvars, "graded")
    hd = hilbert_series(p)
    fld = p.base_field()
    for n, h in enumerate(hd.series_prefix):
        assert h == graded_component_rank(fld, p.nvars, p.gens, n)[1]
