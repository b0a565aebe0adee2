import inspect
import random
import sys
import time
from heapq import heapify, heappop, heappush
from math import comb
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jetmetric import standard
from jetmetric.artin import jet
from jetmetric.errors import CapacityError, ConstantTermError
from jetmetric.exactcore import finite_field, rationals
from jetmetric.hilbert import hilbert_series, length_model
from jetmetric.poly import (DEFAULT_CAPACITY, Poly, graded_component_rank, grlex_key, mono_mul,
                            monomials_of_degree)
from jetmetric.presentation import parse_presentation
from jetmetric.standard import (_divides, _minimal, _numerator as numerator_of, hilbert_numerator,
                                leading_ideal, series)

from conftest import random_presentation, row_form_cases


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


def test_numerator_stack_does_not_grow_with_the_generators():
    # N(t) of k[x, y]/m^d is 1 - (d + 1) t^d + d t^(d + 1); its d + 1
    # generators are taken in a loop, so the stack holds only colon ideals
    d = 150
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)
    try:
        got = numerator_of(_minimal(monomials_of_degree(2, d)), {})
    finally:
        sys.setrecursionlimit(limit)
    assert got == [1] + [0] * (d - 1) + [-(d + 1), d]


def test_degree_climb_starts_at_the_least_generator_degree():
    # no row enters below degree 10^7, so no pass is made there
    p = parse_presentation("ring Q[x, y]\nlocal\nideal: y^2 - x^10000000")
    start = time.process_time()
    hd = length_model(p)
    assert time.process_time() - start < 1
    assert (hd.numerator, hd.pole_order) == ([1, 1], 1)


def test_a_monomial_ideal_makes_no_reduction(monkeypatch):
    # every row of m^12 is one term, and the S-polynomial of two such rows
    # is zero, so no pair is reduced; k[x, y, z]/m^12 has the Hilbert
    # function binomial(d + 2, 2) for d < 12 and no pole
    def refused(*args):
        raise AssertionError("an S-pair of two single-term rows was reduced")
    monkeypatch.setattr(standard, "_reduces_to_zero", refused)
    f = rationals()
    gens = [Poly(f, 3, {m: f.one()}) for m in monomials_of_degree(3, 12)]
    assert leading_ideal(f, 3, gens) == monomials_of_degree(3, 12)
    assert hilbert_numerator(f, 3, gens) == ([comb(d + 2, 2) for d in range(12)], 0)


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


# -- reference: the leading-ideal engine in field arithmetic, the heap-pivot
# echelon and S-pairs subtracted entry by entry, which the engine on the one
# shared `Echelon` and its row clearing replaced


class _FieldEchelon:
    """Rows as (key, value) pairs in ascending key order, pivot entry one."""

    def __init__(self, field):
        self.field = field
        self.rows = {}

    def add(self, v):
        fld = self.field
        is_zero, sub, mul = fld.is_zero, fld.sub, fld.mul
        v = dict(v)
        live = list(v)
        heapify(live)
        while live:
            c = heappop(live)
            coef = v[c]
            if is_zero(coef):
                continue
            row = self.rows.get(c)
            if row is None:
                inv = fld.inv(coef)
                self.rows[c] = [(i, mul(inv, x)) for i, x in sorted(v.items())
                                if not is_zero(x)]
                return True
            for i, r in row:
                x = v.get(i)
                if x is None:
                    v[i] = fld.neg(mul(coef, r))
                    heappush(live, i)
                else:
                    v[i] = sub(x, mul(coef, r))
        return False


def _subtract(field, h, c, shift, row):
    """h -= c * x^shift * row, in place."""
    s = sum(shift)
    for (deg, m), v in row.items():
        key = (deg + s, mono_mul(m, shift))
        x = field.sub(h.get(key, field.zero()), field.mul(c, v))
        if field.is_zero(x):
            h.pop(key, None)
        else:
            h[key] = x


def _reduces_to_zero(field, h, e, basis):
    while h:
        deg, m = lead = min(h)
        for a, b, row in basis:
            if a <= e - deg and _divides(b, m):
                _subtract(field, h, h[lead], tuple(x - y for x, y in zip(m, b)), row)
                break
        else:
            return False
    return True


def _pairs_reduce(field, basis, d, verified):
    one = field.one()
    for j, (aj, bj, rj) in enumerate(basis):
        for ai, bi, ri in basis[:j]:
            lcm = tuple(map(max, bi, bj))
            e = max(ai, aj) + sum(lcm)
            coprime = e == ai + aj + sum(bi) + sum(bj)
            if coprime or e <= d or (bi, bj) in verified:
                continue
            s = {}
            _subtract(field, s, field.neg(one), tuple(x - y for x, y in zip(lcm, bi)), ri)
            _subtract(field, s, one, tuple(x - y for x, y in zip(lcm, bj)), rj)
            if not _reduces_to_zero(field, s, e, basis):
                return False
            verified.add((bi, bj))
    return True


def _reference_leading_ideal(field, nvars, gens, capacity=DEFAULT_CAPACITY):
    if any(not field.is_zero(g.constant_term()) for g in gens):
        raise ConstantTermError("ideal generator has nonzero constant term")
    top = max((g.degree() for g in gens), default=0)
    ech, basis, verified, d = _FieldEchelon(field), [], set(), 0
    while True:
        before = set(ech.rows)
        for g in gens:
            if g.degree() <= d:
                for u in monomials_of_degree(nvars, d - g.degree()):
                    row = {grlex_key(mono_mul(u, m)): c for m, c in g.terms.items()}
                    if ech.add(row) and len(ech.rows) > capacity:
                        raise CapacityError(len(ech.rows), capacity,
                                            f"degree {d} in {nvars} variables",
                                            what="leading-ideal row count")
        for deg, b in sorted(k for k in ech.rows if k not in before):
            if not any(a <= d - deg and _divides(bg, b) for a, bg, _ in basis):
                basis.append((d - deg, b, dict(ech.rows[(deg, b)])))
        if d >= top and _pairs_reduce(field, basis, d, verified):
            return _minimal(b for _, b, _ in basis)
        d += 1


def _generators_or_guard(engine, p, capacity):
    try:
        return engine(p.base_field(), p.nvars, p.gens, capacity)
    except CapacityError as exc:
        return str(exc)


@given(st.integers(0, 10**6), st.sampled_from(["Q", "F_3", "F_4"]),
       st.sampled_from(["local", "graded"]), st.integers(1, 3),
       st.sampled_from([10, 40, DEFAULT_CAPACITY]))
@settings(max_examples=100, deadline=None)
def test_leading_ideal_matches_the_field_arithmetic_reference(seed, field, mode, nvars,
                                                             capacity):
    # the same generators, or the capacity guard at the same row
    p = random_presentation(random.Random(seed), field, nvars, mode)
    assert _generators_or_guard(leading_ideal, p, capacity) == \
        _generators_or_guard(_reference_leading_ideal, p, capacity)


def _unguarded_pairs_reduce(clear, basis, d, verified):
    """`standard._pairs_reduce` reducing every S-pair it does not skip for
    its degree, coprimality or an earlier check, those of two single-term
    rows among them."""
    for j, (aj, bj, rj) in enumerate(basis):
        for ai, bi, ri in basis[:j]:
            lcm = tuple(map(max, bi, bj))
            e = max(ai, aj) + sum(lcm)
            if e == ai + aj + sum(bi) + sum(bj) or e <= d or (bi, bj) in verified:
                continue
            over_i = tuple(x - y for x, y in zip(lcm, bi))
            over_j = tuple(x - y for x, y in zip(lcm, bj))
            h = clear(standard._shift(ri, over_i), standard._shift(rj, over_j), grlex_key(lcm))
            if not standard._reduces_to_zero(clear, h, e, basis):
                return False
            verified.add((bi, bj))
    return True


@given(st.integers(0, 10**6), st.sampled_from(["Q", "F_3", "F_4"]),
       st.sampled_from(["local", "graded"]), st.integers(1, 3),
       st.lists(st.lists(st.integers(0, 3), min_size=3, max_size=3), max_size=6))
@settings(max_examples=100, deadline=None)
def test_skipping_monomial_pairs_keeps_the_leading_ideal(seed, field, mode, nvars, exponents):
    # a random ideal with monomial generators beside it, so single-term rows
    # meet rows of several terms
    p = random_presentation(random.Random(seed), field, nvars, mode)
    f = p.base_field()
    p.gens = p.gens + [Poly(f, nvars, {tuple(e[:nvars]): f.one()})
                       for e in exponents if sum(e[:nvars])]
    got = _generators_or_guard(leading_ideal, p, DEFAULT_CAPACITY)
    with mock.patch.object(standard, "_pairs_reduce", _unguarded_pairs_reduce):
        assert got == _generators_or_guard(leading_ideal, p, DEFAULT_CAPACITY)


@pytest.mark.parametrize("field", ["Q", "F_3"])
def test_complete_intersection_matches_the_field_arithmetic_reference(field):
    p = parse_presentation(f"ring {field}[x, y, z]\nlocal\n"
                           "ideal: x^2 + y^3 - z^4 + x*y*z, y^2 - x*z^3 + 2*x^3, "
                           "z^3 + x*y^2 - 3*y*z^2")
    fld = p.base_field()
    want = _reference_leading_ideal(fld, p.nvars, p.gens)
    assert want == ((0, 2, 0), (2, 0, 0), (0, 0, 3))
    assert leading_ideal(fld, p.nvars, p.gens) == want


@pytest.mark.parametrize("field", [rationals(), finite_field(3, 1), finite_field(2, 2)],
                         ids=lambda F: F.label())
@pytest.mark.parametrize("case", sorted(row_form_cases(rationals())))
def test_row_form_generators_match_the_raw_row_reference(field, case):
    # each generator converted once, every x^u * g built from it; the
    # reference hands its echelon raw rows
    nvars, gens, _ = row_form_cases(field)[case]
    assert leading_ideal(field, nvars, gens) == _reference_leading_ideal(field, nvars, gens)
