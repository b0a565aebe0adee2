import ast
import copy
import itertools
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jetmetric import poly
from jetmetric.artin import defpair_jet, jet
from jetmetric.errors import CapacityError, ConstantTermError
from jetmetric.exactcore import (Echelon, ExactMatrix, ExtensionField, PrimeField, finite_field,
                                 rationals)
from jetmetric.poly import (
    Poly,
    TruncatedQuotient,
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
from jetmetric.presentation import Presentation, parse_presentation

from conftest import row_form_cases


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
    assert len(tq.basis) == 7
    nf = reduce_poly(tq, y * y)
    assert [(tq.basis[i], c) for i, c in nf] == [((3, 0), Fraction(1))]
    # a basis term and a reducible one cancel to the zero element
    assert reduce_poly(tq, y * y - x * x * x) == []


def test_truncated_quotient_zero_ideal_is_free():
    F = PrimeField(2)
    tq = truncated_quotient(F, 2, [], 3, capacity=500)
    assert len(tq.basis) == count_monomials_below(2, 3)


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


# ---------------------------------------------------------------------------
# the monomial frames of truncated_quotient against the Macaulay build they
# replaced


def _reference_dense(field, nvars, gens, cap):
    """(basis, nf) of k[x]/(I + m^cap) as built before the frames: its own
    grlex monomial list and index per call, the multipliers of each
    generator counted by `comb`, a degree test on every product, and each
    normal form as a dense coordinate vector over the basis."""
    monos = sorted((e for e in itertools.product(range(cap), repeat=nvars) if sum(e) < cap),
                   key=grlex_key)
    index = {m: i for i, m in enumerate(monos)}
    rows = []
    for g in gens:
        if g.is_zero():
            continue
        n_mult = comb(cap - g.order() - 1 + nvars, nvars) if cap > g.order() else 0
        for u in monos[:n_mult]:
            row = {}
            for t, c in g.terms.items():
                m = tuple(x + y for x, y in zip(t, u))
                if sum(m) < cap:
                    row[index[m]] = c
            if row:
                rows.append(row)
    red = ExactMatrix(field, rows, len(monos)).rref()
    free = [c for c in range(len(monos)) if c not in red]
    pos = {c: j for j, c in enumerate(free)}
    nf = {}
    for pc, row in red.items():
        v = [field.zero()] * len(free)
        for c, x in row.items():
            if c != pc:
                v[pos[c]] = field.neg(x)
        nf[monos[pc]] = v
    return [monos[c] for c in free], nf


def _classes_of(field, nf):
    """Each dense normal form's nonzero (basis index, value) entries."""
    return {m: [(j, x) for j, x in enumerate(v) if not field.is_zero(x)] for m, v in nf.items()}


def _reference_truncated_quotient(field, nvars, gens, cap):
    """The reference build with each normal form kept as its class."""
    basis, nf = _reference_dense(field, nvars, gens, cap)
    return TruncatedQuotient(field=field, nvars=nvars, cap=cap, basis=basis,
                             classes=_classes_of(field, nf))


_FIELDS = (rationals(), PrimeField(3), finite_field(2, 2), PrimeField(32003))


def _scalars(F):
    if F.p is None:
        return st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(-3, 2)])
    if F.m > 1:
        return st.sampled_from(range(F.order))
    return st.integers(0, F.p - 1)


@st.composite
def _presentation_and_cap(draw):
    """A field, one to four variables, a cap from 0 to 8 and generators of
    order below the cap where it allows one, with zero ones and one in four
    of order at or past the cap among them."""
    F = draw(st.sampled_from(_FIELDS))
    nvars, cap = draw(st.integers(1, 4)), draw(st.integers(0, 8))
    graded = draw(st.booleans())
    scalar = _scalars(F).filter(lambda c: not F.is_zero(c))
    gens = []
    for _ in range(draw(st.integers(0, 4))):
        below = cap > 1 and draw(st.sampled_from((True, True, True, False)))
        degs = [draw(st.integers(1, cap - 1) if below else st.integers(max(cap, 1), cap + 2))]
        degs *= draw(st.integers(0, 5))
        if not graded:
            degs = [d + draw(st.integers(0, 2)) for d in degs]
        terms = {}
        for d in degs:
            bars = draw(st.lists(st.integers(0, nvars - 1), min_size=d, max_size=d))
            terms[tuple(bars.count(k) for k in range(nvars))] = draw(scalar)
        gens.append(Poly(F, nvars, terms))
    return F, nvars, gens, cap


def _case(F, nvars, cap, *gens):
    """(F, nvars, generators, cap) for generators given as {exponents: int}."""
    return F, nvars, [Poly(F, nvars, {m: F.from_int(c) for m, c in g.items()})
                      for g in gens], cap


# The rows add packed monomial codes with digits in base 2*cap - 1, which
# holds every exponent of a product below the cap only once the terms at or
# past the cap are dropped: x^5 at cap 3 in k[x, y] has the code of y.
_Q, _F2, _F3, _F4 = rationals(), PrimeField(2), PrimeField(3), finite_field(2, 2)


@given(_presentation_and_cap())
@example(_case(_Q, 2, 3, {(1, 0): 1, (5, 0): 1}))
@example(_case(_F3, 3, 4, {(0, 1, 0): 1, (7, 0, 0): 2}, {(0, 0, 2): 1, (0, 0, 7): 1}))
@example(_case(_Q, 2, 4, {(0, 1): 1, (3, 0): -2}))
@example(_case(_F4, 3, 4, {(1, 1, 0): 1, (4, 1, 0): 3}, {(0, 0, 1): 1, (2, 0, 4): 2}))
@example(_case(_Q, 2, 0, {(1, 0): 1, (0, 2): 3}))
@example(_case(_F3, 3, 1, {(1, 1, 0): 1, (0, 0, 1): 2}))
@example(_case(_F4, 4, 5))
@settings(max_examples=150, deadline=None)
def test_truncated_quotient_matches_the_reference_build(case):
    F, nvars, gens, cap = case
    got = truncated_quotient(F, nvars, gens, cap)
    ref = _reference_truncated_quotient(F, nvars, gens, cap)
    assert got.basis == ref.basis
    assert got.classes == ref.classes


@st.composite
def _class_cases(draw):
    """A field among Q, F_2, F_3 and F_4, one to four variables, a cap from 0
    to 8 and one to three generators of order below the cap where it
    allows one, each of one to five nonzero terms: of one degree when
    graded, of up to two degrees more when local."""
    F = draw(st.sampled_from((_Q, _F2, _F3, _F4)))
    nvars, cap = draw(st.integers(1, 4)), draw(st.integers(0, 8))
    graded = draw(st.booleans())
    scalar = _scalars(F).filter(lambda c: not F.is_zero(c))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.integers(1, max(cap - 1, 1)))
        terms = {}
        for _ in range(draw(st.integers(1, 5))):
            e = d if graded else d + draw(st.integers(0, 2))
            bars = draw(st.lists(st.integers(0, nvars - 1), min_size=e, max_size=e))
            terms[tuple(bars.count(k) for k in range(nvars))] = draw(scalar)
        gens.append(Poly(F, nvars, terms))
    return F, nvars, gens, cap


@given(_class_cases())
@example(_case(_Q, 2, 5, {(0, 2): 1, (3, 0): -1, (2, 1): 2}))
@example(_case(_F2, 3, 4, {(2, 0, 0): 1, (0, 1, 1): 1, (0, 0, 2): 1},
               {(0, 2, 0): 1, (1, 1, 0): 1, (1, 0, 1): 1}))
@example(_case(_F4, 2, 4, {(2, 0): 1, (1, 1): 2, (0, 2): 3}))
@settings(max_examples=150, deadline=None)
def test_classes_are_the_nonzero_entries_of_the_dense_reference(case):
    # the kernel keeps each class sparse; an algebra hands out those
    # classes, and its nf view rebuilds the dense table of the reference
    F, nvars, gens, cap = case
    basis, nf = _reference_dense(F, nvars, gens, cap)
    classes = _classes_of(F, nf)
    tq = truncated_quotient(F, nvars, gens, cap)
    assert (tq.basis, tq.classes) == (basis, classes)
    mode = "graded" if all(g.is_homogeneous() for g in gens) else "local"
    A = jet(Presentation(F, tuple(f"x{k}" for k in range(nvars)), gens, mode), cap)
    assert A.basis == basis
    assert {m: A.reduce_monomial(m) for m in classes} == classes
    assert A.nf == nf


@given(st.sampled_from(_FIELDS), st.integers(1, 2), st.integers(1, 2), st.integers(1, 3),
       st.sampled_from(["", "y^2 - x^3", "x*y", "x^2 + y^3"]))
@settings(max_examples=20, deadline=None)
def test_defpair_jet_matches_the_reference_build(F, a, b, n, ideal):
    # the internal cap colength * s * n + 1 reaches 25 here
    ring = F.label() if F.m in (None, 1) else "F_2^2 minpoly a^2 + a + 1"
    p = parse_presentation(f"ring {ring}[x, y]\nlocal\nideal: {ideal or ';'}\n"
                           f"tuple: x^{a}, y^{b}")
    A = defpair_jet(p, n)
    ref = _reference_truncated_quotient(A.field, A.nvars, A.relations, A.cap)
    assert A.basis == ref.basis
    assert A._classes == ref.classes


# Macaulay rows built from each generator's row form against the reference,
# which hands ExactMatrix raw rows for it to convert one by one

ROW_FORM_RINGS = {"Q": "Q", "F_3": "F_3", "F_4": "F_2^2 minpoly a^2 + a + 1"}


def _row_form_field(name):
    return parse_presentation(f"ring {ROW_FORM_RINGS[name]}[x]\nlocal\nideal: x").base_field()


@pytest.mark.parametrize("name", sorted(ROW_FORM_RINGS))
@pytest.mark.parametrize("case", sorted(row_form_cases(rationals())))
def test_row_form_macaulay_rows_match_the_raw_row_build(name, case):
    F = _row_form_field(name)
    nvars, gens, cap = row_form_cases(F)[case]
    got = truncated_quotient(F, nvars, gens, cap)
    ref = _reference_truncated_quotient(F, nvars, gens, cap)
    assert got.basis == ref.basis
    assert got.classes == ref.classes


def test_a_truncated_row_of_content_above_one_reduces_to_its_pivot():
    # 2*x^2 + 3*x^3 has content 1; its one row at cap 3 keeps 2*x^2
    nvars, gens, cap = row_form_cases(rationals())["content_above_one"]
    tq = truncated_quotient(rationals(), nvars, gens, cap)
    assert tq.basis == [(0,), (1,)]
    assert tq.classes == {(2,): []}


@pytest.mark.parametrize("name", sorted(ROW_FORM_RINGS))
def test_a_jet_converts_each_generator_once(monkeypatch, name):
    # every Macaulay row is a shift of one generator, truncated at the cap:
    # the field's row entry sees each nonzero generator below the cap once
    # and no row on its own
    p = parse_presentation(f"ring {ROW_FORM_RINGS[name]}[x, y]\nlocal\n"
                           "ideal: y^2 - x^3, x*y^2 + y^5")
    F = p.base_field()
    entry, unit, clear = F.row_arithmetic
    converted = []
    monkeypatch.setattr(F, "row_arithmetic",
                        (lambda row: converted.append(dict(row)) or entry(row), unit, clear))
    jet(p, 7)
    assert converted == [g.terms for g in p.gens]
    assert sum(count_monomials_below(2, 7 - g.order()) for g in p.gens) == 25
    for case, (nvars, gens, cap) in row_form_cases(F).items():
        converted.clear()
        truncated_quotient(F, nvars, gens, cap)
        assert converted == [g.terms for g in gens
                             if not g.is_zero() and g.order() < cap], case


def _row_free_cases(F):
    """(nvars, generators, cap) with no generator of order below the cap."""
    one, two = F.one(), F.from_int(2)
    return [
        (2, [], 4),
        (2, [Poly(F, 2, {(1, 0): one})], 0),
        (2, [Poly(F, 2, {(1, 0): one, (0, 2): two}), Poly(F, 2, {})], 1),
        (3, [Poly(F, 3, {(2, 1, 0): one, (0, 0, 4): two})], 3),
        (1, [Poly(F, 1, {(5,): one})], 4),
        (0, [], 0),
        (0, [Poly(F, 0, {})], 1),
        (0, [], 3),
    ]


@pytest.mark.parametrize("name", sorted(ROW_FORM_RINGS))
def test_row_free_jets_match_the_reference_without_an_elimination(monkeypatch, name):
    # with no generator below the cap the jet is k[x]/m^cap: every monomial
    # below the cap is a basis monomial and nothing is eliminated
    F = _row_form_field(name)
    calls = []
    solve = Echelon._back_substitution
    monkeypatch.setattr(Echelon, "_back_substitution",
                        lambda self: calls.append(self) or solve(self))
    for nvars, gens, cap in _row_free_cases(F):
        got = truncated_quotient(F, nvars, gens, cap)
        assert calls == [], (nvars, cap)
        ref = _reference_truncated_quotient(F, nvars, gens, cap)
        assert ((got.basis, got.classes) == (ref.basis, ref.classes)
                == (list(monomials_below(nvars, cap)), {}))
        calls.clear()
    p = parse_presentation(f"ring {ROW_FORM_RINGS[name]}[x, y]\nlocal\nideal: y^2 - x^3")
    assert jet(p, 2).dim == 3 and calls == []
    # one generator below the cap gives one elimination
    assert jet(p, 3).dim == 5 and len(calls) == 1


# the signature criterion: a generator's rows skip the multipliers that are
# pivots of the earlier generators' rows, and the quotient is unchanged

@st.composite
def _spanned_generators(draw):
    """A field, a number of variables, a cap from 0 to 8 and generators
    built so that later ones are partly spanned by earlier ones: a complete
    intersection x_i^a_i + (terms in later variables of degree a_i when
    graded, of degree a_i + 1 or a_i + 2 in any variables when local) or a
    few random generators, followed by repeats, monomial multiples and sums
    of monomial multiples of generators already drawn, in a drawn order."""
    F = draw(st.sampled_from(_FIELDS))
    nvars, cap = draw(st.integers(1, 3)), draw(st.integers(0, 8))
    graded = draw(st.booleans())
    scalar = _scalars(F).filter(lambda c: not F.is_zero(c))

    def monomial(d, first=0):
        bars = draw(st.lists(st.integers(first, nvars - 1), min_size=d, max_size=d))
        return tuple(bars.count(k) for k in range(nvars))

    gens = []
    if draw(st.booleans()):
        for i in range(nvars):
            a = draw(st.integers(1, 4))
            terms = {tuple(a if k == i else 0 for k in range(nvars)): F.one()}
            for _ in range(draw(st.integers(0, 2))):
                if graded and i + 1 < nvars:
                    terms.setdefault(monomial(a, i + 1), draw(scalar))
                elif not graded:
                    terms.setdefault(monomial(a + draw(st.integers(1, 2))), draw(scalar))
            gens.append(Poly(F, nvars, terms))
    else:
        for _ in range(draw(st.integers(1, 3))):
            d = draw(st.integers(1, 4))
            terms = {}
            for _ in range(draw(st.integers(1, 3))):
                terms[monomial(d + (0 if graded else draw(st.integers(0, 2))))] = draw(scalar)
            gens.append(Poly(F, nvars, terms))
    for _ in range(draw(st.integers(1, 3))):
        g = draw(st.sampled_from(gens))
        how = draw(st.sampled_from(["repeat", "multiple", "sum"]))
        if how == "repeat":
            gens.append(g)
        elif how == "multiple":
            gens.append(g * Poly(F, nvars, {monomial(draw(st.integers(1, 3))): draw(scalar)}))
        else:
            h = draw(st.sampled_from(gens))
            if h.degree() > g.degree():
                g, h = h, g
            u = monomial(g.degree() - h.degree() if graded else draw(st.integers(0, 2)))
            gens.append(g.scale(draw(scalar)) + h * Poly(F, nvars, {u: draw(scalar)}))
    order = draw(st.permutations(range(len(gens))))
    return F, nvars, [gens[k] for k in order], cap


@given(_spanned_generators())
@settings(max_examples=120, deadline=None)
def test_skipped_multipliers_leave_the_quotient_of_all_rows(case):
    F, nvars, gens, cap = case
    got = truncated_quotient(F, nvars, gens, cap)
    ref = _reference_truncated_quotient(F, nvars, gens, cap)
    assert got.basis == ref.basis
    assert got.classes == ref.classes


def test_a_complete_intersection_enters_no_row_that_reduces_to_zero(monkeypatch):
    # (x^2 - y^3, y^2 - z^3, z^2 - x^3) at cap 12: its three generators have
    # 660 multipliers below the cap, and all rows would leave 304 of them
    # reducing to zero, the Koszul syzygies; the criterion skips all 304
    inserted = []
    insert = Echelon.insert
    monkeypatch.setattr(Echelon, "insert",
                        lambda self, v: inserted.append(insert(self, v)) or inserted[-1])
    p = parse_presentation("ring Q[x, y, z]\nlocal\nideal: y^3 - x^2, z^3 - y^2, x^3 - z^2")
    tq = truncated_quotient(p.base_field(), 3, p.gens, 12)
    assert sum(count_monomials_below(3, 12 - g.order()) for g in p.gens) == 660
    assert len(inserted) == 356 and inserted.count(False) == 0
    assert len(tq.basis) == count_monomials_below(3, 12) - 356 == 8
    ref = _reference_truncated_quotient(p.base_field(), 3, p.gens, 12)
    assert (tq.basis, tq.classes) == (ref.basis, ref.classes)


@pytest.fixture
def enumerations(monkeypatch):
    """The calls that enumerate monomials, counted from empty caches."""
    calls = []
    enumerate_ = poly.combinations_with_replacement
    monkeypatch.setattr(poly, "combinations_with_replacement",
                        lambda *a: calls.append(a) or enumerate_(*a))
    poly._frame.cache_clear()
    poly.monomials_of_degree.cache_clear()
    return calls


def test_two_presentations_of_one_shape_enumerate_monomials_once(enumerations):
    jet(parse_presentation("ring Q[x, y, z]\nlocal\nideal: y^2 - x^3, z^2"), 5)
    first = len(enumerations)
    assert first == 5               # degrees 0 to 4
    jet(parse_presentation("ring F_3[a, b, c]\ngraded\nideal: a*b + c^2"), 5)
    assert len(enumerations) == first


def test_mutating_a_jet_leaves_the_next_jet_of_its_shape_alone():
    # a jet is shared per presentation object, so the second jet comes
    # from a second parse: it shares the frame and the basis table only
    text = "ring Q[x, y]\nlocal\nideal: y^2 - x^3"
    A = jet(parse_presentation(text), 5)
    basis, classes, nf = list(A.basis), copy.deepcopy(A._classes), A.nf
    A.basis.reverse()
    A.basis.append((9, 9))
    for cls in A._classes.values():
        cls[:] = [(0, Fraction(7))]
    A._classes[(9, 9)] = []
    B = jet(parse_presentation(text), 5)
    assert B.basis == basis and B._classes == classes and B.nf == nf
    free = jet(parse_presentation("ring Q[x, y]\ngraded\nideal: ;"), 5)
    assert free.basis == list(monomials_below(2, 5)) and free._classes == free.nf == {}


def test_a_cap_over_the_capacity_builds_no_frame(enumerations):
    for nvars, cap in ((2, 64), (3, 10**6)):
        with pytest.raises(CapacityError):
            truncated_quotient(rationals(), nvars, [], cap)
        assert enumerations == [] and poly._frame.cache_info().currsize == 0


def test_truncated_quotient_checks_the_cap_then_constant_terms_then_the_capacity():
    F = rationals()
    unit = Poly(F, 2, {(0, 0): F.one(), (1, 0): F.one()})
    x = Poly.variable(F, 2, 0)
    with pytest.raises(ValueError) as refused:
        truncated_quotient(F, 2, [x, unit], -1, capacity=0)
    assert type(refused.value) is ValueError
    # a constant term is refused even where the cap is also over the capacity
    with pytest.raises(ConstantTermError):
        truncated_quotient(F, 2, [x, unit], 64)
    with pytest.raises(CapacityError):
        truncated_quotient(F, 2, [x, x], 64)


@pytest.mark.parametrize("module", sorted(
    path.stem for path in Path(poly.__file__).parent.glob("*.py")))
def test_only_the_nf_view_reads_dense_normal_forms(module):
    # classes stay sparse from the jet kernel on: no module reads an nf,
    # and the dense view on ArtinAlgebra reads only the classes
    tree = ast.parse(Path(poly.__file__).with_name(f"{module}.py").read_text())
    view = set()
    if module == "artin":
        cls, = (n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "ArtinAlgebra")
        view = {id(n) for f in cls.body if isinstance(f, ast.FunctionDef) and f.name == "nf"
                for n in ast.walk(f)}
        assert view
    for node in ast.walk(tree):
        if id(node) in view:
            continue
        assert not (isinstance(node, ast.Attribute) and node.attr == "nf"), node.lineno
        assert not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
                    and any(getattr(a, "value", None) == "nf" for a in node.args)), node.lineno


@pytest.mark.parametrize("module", sorted(
    path.stem for path in Path(poly.__file__).parent.glob("*.py")))
def test_no_module_ranks_through_the_bitmask_routine(module):
    # every rank, over F_2 too, is an Echelon's: rank_gf2 is defined, never
    # imported, called or passed on
    for node in ast.walk(ast.parse(Path(poly.__file__).with_name(f"{module}.py").read_text())):
        name = (node.attr if isinstance(node, ast.Attribute) else
                node.name if isinstance(node, ast.alias) else getattr(node, "id", None))
        assert name != "rank_gf2", node.lineno


@pytest.mark.parametrize("module", sorted(
    path.stem for path in Path(poly.__file__).parent.glob("*.py") if path.stem != "poly"))
def test_only_poly_enumerates_monomials(module):
    # every monomial list comes from poly's memoized degree lists and frames
    enumerators = {"combinations_with_replacement", "product"}
    path = Path(poly.__file__).with_name(f"{module}.py")
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module == "itertools":
            assert not {a.name for a in node.names} & enumerators, node.lineno
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "itertools":
            assert node.attr not in enumerators, node.lineno
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        assert name != "combinations_with_replacement", node.lineno
