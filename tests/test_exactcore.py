import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetmetric import exactcore
from jetmetric.errors import FieldError
from jetmetric.exactcore import (
    Echelon,
    ExactMatrix,
    ExtensionField,
    FieldDesc,
    PrimeField,
    RrefResult,
    _fp_is_irreducible,
    _fp_mod,
    _fp_monic_polys,
    canonical_minpoly,
    field_from_desc,
    finite_field,
    rank_gf2,
    rationals,
)


def test_rationals_basic_ops():
    F = rationals()
    a, b = Fraction(3, 4), Fraction(-2, 5)
    assert F.add(a, b) == Fraction(7, 20)
    assert F.mul(a, b) == Fraction(-3, 10)
    assert F.to_str(Fraction(-1, 3)) == "-1/3"


def test_prime_field_arithmetic_mod_7():
    F = PrimeField(7)
    assert F.add(5, 4) == 2
    assert F.mul(3, 5) == 1
    assert F.inv(3) == 5
    assert F.neg(2) == 5
    assert sorted(F.elements()) == list(range(7))


def test_prime_field_rejects_composite_modulus():
    with pytest.raises(FieldError):
        PrimeField(6)


def test_extension_field_f4():
    # F_4 = F_2[a]/(a^2 + a + 1); the generator satisfies a^2 = a + 1.
    F = ExtensionField(2, 2)
    a = F.generator()
    assert F.mul(a, a) == F.add(a, F.one())
    assert len(list(F.elements())) == 4
    assert F.order == 4


def test_extension_field_every_nonzero_element_invertible():
    F = ExtensionField(3, 2)
    for e in F.elements():
        if F.is_zero(e):
            continue
        assert F.mul(e, F.inv(e)) == F.one()


class TupleField:
    """Reference F_{p^m}: elements as digit tuples (c_0, ..., c_{m-1}),
    schoolbook products reduced by the minimal polynomial, inverses by
    search."""

    def __init__(self, p, m, minpoly):
        self.p, self.m, self.minpoly = p, m, minpoly

    def from_code(self, code):
        out = []
        for _ in range(self.m):
            code, r = divmod(code, self.p)
            out.append(r)
        return tuple(out)

    def elements(self):
        return [self.from_code(c) for c in range(self.p ** self.m)]

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple((-x) % self.p for x in a)

    def mul(self, a, b):
        p, m = self.p, self.m
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
        for k in range(2 * m - 2, m - 1, -1):   # a^k = a^(k-m) * (a^m - minpoly)
            c = prod[k]
            for i in range(m + 1):
                prod[k - m + i] = (prod[k - m + i] - c * self.minpoly[i]) % p
        return tuple(prod[:m])

    def inv(self, a):
        one = self.from_code(1)
        return next(b for b in self.elements() if self.mul(a, b) == one)

    def to_str(self, a):
        terms = []
        for i, c in enumerate(a):
            if c:
                pw = "" if i == 0 else ("a" if i == 1 else f"a^{i}")
                terms.append(str(c) if not pw else (pw if c == 1 else f"{c}*{pw}"))
        return "+".join(terms) if terms else "0"


SMALL_FIELDS = [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3)]


def _digit_path_field(monkeypatch, p, m):
    monkeypatch.setattr(exactcore, "TABLE_MAX_ORDER", 1)
    F = ExtensionField(p, m)
    monkeypatch.undo()
    assert F.mul == F._mul_digits
    return F


@pytest.mark.parametrize("p,m", SMALL_FIELDS)
def test_coded_field_matches_tuple_reference_on_every_pair(p, m, monkeypatch):
    F = ExtensionField(p, m)
    slow = _digit_path_field(monkeypatch, p, m)
    R = TupleField(p, m, F.minpoly)
    assert list(F.elements()) == list(range(p ** m))
    assert [F.coeffs(c) for c in F.elements()] == R.elements()
    code = {e: c for c, e in enumerate(R.elements())}
    for a, ta in enumerate(R.elements()):
        assert F.to_str(a) == R.to_str(ta)
        assert F.neg(a) == slow.neg(a) == code[R.neg(ta)]
        if a:
            assert F.inv(a) == slow.inv(a) == code[R.inv(ta)]
        for b, tb in enumerate(R.elements()):
            assert F.add(a, b) == slow.add(a, b) == code[R.add(ta, tb)]
            assert F.sub(a, b) == slow.sub(a, b) == code[R.sub(ta, tb)]
            assert F.mul(a, b) == slow.mul(a, b) == code[R.mul(ta, tb)]


@pytest.mark.parametrize("p,m", SMALL_FIELDS)
def test_prime_subfield_codes_are_their_int_values(p, m):
    F = ExtensionField(p, m)
    assert (F.zero(), F.one(), F.generator()) == (0, 1, p)
    for n in range(-2 * p, 2 * p):
        assert F.from_int(n) == n % p
        assert F.coeffs(F.from_int(n)) == (n % p,) + (0,) * (m - 1)
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


@pytest.mark.parametrize("p,m", [(2, 13), (3, 8), (31, 4), (7, 5), (32003, 2)])
def test_fields_above_the_table_bound_match_tuple_reference(p, m):
    F = ExtensionField(p, m)
    assert F.order > exactcore.TABLE_MAX_ORDER
    R = TupleField(p, m, F.minpoly)

    def enc(t):
        return sum(c * p ** i for i, c in enumerate(t))

    rng = random.Random(p * 100 + m)
    top = p ** m - 1
    samples = [0, 1, p - 1, p, top] + [rng.randrange(p ** m) for _ in range(200)]
    for a, b in zip(samples, samples[1:] + samples[:1]):
        ta, tb = R.from_code(a), R.from_code(b)
        assert F.add(a, b) == enc(R.add(ta, tb))
        assert F.sub(a, b) == enc(R.sub(ta, tb))
        assert F.neg(a) == enc(R.neg(ta))
        assert F.mul(a, b) == enc(R.mul(ta, tb))
        assert F.to_str(a) == R.to_str(ta)
        if a:
            assert F.mul(a, F.inv(a)) == 1


def test_fields_are_built_once_per_description():
    d = FieldDesc("extension-field", p=2, m=4, minpoly=canonical_minpoly(2, 4))
    assert field_from_desc(d) is field_from_desc(d) is finite_field(2, 4)
    assert finite_field(3, 1) is field_from_desc(FieldDesc("prime-field", p=3))


def _irreducible_by_trial_division(poly, p):
    deg = len(poly) - 1
    return deg >= 1 and all(_fp_mod(poly, cand, p)
                            for d in range(1, deg // 2 + 1)
                            for cand in _fp_monic_polys(d, p))


@pytest.mark.parametrize("p", [2, 3])
def test_rabin_test_agrees_with_trial_division(p):
    for m in range(1, 5):
        first = None
        for poly in _fp_monic_polys(m, p):
            expected = _irreducible_by_trial_division(poly, p)
            assert _fp_is_irreducible(poly, p) == expected, poly
            if expected and first is None:
                first = tuple(poly)
        assert canonical_minpoly(p, m) == first


def test_canonical_minpoly_is_deterministic_and_irreducible():
    assert canonical_minpoly(2, 2) == canonical_minpoly(2, 2)
    # degree-m monic with no roots in the prime field for m = 2, 3
    for p, m in [(2, 2), (2, 3), (3, 2), (5, 2)]:
        mp = canonical_minpoly(p, m)
        assert len(mp) == m + 1 and mp[-1] == 1
        for r in range(p):
            val = sum(c * pow(r, i, p) for i, c in enumerate(mp)) % p
            assert val != 0


def test_field_from_desc_roundtrip():
    F = field_from_desc(FieldDesc("prime-field", p=5))
    assert isinstance(F, PrimeField) and F.p == 5
    assert field_from_desc(FieldDesc("rationals")) == rationals()
    assert FieldDesc("extension-field", p=2, m=4).label() == "F_2^4"


def test_rref_known_matrix_over_q():
    F = rationals()
    rows = [{0: Fraction(1), 1: Fraction(2), 2: Fraction(3)},
            {0: Fraction(2), 1: Fraction(4), 2: Fraction(6)},
            {1: Fraction(1), 2: Fraction(1)}]
    M = ExactMatrix(F, rows, 3)
    res = M.rref()
    assert res.rank == 2
    assert res.pivots == [0, 1]
    assert res.rows == [{0: 1, 2: 1}, {1: 1, 2: 1}]


def _sparse_rows(F, rows):
    """The adapter from dense test rows to ExactMatrix's row form: each row
    as the dict of its nonzero entries."""
    return [{c: x for c, x in enumerate(r) if not F.is_zero(x)} for r in rows]


def _dense_row(F, row, n):
    return [row.get(c, F.zero()) for c in range(n)]


def _mul_vec(F, rows, vec):
    # vec is a sparse kernel vector {column: value}
    return [reduce(F.add, (F.mul(row[c], x) for c, x in vec.items()), F.zero())
            for row in rows]


def test_kernel_basis_members_are_killed_by_the_matrix():
    F = PrimeField(3)
    rows = [[1, 2, 0, 1], [0, 1, 1, 1]]
    M = ExactMatrix(F, _sparse_rows(F, rows), 4)
    ker = M.kernel_basis()
    assert len(ker) == 2
    for v in ker:
        assert all(F.is_zero(c) for c in _mul_vec(F, rows, v))


def test_rank_gf2_bitmask():
    # rows as integers: {0b011, 0b110, 0b101} has rank 2 over F_2
    assert rank_gf2([0b011, 0b110, 0b101]) == 2
    assert rank_gf2([]) == 0
    assert rank_gf2([0]) == 0


@st.composite
def _q_matrix(draw):
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 5))
    ent = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    rows = [[draw(ent) for _ in range(n)] for _ in range(m)]
    return rows, n


@given(_q_matrix())
@settings(max_examples=60, deadline=None)
def test_rank_plus_nullity_over_q(mat):
    rows, n = mat
    M = ExactMatrix(rationals(), _sparse_rows(rationals(), rows), n)
    assert M.rank() + len(M.kernel_basis()) == n


@given(_q_matrix())
@settings(max_examples=40, deadline=None)
def test_kernel_vectors_lie_in_kernel_over_q(mat):
    rows, n = mat
    F = rationals()
    M = ExactMatrix(F, _sparse_rows(F, rows), n)
    for v in M.kernel_basis():
        assert all(F.is_zero(c) for c in _mul_vec(F, rows, v))


@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
@settings(max_examples=50, deadline=None)
def test_gf2_rank_matches_generic_path(a, b, c):
    ints = [a, b, c]
    F = PrimeField(2)
    rows = [[(r >> j) & 1 for j in range(8)] for r in ints]
    assert rank_gf2(ints) == ExactMatrix(F, _sparse_rows(F, rows), 8).rank()


# -- the integer-row kernel and the sparse engine against a dense reference


def _dense_rref(field, in_rows, ncols):
    """Reference RREF: dense Gauss-Jordan in the field's own arithmetic."""
    rows = [list(r) for r in in_rows if not all(field.is_zero(a) for a in r)]
    pivots: list[int] = []
    piv_r = 0
    for col in range(ncols):
        sel = None
        for r in range(piv_r, len(rows)):
            if not field.is_zero(rows[r][col]):
                sel = r
                break
        if sel is None:
            continue
        rows[piv_r], rows[sel] = rows[sel], rows[piv_r]
        inv = field.inv(rows[piv_r][col])
        rows[piv_r] = [field.mul(inv, a) for a in rows[piv_r]]
        prow = rows[piv_r]
        for r in range(len(rows)):
            if r != piv_r:
                c = rows[r][col]
                if not field.is_zero(c):
                    rows[r] = [field.sub(a, field.mul(c, b)) for a, b in zip(rows[r], prow)]
        pivots.append(col)
        piv_r += 1
        if piv_r == len(rows):
            break
    return RrefResult(rows=rows[:piv_r], pivots=pivots, ncols=ncols)


_BIG = 2**64
_q_entry = st.one_of(
    st.just(0),
    st.integers(-6, 6),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
    st.integers(_BIG, 4 * _BIG).map(lambda v: v if v % 2 else -v),
    st.builds(Fraction, st.integers(-4 * _BIG, 4 * _BIG), st.integers(1, _BIG)),
)


def _draw_rows(draw, m, n, fresh, combine):
    """m rows of length n drawn from the strategy ``fresh``, with zero rows,
    copies and combinations of earlier rows among them."""
    rows: list[list] = []
    for _ in range(m):
        kind = draw(st.sampled_from(["fresh", "fresh", "zero", "copy", "combination"]))
        if kind == "zero":
            rows.append([0] * n)
        elif kind == "copy" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "combination" and rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            k = draw(st.integers(-3, 3))
            rows.append([combine(x, k, y) for x, y in zip(a, b)])
        else:
            rows.append(draw(fresh))
    return rows


@st.composite
def _dependent_rows(draw, entry, combine):
    """A matrix whose later rows may be zero, copies or combinations of earlier ones."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 6))
    return _draw_rows(draw, m, n, st.lists(entry, min_size=n, max_size=n), combine), n


@st.composite
def _macaulay_rows(draw, F):
    """A Macaulay-shaped matrix over F: up to 40 columns, fresh rows of 1-4
    nonzero entries that repeat a few generator patterns at shifted columns
    (as monomial multiples of a generator do), with zero rows, duplicates
    and combinations of earlier rows among them."""
    if isinstance(F, PrimeField):
        # nonzero residues, some of them 2^64-sized ints
        nonzero = st.builds(lambda r, k: r + k * F.p, st.integers(1, F.p - 1),
                            st.sampled_from([0, 0, 1, _BIG // F.p]))
    else:
        nonzero = _q_entry.filter(bool)
    # sampled: Hypothesis draws integers mostly near the ends of their range
    n = draw(st.sampled_from(range(1, 41)))
    width = min(n, 7)
    pattern = st.lists(st.integers(0, width - 1), min_size=1, max_size=4,
                       unique=True).flatmap(
        lambda cols: st.lists(nonzero, min_size=len(cols), max_size=len(cols))
        .map(lambda xs: list(zip(cols, xs))))
    patterns = draw(st.lists(pattern, min_size=1, max_size=4))

    def shifted(pat, shift):
        row = [0] * n
        for offset, x in pat:
            row[shift + offset] = x
        return row

    fresh = st.builds(shifted, st.sampled_from(patterns),
                      st.sampled_from(range(n - width + 1)))
    m = draw(st.sampled_from(range(1, 41)))
    return _draw_rows(draw, m, n, fresh, _contract_entries(F)[1]), n


def _assert_value_types(F, rows):
    """Reduced rows over Q hold Fractions, over F_p ints in [0, p)."""
    values = [x for row in rows for x in row.values()]
    if F == rationals():
        assert all(type(x) is Fraction for x in values)
    elif isinstance(F, PrimeField):
        assert all(type(x) is int and 0 <= x < F.p for x in values)


def _assert_same_rref(F, rows, n):
    """ExactMatrix's RREF of the dense rows, read through the adapter,
    against the dense reference; its rows hold nonzero entries only, as
    Fractions over Q and residues in [0, p) over F_p."""
    got = ExactMatrix(F, _sparse_rows(F, rows), n).rref()
    want = _dense_rref(F, rows, n)
    assert got.pivots == want.pivots
    assert [_dense_row(F, r, n) for r in got.rows] == want.rows
    assert not any(F.is_zero(x) for r in got.rows for x in r.values())
    assert got.ncols == n
    _assert_value_types(F, got.rows)


def _echelon_rref(F, rows, n):
    """The engine's RREF, fed the nonzero entries of each row and densified."""
    ech = Echelon(F)
    for row in rows:
        ech.add({c: x for c, x in enumerate(row) if not F.is_zero(x)})
    red = ech.reduced()
    assert list(red) == sorted(red)
    out = []
    for pc, entries in red.items():
        assert entries[pc] == F.one()
        assert not any(F.is_zero(x) for x in entries.values())
        dense = [F.zero()] * n
        for c, x in entries.items():
            dense[c] = x
        out.append(dense)
    return RrefResult(rows=out, pivots=list(red), ncols=n)


_SHAPES = [([[3, Fraction(-1, 2), 0, _BIG + 1]], 4),          # 1 x n
           ([[Fraction(2, 3)], [0], [-_BIG]], 1),             # m x 1
           ([[0, 0, 0], [0, 0, 0]], 3),                       # all zero
           ([], 5),                                           # no rows
           ([[1, 2], [2, 4], [Fraction(1, 2), 1]], 2)]        # rank one


@given(_dependent_rows(_q_entry, lambda x, k, y: Fraction(x) + k * Fraction(y)))
@settings(max_examples=300, deadline=None)
def test_integer_kernel_matches_generic_rref_over_q(mat):
    rows, n = mat
    _assert_same_rref(rationals(), rows, n)


def test_integer_kernel_matches_generic_rref_on_edge_shapes():
    for rows, n in _SHAPES:
        _assert_same_rref(rationals(), rows, n)
        int_rows = [[Fraction(v).numerator for v in row] for row in rows]
        for p in (2, 3, 32003):
            _assert_same_rref(PrimeField(p), int_rows, n)
        # the sparse engine, directly and behind ExactMatrix over F_4 and F_9
        for F in (rationals(), PrimeField(3), finite_field(2, 2), finite_field(3, 2)):
            mat = rows if F == rationals() else [[v % F.order for v in r] for r in int_rows]
            want = _dense_rref(F, mat, n)
            got = _echelon_rref(F, mat, n)
            assert (got.pivots, got.rows) == (want.pivots, want.rows)
            if isinstance(F, ExtensionField):
                _assert_same_rref(F, mat, n)


@pytest.mark.parametrize("p", [2, 3, 32003])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_integer_kernel_matches_generic_rref_over_fp(p, data):
    entry = st.one_of(st.integers(0, p - 1), st.integers(-3 * p, 3 * p),
                      st.integers(_BIG, 2 * _BIG))
    rows, n = data.draw(_dependent_rows(entry, lambda x, k, y: x + k * y))
    _assert_same_rref(PrimeField(p), rows, n)


ENGINE_FIELDS = {"Q": rationals(), "F_3": PrimeField(3),
                 "F_4": finite_field(2, 2), "F_9": finite_field(3, 2)}


def _engine_entries(F):
    if F == rationals():
        return _q_entry, lambda x, k, y: Fraction(x) + k * Fraction(y)
    return (st.sampled_from(list(F.elements())),
            lambda x, k, y: F.add(x, F.mul(F.from_int(k), y)))


@pytest.mark.parametrize("name", sorted(ENGINE_FIELDS))
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_echelon_engine_matches_dense_reference(name, data):
    F = ENGINE_FIELDS[name]
    rows, n = data.draw(_dependent_rows(*_engine_entries(F)))
    want = _dense_rref(F, rows, n)
    got = _echelon_rref(F, rows, n)
    assert got.pivots == want.pivots
    assert got.rows == want.rows
    if name in ("F_4", "F_9"):
        # ExactMatrix reduces over F_{p^m} with the engine
        _assert_same_rref(F, rows, n)


@pytest.mark.parametrize("name", ["Q", "F_3", "F_4"])
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_reduce_inserts_nothing_and_store_completes_add(name, data):
    F = ENGINE_FIELDS[name]
    rows, n = data.draw(_dependent_rows(*_engine_entries(F)))
    ech, twin = Echelon(F), Echelon(F)
    for r in _sparse_rows(F, rows):
        before = {c: (row, dict(row)) for c, row in ech.rows.items()}
        given_row = dict(r)
        rem, key = ech.reduce(r)
        assert r == given_row
        # rows unchanged: the same stored dicts with the same entries
        assert ech.rows.keys() == before.keys()
        for c, row in ech.rows.items():
            assert row is before[c][0] and row == before[c][1]
        assert (key is None) == (not twin.add(r))
        if key is None:
            assert rem == {}
            continue
        assert key == min(rem) and key not in ech.rows
        ech.store(rem, key)
        assert ech.rows == twin.rows


RANK_FIELDS = {**ENGINE_FIELDS, "F_2": PrimeField(2), "F_32003": PrimeField(32003)}


@pytest.mark.parametrize("name", sorted(RANK_FIELDS))
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_forward_only_rank_matches_rref_pivots(name, data):
    # rank() eliminates forward only (no back pass, no densified rows)
    F = RANK_FIELDS[name]
    rows, n = data.draw(_any_rows(F))
    m = ExactMatrix(F, _sparse_rows(F, rows), n)
    assert m.rank() == len(m.rref().pivots) == len(_dense_rref(F, rows, n).pivots)


@pytest.mark.parametrize("name", ["F_4", "F_9"])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_sparse_kernel_is_read_from_the_reduced_rows(name, data):
    F = ENGINE_FIELDS[name]
    rows, n = data.draw(_dependent_rows(*_engine_entries(F)))
    red = _dense_rref(F, rows, n)
    ker = ExactMatrix(F, _sparse_rows(F, rows), n).kernel_basis()
    assert len(ker) == n - red.rank
    for v, free in zip(ker, red.free_columns()):
        assert v[free] == F.one()
        assert not any(F.is_zero(x) for x in v.values())
        assert set(v) <= set(red.pivots) | {free}
        for row, pc in zip(red.rows, red.pivots):
            assert v.get(pc, F.zero()) == F.neg(row[free])
        assert all(F.is_zero(c) for c in _mul_vec(F, rows, v))


# -- the sparse row contract: any dict form of a row gives the same answers

CONTRACT_FIELDS = {"Q": rationals(), "F_2": PrimeField(2), "F_32003": PrimeField(32003),
                   "F_4": finite_field(2, 2), "F_9": finite_field(3, 2)}


def _contract_entries(F):
    if isinstance(F, PrimeField):
        # residues beyond [0, p) include the explicit zeros p, -p, ...
        return (st.one_of(st.integers(0, F.p - 1), st.integers(-3 * F.p, 3 * F.p),
                          st.integers(_BIG, 2 * _BIG)),
                lambda x, k, y: x + k * y)
    return _engine_entries(F)


def _any_rows(F):
    """Small matrices with entries of F, or over Q and F_p, whose sparse
    integer rows they exercise, also Macaulay-shaped ones."""
    entry, combine = _contract_entries(F)
    if isinstance(F, ExtensionField):
        return _dependent_rows(entry, combine)
    return st.one_of(_dependent_rows(entry, combine), _macaulay_rows(F))


def _reference_kernel(F, red):
    """The canonical kernel basis read off a dense reference RREF."""
    basis = []
    for free in red.free_columns():
        v = {free: F.one()}
        for row, pc in zip(red.rows, red.pivots):
            if not F.is_zero(row[free]):
                v[pc] = F.neg(row[free])
        basis.append(v)
    return basis


@pytest.mark.parametrize("name", sorted(CONTRACT_FIELDS))
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_sparse_rows_in_any_form_match_the_dense_reference(name, data):
    F = CONTRACT_FIELDS[name]
    rows, n = data.draw(_any_rows(F))
    want = _dense_rref(F, rows, n)
    # each zero entry kept as an explicit zero or dropped, keys in any
    # order, and empty rows (the sparse form of zero rows) inserted; one
    # seeded generator makes the per-entry choices, which a 40-column
    # matrix has too many of to draw one by one
    rnd = data.draw(st.randoms(use_true_random=False))
    sparse_rows = []
    for r in rows:
        items = [(c, x) for c, x in enumerate(r)
                 if not F.is_zero(x) or rnd.random() < 0.5]
        rnd.shuffle(items)
        sparse_rows.append(dict(items))
    for _ in range(data.draw(st.integers(0, 2))):
        sparse_rows.insert(data.draw(st.integers(0, len(sparse_rows))), {})
    M = ExactMatrix(F, sparse_rows, n)
    assert M.rank() == want.rank
    got = M.rref()
    assert got.pivots == want.pivots
    assert [_dense_row(F, r, n) for r in got.rows] == want.rows
    for row, pc in zip(got.rows, got.pivots):
        assert row[pc] == F.one()
        assert not any(F.is_zero(x) for x in row.values())
    _assert_value_types(F, got.rows)
    assert M.kernel_basis() == _reference_kernel(F, want)


def test_sparse_rows_edge_forms():
    # no rows, only empty rows, and a row of explicit zeros, in every field
    for F in CONTRACT_FIELDS.values():
        z, one = F.zero(), F.one()
        for rows in ([], [{}], [{}, {}], [{2: z, 0: z}]):
            M = ExactMatrix(F, rows, 3)
            assert M.rank() == 0
            got = M.rref()
            assert (got.rows, got.pivots) == ([], [])
            assert M.kernel_basis() == [{0: one}, {1: one}, {2: one}]
        # keys in descending order, a zero among them, an empty row between
        M = ExactMatrix(F, [{2: one, 1: z, 0: one}, {}, {2: one}], 3)
        assert M.rank() == 2
        assert M.rref().rows == [{0: one}, {2: one}]
        assert M.kernel_basis() == [{1: one}]
