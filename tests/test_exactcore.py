import ast
import gc
import operator
import random
import time
from fractions import Fraction
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetmetric import exactcore
from jetmetric.errors import FieldError
from jetmetric.exactcore import (
    Echelon,
    ExactMatrix,
    ExtensionField,
    Field,
    PrimeField,
    TABLE_MAX_ORDER,
    _fp_is_irreducible,
    _fp_mod,
    _fp_monic_polys,
    canonical_minpoly,
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
    assert F.order == 7


def test_prime_field_rejects_composite_modulus():
    with pytest.raises(FieldError):
        PrimeField(6)


def _prime_by_trial_division(n):
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_primality_agrees_with_trial_division_below_10_to_the_5():
    assert [n for n in range(-3, 10**5) if exactcore._is_prime(n)] == \
        [n for n in range(-3, 10**5) if _prime_by_trial_division(n)]


@pytest.mark.parametrize("n, prime", [(2**61 - 1, True), (2**61 + 1, False)])
def test_large_characteristics_are_decided_within_a_second(n, prime):
    # 2^61 + 1 is divisible by 3; trial division to sqrt(2^61) took minutes
    start = time.process_time()
    if prime:
        assert PrimeField(n).p == n
    else:
        with pytest.raises(FieldError, match="not prime"):
            PrimeField(n)
    assert time.process_time() - start < 1.0


def test_characteristic_past_the_exact_primality_bound_is_refused():
    # the smallest strong pseudoprime to every base up to 41
    with pytest.raises(FieldError, match="not below"):
        PrimeField(exactcore.MAX_CHARACTERISTIC)
    assert not exactcore._is_prime(exactcore.MAX_CHARACTERISTIC - 2)


def test_raw_arithmetic_defaults_to_the_field_methods():
    assert rationals().raw_arithmetic == (operator.add, operator.mul, None)
    assert PrimeField(7).raw_arithmetic == (operator.add, operator.mul, 7)
    F16 = finite_field(2, 4)
    assert F16.raw_arithmetic == (F16.add, F16.mul, None)


# tables and digit arithmetic, p = 2 and odd p: every kind sets its own
# arithmetic tuples
ARITHMETIC_FIELDS = {"Q": (None, None), "F_7": (7, 1), "F_4": (2, 2), "F_16": (2, 4),
                     "F_2^13": (2, 13), "F_3^7": (3, 7), "F_67^2": (67, 2)}


def _field(name):
    p, m = ARITHMETIC_FIELDS[name]
    return rationals() if p is None else finite_field(p, m)


def _element(F, rng):
    if F.order is None:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    return rng.randrange(F.order)


def _row(F, rng, cols=6):
    return {c: _element(F, rng) for c in rng.sample(range(1, 10), cols)}


def _assert_same_span_entrywise(F, got, want):
    """got is want over a finite field; over Q, an integer row proportional
    to it."""
    want = {i: x for i, x in want.items() if not F.is_zero(x)}
    assert set(got) == set(want)
    if F.order is not None:
        assert got == want
    elif got:
        i = min(got)
        ratio = Fraction(got[i]) / want[i]
        assert ratio and all(isinstance(x, int) and x == ratio * want[j]
                             for j, x in got.items())


@pytest.mark.parametrize("name", sorted(ARITHMETIC_FIELDS))
def test_each_field_kind_sets_arithmetics_that_agree_with_its_methods(name):
    F = _field(name)
    rng = random.Random(name)
    add, mul, modulus = F.raw_arithmetic
    assert (modulus is None) == (F.m != 1)
    entry, unit, clear = F.row_arithmetic
    assert (unit is None) == (F.order is None)
    for _ in range(40):
        pairs = [(_element(F, rng), _element(F, rng)) for _ in range(rng.randint(1, 6))]
        raw = reduce(add, (mul(a, b) for a, b in pairs), F.zero())
        exact = reduce(F.add, (F.mul(a, b) for a, b in pairs), F.zero())
        assert (raw if modulus is None else raw % modulus) == exact
        # rows nonzero at their pivot column 0
        v, prow = ({0: F.one(), **_row(F, rng)} for _ in range(2))
        v_row = entry(v)
        _assert_same_span_entrywise(F, v_row, v)
        if unit is not None:
            lead = F.inv(v_row[0])
            assert unit(dict(v_row), 0) == {i: F.mul(lead, x) for i, x in v_row.items()}
        stored = entry(prow) if unit is None else unit(entry(prow), 0)
        # over Q the rows hold integers, which Fraction reads exactly
        lift = Fraction if F.order is None else (lambda x: x)
        x = F.mul(lift(v_row[0]), F.inv(lift(stored[0])))
        want = {i: F.sub(lift(v_row.get(i, 0)), F.mul(x, lift(stored.get(i, 0))))
                for i in set(v_row) | set(stored)}
        assert F.is_zero(want.pop(0))
        _assert_same_span_entrywise(F, clear(dict(v_row), stored, 0), want)


# every module but the one that defines the field kinds: the parser and
# the printers read a field's description (order, minpoly), not its class
FIELD_BLIND_MODULES = sorted(
    path.stem for path in Path(exactcore.__file__).parent.glob("*.py")
    if path.stem != "exactcore")


@pytest.mark.parametrize("module", FIELD_BLIND_MODULES)
def test_only_exactcore_chooses_raw_arithmetic(module):
    # these modules take their arithmetics, extensions, embeddings and
    # orders from the Field interface: they name no field kind (the Field
    # interface they annotate with is not one), so they import none and
    # test none
    path = Path(exactcore.__file__).with_name(f"{module}.py")
    tree = ast.parse(path.read_text())
    classes = {name for name, obj in vars(exactcore).items()
               if isinstance(obj, type) and issubclass(obj, Field) and obj is not Field}
    assert classes >= {"RationalField", "PrimeField", "ExtensionField"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert not classes & {a.name for a in node.names}, node.lineno
        if isinstance(node, ast.Name):
            assert node.id not in classes, node.lineno


@pytest.mark.parametrize("module", FIELD_BLIND_MODULES)
def test_only_exactcore_constructs_fields(module):
    # every field comes from finite_field or rationals(), so each is built once
    path = Path(exactcore.__file__).with_name(f"{module}.py")
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            assert name not in ("RationalField", "PrimeField", "ExtensionField"), node.lineno


def _reference_embed_scalar(src, dst, root, c):
    """Image of c under the embedding sending the source generator to root."""
    if isinstance(src, PrimeField):
        return dst.from_int(c)
    out = dst.zero()
    for coeff in reversed(src.coeffs(c)):
        out = dst.add(dst.mul(out, root), dst.from_int(coeff))
    return out


def _reference_embedding_root(src, dst):
    """First root (in element-encoding order) of the source minimal polynomial
    inside the destination field; defines the canonical embedding.

    The roots lie in the subfield of order p^m, whose nonzero elements are
    the powers of beta = gamma^((q-1)/(p^m-1)) for a primitive gamma of the
    destination; they are the m Frobenius conjugates r^(p^i) of any one root.
    """
    if isinstance(src, PrimeField):
        return dst.one()
    mp = src.minpoly

    def value(x):
        acc = dst.zero()
        for coeff in reversed(mp):
            acc = dst.add(dst.mul(acc, x), dst.from_int(coeff))
        return acc

    beta = dst.pow(dst.primitive_element(), (dst.order - 1) // (src.order - 1))
    x = dst.one()
    for _ in range(src.order - 1):
        if dst.is_zero(value(x)):
            conjugates = [x]
            for _ in range(src.m - 1):
                conjugates.append(dst.pow(conjugates[-1], src.p))
            return min(conjugates)
        x = dst.mul(x, beta)
    raise FieldError("minimal polynomial has no root in the target field")


def _embedding_pairs():
    # every (source, destination) pair of table-sized fields with m | n, one
    # pair in digit arithmetic, and a source with a minimal polynomial other
    # than the canonical one
    pairs = [(finite_field(p, m), finite_field(p, n))
             for p in range(2, 65) if exactcore._is_prime(p)
             for n in range(2, 13) if p**n <= TABLE_MAX_ORDER
             for m in range(1, n + 1) if n % m == 0]
    pairs.append((finite_field(3, 4), finite_field(3, 8)))
    pairs.append((ExtensionField(2, 4, (1, 0, 0, 1, 1)), finite_field(2, 8)))
    return pairs


def test_embedding_matches_the_reference_on_every_element():
    rng = random.Random(20260814)
    pairs = _embedding_pairs()
    assert len(pairs) > 90
    for src, dst in pairs:
        emb = src.embedding(dst)
        root = _reference_embedding_root(src, dst)
        assert [emb(c) for c in range(src.order)] == \
            [_reference_embed_scalar(src, dst, root, c) for c in range(src.order)], (src, dst)
        for _ in range(20):
            a, b = rng.randrange(src.order), rng.randrange(src.order)
            assert emb(src.add(a, b)) == dst.add(emb(a), emb(b)), (src, dst, a, b)
            assert emb(src.mul(a, b)) == dst.mul(emb(a), emb(b)), (src, dst, a, b)


def test_extension_names_the_field_of_degree_k_over_this_one():
    Q, F3, F4 = rationals(), finite_field(3, 1), finite_field(2, 2)
    assert F4.extension(2) is finite_field(2, 4)
    assert F3.extension(2) is finite_field(3, 2)
    assert Q.extension(1) is Q and F3.extension(1) is F3 and F4.extension(1) is F4
    # a field with its own minimal polynomial is its own extension of degree 1
    G = ExtensionField(2, 4, (1, 0, 0, 1, 1))
    assert G.extension(1) is G and G.extension(2) is finite_field(2, 8)
    with pytest.raises(FieldError, match="base change along extensions of Q is out of scope"):
        Q.extension(2)
    assert (Q.order, F3.order, F4.order) == (None, 3, 4)


@pytest.mark.parametrize("k", [0, -2, 2.0, "2", None])
def test_extension_refuses_a_degree_that_is_not_a_positive_int(k):
    for f in (rationals(), PrimeField(3), finite_field(2, 2)):
        with pytest.raises(FieldError, match="positive integer"):
            f.extension(k)


def test_extension_field_f4():
    # F_4 = F_2[a]/(a^2 + a + 1); the generator satisfies a^2 = a + 1.
    F = ExtensionField(2, 2)
    a = F.generator()
    assert F.mul(a, a) == F.add(a, F.one())
    assert F.order == 4


def test_extension_field_every_nonzero_element_invertible():
    F = ExtensionField(3, 2)
    for e in range(F.order):
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
    assert F.order == p ** m
    assert [F.coeffs(c) for c in range(F.order)] == R.elements()
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


@pytest.mark.parametrize("p,m", [(2, 2), (2, 4), (3, 3), (7, 2)])
def test_digit_products_match_the_log_tables_on_every_pair(p, m):
    # F_4, F_16, F_27 and F_49 keep their log tables; the digit product,
    # packed and (over F_2) unpacked k digits at a time, must agree with them
    F = ExtensionField(p, m)
    assert F.mul == F._mul_log
    for a in range(F.order):
        assert [F._mul_digits(a, b) for b in range(F.order)] == \
            [F._mul_log(a, b) for b in range(F.order)]


# a^32 + a^7 + a^3 + a^2 + 1, the minimal polynomial of the three-exit grammar
F_2_32 = (1, 0, 1, 1, 0, 0, 0, 1) + (0,) * 24 + (1,)


@pytest.mark.parametrize("p,m,minpoly", [(2, 32, F_2_32), (3, 9, None), (67, 2, None),
                                         (65521, 2, None)])
def test_digit_products_match_the_schoolbook_on_large_fields(p, m, minpoly):
    F = finite_field(p, m, minpoly)
    assert F.mul == F._mul_digits and F.order > exactcore.TABLE_MAX_ORDER
    R = TupleField(p, m, F.minpoly)

    def enc(t):
        return sum(c * p ** i for i, c in enumerate(t))

    rng = random.Random(p ** m)
    top = p ** m - 1
    samples = [0, 1, p - 1, p, top, top - 1] + [rng.randrange(p ** m) for _ in range(300)]
    for a, b in zip(samples, samples[1:] + samples[:1]):
        assert F._mul_digits(a, b) == enc(R.mul(R.from_code(a), R.from_code(b))), (a, b)


def test_fields_past_the_chunk_bound_pack_one_digit_without_a_table():
    # a chunk of one digit packs as itself, so a field with p > PACK_CHUNK_MAX
    # keeps no p-entry table
    for p in (257, 32003, 65521):
        F = finite_field(p, 2)
        assert p > exactcore.PACK_CHUNK_MAX and F._chunk == p
        assert F._chunk_packed == range(p)


def test_fields_are_built_once_per_description():
    mp = canonical_minpoly(2, 4)
    assert finite_field(2, 4, mp) is finite_field(2, 4, list(mp)) is finite_field(2, 4)
    assert finite_field(3, 1) is finite_field(3, 1)
    # a minimal polynomial given in other residues names the same field
    assert finite_field(3, 2, (4, 0, -2)) is finite_field(3, 2, (1, 0, 1))


def test_a_second_spelling_of_a_field_builds_no_field(monkeypatch):
    # from an empty cache, F_4 named by its minimal polynomial and then by
    # default: the second call resolves the canonical minimal polynomial,
    # finds the key and builds nothing, so no discarded field is left as
    # cyclic garbage
    monkeypatch.setattr(exactcore, "_FIELDS", {})
    built = []
    init_digits = ExtensionField._init_digits
    monkeypatch.setattr(ExtensionField, "_init_digits",
                        lambda self: built.append(self) or init_digits(self))
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        F = finite_field(2, 2, (1, 1, 1))
        assert len(built) == 1
        built.clear()
        assert finite_field(2, 2) is F and finite_field(2, 2, [1, 1, 1]) is F
        assert built == []
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


# x^32 + x^7 + x^3 + x^2 + 1, irreducible over F_2
F2_32_MINPOLY = (1, 0, 1, 1, 0, 0, 0, 1) + (0,) * 24 + (1,)


def test_extension_fields_up_to_the_order_bound_build():
    assert finite_field(2, 32, F2_32_MINPOLY).order == exactcore.EXTENSION_MAX_ORDER
    assert finite_field(65521, 2).order <= exactcore.EXTENSION_MAX_ORDER


@pytest.mark.parametrize("p,m,minpoly", [
    (3, 128, None), (2**61 - 1, 64, None), (65537, 2, None), (2, 33, None),
    (2, 1000, (1, 1) + (0,) * 998 + (1,)), (2, 10**12, None)])
def test_extension_fields_past_the_order_bound_are_refused_at_once(p, m, minpoly):
    # neither the canonical search nor Rabin's test runs
    start = time.process_time()
    with pytest.raises(FieldError, match=rf"^F_{p}\^{m} has more than 4294967296 elements$"):
        finite_field(p, m, minpoly)
    assert time.process_time() - start < 0.5


def _irreducible_by_trial_division(poly, p):
    deg = len(poly) - 1
    return deg >= 1 and all(_fp_mod(poly, cand, p)
                            for d in range(1, deg // 2 + 1)
                            for cand in _fp_monic_polys(d, p))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rabin_test_agrees_with_trial_division(p):
    for m in range(1, 5):
        first = None
        for poly in _fp_monic_polys(m, p):
            expected = _irreducible_by_trial_division(poly, p)
            assert _fp_is_irreducible(poly, p) == expected, poly
            if expected and first is None:
                first = tuple(poly)
        assert canonical_minpoly(p, m) == first


# canonical minimal polynomials as the Rabin test without its early reject
# of polynomials with a root chose them
CANONICAL_MINPOLYS = {
    (2, 1): (0, 1), (2, 2): (1, 1, 1), (2, 3): (1, 1, 0, 1), (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1), (2, 6): (1, 1, 0, 0, 0, 0, 1), (3, 1): (0, 1),
    (3, 2): (1, 0, 1), (3, 3): (1, 2, 0, 1), (3, 4): (2, 1, 0, 0, 1),
    (3, 5): (1, 2, 0, 0, 0, 1), (3, 6): (2, 1, 0, 0, 0, 0, 1), (5, 1): (0, 1),
    (5, 2): (2, 0, 1), (5, 3): (1, 1, 0, 1), (5, 4): (2, 0, 0, 0, 1),
    (5, 5): (1, 4, 0, 0, 0, 1), (5, 6): (2, 1, 0, 0, 0, 0, 1), (7, 1): (0, 1),
    (7, 2): (1, 0, 1), (7, 3): (2, 0, 0, 1), (7, 4): (1, 1, 0, 0, 1),
    (7, 5): (3, 1, 0, 0, 0, 1), (7, 6): (2, 0, 0, 0, 0, 0, 1), (11, 1): (0, 1),
    (11, 2): (1, 0, 1), (11, 3): (4, 1, 0, 1), (11, 4): (2, 1, 0, 0, 1),
    (11, 5): (2, 0, 0, 0, 0, 1), (13, 1): (0, 1), (13, 2): (2, 0, 1),
    (13, 3): (2, 0, 0, 1), (13, 4): (2, 0, 0, 0, 1), (13, 5): (2, 4, 0, 0, 0, 1),
    (101, 3): (1, 1, 0, 1), (1613, 2): (2, 0, 1), (1613, 3): (1, 1, 0, 1),
    (32003, 2): (1, 0, 1)}


def test_canonical_minpolys_are_pinned():
    for (p, m), mp in CANONICAL_MINPOLYS.items():
        assert canonical_minpoly(p, m) == mp, (p, m)


@pytest.mark.parametrize("poly,p,powers", [
    ((1, 0, 0, 1), 2, 1),          # x^3 + 1 = (x + 1)(x^2 + x + 1)
    ((0, 1, 0, 0, 1), 3, 1),       # x^4 + x: root 0
    ((1, 0, 1, 0, 1), 2, 4),       # (x^2 + x + 1)^2, no root: every power
    ((1, 1, 0, 1), 2, 3),          # irreducible: every power
])
def test_a_root_rejects_after_one_frobenius_power(monkeypatch, poly, p, powers):
    calls = []
    powmod = exactcore._fp_powmod
    monkeypatch.setattr(exactcore, "_fp_powmod", lambda *a: calls.append(a) or powmod(*a))
    assert _fp_is_irreducible(poly, p) == _irreducible_by_trial_division(list(poly), p)
    assert len(calls) == powers


def test_canonical_minpoly_is_deterministic_and_irreducible():
    assert canonical_minpoly(2, 2) == canonical_minpoly(2, 2)
    # degree-m monic with no roots in the prime field for m = 2, 3
    for p, m in [(2, 2), (2, 3), (3, 2), (5, 2)]:
        mp = canonical_minpoly(p, m)
        assert len(mp) == m + 1 and mp[-1] == 1
        for r in range(p):
            val = sum(c * pow(r, i, p) for i, c in enumerate(mp)) % p
            assert val != 0


def test_a_fresh_field_tests_each_polynomial_once(monkeypatch):
    # the search for the canonical minimal polynomial proves the one it
    # returns irreducible, so the field built on it does not test it again;
    # a given minimal polynomial is tested once
    tested = []

    def counting(poly, p):
        tested.append(tuple(poly))
        return _fp_is_irreducible(poly, p)

    monkeypatch.setattr(exactcore, "_fp_is_irreducible", counting)
    F = ExtensionField(2, 8)
    assert tested[-1] == F.minpoly and len(set(tested)) == len(tested)
    tested.clear()
    assert ExtensionField(2, 8, F.minpoly) == F and tested == [F.minpoly]


def test_a_field_is_its_own_description():
    Q, F, G = rationals(), finite_field(5, 1), finite_field(2, 4)
    assert isinstance(F, PrimeField) and F.p == 5
    assert [(f.p, f.m, f.characteristic, f.label(), f.key) for f in (Q, F, G)] == [
        (None, None, 0, "Q", ()), (5, 1, 5, "F_5", (5,)),
        (2, 4, 2, "F_2^4", (2, 4, canonical_minpoly(2, 4)))]
    # the minimal polynomial is part of the description, the third entry of
    # an extension field's key, and no other field has one
    assert [(f.order, f.minpoly) for f in (Q, F, G)] == [
        (None, None), (5, None), (16, G.key[2])]
    # fields are equal, and hash alike, exactly when their keys are
    assert PrimeField(5) == F and hash(PrimeField(5)) == hash(F) and F != Q
    H = ExtensionField(2, 4, (1, 0, 0, 1, 1))
    assert H != G and H.label() == G.label() and H == finite_field(2, 4, H.minpoly)


def test_rref_known_matrix_over_q():
    F = rationals()
    rows = [{0: Fraction(1), 1: Fraction(2), 2: Fraction(3)},
            {0: Fraction(2), 1: Fraction(4), 2: Fraction(6)},
            {1: Fraction(1), 2: Fraction(1)}]
    M = ExactMatrix(F, rows, 3)
    res = M.rref()
    assert len(res) == 2
    assert list(res) == [0, 1]
    assert list(res.values()) == [{0: 1, 2: 1}, {1: 1, 2: 1}]


def _sparse_rows(F, rows):
    """The adapter from dense test rows to ExactMatrix's row form: each row
    as the dict of its nonzero entries."""
    return [{c: x for c, x in enumerate(r) if not F.is_zero(x)} for r in rows]


def _dense_row(F, row, n):
    return [row.get(c, F.zero()) for c in range(n)]


def _free_columns(red, n):
    """The columns below n that are no pivot of the pivot -> row dict red."""
    return [c for c in range(n) if c not in red]


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
    """Reference RREF: dense Gauss-Jordan in the field's own arithmetic, as
    pivot -> dense row in ascending pivot order."""
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
    return dict(zip(pivots, rows[:piv_r]))


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
    assert list(got) == list(want)
    assert [_dense_row(F, r, n) for r in got.values()] == list(want.values())
    assert not any(F.is_zero(x) for r in got.values() for x in r.values())
    assert all(c < n for r in got.values() for c in r)
    _assert_value_types(F, got.values())


def _echelon_rref(F, rows, n):
    """The engine's RREF, fed the nonzero entries of each row and densified,
    as pivot -> dense row."""
    ech = Echelon(F)
    for row in rows:
        ech.add({c: x for c, x in enumerate(row) if not F.is_zero(x)})
    red = ech.reduced()
    assert list(red) == sorted(red)
    out = {}
    for pc, entries in red.items():
        assert entries[pc] == F.one()
        assert not any(F.is_zero(x) for x in entries.values())
        dense = [F.zero()] * n
        for c, x in entries.items():
            dense[c] = x
        out[pc] = dense
    return out


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
            assert list(got.items()) == list(want.items())
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
    return (st.sampled_from(range(F.order)),
            lambda x, k, y: F.add(x, F.mul(F.from_int(k), y)))


@pytest.mark.parametrize("name", sorted(ENGINE_FIELDS))
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_echelon_engine_matches_dense_reference(name, data):
    F = ENGINE_FIELDS[name]
    rows, n = data.draw(_dependent_rows(*_engine_entries(F)))
    want = _dense_rref(F, rows, n)
    got = _echelon_rref(F, rows, n)
    assert list(got) == list(want)
    assert list(got.values()) == list(want.values())
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
    assert m.rank() == len(m.rref()) == len(_dense_rref(F, rows, n))


@pytest.mark.parametrize("name", ["F_4", "F_9"])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_sparse_kernel_is_read_from_the_reduced_rows(name, data):
    F = ENGINE_FIELDS[name]
    rows, n = data.draw(_dependent_rows(*_engine_entries(F)))
    red = _dense_rref(F, rows, n)
    ker = ExactMatrix(F, _sparse_rows(F, rows), n).kernel_basis()
    assert len(ker) == n - len(red)
    for v, free in zip(ker, _free_columns(red, n)):
        assert v[free] == F.one()
        assert not any(F.is_zero(x) for x in v.values())
        assert set(v) <= set(red) | {free}
        for pc, row in red.items():
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


def _reference_kernel(F, red, n):
    """The canonical kernel basis read off a dense reference RREF of n
    columns."""
    basis = []
    for free in _free_columns(red, n):
        v = {free: F.one()}
        for pc, row in red.items():
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
    # generator, seeded by a single draw, makes the per-entry choices, which
    # a 40-column matrix has too many of to draw one by one
    rnd = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    sparse_rows = []
    for r in rows:
        items = [(c, x) for c, x in enumerate(r)
                 if not F.is_zero(x) or rnd.random() < 0.5]
        rnd.shuffle(items)
        sparse_rows.append(dict(items))
    for _ in range(data.draw(st.integers(0, 2))):
        sparse_rows.insert(data.draw(st.integers(0, len(sparse_rows))), {})
    M = ExactMatrix(F, sparse_rows, n)
    assert M.rank() == len(want)
    got = M.rref()
    assert list(got) == list(want)
    assert [_dense_row(F, r, n) for r in got.values()] == list(want.values())
    for pc, row in got.items():
        assert row[pc] == F.one()
        assert not any(F.is_zero(x) for x in row.values())
    _assert_value_types(F, got.values())
    assert M.kernel_basis() == _reference_kernel(F, want, n)


# -- rows in row form: converted once by their caller, then shifted and
# truncated, and handed to Echelon.insert, they give the RREF of the raw
# rows they came from


def _inserted(F, rows):
    """An echelon holding rows, each a row in row form handed to insert."""
    ech = Echelon(F)
    for row in rows:
        ech.insert(row)
    return ech


@pytest.mark.parametrize("name", sorted(CONTRACT_FIELDS))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_row_form_rows_match_the_raw_rows_they_came_from(name, data):
    F = CONTRACT_FIELDS[name]
    entry = F.row_arithmetic[0]
    rows, n = data.draw(_any_rows(F))
    # each row converted as a whole, then truncated: over Q its content
    # may then exceed 1
    rnd = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    raw, entered = [], []
    for r in _sparse_rows(F, rows):
        keep = {c for c in r if rnd.random() < 0.8}
        raw.append({c: x for c, x in r.items() if c in keep})
        entered.append({c: x for c, x in entry(r).items() if c in keep})
    ech = _inserted(F, entered)
    held = {c: dict(v) for c, v in ech.rows.items()}
    want = ExactMatrix(F, raw, n).rref()
    assert len(ech.rows) == len(want)
    for _ in range(2):
        got = ech.reduced()
        assert list(got.items()) == list(want.items())
        assert ech.rows == held
    _assert_value_types(F, list(got.values()))


def test_row_form_rows_of_content_above_one_over_q():
    Q = rationals()
    entry = Q.row_arithmetic[0]
    g = entry({0: Fraction(1, 2), 1: Fraction(1, 3), 2: Fraction(-5, 6)})
    assert g == {0: 3, 1: 2, 2: -5}
    # the truncations {0: 3, 2: -5} and {0: 3}, the latter of content 3
    rows = [{c: x for c, x in g.items() if c != 1}, {0: g[0]}, {1: 4, 2: 6}]
    ech = _inserted(Q, rows)
    red = ech.reduced()
    assert list(red) == [0, 1, 2] and len(ech.rows) == 3
    assert list(red.values()) == [{0: 1}, {1: 1}, {2: 1}] == list(ech.reduced().values())
    # each pivot entry is the field's one object
    assert all(row[pc] is Q.one() for pc, row in red.items())
    ech = Echelon(Q)
    assert ech.insert({0: 6, 3: 4}) and ech.rows == {0: {0: 6, 3: 4}}
    assert ech.reduced() == {0: {0: 1, 3: Fraction(2, 3)}}
    assert ech.eliminate({0: 3, 3: 2}) == ({}, None)
    assert ech.reduce({0: Fraction(3, 5), 3: Fraction(2, 5)}) == ({}, None)


def test_sparse_rows_edge_forms():
    # no rows, only empty rows, and a row of explicit zeros, in every field
    for F in CONTRACT_FIELDS.values():
        z, one = F.zero(), F.one()
        for rows in ([], [{}], [{}, {}], [{2: z, 0: z}]):
            M = ExactMatrix(F, rows, 3)
            assert M.rank() == 0
            assert M.rref() == {}
            assert M.kernel_basis() == [{0: one}, {1: one}, {2: one}]
        # keys in descending order, a zero among them, an empty row between
        M = ExactMatrix(F, [{2: one, 1: z, 0: one}, {}, {2: one}], 3)
        assert M.rank() == 2
        assert list(M.rref().values()) == [{0: one}, {2: one}]
        assert M.kernel_basis() == [{1: one}]
