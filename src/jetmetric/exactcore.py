"""Exact scalars and exact linear algebra.

Three coefficient fields are supported: the rationals, prime fields F_p and
extension fields F_{p^m} given by an irreducible monic minimal polynomial.
Field elements are plain Python values operated on through a :class:`Field`
object, so hot loops never pay for per-element wrappers: ``Fraction`` over Q,
``int`` residues over F_p, and over F_{p^m} the ``int`` code
c_0 + c_1 p + ... + c_{m-1} p^{m-1} of c_0 + c_1 a + ... + c_{m-1} a^{m-1}.
Extension fields of at most TABLE_MAX_ORDER elements compute through
log/antilog and Zech tables built once per field; larger ones through
base-p digit arithmetic.  A field is its own description (its ``p``, ``m``,
``order``, ``minpoly`` and :meth:`Field.label`; it compares and hashes on its
``key``), and :func:`finite_field` builds each finite field once.  Sums of
products normalized once at the end (products and maps of algebra elements,
resolution product rows) take their arithmetic from one place,
:attr:`Field.raw_arithmetic`: native ``+`` and ``*`` over Q and over F_p
(unreduced, one ``% p`` per sum), the field's own ``add`` and ``mul`` for
every other kind.

A field owns its extensions, its embeddings and both of its arithmetics,
each chosen by its class (:meth:`Field.extension`, :meth:`Field.embedding`,
:attr:`Field.raw_arithmetic`, :attr:`Field.row_arithmetic`), so no module
but this one knows a field's kind: the others extend scalars and compute
through these, and parse and print through the description.

Row reduction returns the reduced row echelon form, with pivots the leftmost
nonzero columns, so every echelon form (and therefore every quotient basis
built on top of it) is canonical and reproducible.  Matrix rows go in and
come out in one form, a sparse dict {column: value}: callers hand over the
entries they hold, and reduced rows and kernel vectors carry their nonzero
entries only.  This module is the only one that row-reduces, with one
engine, :class:`Echelon`: one forward loop that takes a row's smallest
column as its pivot, so an elimination touches only the nonzero entries,
one back-substitution, and one division pass, whose normal forms every
reduced output reads: the normal forms of a truncated quotient, the reduced
rows of :meth:`Echelon.reduced` (which :meth:`ExactMatrix.rref` returns) and
the kernel basis.  The field picks only its row arithmetic: sparse
integer rows {column: int} over Q (fraction-free, one division per entry
at the end) and over F_p (residues with a unit pivot), the field's own
arithmetic on codes over F_{p^m}.  A row enters that form through the
field's row ``entry`` once: a caller that builds many rows from one
polynomial (the Macaulay rows of a generator) converts its coefficients
once and hands the rows over in row form to :meth:`Echelon.insert`; every
other row, an :class:`ExactMatrix` row among them, is converted as it
enters.  :func:`rank_gf2` ranks F_2 rows held as bitmasks; no routine of
the package calls it (every rank, over F_2 too, is an :class:`Echelon`'s),
and it stays only because the benchmark's tracer wraps it.  No floating
point anywhere.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Sequence

from .errors import FieldError

# Miller-Rabin with the prime bases up to 41 is exact below this bound
# (Sorenson and Webster, 2015); larger characteristics are refused.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_CHARACTERISTIC = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; FieldError at or above MAX_CHARACTERISTIC."""
    if n >= MAX_CHARACTERISTIC:
        raise FieldError(f"characteristic {n} is not below {MAX_CHARACTERISTIC}, "
                         "where primality is decided exactly")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# -- dense F_p[x] helpers for minimal polynomials (coefficient lists, low first)


def _fp_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _fp_mul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _fp_trim(out)


def _fp_sub(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    n = max(len(a), len(b))
    out = [0] * n
    for i in range(n):
        x = a[i] if i < len(a) else 0
        y = b[i] if i < len(b) else 0
        out[i] = (x - y) % p
    return _fp_trim(out)


def _fp_divmod(a: Sequence[int], b: Sequence[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder in F_p[x]; b need not be monic."""
    r = _fp_trim(list(a))
    db = len(b) - 1
    inv_lead = pow(b[-1], p - 2, p)
    q = [0] * max(len(r) - db, 1)
    while r and len(r) - 1 >= db:
        coef = (r[-1] * inv_lead) % p
        shift = len(r) - 1 - db
        q[shift] = coef
        if coef:
            for i in range(db + 1):
                r[shift + i] = (r[shift + i] - coef * b[i]) % p
        r.pop()
        _fp_trim(r)
    return _fp_trim(q), r


def _fp_mod(a: Sequence[int], mod: Sequence[int], p: int) -> list[int]:
    return _fp_divmod(a, mod, p)[1]


def _digits(code: int, p: int, m: int) -> list[int]:
    """Base-p digits of code, least significant first, padded to length m."""
    out = []
    for _ in range(m):
        code, r = divmod(code, p)
        out.append(r)
    return out


def _a_term(i: int, c: int) -> str:
    pw = "a" if i == 1 else f"a^{i}"
    return str(c) if i == 0 else pw if c == 1 else f"{c}*{pw}"


def a_terms(coeffs: Sequence[int]) -> list[str]:
    """The nonzero terms c*a^i of the polynomial in a with the given
    coefficients (constant first), as text in ascending degree."""
    return [_a_term(i, c) for i, c in enumerate(coeffs) if c]


def _fp_monic_polys(deg: int, p: int) -> Iterable[list[int]]:
    # all monic polynomials of the given degree, in integer-encoding order of
    # the low coefficients (c_0 least significant)
    for code in range(p**deg):
        yield _digits(code, p, deg) + [1]


def _fp_powmod(base: Sequence[int], e: int, mod: Sequence[int], p: int) -> list[int]:
    out, base = [1], _fp_mod(base, mod, p)
    while e:
        if e & 1:
            out = _fp_mod(_fp_mul(out, base, p), mod, p)
        e >>= 1
        if e:
            base = _fp_mod(_fp_mul(base, base, p), mod, p)
    return out


def _fp_gcd(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    a, b = _fp_trim(list(a)), _fp_trim(list(b))
    while b:
        a, b = b, _fp_mod(a, b, p)
    return a


def _prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


def _fp_is_irreducible(poly: Sequence[int], p: int) -> bool:
    """Rabin's test for a monic f of degree m: x^(p^m) = x mod f, and
    gcd(x^(p^(m/r)) - x, f) = 1 for every prime r dividing m.  A root in
    F_p, a common factor of x^p - x and f, rejects an f of degree 2 or more
    before the higher Frobenius powers are formed."""
    f = _fp_trim(list(poly))
    deg = len(f) - 1
    if deg < 1:
        return False
    frob = [[0, 1], _fp_powmod([0, 1], p, f, p)]    # frob[k] = x^(p^k) mod f
    if deg > 1 and len(_fp_gcd(f, _fp_sub(frob[1], [0, 1], p), p)) > 1:
        return False
    for _ in range(deg - 1):
        frob.append(_fp_powmod(frob[-1], p, f, p))
    if _fp_mod(_fp_sub(frob[deg], [0, 1], p), f, p):
        return False
    return all(len(_fp_gcd(f, _fp_sub(frob[deg // r], [0, 1], p), p)) == 1
               for r in _prime_factors(deg))


def _degree(k) -> int:
    """k, an extension degree: FieldError unless it is a positive int."""
    if not isinstance(k, int) or k < 1:
        raise FieldError(f"extension degree must be a positive integer, got {k!r}")
    return k


def canonical_minpoly(p: int, m: int) -> tuple[int, ...]:
    """First irreducible monic polynomial of degree m over F_p, by integer
    encoding.  Not cached: the field built with it keeps it, and
    :func:`finite_field` keeps that field."""
    for cand in _fp_monic_polys(m, p):
        if _fp_is_irreducible(cand, p):
            return tuple(cand)
    raise FieldError(f"no irreducible polynomial of degree {m} over F_{p}")  # pragma: no cover


# ---------------------------------------------------------------------------
# fields, and the row arithmetics of Field.row_arithmetic


def _int_row(row: dict) -> dict:
    """The sparse integer row {column: int} with the span of a row over Q:
    denominators cleared, content divided out, nonzero entries only (empty
    for a zero row)."""
    nz = {c: a for c, a in row.items() if a}
    if not nz:
        return nz
    den = lcm(*[a.denominator for a in nz.values()])
    out = {c: a.numerator * (den // a.denominator) for c, a in nz.items()}
    g = gcd(*out.values())
    return {c: x // g for c, x in out.items()} if g > 1 else out


def _clear(v: dict, prow: dict, col) -> dict:
    """v cleared at col by the pivot row prow, both sparse integer rows over
    Q: the fraction-free combination (lead/g)*v - (x/g)*prow, with
    g = gcd(lead, x), divided by its content."""
    x, lead = v[col], prow[col]
    g = gcd(lead, x)
    a, b = lead // g, x // g
    if a != 1:
        v = {i: a * y for i, y in v.items()}
    for i, y in prow.items():
        z = v.get(i, 0) - b * y
        if z:
            v[i] = z
        else:
            del v[i]
    g = gcd(*v.values())
    return {i: y // g for i, y in v.items()} if g > 1 else v


def _residue_arithmetic(p: int) -> tuple:
    """Sparse integer rows over F_p: residues in [0, p), v - x*prow in place."""

    def entry(row: dict) -> dict:
        return {c: r for c, a in row.items() if (r := a % p)}

    def unit(v: dict, col) -> dict:
        inv = pow(v[col], -1, p)
        return {i: x * inv % p for i, x in v.items()}

    def clear(v: dict, prow: dict, col) -> dict:
        x = v[col]
        for i, y in prow.items():
            z = (v.get(i, 0) - x * y) % p
            if z:
                v[i] = z
            else:
                del v[i]
        return v

    return entry, unit, clear


def _code_arithmetic(sub, mul, inv) -> tuple:
    """Rows of values whose zero is falsy, as the F_{p^m} code 0 is, in the
    field's arithmetic: v - x*prow in place."""

    def entry(row: dict) -> dict:
        return {c: x for c, x in row.items() if x}

    def unit(v: dict, col) -> dict:
        a = inv(v[col])
        return {i: mul(a, x) for i, x in v.items()}

    def clear(v: dict, prow: dict, col) -> dict:
        x = v[col]
        for i, y in prow.items():
            z = sub(v.get(i, 0), mul(x, y))
            if z:
                v[i] = z
            else:
                del v[i]
        return v

    return entry, unit, clear


class Field:
    """Arithmetic on raw field-element values; subclasses fix the representation.

    A field is its own description: p and m are None over Q, p and 1 over
    F_p; minpoly is None over Q and F_p and, over F_{p^m}, the coefficient
    tuple (c_0, ..., c_{m-1}, 1) of the monic minimal polynomial.  Fields
    compare and hash on their key, () for Q, (p,) for F_p and (p, m, minpoly)
    for F_{p^m}.

    Each kind sets its own two arithmetics.  row_arithmetic is (entry, unit,
    clear) for the rows of an :class:`Echelon`.  entry(row) is a new row of
    the nonzero entries with the span of row, in row form: integers of
    content 1 over Q, residues in [0, p) over F_p, nonzero codes over
    F_{p^m}.  Its keys may be anything, so a caller can convert a
    polynomial's coefficients once and build many rows from them: a row
    whose keys are moved or some of whose entries are dropped stays in row
    form (over Q its content may then exceed 1, which the elimination
    allows).  unit(v, col) scales v to the entry one at col; it is None
    over Q, whose rows stay fraction-free.  clear(v, prow, col) eliminates v
    at col by the pivot row prow and returns the result, reusing v where it
    can; stored rows are only ever passed as prow.  raw_arithmetic is (add,
    mul, modulus) for sums of products normalized once at the end: a sum is
    taken with add and mul, then reduced mod modulus unless it is None,
    which it is except over F_p.
    """

    p: int | None
    m: int | None
    minpoly: tuple[int, ...] | None = None
    key: tuple
    order: int | None           # the number of elements, None for Q
    row_arithmetic: tuple       # (entry, unit, clear)
    raw_arithmetic: tuple       # (add, mul, modulus)

    # subclasses implement: zero one add sub neg mul inv is_zero from_int to_str extension
    def pow(self, a, e: int):
        """a^e for e >= 0, by repeated squaring."""
        out = self.one()
        while e:
            if e & 1:
                out = self.mul(out, a)
            e >>= 1
            if e:
                a = self.mul(a, a)
        return out

    def embedding(self, dst: Field) -> Callable:
        """The canonical map of this field's values into dst, an extension
        of it: ``dst.from_int``, since the values of Q and of F_p are numbers
        every extension reads as they are."""
        return dst.from_int

    @property
    def characteristic(self) -> int:
        return self.p or 0

    def label(self) -> str:
        if self.p is None:
            return "Q"
        return f"F_{self.p}" if self.m == 1 else f"F_{self.p}^{self.m}"

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:
        return f"Field({self.label()})"


# Fractions are immutable, so every zero and one the rationals hand out can
# be one object each.
_ZERO = Fraction(0)
_ONE = Fraction(1)


class RationalField(Field):
    p = m = order = None
    key = ()

    def zero(self):
        return _ZERO

    def one(self):
        return _ONE

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def is_zero(self, a) -> bool:
        return a == 0

    def from_int(self, n: int):
        return Fraction(n)

    def to_str(self, a) -> str:
        return str(a)

    def extension(self, k: int) -> Field:
        if _degree(k) > 1:
            raise FieldError("base change along extensions of Q is out of scope")
        return self

    # native Fraction + and * are exact: nothing to normalize
    raw_arithmetic = (operator.add, operator.mul, None)
    # fraction-free integer rows, divided by their pivots only in Echelon.reduced
    row_arithmetic = (_int_row, None, _clear)


class _FiniteField(Field):
    """What F_p and F_{p^m} share: an integer n reads as n mod p, and the
    degree-k extension is the field of p^(mk) elements."""

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n: int):
        return n % self.p

    def extension(self, k: int) -> Field:
        return self if _degree(k) == 1 else finite_field(self.p, self.m * k)


class PrimeField(_FiniteField):
    def __init__(self, p: int):
        if not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.p = self.order = p
        self.m = 1
        self.key = (p,)
        # native int + and *, unreduced until one % p per sum
        self.raw_arithmetic = (operator.add, operator.mul, p)
        self.row_arithmetic = _residue_arithmetic(p)

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def to_str(self, a) -> str:
        return str(a % self.p)


# Fields of at most this many elements do their arithmetic through tables
# built once per field: lists of this length (log, Zech) and twice it
# (antilog), filled by one walk over the multiplicative group.  At 2^12
# elements the build takes 20-30 ms on a 2-core Xeon host and the tables
# under 1 MiB.  Larger fields use digit arithmetic on the same codes: there
# a product costs 3-10 us, an odd-characteristic sum 1-2 us and an inverse
# 15-80 us on that host (F_2^13 to F_31^6), against 0.1-0.4 us for each
# through the tables.
TABLE_MAX_ORDER = 1 << 12

# Larger fields pack a code's digits for a product k at a time, through a
# table of the packed form of each of the p^k values of k digits, with p^k at
# most this (k = 8 for p = 2, 5 for p = 3; past p = 16 k = 1, a digit packs
# as itself and no table is built); over F_2 the product is also reduced and
# unpacked k digits at a time.  On the host above a product costs 8.4 us over
# F_2^13 and 17.6 us over F_2^32 a digit at a time, 5.2 and 12.2 us with
# chunked packing alone, and 2.1 and 3.6 us with the F_2 reduction as well;
# over F_3^9 chunked packing takes it from 4.8 to 3.2 us.
PACK_CHUNK_MAX = 1 << 8

# Extension fields of more elements are refused before their minimal
# polynomial is searched for or tested.  The search for the canonical one
# tries candidates in code order and can run through p of them (when no
# binomial is irreducible), Rabin's test of each costing about m^3 log p:
# at most 0.45 s for every p^m up to this bound (the worst, F_1613^3;
# F_2^32 0.33 s) on a 2-core Xeon host, against 11 s for F_32003^4 and
# no end within 100 s for F_3^128.  Rabin's test of a given polynomial
# takes at most 3 ms up to the bound (F_2^32).
EXTENSION_MAX_ORDER = 1 << 32


def _extension_key(p: int, m: int, minpoly: Sequence[int] | None) -> tuple:
    """The key (p, m, minpoly) of F_{p^m}, with the canonical minimal
    polynomial when none is given; FieldError unless p is prime, m at least
    2, the field within the order bound and minpoly monic, irreducible and
    of degree m.  Nothing is built."""
    if not _is_prime(p):
        raise FieldError(f"{p} is not prime")
    if m < 2:
        raise FieldError("extension degree must be at least 2 (use a prime field)")
    # p^m >= 2^m, past the bound for every m beyond its bit length
    if m >= EXTENSION_MAX_ORDER.bit_length() or p**m > EXTENSION_MAX_ORDER:
        raise FieldError(f"F_{p}^{m} has more than {EXTENSION_MAX_ORDER} elements")
    if minpoly is None:
        return (p, m, canonical_minpoly(p, m))      # irreducible by its search
    mp = tuple(c % p for c in minpoly)
    if len(mp) != m + 1 or mp[-1] != 1:
        raise FieldError("minimal polynomial must be monic of degree m")
    if not _fp_is_irreducible(mp, p):
        raise FieldError(f"minimal polynomial {list(mp)} is reducible over F_{p}")
    return (p, m, mp)


class ExtensionField(_FiniteField):
    """F_{p^m} = F_p[a]/(minpoly) with elements as integer codes.

    The element c_0 + c_1 a + ... + c_{m-1} a^{m-1} (0 <= c_i < p) has the
    code c_0 + c_1 p + ... + c_{m-1} p^{m-1}, so the elements are the codes
    ``range(order)`` and an element of the prime subfield is its own ``int``.
    For p = 2, ``add``/``sub``/``neg`` are XOR at every size.  Up to
    TABLE_MAX_ORDER elements, ``mul`` and ``inv`` are log/antilog lookups
    and, for odd p, ``add``/``sub``/``neg`` are Zech-logarithm lookups.
    Larger fields add digit by digit, multiply the digits packed into one
    ``int`` (Kronecker substitution) and invert by extended Euclid.
    """

    def __init__(self, p: int, m: int, minpoly: Sequence[int] | None = None):
        self._build(_extension_key(p, m, minpoly))

    @classmethod
    def _of_key(cls, key: tuple) -> "ExtensionField":
        """The field of a key from :func:`_extension_key`, not checked again."""
        out = cls.__new__(cls)
        out._build(key)
        return out

    def _build(self, key: tuple) -> None:
        p, m, mp = self.key = key
        self.p = p
        self.m = m
        self.minpoly = mp
        self.order = p**m
        self._init_digits()
        self.add, self.sub, self.neg = self._add_digits, self._sub_digits, self._neg_digits
        self.mul, self.inv = self._mul_digits, self._inv_digits
        self.is_zero = operator.not_    # a code is zero exactly when it is 0
        if self.order <= TABLE_MAX_ORDER:
            self._build_tables()        # walks the group with the digit product
            self.add, self.sub, self.neg = self._add_zech, self._sub_zech, self._neg_zech
            self.mul, self.inv = self._mul_log, self._inv_log
        if p == 2:
            self.add = self.sub = operator.xor
            self.neg = _identity
        self.raw_arithmetic = (self.add, self.mul, None)
        self.row_arithmetic = _code_arithmetic(self.sub, self.mul, self.inv)

    def generator(self):
        return self.p

    def coeffs(self, a) -> tuple[int, ...]:
        """The digits (c_0, ..., c_{m-1}) of the element a = sum c_i a^i."""
        return tuple(_digits(a, self.p, self.m))

    def to_str(self, a) -> str:
        return "+".join(a_terms(self.coeffs(a))) or "0"

    def embedding(self, dst: Field) -> Callable:
        """The canonical map into dst = F_{p^n}, m | n: the generator goes to
        the first root (in code order) of the minimal polynomial in dst.  The
        roots lie in the subfield of order p^m, whose nonzero elements are the
        powers of beta = gamma^((q-1)/(p^m-1)) for a primitive gamma of dst;
        they are the m Frobenius conjugates r^(p^i) of any one root."""
        add, mul, from_int = dst.add, dst.mul, dst.from_int

        def horner(digits, x):
            acc = dst.zero()
            for c in reversed(digits):
                acc = add(mul(acc, x), from_int(c))
            return acc

        beta = dst.pow(dst.primitive_element(), (dst.order - 1) // (self.order - 1))
        x = dst.one()
        for _ in range(self.order - 1):
            if dst.is_zero(horner(self.minpoly, x)):
                break
            x = mul(x, beta)
        else:
            raise FieldError("minimal polynomial has no root in the target field")
        root = min(dst.pow(x, self.p ** i) for i in range(self.m))
        return lambda c: horner(self.coeffs(c), root)

    # -- digit arithmetic ---------------------------------------------------

    def _init_digits(self) -> None:
        p, m = self.p, self.m
        self._place = [p**i for i in range(m)]
        # A product is taken on digits packed into slot-bit fields of one int
        # (Kronecker substitution); a slot holds at most (2m-1)(p-1)^2.
        slot = ((2 * m - 1) * (p - 1) ** 2).bit_length()
        self._slot, self._slot_mask = slot, (1 << slot) - 1
        self._low_mask = (1 << (slot * m)) - 1
        # packed digits of a^k mod minpoly for m <= k <= 2m-2, reduced once
        # here so that a product reduces without polynomial division
        self._red = [sum(c << (slot * i) for i, c in
                         enumerate(_fp_mod([0] * k + [1], self.minpoly, p)))
                     for k in range(m, 2 * m - 1)]
        # a code is packed k digits at a time, through the packed form of
        # each of the p^k chunk values (p^k <= PACK_CHUNK_MAX, k <= m); a
        # single digit packs as itself, so k = 1 needs no table
        k = 1
        while k < m and p ** (k + 1) <= PACK_CHUNK_MAX:
            k += 1
        packed = range(p)
        if k > 1:
            packed = [0]
            for c in range(1, p**k):
                packed.append(packed[c // p] << slot | c % p)
        self._chunk, self._chunk_shift, self._chunk_packed = p**k, slot * k, packed
        if p == 2:
            # a digit of a product is the parity of its slot, so the low bits
            # of the slots are reduced and unpacked k at a time: _folds[j]
            # maps k parities of the high digits jk.. to the sum of their
            # reductions, _unpack maps k parities to their k digits
            self._ones = sum(1 << (slot * i) for i in range(m))
            self._unpack = {v: c for c, v in enumerate(packed)}
            self._folds = [{v: sum(self._red[j + i] for i in range(min(k, m - 1 - j))
                                   if c >> i & 1) & self._ones
                            for c, v in enumerate(packed)} for j in range(0, m - 1, k)]

    def _pack(self, a: int) -> int:
        chunk, step, packed = self._chunk, self._chunk_shift, self._chunk_packed
        out = shift = 0
        while a:
            a, c = divmod(a, chunk)
            out |= packed[c] << shift
            shift += step
        return out

    def _add_digits(self, a, b):
        # a + b as integers, less p^(i+1) at every digit position that carries
        p = self.p
        s = a + b
        for w in self._place:
            a, x = divmod(a, p)
            b, y = divmod(b, p)
            if x + y >= p:
                s -= p * w
        return s

    def _sub_digits(self, a, b):
        p = self.p
        s = a - b
        for w in self._place:
            a, x = divmod(a, p)
            b, y = divmod(b, p)
            if x < y:
                s += p * w
        return s

    def _neg_digits(self, a):
        p = self.p
        s = -a
        for w in self._place:
            a, x = divmod(a, p)
            if x:
                s += p * w
        return s

    def _mul_digits(self, a, b):
        if a == 0 or b == 0:
            return 0
        p, slot, mask = self.p, self._slot, self._slot_mask
        prod = self._pack(a) * self._pack(b)
        low, high = prod & self._low_mask, prod >> (slot * self.m)
        if p == 2:
            return self._mul_parities(low, high)
        for red in self._red:
            if not high:
                break
            c = (high & mask) % p
            if c:
                low += c * red
            high >>= slot
        out = 0
        for w in self._place:
            out += (low & mask) % p * w
            low >>= slot
        return out

    def _mul_parities(self, low: int, high: int) -> int:
        """The code of low + high a^m over F_2, from the packed digits of
        both, k digits at a time."""
        ones, step, k = self._ones, self._chunk_shift, self._chunk.bit_length() - 1
        cmask = (1 << step) - 1
        low &= ones
        high &= ones
        for fold in self._folds:
            if not high:
                break
            low ^= fold[high & cmask]
            high >>= step
        out = shift = 0
        while low:
            out |= self._unpack[low & cmask] << shift
            low >>= step
            shift += k
        return out

    def _inv_digits(self, a):
        # extended Euclid in F_p[x] against the minimal polynomial
        p = self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        r0, r1 = list(self.minpoly), _fp_trim(_digits(a, p, self.m))
        t0, t1 = [], [1]
        while r1:
            q, r = _fp_divmod(r0, r1, p)
            r0, r1 = r1, r
            t0, t1 = t1, _fp_sub(t0, _fp_mul(q, t1, p), p)
        # r0 is the gcd, a nonzero constant since the minimal polynomial is irreducible
        scale = pow(r0[0], p - 2, p)
        return sum((c * scale) % p * w for c, w in zip(t0, self._place))

    def primitive_element(self) -> int:
        """The smallest code that generates the multiplicative group."""
        n = self.order - 1
        return next(c for c in range(self.p, self.order)
                    if all(self.pow(c, n // r) != 1 for r in _prime_factors(n)))

    # -- table arithmetic --------------------------------------------------

    def _build_tables(self) -> None:
        p, n = self.p, self.order - 1
        g = self.primitive_element()
        exp = [0] * (2 * n)     # doubled so that log a + log b needs no reduction
        log = [0] * (n + 1)
        x = 1
        for k in range(n):
            exp[k] = exp[k + n] = x
            log[x] = k
            x = self.mul(x, g)
        self._n, self._exp, self._log = n, exp, log
        if p != 2:
            # zech[k] = log(1 + g^k), or -1 where 1 + g^k = 0
            plus_one = [c + 1 if c % p != p - 1 else c + 1 - p for c in exp[:n]]
            self._zech = [log[c] if c else -1 for c in plus_one]

    def _mul_log(self, a, b):
        if a == 0 or b == 0:
            return 0
        log = self._log
        return self._exp[log[a] + log[b]]

    def _inv_log(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self._exp[self._n - self._log[a]]

    def _add_zech(self, a, b):
        if a == 0:
            return b
        if b == 0:
            return a
        log = self._log
        la = log[a]
        z = self._zech[log[b] - la]     # a negative index wraps modulo n
        return 0 if z < 0 else self._exp[la + z]

    def _neg_zech(self, a):
        # -1 = g^(n/2)
        return 0 if a == 0 else self._exp[self._log[a] + self._n // 2]

    def _sub_zech(self, a, b):
        return self._add_zech(a, self._neg_zech(b))


def _identity(a):
    return a


_RATIONALS = RationalField()
_FIELDS: dict[tuple, Field] = {}


def rationals() -> RationalField:
    return _RATIONALS


def finite_field(p: int, m: int, minpoly: Sequence[int] | None = None) -> Field:
    """F_{p^m} with the monic minimal polynomial minpoly (coefficients
    c_0, ..., c_m), by default the canonical one; the prime field for m = 1
    with none.  Each field is built once and kept under the arguments that
    named it, an extension field also under its key: its irreducibility
    check and tables cost far more than the arithmetic of a typical caller.
    A new spelling of an extension field resolves its key first (the
    canonical minimal polynomial, or the given one checked) and builds
    nothing when the key is held: a field's bound arithmetic makes it
    cyclic, so a field built and then discarded would stay in memory until
    a collection."""
    args = (p, m, None if minpoly is None else tuple(minpoly))
    got = _FIELDS.get(args)
    if got is None:
        if m == 1 and minpoly is None:
            got = PrimeField(p)             # a prime field has one spelling
        else:
            key = _extension_key(p, m, minpoly)
            got = _FIELDS.get(key)
            if got is None:
                got = _FIELDS[key] = ExtensionField._of_key(key)
        _FIELDS[args] = got
    return got


# ---------------------------------------------------------------------------
# exact matrices


class ExactMatrix:
    """Exact matrix over a :class:`Field` with sparse rows: each row is a
    dict {column: value} of raw values, absent columns zero (explicit zero
    values are allowed, and keys may come in any order).

    A view of one :class:`Echelon` the rows are added to: :meth:`rank` is
    its forward pass alone, :meth:`rref` its :meth:`Echelon.reduced` dict
    and :meth:`kernel_basis` is read off its normal forms.  The rows are
    never changed.
    """

    def __init__(self, field: Field, rows: list[dict], ncols: int):
        self.field = field
        self.rows = rows
        self.ncols = ncols

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def _echelon(self) -> "Echelon":
        ech = Echelon(self.field)
        for row in self.rows:
            ech.add(row)
        return ech

    def rref(self) -> dict[int, dict]:
        """The reduced rows as pivot -> row, :meth:`Echelon.reduced`."""
        return self._echelon().reduced()

    def rank(self) -> int:
        """The rank, from the forward elimination only: no back-substitution,
        and over Q no division by the pivots."""
        return len(self._echelon().rows)

    def kernel_basis(self) -> list[dict]:
        """Canonical kernel basis: per free column, in ascending order, the
        sparse vector {column: value} with the free variable set to 1 and, at
        each pivot, the normal-form entry there (the negated reduced-row
        entry) when it is nonzero."""
        forms = self._echelon()._normal_forms()
        one = self.field.one()
        basis = {free: {free: one} for free in range(self.ncols) if free not in forms}
        for pc, form in forms.items():
            # a normal form's entries lie in free columns
            for c, x in form:
                basis[c][pc] = x
        return list(basis.values())


class Echelon:
    """Sparse incremental row echelon form over a field, for rows given as
    dicts from sortable keys (columns) to coefficients.

    The pivot of a row is its smallest key.  Rows are stored as dicts of
    their nonzero entries, in the field's row form
    (:attr:`Field.row_arithmetic`): sparse integer rows over Q
    (fraction-free; content 1 after an elimination step, possibly above 1
    for a row that entered already in row form) and F_p (residues, pivot
    entry one), element codes over F_{p^m} (pivot entry one).
    :meth:`eliminate` is the one forward loop and inserts nothing; it takes
    a row in row form, which a caller converts once (for example once per
    generator of a Macaulay matrix) and :meth:`reduce` converts per row.
    :meth:`insert` and :meth:`add` are eliminate and reduce plus
    :meth:`store`.  ``_back_substitution`` is the one back-substitution,
    with the same :attr:`clear`, and ``_normal_forms`` the one division
    pass, one division per entry: the negated quotients a truncated
    quotient stores, which :meth:`reduced` negates back beside a one at
    each pivot.  A stored row is never changed, so :meth:`copy` shares
    them.
    """

    def __init__(self, field: Field):
        self.field = field
        self.rows: dict[object, dict] = {}
        self._entry, self._unit, self.clear = field.row_arithmetic

    def reduce(self, v: dict) -> tuple[dict, object]:
        """:meth:`eliminate` of v converted to row form; v is not changed."""
        return self.eliminate(self._entry(v))

    def eliminate(self, v: dict) -> tuple[dict, object]:
        """(remainder, pivot): v, a row in row form that this may change,
        cleared at the stored pivots until its smallest key has no row;
        (empty, None) when v lies in the span."""
        rows, clear = self.rows, self.clear
        while v:
            c = min(v)
            prow = rows.get(c)
            if prow is None:
                return v, c
            v = clear(v, prow, c)
        return v, None

    def store(self, v: dict, c) -> None:
        """Insert a remainder of :meth:`reduce` with its pivot c."""
        if self._unit is not None and v[c] != 1:
            v = self._unit(v, c)
        self.rows[c] = v

    def add(self, v: dict) -> bool:
        """Insert v unless it lies in the span; True when v was inserted."""
        return self.insert(self._entry(v))

    def insert(self, v: dict) -> bool:
        """:meth:`add` of v, a row in row form that this may change."""
        v, c = self.eliminate(v)
        if c is not None:
            self.store(v, c)
        return c is not None

    def copy(self) -> "Echelon":
        """An echelon with the same rows that grows on its own."""
        out = Echelon(self.field)
        out.rows = dict(self.rows)
        return out

    def _back_substitution(self) -> dict[object, dict]:
        """The one back-substitution: pivot -> its row in row form, cleared
        at every other pivot, in descending pivot order."""
        rows, clear = self.rows, self.clear
        done: dict[object, dict] = {}
        for pc in sorted(rows, reverse=True):
            v = rows[pc]
            # the finished rows (pivots above pc) vanish at every other
            # pivot, so clearing one leaves v's entries at the others; a
            # row of its pivot alone is reduced already
            later = [j for j in v if j in done] if len(v) > 1 else ()
            if later:
                v = dict(v)
                for j in later:
                    v = clear(v, done[j], j)
            done[pc] = v
        return done

    def reduced(self) -> dict[object, dict]:
        """The reduced row echelon form as pivot -> row ({key: value} of its
        nonzero field values, one at the pivot, keys ascending), in
        ascending pivot order, each row cleared at every other pivot: the
        field's one at the pivot and the negated normal form off it."""
        one, neg = self.field.one(), self.field.neg
        return {pc: {pc: one, **{c: neg(x) for c, x in form}}
                for pc, form in self._normal_forms().items()}

    def _normal_forms(self) -> dict[object, list]:
        """The one division pass, which every reduced output reads: pivot ->
        the ascending (key, value) pairs of -x/lead for each entry x off the
        pivot lead of its back-substituted row, in ascending pivot order.
        Each value is divided and negated at once: over Q one
        ``Fraction(x, -lead)`` per entry of the fraction-free row."""
        done = self._back_substitution()
        fraction_free, neg = self._unit is None, self.field.neg
        out = {}
        for pc in reversed(done):
            v = done[pc]
            if len(v) == 1:
                out[pc] = []
            elif fraction_free:
                lead = -v[pc]
                out[pc] = [(c, Fraction(v[c], lead)) for c in sorted(v) if c != pc]
            else:
                out[pc] = [(c, neg(v[c])) for c in sorted(v) if c != pc]
        return out


def rank_gf2(rows: Iterable[int]) -> int:
    """Rank of a matrix over F_2 with rows encoded as bitmasks (bit i = column i)."""
    piv: dict[int, int] = {}  # lowest set bit -> reduced row with that pivot
    rank = 0
    for row in rows:
        while row:
            low = row & -row
            b = piv.get(low)
            if b is None:
                piv[low] = row
                rank += 1
                break
            row ^= b
    return rank
