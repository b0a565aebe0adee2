"""Multivariate polynomials, graded-lex monomial order, truncated quotients.

Monomials are exponent tuples.  The graded-lexicographic order (total degree
first, then lex with the first variable largest) is used everywhere a basis or
a pivot choice has to be canonical.  A truncated quotient k[x]/(I + m^n) is
computed from the Macaulay matrix whose rows are the monomial multiples of the
ideal generators truncated below degree n; row reduction pivots on the
grlex-smallest monomial of each row, so an inhomogeneous relation rewrites its
lowest-order term into higher-order ones (the local convention: y^2 - x^3
pivots at y^2 and stores the class of y^2 as x^3).

The Macaulay rows go into one echelon a generator at a time, and a
generator's rows skip every multiplier that is already a pivot of the
earlier generators' rows: such a row lies in the span of those rows and of
the generator's rows with grlex-larger multipliers, so the span, and with it
the unique reduced echelon form, is unchanged.  This is the signature
criterion of Faugere's F5 (ISSAC 2002) on Lazard's Macaulay matrices
(EUROCAL 1983); it drops the Koszul rows g_i * g_j, which would otherwise
each be built and reduced to zero.

This module is the one place monomials are enumerated.  `monomials_of_degree`
is memoized, and every truncated quotient of one shape, a number of
variables and a cap, reads one frame built on first use: the grlex monomials
below the cap, their packed codes with the column of each code, and the
number of them below each degree.  A code is the Kronecker substitution
sum_i e_i B^i with base B = 2*cap - 1, so the code of a product is the sum
of the codes of its factors as long as no digit carries: a Macaulay row
entry is one integer addition and one integer-keyed lookup, and monomials
stay exponent tuples everywhere else.  Frames depend on those two integers
alone, so every jet still builds and eliminates its own Macaulay matrix;
both caches are bounded.  A jet with no generator of order below its cap
has no Macaulay row: it is k[x]/m^cap, whose basis is the frame's
monomials, and it is returned with no elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations_with_replacement
from math import comb
from operator import add, mul
from typing import Sequence

from .errors import CapacityError, ConstantTermError, NonHomogeneousError
from .exactcore import Echelon, ExactMatrix, Field

Monomial = tuple[int, ...]
# an element of a quotient as the ascending list of its nonzero
# (basis index, value) pairs
Sparse = list[tuple[int, object]]

DEFAULT_CAPACITY = 2000
# how many frames and degree lists stay cached; a frame holds at most the
# capacity its cap was checked against
FRAME_CACHE_SIZE = 64


def mono_deg(m: Monomial) -> int:
    return sum(m)


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def grlex_key(m: Monomial):
    """Sort key for ascending graded-lex order (1 first; within a degree,
    lex with the first variable largest, i.e. y < x in k[x,y])."""
    return (sum(m), m)


@lru_cache(maxsize=4 * FRAME_CACHE_SIZE)
def monomials_of_degree(nvars: int, d: int) -> tuple[Monomial, ...]:
    """All exponent tuples of total degree d, in ascending grlex order."""
    if nvars == 0:
        return ((),) if d == 0 else ()
    out = []
    # choose positions via stars and bars; generate then sort for clarity
    for bars in combinations_with_replacement(range(nvars), d):
        e = [0] * nvars
        for b in bars:
            e[b] += 1
        out.append(tuple(e))
    out.sort(key=grlex_key)
    return tuple(out)


def monomials_below(nvars: int, degmax: int) -> tuple[Monomial, ...]:
    """All monomials of degree < degmax, ascending grlex."""
    return tuple(chain.from_iterable(monomials_of_degree(nvars, d) for d in range(degmax)))


def count_monomials_below(nvars: int, degmax: int) -> int:
    # number of monomials of degree < degmax in nvars variables
    if degmax <= 0:
        return 0
    return comb(degmax - 1 + nvars, nvars)


@lru_cache(maxsize=FRAME_CACHE_SIZE)
def _frame(nvars: int, cap: int) -> tuple:
    """The monomial data of the shape (nvars, cap), read by every truncated
    quotient of that shape and never handed out: the monomials below the cap
    in ascending grlex order; the digit weights B^i of their packed codes
    sum_i e_i B^i, B = 2*cap - 1 (1 for caps 0 and 1); the code of each
    monomial and the column of each code; and below[d], the number of them
    of degree < d, for d <= cap."""
    monos = monomials_below(nvars, cap)
    base = max(2 * cap - 1, 1)
    weights = tuple(base ** i for i in range(nvars))
    codes = tuple(sum(map(mul, m, weights)) for m in monos)
    return (monos, weights, codes, {c: i for i, c in enumerate(codes)},
            tuple(count_monomials_below(nvars, d) for d in range(cap + 1)))


class Poly:
    """Sparse polynomial: dict from exponent tuple to raw field value."""

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field: Field, nvars: int, terms: dict[Monomial, object] | None = None):
        self.field = field
        self.nvars = nvars
        self.terms = {m: c for m, c in (terms or {}).items() if not field.is_zero(c)}

    @classmethod
    def zero(cls, field: Field, nvars: int) -> "Poly":
        return cls(field, nvars, {})

    @classmethod
    def constant(cls, field: Field, nvars: int, c) -> "Poly":
        return cls(field, nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, field: Field, nvars: int, i: int) -> "Poly":
        e = [0] * nvars
        e[i] = 1
        return cls(field, nvars, {tuple(e): field.one()})

    def __add__(self, other: "Poly") -> "Poly":
        f = self.field
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = f.add(out[m], c) if m in out else c
        return Poly(f, self.nvars, out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + other.scale(self.field.neg(self.field.one()))

    def __mul__(self, other: "Poly") -> "Poly":
        f = self.field
        out: dict[Monomial, object] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                c = f.mul(c1, c2)
                out[m] = f.add(out[m], c) if m in out else c
        return Poly(f, self.nvars, out)

    def scale(self, c) -> "Poly":
        f = self.field
        return Poly(f, self.nvars, {m: f.mul(c, v) for m, v in self.terms.items()})

    def pow(self, k: int) -> "Poly":
        out = Poly.constant(self.field, self.nvars, self.field.one())
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree (0 for the zero polynomial by convention here)."""
        return max(map(sum, self.terms), default=0)

    def order(self) -> int:
        """Degree of the lowest term (the local 'order'); 0 for zero polynomial."""
        return min(map(sum, self.terms), default=0)

    def is_homogeneous(self) -> bool:
        degs = {mono_deg(m) for m in self.terms}
        return len(degs) <= 1

    def constant_term(self):
        return self.terms.get((0,) * self.nvars, self.field.zero())

    def sorted_terms(self) -> list[tuple[Monomial, object]]:
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]))

    def map_coefficients(self, new_field: Field, fn) -> "Poly":
        return Poly(new_field, self.nvars, {m: fn(c) for m, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (isinstance(other, Poly) and self.field == other.field
                and self.nvars == other.nvars and self.terms == other.terms)

    def __hash__(self):
        return hash((self.field, self.nvars, tuple(self.sorted_terms())))

    def __repr__(self) -> str:
        return f"Poly({self.terms})"


@dataclass
class TruncatedQuotient:
    """Basis data for k[x_1..x_r]/(I + m^cap).

    basis:   the non-pivot monomials of degree < cap, ascending grlex.
    classes: for every pivot monomial, its class as a `Sparse` element over
             `basis`.  Basis monomials reduce to themselves; monomials of
             degree >= cap reduce to zero.
    """

    field: Field
    nvars: int
    cap: int
    basis: list[Monomial]
    classes: dict[Monomial, Sparse]


def truncated_quotient(field: Field, nvars: int, gens: Sequence[Poly], cap: int,
                       capacity: int = DEFAULT_CAPACITY) -> TruncatedQuotient:
    """Compute k[x]/(I + m^cap) by Macaulay-matrix row reduction.

    Rows are truncations of (monomial * generator) for every multiplier
    monomial that can contribute below the cap; the row space is exactly the
    degree-< cap image of I, so the non-pivot monomials form a basis of the
    quotient.  Raises CapacityError before building anything too large.

    The monomials come from the frame of (nvars, cap): the multipliers of a
    generator of order e are its first below[cap - e] monomials, and the
    entry of a term t in the row of a multiplier u sits at the column of
    the code code(t) + code(u), or is dropped when that sum has no column.
    A generator's terms of degree >= cap are dropped before they are coded,
    as every product of theirs lies past the cap.  Every other exponent of
    a term is at most cap - 1 and every exponent of a multiplier at most
    cap - 2 (e >= 1, as no generator has a constant term), so each digit of
    the sum is at most 2*cap - 3, below the base 2*cap - 1: no digit
    carries, the sum is the code of t*u, and it has a column exactly when
    t*u lies below the cap.  (No row exists at caps 0 and 1, whose base is
    1.)  Each generator's coefficients go through the field's row ``entry``
    once (:attr:`Field.row_arithmetic`), and every row of that generator is
    built from them: shifted and truncated, a row stays in row form, so the
    elimination converts no row again.  With no row, no generator has order
    below the cap, and the quotient is k[x]/m^cap: every monomial of the
    frame is a basis monomial and no class is stored, as the elimination
    of no rows would give.  Otherwise each normal-form entry is divided
    once: the echelon's back-substitution leaves its rows fraction-free over
    Q, and each entry x off a pivot becomes -x/lead in one step, where
    dividing and then negating made two values.  A pivot monomial's class
    is those entries at their basis indices, its nonzero values only: no
    dense coordinate vector is built.

    The rows go into one :class:`Echelon` a generator at a time, and the
    rows of g_j skip every multiplier u whose column is a pivot of the
    echelon before g_j's first row (Faugere's F5 signature criterion, ISSAC
    2002, applied to Lazard's Macaulay matrices, EUROCAL 1983).  Such a u is
    the lowest monomial of some h in (g_1, ..., g_{j-1}) below the cap, say
    h = u + sum_{w > u} c_w w, so u*g_j = h*g_j - sum c_w w*g_j mod m^cap.
    There h*g_j lies in the earlier rows' span, and each w*g_j is a row of
    g_j with a grlex-larger multiplier or is zero past the cap; downward
    induction over the finitely many multipliers puts every skipped row in
    the span of the rows entered.  The row space is unchanged, so is its
    unique reduced echelon form, and so are the basis and the normal forms.
    Only the earlier generators' pivots may be used: a pivot of g_j's own
    rows gives no such h.
    """
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    for g in gens:
        if not field.is_zero(g.constant_term()):
            raise ConstantTermError("ideal generator has nonzero constant term")
    n_mono = count_monomials_below(nvars, cap)
    if n_mono > capacity:
        raise CapacityError(n_mono, capacity, f"cap {cap} in {nvars} variables")
    monos, weights, codes, column, below = _frame(nvars, cap)
    get = column.get
    entry = field.row_arithmetic[0]
    ech = Echelon(field)
    insert, pivots = ech.insert, ech.rows
    for g in gens:
        if g.is_zero() or (e := g.order()) >= cap:
            continue
        # a term at or past the cap lands past it in every row; the others
        # have exponents below the cap, so no code digit carries
        terms = [(sum(map(mul, t, weights)), c) for t, c in entry(g.terms).items()
                 if sum(t) < cap]
        # the earlier generators' pivots; the multiplier monos[k] is column k
        spanned = set(pivots)
        # each row holds t * u for a lowest term t of g, so none is empty
        for k in range(below[cap - e]):
            if k in spanned:
                continue
            u = codes[k]
            insert({i: c for t, c in terms if (i := get(t + u)) is not None})
    if not pivots:
        # no generator below the cap: the quotient is k[x]/m^cap
        return TruncatedQuotient(field=field, nvars=nvars, cap=cap, basis=list(monos),
                                 classes={})
    forms = ech._normal_forms()
    free = [c for c in range(n_mono) if c not in forms]
    # a free column's basis index; ascending, so each class stays ascending
    pos = {c: j for j, c in enumerate(free)}
    return TruncatedQuotient(field=field, nvars=nvars, cap=cap, basis=[monos[c] for c in free],
                             classes={monos[pc]: [(pos[c], x) for c, x in form]
                                      for pc, form in forms.items()})


def graded_component_rank(field: Field, nvars: int, gens: Sequence[Poly],
                          d: int) -> tuple[int, int]:
    """(ideal_rank, hf) in degree d for a homogeneous ideal.

    ideal_rank is the dimension of the degree-d span of monomial multiples of
    the generators; hf = (number of degree-d monomials) - ideal_rank is the
    Hilbert function of the quotient in that degree.
    """
    for g in gens:
        if not g.is_homogeneous():
            raise NonHomogeneousError("generator mixes degrees")
    cols = monomials_of_degree(nvars, d)
    index = {m: i for i, m in enumerate(cols)}
    rows = [{index[mono_mul(t, u)]: c for t, c in g.terms.items()}
            for g in gens if not g.is_zero() and g.degree() <= d
            for u in monomials_of_degree(nvars, d - g.degree())]
    rank = ExactMatrix(field, rows, len(cols)).rank()
    return rank, len(cols) - rank


def reduce_poly(tq: TruncatedQuotient, g: Poly) -> Sparse:
    """The class of g modulo (I + m^cap) over tq.basis."""
    f = tq.field
    vec = [f.zero()] * len(tq.basis)
    pos = {m: i for i, m in enumerate(tq.basis)}
    for m, c in g.terms.items():
        if m in pos:
            vec[pos[m]] = f.add(vec[pos[m]], c)
        elif sum(m) < tq.cap:
            for j, v in tq.classes[m]:
                vec[j] = f.add(vec[j], f.mul(c, v))
    return [(j, c) for j, c in enumerate(vec) if not f.is_zero(c)]
