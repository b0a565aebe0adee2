"""Multivariate polynomials, graded-lex monomial order, truncated quotients.

Monomials are exponent tuples.  The graded-lexicographic order (total degree
first, then lex with the first variable largest) is used everywhere a basis or
a pivot choice has to be canonical.  A truncated quotient k[x]/(I + m^n) is
computed from the Macaulay matrix whose rows are the monomial multiples of the
ideal generators truncated below degree n; row reduction pivots on the
grlex-smallest monomial of each row, so an inhomogeneous relation rewrites its
lowest-order term into higher-order ones (the local convention: y^2 - x^3
pivots at y^2 and stores nf(y^2) = x^3).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import comb
from typing import Sequence

from .errors import CapacityError, ConstantTermError, NonHomogeneousError
from .exactcore import ExactMatrix, Field, PrimeField, rank_gf2

Monomial = tuple[int, ...]
# an element of a quotient as the ascending list of its nonzero
# (basis index, value) pairs
Sparse = list[tuple[int, object]]

DEFAULT_CAPACITY = 2000


def mono_deg(m: Monomial) -> int:
    return sum(m)


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def grlex_key(m: Monomial):
    """Sort key for ascending graded-lex order (1 first; within a degree,
    lex with the first variable largest, i.e. y < x in k[x,y])."""
    return (sum(m), m)


def monomials_of_degree(nvars: int, d: int) -> list[Monomial]:
    """All exponent tuples of total degree d, in ascending grlex order."""
    if nvars == 0:
        return [()] if d == 0 else []
    out = []
    # choose positions via stars and bars; generate then sort for clarity
    for bars in combinations_with_replacement(range(nvars), d):
        e = [0] * nvars
        for b in bars:
            e[b] += 1
        out.append(tuple(e))
    out.sort(key=grlex_key)
    return out


def monomials_below(nvars: int, degmax: int) -> list[Monomial]:
    """All monomials of degree < degmax, ascending grlex."""
    out: list[Monomial] = []
    for d in range(degmax):
        out.extend(monomials_of_degree(nvars, d))
    return out


def count_monomials_below(nvars: int, degmax: int) -> int:
    # number of monomials of degree < degmax in nvars variables
    if degmax <= 0:
        return 0
    return comb(degmax - 1 + nvars, nvars)


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
            if m in out:
                s = f.add(out[m], c)
                if f.is_zero(s):
                    del out[m]
                else:
                    out[m] = s
            else:
                out[m] = c
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
                if m in out:
                    s = f.add(out[m], c)
                    if f.is_zero(s):
                        del out[m]
                    else:
                        out[m] = s
                elif not f.is_zero(c):
                    out[m] = c
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
        return max((mono_deg(m) for m in self.terms), default=0)

    def order(self) -> int:
        """Degree of the lowest term (the local 'order'); 0 for zero polynomial."""
        return min((mono_deg(m) for m in self.terms), default=0)

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
        return hash((self.field.desc, self.nvars, tuple(self.sorted_terms())))

    def __repr__(self) -> str:
        return f"Poly({self.terms})"


@dataclass
class TruncatedQuotient:
    """Basis data for k[x_1..x_r]/(I + m^cap).

    basis: the non-pivot monomials of degree < cap, ascending grlex.
    nf:    for every pivot monomial, its normal form as a coordinate vector
           over `basis`.  Basis monomials reduce to themselves; monomials of
           degree >= cap reduce to zero.
    """

    field: Field
    nvars: int
    cap: int
    basis: list[Monomial]
    nf: dict[Monomial, list]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def basis_index(self) -> dict[Monomial, int]:
        return {m: i for i, m in enumerate(self.basis)}


def truncated_quotient(field: Field, nvars: int, gens: Sequence[Poly], cap: int,
                       capacity: int = DEFAULT_CAPACITY) -> TruncatedQuotient:
    """Compute k[x]/(I + m^cap) by Macaulay-matrix row reduction.

    Rows are truncations of (monomial * generator) for every multiplier
    monomial that can contribute below the cap; the row space is exactly the
    degree-< cap image of I, so the non-pivot monomials form a basis of the
    quotient.  Raises CapacityError before building anything too large.
    """
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    for g in gens:
        if not field.is_zero(g.constant_term()):
            raise ConstantTermError("ideal generator has nonzero constant term")
    n_mono = count_monomials_below(nvars, cap)
    if n_mono > capacity:
        raise CapacityError(n_mono, capacity, f"cap {cap} in {nvars} variables")
    monos = monomials_below(nvars, cap)
    index = {m: i for i, m in enumerate(monos)}
    rows = []
    for g in gens:
        if g.is_zero():
            continue
        for u in monos[:count_monomials_below(nvars, cap - g.order())]:
            row = {}
            for t, c in g.terms.items():
                m = mono_mul(t, u)
                if mono_deg(m) < cap:
                    row[index[m]] = c
            if row:
                rows.append(row)
    red = ExactMatrix(field, rows, n_mono).rref()
    free = red.free_columns()
    basis = [monos[c] for c in free]
    pos = {c: j for j, c in enumerate(free)}
    zero, neg = field.zero(), field.neg
    nf: dict[Monomial, list] = {}
    for row, pc in zip(red.rows, red.pivots):
        # a reduced row vanishes at every other pivot column
        v = [zero] * len(free)
        for c, x in row.items():
            if c != pc:
                v[pos[c]] = neg(x)
        nf[monos[pc]] = v
    return TruncatedQuotient(field=field, nvars=nvars, cap=cap, basis=basis, nf=nf)


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
    use_gf2 = isinstance(field, PrimeField) and field.p == 2
    rows_int: list[int] = []
    rows_gen: list[dict] = []
    for g in gens:
        if g.is_zero():
            continue
        e = g.degree()
        if e > d:
            continue
        for u in monomials_of_degree(nvars, d - e):
            if use_gf2:
                bits = 0
                for t, c in g.terms.items():
                    if c % 2:
                        bits |= 1 << index[mono_mul(t, u)]
                if bits:
                    rows_int.append(bits)
            else:
                rows_gen.append({index[mono_mul(t, u)]: c for t, c in g.terms.items()})
    if use_gf2:
        rank = rank_gf2(rows_int)
    else:
        rank = ExactMatrix(field, rows_gen, len(cols)).rank()
    return rank, len(cols) - rank


def reduce_poly(tq: TruncatedQuotient, g: Poly) -> Sparse:
    """The class of g modulo (I + m^cap) over tq.basis."""
    f = tq.field
    vec = [f.zero()] * tq.dim
    pos = tq.basis_index()
    for m, c in g.terms.items():
        if mono_deg(m) >= tq.cap:
            continue
        if m in pos:
            j = pos[m]
            vec[j] = f.add(vec[j], c)
        else:
            for j, v in enumerate(tq.nf[m]):
                if not f.is_zero(v):
                    vec[j] = f.add(vec[j], f.mul(c, v))
    return [(j, c) for j, c in enumerate(vec) if not f.is_zero(c)]
