"""Certified leading ideals and exact Hilbert numerators, the one source of
graded series, local Hilbert-Samuel polynomials and colengths.

L(I) is the leading ideal for the local degree order (lowest degree first,
grlex-smallest on ties, as `truncated_quotient` pivots), by Lazard's
homogenization (Greuel-Pfister, *A Singular Introduction to Commutative
Algebra*, ch. 1).  Degree d of J = (g^h) in k[t, x] is kept dehomogenized,
as the span of x^u * g with |u| <= d - deg g, in one `Echelon` keyed by
`grlex_key`; a pivot x^b entering at degree d0 is the leading monomial
t^(d0 - |b|) x^b of J.  The loop stops at the first d >= every generator
degree where every S-pair of the minimal rows, of degree above d and not
coprime, reduces to zero; by Buchberger's criterion the rows then form a
Groebner basis, so L(I) is exact.  The module does no field arithmetic of
its own: each generator's coefficients go through the field's row `entry`
once per call, and every row x^u * g is built from them in row form and
handed to `Echelon.insert`; the minimal rows are the echelon's stored rows,
an S-pair is one `Echelon.clear` of a shifted row by another and division
is repeated clearing, so over Q S-pairs are cleared fraction-free on
integer rows.  k[x]/L(I) has the Hilbert-Samuel function of I
(Greuel-Pfister, ch. 5), with series from N(L + (m)) = N(L) - t^deg(m)
N(L : m) (Bayer-Stillman, J. Symb. Comput. 14, 1992).
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterable, Sequence

from .errors import CapacityError, ConstantTermError, RangeError
from .exactcore import Echelon, Field
from .poly import DEFAULT_CAPACITY, Monomial, Poly, grlex_key, mono_mul, monomials_of_degree


def _divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _minimal(monos: Iterable[Monomial]) -> tuple[Monomial, ...]:
    """Minimal generators of the monomial ideal, ascending grlex."""
    out: list[Monomial] = []
    for m in sorted(set(monos), key=grlex_key):
        if not any(_divides(g, m) for g in out):
            out.append(m)
    return tuple(out)


def _shift(row: dict, u: Monomial) -> dict:
    """x^u * row, for a row {grlex_key(m): c}."""
    s = sum(u)
    return {(deg + s, mono_mul(m, u)): c for (deg, m), c in row.items()}


def _over(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x - y for x, y in zip(a, b))


def _reduces_to_zero(clear, h: dict, e: int, basis: list) -> bool:
    """Homogeneous division of the degree-e element h of J: t^a x^b divides
    its leading monomial t^(e - |m|) x^m when b divides m and a <= e - |m|."""
    while h:
        deg, m = lead = min(h)
        for a, b, row in basis:
            if a <= e - deg and _divides(b, m):
                h = clear(h, _shift(row, _over(m, b)), lead)
                break
        else:
            return False
    return True


def _pairs_reduce(clear, basis: list, d: int, verified: set) -> bool:
    """Whether every S-pair of the basis, (a, b, row) per row of J with a
    minimal leading monomial t^a x^b (the echelon's stored row, keyed by
    grlex_key, its pivot at b), above degree d reduces to zero.  A reduced
    pair stays verified.  The S-polynomial of two single-term rows is zero,
    so such a pair is skipped: a monomial ideal makes no reduction."""
    for j, (aj, bj, rj) in enumerate(basis):
        single = len(rj) == 1
        for ai, bi, ri in basis[:j]:
            if single and len(ri) == 1:
                continue
            lcm = tuple(map(max, bi, bj))
            e = max(ai, aj) + sum(lcm)
            coprime = e == ai + aj + sum(bi) + sum(bj)
            if coprime or e <= d or (bi, bj) in verified:
                continue
            s = clear(_shift(ri, _over(lcm, bi)), _shift(rj, _over(lcm, bj)), grlex_key(lcm))
            if not _reduces_to_zero(clear, s, e, basis):
                return False
            verified.add((bi, bj))
    return True


def leading_ideal(field: Field, nvars: int, gens: Sequence[Poly],
                  capacity: int = DEFAULT_CAPACITY) -> tuple[Monomial, ...]:
    """Minimal generators of L(I), I = (gens), ascending grlex.  Raises
    CapacityError once the span holds more rows than the capacity; the
    x^u * g of a nonzero g are independent, so the rows grow with d and
    every input either stops or raises."""
    if any(not field.is_zero(g.constant_term()) for g in gens):
        raise ConstantTermError("ideal generator has nonzero constant term")
    top = max((g.degree() for g in gens), default=0)
    entry = field.row_arithmetic[0]
    # each nonzero generator's degree and coefficients in row form
    rowed = [(g.degree(), entry(g.terms).items()) for g in gens if not g.is_zero()]
    # no row enters below the least generator degree
    ech, basis, verified = Echelon(field), [], set()
    d = min((deg for deg, _ in rowed), default=0)
    while True:
        before = set(ech.rows)
        for deg, terms in rowed:
            if deg <= d:
                for u in monomials_of_degree(nvars, d - deg):
                    row = {grlex_key(mono_mul(u, m)): c for m, c in terms}
                    if ech.insert(row) and len(ech.rows) > capacity:
                        raise CapacityError(len(ech.rows), capacity,
                                            f"degree {d} in {nvars} variables",
                                            what="leading-ideal row count")
        for deg, b in sorted(k for k in ech.rows if k not in before):
            if not any(a <= d - deg and _divides(bg, b) for a, bg, _ in basis):
                basis.append((d - deg, b, ech.rows[(deg, b)]))
        if d >= top and _pairs_reduce(ech.clear, basis, d, verified):
            return _minimal(b for _, b, _ in basis)
        d += 1


# N(t) is a dense list as long as its degree, which one generator's degree
# can set alone: x^(20!) would ask for 2^61 entries.  On a 2-core Xeon host
# graded x^1000000 in Q[x, y] takes 1.8 s under `euler` and 3.4 s under
# `hilbert`, and x^(2^22) 8 s in 280 MiB and 13 s in 890 MiB (a report of
# 94 MiB); past this degree, CapacityError before any list grows.
NUMERATOR_MAX_DEGREE = 1 << 22


def _numerator(gens: tuple[Monomial, ...], memo: dict) -> list[int]:
    """N(t) with series N(t)/(1 - t)^r of k[x]/(gens), for minimal monomial
    generators ascending in grlex order.  The generators are taken in one
    loop, each m turning N(I) into N(I + (m)) for the ideal I of those before
    it, so only the colon ideals I : m recurse and the depth does not grow
    with the number of generators.  CapacityError before a list is extended
    past NUMERATOR_MAX_DEGREE."""
    if gens not in memo:
        out = [1]
        for j, m in enumerate(gens):
            s = sum(m)
            low = _numerator(_minimal(tuple(max(x - y, 0) for x, y in zip(g, m))
                                      for g in gens[:j]), memo)
            deg = s + len(low) - 1
            if deg > NUMERATOR_MAX_DEGREE:
                raise CapacityError(deg, NUMERATOR_MAX_DEGREE, what="Hilbert numerator degree")
            out += [0] * (deg + 1 - len(out))
            for i, c in enumerate(low):
                out[s + i] -= c
        while out and out[-1] == 0:
            out.pop()
        memo[gens] = out
    return memo[gens]


def hilbert_numerator(field: Field, nvars: int, gens: Sequence[Poly],
                      capacity: int = DEFAULT_CAPACITY) -> tuple[list[int], int]:
    """(Q, d): the series of k[x]/L(I) is Q(t)/(1 - t)^d with Q(1) != 0."""
    Q, d = _numerator(leading_ideal(field, nvars, gens, capacity), {}), nvars
    while d and sum(Q) == 0:
        Q, d = list(accumulate(Q[:-1])), d - 1      # Q = (1 - t) R
    return Q, d


def series(numerator: Sequence[int], pole_order: int, count: int) -> list[int]:
    """The first `count` coefficients of Q(t)/(1 - t)^d."""
    if count < 0:
        raise RangeError(f"coefficient count must be nonnegative, got {count}")
    out = (list(numerator) + [0] * count)[:count]
    for _ in range(pole_order):
        out = list(accumulate(out))
    return out
