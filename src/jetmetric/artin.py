"""Artinian algebra model: jets, lengths, Hilbert functions, socles.

An ArtinAlgebra is a finite-dimensional local algebra presented by a monomial
normal-form basis coming from a truncated quotient k[x]/(I + m^cap).  Because
the basis consists of monomials closed under divisors, multiplication is
monomial concatenation followed by a normal-form lookup.  The algebra owns
the one table of products of basis pairs, kept sparse (the nonzero
(index, value) entries only) and memoized on first use instead of being
tabulated up front, which keeps large jets affordable; the witness search,
the invariants and the graded resolution all read it, together with the
basis indices of each degree component.  The basis is in ascending grlex
order, so each component is a run of it, and a nonzero algebra's unit is
its first basis monomial.  The tables of a basis (the index of each basis
monomial, the degree of each, the indices of each degree component) depend
on the basis alone, so they are built once per basis, as `poly` builds one
frame per shape, and kept in one bounded memo: every algebra on that basis,
whatever its field, cap or relations, its extensions of scalars among them,
shares them read-only.  One builder,
`product_rows`, turns that table into the raw rows basis[u] * g of a module
element g for `Echelon`: the resolution's products and the rows of the
derivation space both come from it.  A normal form never lowers the degree, so it drops
every term whose product lies past the top degree, in every jet.

An element has one form, `Sparse`: the ascending list of its nonzero
(index, value) pairs over the basis.  Classes of monomials
(`reduce_monomial`, `var_image`), products (`mult_basis`, `multiply`), sums
(`combine`, `evaluate`), socle vectors, tuple images and witness images all
take and return it.  Dense coordinates appear only as scratch accumulators
inside `multiply` and `combine`, in the matrix `mult_matrix` returns, in the
`nf` view and where text is printed.  Zero tests are truthiness, since zero
is falsy in all three scalar types (Fraction, int residue, int code) and the
zero element is the empty list.  The class of each non-basis monomial below
the cap is kept as `truncated_quotient` builds it, and `reduce_monomial`
hands out that stored list: an element is read, never changed in place.
`nf` is a read-only dense view of those classes, one coordinate per basis
monomial, built on each access for the recorded jet digests of the
benchmark, which hash its rows as coefficient sequences; no module of the
package reads it.

Every algebra map into an ArtinAlgebra (evaluating relations at generator
images, the linear map of an isomorphism witness) goes through one
mechanism: `monomial_map(images)` is a memoized function from a monomial to
its image, seeded with 1 and the generator images, and `combine` sums
c * image(m) over a polynomial's or an element's terms.  A new monomial is
reached from its nearest memoized divisor (lowering the last nonzero
exponent) and then costs one multiply.  `multiply` and `combine` sum their
products in the field's `raw_arithmetic`, chosen by `exactcore`, and
normalize each entry once at the end: over F_p the sums stay unreduced until
one `% p`, so a non-canonical residue in an input still gives the exact
result.

Extension of scalars is the algebra's own operation, as it is the field's:
`extension(k)` is the algebra over `Field.extension(k)`, with every scalar
(normal forms, relations, tuple images) sent through `Field.embedding` and
basis, cap and origin kept.  It is built once per degree and kept with the
algebra, as its products are, and it is the algebra itself when the field
does not grow.  This module builds every algebra: `jet`, `defpair_jet` and
`extension`.  There is one jet per presentation and order: `jet` keeps the
jets it builds in one bounded memo, keyed on the presentation object, and
every caller shares them read-only, as it shares the stored classes and the
basis tables, so a presentation compared with several others reuses its
jets and the products they have already reduced.

Soundness note for local (non-graded) inputs: R/(I + m^n) is supported only
at the origin, so the globally computed truncated quotient already equals the
jet of the localization; lengths and colengths come from `standard`.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from operator import is_
from typing import Callable, Iterable, Optional, Sequence

from .errors import CapacityError, NotPrimaryError, RangeError, TupleError, ZeroRingError
from .exactcore import ExactMatrix, Field
from .poly import (
    DEFAULT_CAPACITY,
    FRAME_CACHE_SIZE,
    Monomial,
    Poly,
    Sparse,
    TruncatedQuotient,
    count_monomials_below,
    mono_mul,
    truncated_quotient,
)
from .presentation import Presentation
from .standard import hilbert_numerator

# image of each monomial under an algebra map
MonomialMap = Callable[[Monomial], Sparse]


@lru_cache(maxsize=None)
def _unit_monomials(r: int) -> tuple[Monomial, tuple[Monomial, ...]]:
    """(1, (x_0, ..., x_{r-1})) as exponent tuples in r variables."""
    return (0,) * r, tuple(tuple(int(i == k) for i in range(r)) for k in range(r))


def _normalized(acc: list, modulus: Optional[int]) -> Sparse:
    """The sparse element of a dense accumulator of raw sums."""
    if modulus is None:
        return [(k, x) for k, x in enumerate(acc) if x]
    return [(k, r) for k, x in enumerate(acc) if (r := x % modulus)]


# how many basis tables stay cached, as many as `poly`'s frames
TABLE_CACHE_SIZE = FRAME_CACHE_SIZE


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _basis_table(basis: tuple[Monomial, ...]) -> tuple[dict[Monomial, int], tuple[int, ...],
                                                      tuple[tuple[int, ...], ...]]:
    """The tables of one basis, shared read-only by every algebra on it:
    the index of each basis monomial, the degree of each, and the indices
    of each degree component.  The basis is ascending grlex, so each
    component is a run of it."""
    degrees = tuple(map(sum, basis))
    starts = [bisect_left(degrees, d) for d in range(degrees[-1] + 2 if degrees else 0)]
    return ({m: i for i, m in enumerate(basis)}, degrees,
            tuple(tuple(range(a, b)) for a, b in zip(starts, starts[1:])))


@dataclass
class AlgebraOrigin:
    """How an ArtinAlgebra was built: which presentation, which order."""

    presentation: Optional[Presentation]
    order: int
    kind: str = "jet"          # "jet" | "defpair"


class ArtinAlgebra:
    """Finite-dimensional local algebra with a monomial normal-form basis."""

    def __init__(self, field: Field, nvars: int, tq: TruncatedQuotient,
                 relations: Sequence[Poly], origin: Optional[AlgebraOrigin] = None,
                 tuple_images: Optional[list[Sparse]] = None):
        self.field = field
        self.nvars = nvars
        self.cap = tq.cap
        self.basis = tq.basis
        self._classes = tq.classes
        self.relations = list(relations)
        self.origin = origin
        self.tuple_images = tuple_images
        self._index, self._degrees, self._components = _basis_table(tuple(self.basis))
        self._pair_cache: dict[tuple[int, int], Sparse] = {}
        self._extensions: dict[int, ArtinAlgebra] = {}
        self._one: Sparse = [(0, field.one())] if self.basis else []
        # the scratch accumulator of multiply, combine and the nf view,
        # copied, never written
        self._zeros = [field.zero()] * len(self.basis)

    # -- basic structure ---------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero_ring(self) -> bool:
        return self.dim == 0

    def degrees(self) -> list[int]:
        return list(self._degrees)

    def component(self, d: int) -> tuple[int, ...]:
        """Indices of the basis monomials of degree d, ascending."""
        return self._components[d] if 0 <= d < len(self._components) else ()

    @property
    def maxideal_basis(self) -> list[int]:
        return [i for i, d in enumerate(self._degrees) if d > 0]

    @property
    def nf(self) -> dict[Monomial, list]:
        """The class of every non-basis monomial below the cap as a dense
        coordinate vector over the basis: a read-only view, built on each
        access."""
        out = {m: self._zeros.copy() for m in self._classes}
        for m, cls in self._classes.items():
            for k, w in cls:
                out[m][k] = w
        return out

    def reduce_monomial(self, m: Monomial) -> Sparse:
        """The class of the monomial m: a basis monomial, zero at or above
        the cap, else its stored class, which the caller must not change."""
        if m in self._index:
            return [(self._index[m], self.field.one())]
        if sum(m) >= self.cap:
            return []
        return self._classes[m]

    def var_image(self, k: int) -> Sparse:
        """The class of the variable x_k."""
        return self.reduce_monomial(_unit_monomials(self.nvars)[1][k])

    # -- extension of scalars ----------------------------------------------

    def extension(self, k: int) -> ArtinAlgebra:
        """This algebra over the field of degree k over its own, built once
        per k: every scalar (normal forms, relations, tuple images) goes
        through `Field.embedding`, and basis, cap and origin are kept.  It is
        the algebra itself when that field is its own, and `Field.extension`
        raises FieldError for a k that is not a positive int, or is above 1
        over Q."""
        f = self.field
        dst = f.extension(k)
        if dst is f:
            return self
        got = self._extensions.get(k)
        if got is None:
            emb = f.embedding(dst)
            classes = {mono: [(i, emb(c)) for i, c in cls]
                       for mono, cls in self._classes.items()}
            tq = TruncatedQuotient(field=dst, nvars=self.nvars, cap=self.cap,
                                   basis=list(self.basis), classes=classes)
            got = ArtinAlgebra(dst, self.nvars, tq,
                               [g.map_coefficients(dst, emb) for g in self.relations],
                               self.origin)
            if self.tuple_images is not None:
                got.tuple_images = [[(i, emb(c)) for i, c in v] for v in self.tuple_images]
            self._extensions[k] = got
        return got

    # -- multiplication ----------------------------------------------------

    def mult_basis(self, i: int, j: int) -> Sparse:
        """Nonzero (index, value) entries of basis[i] * basis[j], ascending
        in index, cached per unordered pair."""
        key = (i, j) if i <= j else (j, i)
        got = self._pair_cache.get(key)
        if got is None:
            got = self._pair_cache[key] = self.reduce_monomial(
                mono_mul(self.basis[i], self.basis[j]))
        return got

    def multiply(self, u: Sparse, v: Sparse) -> Sparse:
        """Product of two sparse elements, as a sparse element.

        Over F_p an input value may be any integer representative.
        """
        mult_basis = self.mult_basis
        add, mul, p = self.field.raw_arithmetic
        acc = self._zeros.copy()
        for i, ci in u:
            for j, cj in v:
                c = mul(ci, cj)
                for k, w in mult_basis(i, j):
                    acc[k] = add(acc[k], mul(c, w))
        return _normalized(acc, p)

    def product_rows(self) -> Callable[[dict, Sequence[int]], list[dict]]:
        """A fresh function of (g, us) giving basis[u] * g for every u in us,
        basis indices of one degree, with g a module element over this
        algebra under flat keys k*n + b (basis[b] times the k-th generator,
        n = dim) and the rows under the same keys.  The rows are raw, for
        `Echelon`: each entry is a sum in the field's raw arithmetic
        (unreduced over F_p) and may cancel to zero.  A row is empty exactly
        when every product basis[u] * basis[b] over g's support vanishes.

        A term of g whose degree plus deg u is past the top degree is
        dropped before any product is looked up.  That holds for every jet,
        local and deformation jets included: a normal form's entries lie at
        grlex-larger columns of the reduced Macaulay matrix, so a normal
        form never lowers the degree, and a product past the top degree has
        no basis monomial to land on.  The function is not kept: held by
        the algebra it would hold the algebra, a reference cycle."""
        n, degrees = self.dim, self._degrees
        top = nilpotency_index(self) - 1
        mult_basis = self.mult_basis
        add, mul, _ = self.field.raw_arithmetic

        def products(g: dict, us: Sequence[int]) -> list[dict]:
            if not us:
                return []
            room = top - degrees[us[0]]
            # (key of the block's basis[0], b, coefficient) of the terms that
            # can survive: basis[u] * basis[b] lies in the block at key - b + t
            items = [(key - b, b, c) for key, c in g.items()
                     if degrees[b := key % n] <= room]
            rows: list[dict] = []
            for u in us:
                row: dict = {}
                for base, b, c in items:
                    for t, w in mult_basis(b, u):
                        key, x = base + t, mul(c, w)
                        row[key] = add(row[key], x) if key in row else x
                rows.append(row)
            return rows

        return products

    def mult_matrix(self, u: Sparse) -> list[list]:
        """Row-major matrix of multiplication by the element u."""
        n, one = self.dim, self.field.one()
        rows = [self._zeros.copy() for _ in range(n)]
        for j in range(n):
            for i, c in self.multiply(u, [(j, one)]):
                rows[i][j] = c
        return rows

    # -- algebra maps ------------------------------------------------------

    def monomial_map(self, images: Sequence[Sparse]) -> MonomialMap:
        """Memoized map from a monomial x^a to the product of images[k]^a_k,
        with images[k] the image of x_k.

        A new monomial lowers its last nonzero exponent until it reaches a
        memoized divisor and multiplies back up, memoizing every step, so it
        costs one multiply; the walk is a loop, so high powers stay flat.
        When every image lies in the maximal ideal, a monomial of degree at
        or above the nilpotency index maps to 0 without a walk.
        """
        gens = list(images)
        r = len(gens)
        one, units = _unit_monomials(r)
        memo: dict[Monomial, Sparse] = dict(zip(units, gens))
        memo[one] = self._one
        multiply = self.multiply
        vanish = (len(self._components) if all(i for g in gens for i, _ in g)
                  else None)

        def image(mono: Monomial) -> Sparse:
            got = memo.get(mono)
            if got is not None:
                return got
            if vanish is not None and sum(mono) >= vanish:
                return []
            e = list(mono)
            path: list[tuple[Monomial, int]] = []
            k = r - 1
            while got is None:
                while not e[k]:
                    k -= 1
                path.append((tuple(e), k))
                e[k] -= 1
                got = memo.get(tuple(e))
            for m, k in reversed(path):
                got = multiply(got, gens[k])
                memo[m] = got
            return got

        return image

    def combine(self, terms: Iterable[tuple[Monomial, object]],
                image: MonomialMap) -> Sparse:
        """The sum of c * image(m) over the (m, c) pairs."""
        add, mul, p = self.field.raw_arithmetic
        acc = self._zeros.copy()
        for m, c in terms:
            if c:
                for i, w in image(m):
                    acc[i] = add(acc[i], mul(c, w))
        return _normalized(acc, p)

    def evaluate(self, g: Poly, image: MonomialMap) -> Sparse:
        """Evaluate the polynomial g under a monomial map into this algebra."""
        return self.combine(g.terms.items(), image)


# ---------------------------------------------------------------------------
# constructors


# how many jets stay cached: at least 9, the least bound that keeps every jet
# a distance triple reads again at orders 1-3, and fewer than the distinct
# jets of any benchmark pass, so the benchmark still times the builds
JET_CACHE_SIZE = 16


class _PresentationKey:
    """A presentation as a memo key, by identity: hashed on its id and equal
    only to a key of the same object whose field, variables, generators and
    mode are still the objects they were when the key was made, so
    reassigning `p.gens` gives a fresh jet; a generator list changed in
    place is not seen.  A content key would hash every generator's terms on
    each call."""

    __slots__ = ("parts",)

    def __init__(self, p: Presentation):
        self.parts = (p, p.field, p.vars, p.gens, p.mode)

    def __hash__(self) -> int:
        return id(self.parts[0])

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, _PresentationKey)
                and all(map(is_, self.parts, other.parts)))


def jet(p: Presentation, n: int, capacity: int = DEFAULT_CAPACITY) -> ArtinAlgebra:
    """The n-th jet R/(I + m^n) of a presented algebra R = k[x]/I.

    One jet per presentation, order and capacity: the jet is built once and
    kept in a bounded memo, so every caller shares it, read-only, with its
    memoized products and extensions of scalars.  An input that raises
    caches nothing."""
    if n < 0:
        raise RangeError("jet order must be nonnegative")
    return _jet(_PresentationKey(p), n, capacity)


@lru_cache(maxsize=JET_CACHE_SIZE)
def _jet(key: _PresentationKey, n: int, capacity: int) -> ArtinAlgebra:
    """The jet of `jet`, built on a memo miss."""
    p = key.parts[0]
    fld = p.base_field()
    tq = truncated_quotient(fld, p.nvars, p.gens, n, capacity=capacity)
    origin = AlgebraOrigin(presentation=p, order=n, kind="jet")
    return ArtinAlgebra(fld, p.nvars, tq, relations=p.gens, origin=origin)


def hf_by_degree_count(A: ArtinAlgebra) -> list[int]:
    """Hilbert function read off the graded basis-monomial counts: the basis
    monomials of degree i span m^i modulo m^{i+1}, so hf[i] is their
    number, O(dim)."""
    return [len(c) for c in A._components]


def hilbert_function(A: ArtinAlgebra) -> tuple[int, list[int]]:
    """(length, hf) with hf[i] = dim m^i/m^{i+1}, read by `hf_by_degree_count`."""
    return A.dim, hf_by_degree_count(A)


def nilpotency_index(A: ArtinAlgebra) -> int:
    """Least n with m^n = 0; equals 1 + top basis-monomial degree, the
    number of degree components."""
    if A.is_zero_ring():
        raise ZeroRingError("nilpotency index of the zero ring")
    return len(A._components)


def _socle_matrix(A: ArtinAlgebra) -> ExactMatrix:
    """The matrix whose kernel is the socle.  The basis is closed under
    divisors, so the degree-1 basis monomials generate the maximal ideal and
    the socle is the common kernel of multiplication by them."""
    if A.is_zero_ring():
        raise ZeroRingError("socle of the zero ring")
    n = A.dim
    rows: list[dict] = [{} for _ in range(len(A.component(1)) * n)]
    for r, v in enumerate(A.component(1)):
        for j in range(n):
            for i, c in A.mult_basis(v, j):     # basis[v] * basis[j] at i
                rows[r * n + i][j] = c
    return ExactMatrix(A.field, rows, n)


def socle(A: ArtinAlgebra) -> tuple[int, list[Sparse]]:
    """The annihilator of the maximal ideal: dimension and a basis."""
    kern = [sorted(u.items()) for u in _socle_matrix(A).kernel_basis()]
    return len(kern), kern


def socle_dimension(A: ArtinAlgebra) -> int:
    """dim of the socle, dim A less the rank of the rows `socle` reads its
    basis from; no kernel vectors are built."""
    return A.dim - _socle_matrix(A).rank()


# ---------------------------------------------------------------------------
# deformation pairs


@lru_cache(maxsize=64)
def _colength(fld: Field, nvars: int, gens: tuple[Poly, ...], capacity: int) -> int:
    """Length of k[x]/J, Q(1) of the certified leading ideal of J; a pole
    means dim k[x]/J > 0, so J is not primary to the maximal ideal.  Cached,
    since `defpair_jet` needs it for every order of one presentation."""
    numerator, pole_order = hilbert_numerator(fld, nvars, gens, capacity)
    if pole_order:
        raise NotPrimaryError(f"ideal plus tuple has dimension {pole_order}; "
                              "the tuple is not primary to the maximal ideal")
    return sum(numerator)


def defpair_jet(p: Presentation, n: int, capacity: int = DEFAULT_CAPACITY) -> ArtinAlgebra:
    """The n-th deformation R/(I + (t_1^n, ..., t_s^n)) of a pair (R, t)."""
    if p.tuple is None:
        raise TupleError("presentation has no deformation tuple")
    if n < 0:
        raise RangeError("deformation order must be nonnegative")
    fld = p.base_field()
    for t in p.tuple:
        if not t.is_zero() and not fld.is_zero(t.constant_term()):
            raise TupleError("deformation tuple entries must lie in the maximal ideal")
    s = len(p.tuple)
    if n == 0:
        tq = truncated_quotient(fld, p.nvars, p.gens, 0, capacity=capacity)
        origin = AlgebraOrigin(presentation=p, order=0, kind="defpair")
        return ArtinAlgebra(fld, p.nvars, tq, relations=p.gens, origin=origin,
                            tuple_images=[])
    colength = _colength(fld, p.nvars, (*p.gens, *p.tuple), capacity)
    powered = [t.pow(n) for t in p.tuple]
    gens_n = p.gens + powered
    # colength c puts m^c in I + (t), so m^(c s n) lies in (I + (t))^(s n),
    # inside I + (t^n): the cut at cap loses nothing
    cap = colength * s * n + 1
    if count_monomials_below(p.nvars, cap) > capacity:
        raise CapacityError(count_monomials_below(p.nvars, cap), capacity,
                            f"deformation order {n} needs internal cap {cap}")
    tq = truncated_quotient(fld, p.nvars, gens_n, cap, capacity=capacity)
    origin = AlgebraOrigin(presentation=p, order=n, kind="defpair")
    A = ArtinAlgebra(fld, p.nvars, tq, relations=gens_n, origin=origin)
    image = A.monomial_map([A.var_image(k) for k in range(p.nvars)])
    A.tuple_images = [A.evaluate(t, image) for t in p.tuple]
    return A
