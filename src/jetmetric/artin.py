"""Artinian algebra model: jets, lengths, Hilbert functions, socles.

An ArtinAlgebra is a finite-dimensional local algebra presented by a monomial
normal-form basis coming from a truncated quotient k[x]/(I + m^cap).  Because
the basis consists of monomials closed under divisors, multiplication is
monomial concatenation followed by a normal-form lookup.  The algebra owns
the one table of products of basis pairs, kept sparse (the nonzero
(index, value) entries only) and memoized on first use instead of being
tabulated up front, which keeps large jets affordable; the witness search,
the invariants and the graded resolution all read it, together with the
basis indices of each degree component.

An element has one form, `Sparse`: the ascending list of its nonzero
(index, value) pairs over the basis.  Classes of monomials
(`reduce_monomial`, `var_image`), products (`mult_basis`, `multiply`), sums
(`combine`, `evaluate`), socle vectors, tuple images and witness images all
take and return it.  Dense coordinates appear only as scratch accumulators
inside `multiply` and `combine`, in the matrix `mult_matrix` returns, and
where text is printed.  Zero tests are truthiness, since zero is falsy in
all three scalar types (Fraction, int residue, int code) and the zero
element is the empty list.  The one dense table is `nf`, the normal form of
each non-basis monomial below the cap as `truncated_quotient` builds it,
one entry per basis monomial: the recorded jet digests of the benchmark
hash those rows as coefficient sequences, so they keep that shape, and
`reduce_monomial` reads their nonzero entries.

Every algebra map into an ArtinAlgebra (evaluating relations at generator
images, the linear map of an isomorphism witness) goes through one
mechanism: `monomial_map(images)` is a memoized function from a monomial to
its image, seeded with 1 and the generator images, and `combine` sums
c * image(m) over a polynomial's or an element's terms.  A new monomial is
reached from its nearest memoized divisor (lowering the last nonzero
exponent) and then costs one multiply.  Over Q and F_p these products and sums run on native `+` and
`*` (Fractions or ints), with one `% p` per entry at the end over F_p, so a
non-canonical residue in an input still gives the exact result; F_{p^m}
goes through the field's `add` and `mul`.

Soundness note for local (non-graded) inputs: R/(I + m^n) is supported only
at the origin, so the globally computed truncated quotient already equals the
jet of the localization; lengths and colengths come from `standard`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Optional, Sequence

from .errors import CapacityError, NotPrimaryError, RangeError, TupleError, ZeroRingError
from .exactcore import ExactMatrix, ExtensionField, Field, PrimeField
from .poly import (
    DEFAULT_CAPACITY,
    Monomial,
    Poly,
    Sparse,
    TruncatedQuotient,
    count_monomials_below,
    mono_deg,
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
        self.nf = tq.nf
        self.relations = list(relations)
        self.origin = origin
        self.tuple_images = tuple_images
        self._index = {m: i for i, m in enumerate(self.basis)}
        self._degrees = [mono_deg(m) for m in self.basis]
        comps: list[list[int]] = [[] for _ in range(max(self._degrees, default=-1) + 1)]
        for i, d in enumerate(self._degrees):
            comps[d].append(i)
        self._components = [tuple(c) for c in comps]
        self._pair_cache: dict[tuple[int, int], Sparse] = {}
        # native arithmetic over Q and F_p (modulus None over Q); F_{p^m}
        # codes need the field's add and mul
        self._native = not isinstance(field, ExtensionField)
        self._modulus = field.p if isinstance(field, PrimeField) else None
        self._one: Sparse = ([(self._index[(0,) * nvars], field.one())]
                             if self.basis else [])
        # the scratch accumulator of multiply and combine, copied, never written
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

    def reduce_monomial(self, m: Monomial) -> Sparse:
        """The class of the monomial m: a basis monomial, zero at or above
        the cap, else the nonzero entries of its normal form."""
        if m in self._index:
            return [(self._index[m], self.field.one())]
        if mono_deg(m) >= self.cap:
            return []
        is_zero = self.field.is_zero
        return [(k, w) for k, w in enumerate(self.nf[m]) if not is_zero(w)]

    def var_image(self, k: int) -> Sparse:
        """The class of the variable x_k."""
        return self.reduce_monomial(_unit_monomials(self.nvars)[1][k])

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
        if self._native:
            acc = self._zeros.copy()
            for i, ci in u:
                for j, cj in v:
                    c = ci * cj
                    for k, w in mult_basis(i, j):
                        acc[k] += c * w
            p = self._modulus
            if p is None:
                return [(k, x) for k, x in enumerate(acc) if x]
            return [(k, r) for k, x in enumerate(acc) if (r := x % p)]
        f = self.field
        add, mul = f.add, f.mul
        acc = self._zeros.copy()
        for i, ci in u:
            for j, cj in v:
                c = mul(ci, cj)
                for k, w in mult_basis(i, j):
                    acc[k] = add(acc[k], mul(c, w))
        return [(k, x) for k, x in enumerate(acc) if x]

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
        """
        gens = list(images)
        r = len(gens)
        one, units = _unit_monomials(r)
        memo: dict[Monomial, Sparse] = dict(zip(units, gens))
        memo[one] = self._one
        multiply = self.multiply

        def image(mono: Monomial) -> Sparse:
            got = memo.get(mono)
            if got is not None:
                return got
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
        if self._native:
            acc = self._zeros.copy()
            for m, c in terms:
                if c:
                    for i, w in image(m):
                        acc[i] += c * w
            p = self._modulus
            if p is None:
                return [(i, x) for i, x in enumerate(acc) if x]
            return [(i, r) for i, x in enumerate(acc) if (r := x % p)]
        f = self.field
        add, mul = f.add, f.mul
        acc = self._zeros.copy()
        for m, c in terms:
            if c:
                for i, w in image(m):
                    acc[i] = add(acc[i], mul(c, w))
        return [(i, x) for i, x in enumerate(acc) if x]

    def evaluate(self, g: Poly, image: MonomialMap) -> Sparse:
        """Evaluate the polynomial g under a monomial map into this algebra."""
        return self.combine(g.terms.items(), image)


# ---------------------------------------------------------------------------
# constructors


def jet(p: Presentation, n: int, capacity: int = DEFAULT_CAPACITY) -> ArtinAlgebra:
    """The n-th jet R/(I + m^n) of a presented algebra R = k[x]/I."""
    if n < 0:
        raise RangeError("jet order must be nonnegative")
    fld = p.base_field()
    tq = truncated_quotient(fld, p.nvars, p.gens, n, capacity=capacity)
    origin = AlgebraOrigin(presentation=p, order=n, kind="jet")
    return ArtinAlgebra(fld, p.nvars, tq, relations=p.gens, origin=origin)


def hilbert_function(A: ArtinAlgebra) -> tuple[int, list[int]]:
    """(length, hf) with hf[i] = dim m^i/m^{i+1}.

    The powers m^i are computed literally, as iterated products of the span of
    the maximal ideal by the variable classes (which generate it); each step
    measures the dimension by exact rank.
    """
    if A.is_zero_ring():
        return 0, []
    one = A.field.one()
    var_vecs = [A.var_image(k) for k in range(A.nvars)]
    current = [[(i, one)] for i in A.maxideal_basis]  # basis of m^1
    dims = [A.dim]
    while current:
        dims.append(len(current))
        nxt_rows = [dict(w) for v in current for xk in var_vecs
                    if (w := A.multiply(xk, v))]
        if nxt_rows:
            red = ExactMatrix(A.field, nxt_rows, A.dim).rref()
            current = [sorted(r.items()) for r in red.rows]
        else:
            current = []
    hf = [dims[i] - (dims[i + 1] if i + 1 < len(dims) else 0) for i in range(len(dims))]
    while hf and hf[-1] == 0:
        hf.pop()
    return A.dim, hf


def hf_by_degree_count(A: ArtinAlgebra) -> list[int]:
    """Hilbert function read off the graded basis-monomial counts.

    Agrees with hilbert_function (property-tested); this one is O(dim).
    """
    return [len(c) for c in A._components]


def nilpotency_index(A: ArtinAlgebra) -> int:
    """Least n with m^n = 0; equals 1 + top basis-monomial degree."""
    if A.is_zero_ring():
        raise ZeroRingError("nilpotency index of the zero ring")
    return 1 + max(A._degrees)


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


def _colength(fld: Field, nvars: int, gens: list[Poly], capacity: int) -> int:
    """Length of k[x]/J, Q(1) of the certified leading ideal of J; a pole
    means dim k[x]/J > 0, so J is not primary to the maximal ideal."""
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
    colength = _colength(fld, p.nvars, p.gens + list(p.tuple), capacity)
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
