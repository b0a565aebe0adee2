"""Graded minimal free resolutions by degreewise linear algebra.

No Groebner or Schreyer machinery: a free module over a graded quotient is
handled one internal degree at a time, where everything is a finite matrix
over the coefficient field.  In each degree of a layer one elimination takes
the products of the layer's lower generators, each tagged with the basis
vector of the next free module it stands for: a product that reduces to its
tags is a syzygy, and these syzygies are a kernel basis, the next layer's
candidates; a candidate outside the span of the products is a new minimal
generator.  The top layer is only counted, beta_{i,j} = dim(K/mK)_j (Avramov,
Infinite free resolutions, 1998, section 1).  That yields Betti tables of
the residue field over an Artinian (or polynomial) graded ring, finite
resolutions of graded quotients over the polynomial ring, and the depth /
regular / Cohen-Macaulay / Gorenstein classification.

Module elements are sparse: only the nonzero coefficients are stored, each
under one flat integer key, k*n + b for basis[b] times the k-th generator
(n the ring's dimension), and the products basis[u] * g of a generator g
with the monomials u of one degree are formed together (`_products`) from
the ring's own sparse table of basis-pair products (`ArtinAlgebra.mult_basis`,
shared with the invariants and the witness search), so no work is spent on
the zero blocks of generators in other degrees.  The ring is graded, so a
term of g whose degree plus deg u is past the ring's top degree has a zero
product and is dropped before any product is looked up.  A product row is
raw: its entries are sums in the field's `raw_arithmetic`, chosen by
`exactcore`, unreduced over F_p and possibly zero; `Echelon`'s entry
conversion is the one normalization of every row.  A product with no entry
at all never reaches the elimination: it would reduce to its tag alone, so
it is a unit syzygy and goes straight into the kernel.  Degree components
come from `ArtinAlgebra.component`.  This module does no row reduction of
its own: every elimination is an `exactcore.Echelon`.

A minimal generator g of degree s with A_1 g = 0, read through `Echelon`'s
entry conversion so that a raw product which cancels counts as zero, is
split off the residue-field resolution.  Its layer then generates k(-s)
plus the module M' of the other generators (c g in M' for a scalar c != 0
would make g redundant), so the resolution from there on is that of k(-s)
plus that of M': g forms no products, and each later layer i + t inherits
the residue field's own layer t shifted by s.  Its unit syzygies never
reach the kernel; those of other generators still do.

Completeness of a finite resolution is certified, not assumed: the
alternating sum of its Betti polynomials must reproduce the Hilbert-series
numerator of the certified leading ideal, and the internal degree cap must
clear the largest generator degree with margin; the cap is raised and the
computation redone until the certificate passes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import comb
from typing import Callable, Optional, Union

from .artin import ArtinAlgebra, jet, socle_dimension
from .errors import GradingError, InternalInconsistencyError, RangeError, ZeroRingError
from .exactcore import Echelon
from .hilbert import HilbertData, hilbert_series
from .poly import DEFAULT_CAPACITY
from .presentation import Presentation
from .standard import hilbert_numerator

# An element of a free module is a dict from the flat key k*n + b (generator
# index k, ring basis index b, n = A.dim) to a nonzero coefficient in the
# field's values, the coefficient of basis[b] times the k-th generator.
# Sorted keys follow the flattened coordinate order: blocks in generator
# order, each block in ascending basis index.  A product row of `_products`
# has the same keys but raw entries (unreduced over F_p, possibly zero)
# until `Echelon` converts it.
Element = dict


@dataclass
class ResolutionData:
    """Betti table of a minimal graded free resolution, possibly truncated.

    `betti[(i, j)]` counts generators of homological degree i and internal
    degree j; `ranks[i]` sums row i.  `pd` is the projective dimension when
    the resolution provably stops (`complete` true); a truncated computation
    keeps `pd = None` so a cap can never masquerade as a finite dimension.
    """

    betti: dict[tuple[int, int], int]
    ranks: list[int]
    pd: Optional[int]
    complete: bool
    homological_cap: int
    internal_degree_cap: int
    module: str

    def rank(self, i: int) -> int:
        return self.ranks[i] if i < len(self.ranks) else 0


def _products(A: ArtinAlgebra) -> Callable[[Element, tuple[int, ...]], list[Element]]:
    """The product rows of a graded A: a function of (g, us) giving
    basis[u] * g for every u in us, basis monomials of one degree, read from
    the algebra's sparse basis-pair products, as raw rows for `Echelon`,
    whose entry conversion is the one normalization: the entries are sums in
    the field's raw arithmetic (unreduced over F_p) and may cancel to zero.
    A term of g whose degree plus deg u is past A's top degree multiplies to
    zero and is dropped first.  A row is empty exactly when every basis
    product basis[u] * basis[b] of g's support vanishes."""
    n, degrees = A.dim, A.degrees()
    top = max(degrees, default=0)
    mult_basis = A.mult_basis
    add, mul, _ = A.field.raw_arithmetic

    def products(g: Element, us: tuple[int, ...]) -> list[Element]:
        if not us:
            return []
        room = top - degrees[us[0]]
        # (key of the block's basis[0], b, coefficient) of the terms that
        # can survive: basis[u] * basis[b] lies in the block at key - b + t
        items = [(key - b, b, c) for key, c in g.items()
                 if degrees[b := key % n] <= room]
        rows: list[Element] = []
        for u in us:
            row: Element = {}
            for base, b, c in items:
                for t, w in mult_basis(b, u):
                    key, x = base + t, mul(c, w)
                    row[key] = add(row[key], x) if key in row else x
            rows.append(row)
        return rows

    return products


def _resolve(A: ArtinAlgebra, candidates_by_degree: dict[int, list[Element]],
             top: int, dcap: int) -> tuple[dict, list[int], Optional[int]]:
    """Betti table and ranks of a minimal resolution through homological
    degree top: degree 0 in layer 0, layer 1 minimally generated by the
    candidates (elements of F_0, by degree); and the projective dimension,
    the first i with ker d_i = 0 up to dcap (0 without generators), or None.

    Per layer i and degree j one `Echelon` over (F_{i-1})_j: first the
    products u * g of lower generators, each tagged at the flat key
    T*n + k*n + u, T the number of generators of F_{i-1} and n = A.dim, so
    tags sort after every element key (all below T*n) and a product left
    with a tag pivot is a dependency, its tags less T*n a vector of ker d_i
    in flat keys k*n + u; then the candidates, one left with an element
    pivot a new generator.  A zero product u * g skips the elimination as
    the dependency {k*n + u: 1}; when every term of g multiplies past the
    top degree, every u of the degree gives one and no product is formed.
    Dependencies count up to dcap; layer-1 candidates above it are still
    taken.

    A new generator g of degree s with A_1 g = 0 is split off.  The module
    its layer generates is then k(-s) plus the module M' of the other
    generators (c g in M' for a scalar c != 0 would make g redundant), so
    its minimal resolution is that of k(-s) plus that of M'.  g keeps its
    shift but forms no products, and every later layer i + t, t >= 1,
    inherits the shifts s + j <= dcap of layers[t], which holds when
    layers[t] resolves the residue field, as it does for
    `betti_residue_field`.  The quotient resolution never splits: each of
    its generators has a term below the truncated polynomial ring's top
    degree dcap, and that term times a variable survives.  The test's
    products of a generator that is not split off are its products in
    degree s + 1.  A layer without generators stops the resolution only
    when it inherits nothing, and a vanished kernel only when the next
    layer inherits nothing."""
    one = A.field.one()
    entry = A.field.row_arithmetic[0]
    n, products, ones = A.dim, _products(A), A.component(1)
    # layers[i]: every shift of F_i; socles[i]: the shifts split off F_i
    layers, socles, pd = [[0]], [[]], None

    def inherited(i: int) -> list[int]:
        return [s + j for h in range(1, i) for s in socles[h]
                for j in layers[i - h] if s + j <= dcap]

    candidates = candidates_by_degree
    for i in range(1, top + 1):
        if i == top > 1:
            layers.append(_count_generators(A, candidates, products) + inherited(i))
            break
        tags = len(layers[-1]) * n
        shifts: list[int] = []
        socle: list[int] = []
        # (block, shift, image, its products with A_1) of each generator
        # that is not split off
        gens: list[tuple[int, int, Element, list[Element]]] = []
        kernel: dict[int, list[Element]] = {}
        degrees = set(candidates).union(range(1, dcap + 1) if i < top else ())
        for j in sorted(degrees):
            ech = Echelon(A.field)
            # every generator so far has degree below j
            for block, s, g, first in gens:
                us = A.component(j - s)
                if not us:
                    continue
                rows = first if j - s == 1 else products(g, us)
                for u, row in zip(us, rows):
                    if not row:
                        # no stored row has a tag pivot, so a zero product
                        # would reduce to its tag alone: a unit syzygy
                        if j <= dcap:
                            kernel.setdefault(j, []).append({block + u: one})
                        continue
                    row[tags + block + u] = one
                    rem, c = ech.reduce(row)
                    if c < tags:
                        ech.store(rem, c)
                    elif j <= dcap:
                        kernel.setdefault(j, []).append(
                            {key - tags: x for key, x in rem.items()})
            cands = candidates.get(j, ())
            for g in cands:
                # past layer 1 the candidates are a basis of a space that
                # holds the products: once they span it, none is new
                if i > 1 and len(ech.rows) == len(cands):
                    break
                rem, c = ech.reduce(g)
                if c is not None and c < tags:
                    ech.store(rem, c)
                    first = products(g, ones)
                    if any(map(entry, first)):
                        gens.append((len(shifts) * n, j, g, first))
                    else:
                        socle.append(j)
                    shifts.append(j)
        socles.append(socle)
        shifts += inherited(i)
        if not shifts:
            pd = i - 1
            break
        layers.append(shifts)
        if not kernel and i < top and not inherited(i + 1):
            pd = i
            break
        candidates = kernel
    betti = Counter((i, j) for i, shifts in enumerate(layers) for j in shifts)
    return dict(betti), [len(shifts) for shifts in layers], pd


def _count_generators(A: ArtinAlgebra, K: dict[int, list[Element]],
                      products: Callable[[Element, tuple[int, ...]], list[Element]]
                      ) -> list[int]:
    """Shifts of minimal generators of a graded submodule K, from a basis of
    each degree: dim K_j - rank(A_1 K_{j-1}), as A is generated in degree 1;
    products is the resolution's `_products(A)`.  Every product is formed:
    a degree with a new minimal generator needs all of them before its rank
    is known.  Nothing is split off: a counted generator has no products."""
    shifts: list[int] = []
    ones = A.component(1)
    for j in sorted(K):
        ech = Echelon(A.field)
        for v in K.get(j - 1, ()):
            for row in products(v, ones):
                if row:
                    ech.add(row)
        shifts.extend([j] * (len(K[j]) - len(ech.rows)))
    return shifts


def _alternating_numerator(betti: dict[tuple[int, int], int]) -> list[int]:
    out: list[int] = []
    for (i, j), b in betti.items():
        if j >= len(out):
            out.extend([0] * (j + 1 - len(out)))
        out[j] += (-1) ** i * b
    while out and out[-1] == 0:
        out.pop()
    return out


def _regular(src: Union[ArtinAlgebra, Presentation], A: ArtinAlgebra,
             capacity: int) -> bool:
    """Whether the graded ring is regular: a polynomial ring (Hilbert
    numerator 1) or, given as an Artinian algebra, a field."""
    if isinstance(src, Presentation):
        return hilbert_numerator(A.field, src.nvars, src.gens, capacity)[0] == [1]
    return A.dim == 1


def betti_residue_field(src: Union[ArtinAlgebra, Presentation], hcap: int,
                        dcap: Optional[int] = None,
                        capacity: int = DEFAULT_CAPACITY) -> ResolutionData:
    """Betti table of the residue field over a graded quotient, through
    homological degree hcap and internal degree dcap.

    Only a regular ring has a finite resolution of the residue field
    (Auslander-Buchsbaum-Serre), the Koszul complex: `complete` and pd = e
    need a regular ring and ranks C(e, i), e = embdim; else pd is None."""
    if hcap < 1:
        raise RangeError("homological cap must be at least 1")
    if isinstance(src, Presentation):
        if src.mode != "graded":
            raise GradingError("residue-field resolution needs a graded presentation")
        if dcap is None:
            dcap = hcap + 3
        # the degree-1 generators, and so e, need the jet past degree 1
        A = jet(src, max(dcap, 1) + 1, capacity=capacity)
    else:
        A = src
        if A.is_zero_ring():
            raise ZeroRingError("residue-field resolution over the zero ring")
        nilp = max(A.degrees()) + 1
        if dcap is None:
            dcap = hcap * max(nilp - 1, 1) + 1
    if not all(rel.is_homogeneous() for rel in A.relations):
        raise GradingError("residue-field resolution needs homogeneous relations")

    first = [{b: A.field.one()} for b in A.component(1)]
    betti, ranks, pd = _resolve(A, {1: first}, hcap, dcap)
    e = len(first)
    if not (pd == e and ranks == [comb(e, i) for i in range(e + 1)]
            and _regular(src, A, capacity)):
        pd = None
    return ResolutionData(betti, ranks, pd, pd is not None, hcap, dcap, "residue-field")


def minimal_resolution_of_quotient(p: Presentation,
                                   capacity: int = DEFAULT_CAPACITY
                                   ) -> ResolutionData:
    """Finite minimal free resolution of the quotient over the ambient
    polynomial ring, with the degree cap raised until certified complete."""
    if p.mode != "graded":
        raise GradingError("quotient resolution needs a graded presentation")
    return _quotient_resolution(p, hilbert_series(p, capacity=capacity), capacity)


def _quotient_resolution(p: Presentation, hd: HilbertData,
                         capacity: int) -> ResolutionData:
    """minimal_resolution_of_quotient given the Hilbert series of p."""
    r = p.nvars
    target = list(hd.numerator)
    for _ in range(r - hd.pole_order):
        target = [a - b for a, b in
                  zip(target + [0], [0] + target)]  # multiply by (1 - t)
    while target and target[-1] == 0:
        target.pop()

    ambient = Presentation(p.field, p.vars, [], "graded")
    degsum = sum(g.degree() for g in p.gens)
    dcap = degsum + r + 2
    for _ in range(5):
        A = jet(ambient, dcap + 1, capacity=capacity)
        index = {m: i for i, m in enumerate(A.basis)}
        candidates: dict[int, list[Element]] = {}
        for g in p.gens:
            candidates.setdefault(g.degree(), []).append(
                {index[mono]: c for mono, c in g.terms.items()})
        betti, ranks, pd = _resolve(A, candidates, r + 2, dcap)
        maxdeg = max((j for (_, j) in betti), default=0)
        if pd is not None and maxdeg <= dcap - 2 \
                and _alternating_numerator(betti) == target:
            return ResolutionData(betti, ranks, pd, True, r + 1, dcap, "quotient")
        dcap += degsum + 4
    raise InternalInconsistencyError(
        "quotient resolution failed its completeness certificate at every cap")


@dataclass(frozen=True)
class ClassifyResult:
    """Depth, dimension, and the classification flags of a graded quotient;
    `gorenstein` is None when no certificate applies (never guessed)."""

    depth: int
    dim: int
    embdim: int
    pd: int
    regular: bool
    cohen_macaulay: bool
    gorenstein: Optional[bool]


def depth_and_classify(p: Presentation,
                       capacity: int = DEFAULT_CAPACITY) -> ClassifyResult:
    """Depth via the length of the quotient resolution, plus the regular /
    Cohen-Macaulay / Gorenstein flags."""
    if p.mode != "graded":
        raise GradingError("classification needs a graded presentation")
    hd = hilbert_series(p, capacity=capacity)
    res = _quotient_resolution(p, hd, capacity)
    depth = p.nvars - res.pd
    dim = hd.dim
    embdim = hd.series_prefix[1]
    regular = embdim == dim
    cm = depth == dim
    gorenstein: Optional[bool]
    if dim == 0:
        top = max(j for j, h in enumerate(hd.series_prefix) if h > 0)
        A = jet(p, top + 1, capacity=capacity)
        gorenstein = socle_dimension(A) == 1
    elif cm:
        gorenstein = res.rank(res.pd) == 1
    else:
        gorenstein = None
    return ClassifyResult(depth, dim, embdim, res.pd, regular, cm, gorenstein)
