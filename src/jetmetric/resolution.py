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

Module elements are sparse: only the nonzero coefficients are stored, and a
basis monomial times an element reads the ring's own sparse table of basis-
pair products (`ArtinAlgebra.mult_basis`, shared with the invariants and the
witness search), so no work is spent on the zero blocks of generators in
other degrees.  Degree components come from `ArtinAlgebra.component`.  This
module does no row reduction of its own: every elimination is an
`exactcore.Echelon`.

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
from typing import Optional, Union

from .artin import ArtinAlgebra, jet, socle_dimension
from .errors import GradingError, InternalInconsistencyError, RangeError, ZeroRingError
from .exactcore import Echelon
from .hilbert import HilbertData, hilbert_series
from .poly import DEFAULT_CAPACITY
from .presentation import Presentation
from .standard import hilbert_numerator

# An element of a free module is a dict from (generator index k, ring basis
# index b) to a nonzero coefficient, the coefficient of basis[b] times the
# k-th generator.  Sorted keys follow the flattened coordinate order: blocks
# in generator order, each block in ascending basis index.
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


def _mult(A: ArtinAlgebra, u: int, elem: Element) -> Element:
    """basis[u] * elem, read from the algebra's sparse basis-pair products."""
    add, mul, is_zero = A.field.add, A.field.mul, A.field.is_zero
    out: Element = {}
    for (k, b), c in elem.items():
        for t, w in A.mult_basis(b, u):
            x = mul(c, w)
            key = (k, t)
            out[key] = add(out[key], x) if key in out else x
    return {key: x for key, x in out.items() if not is_zero(x)}


def _resolve(A: ArtinAlgebra, candidates_by_degree: dict[int, list[Element]],
             top: int, dcap: int) -> tuple[dict, list[int], Optional[int]]:
    """Betti table and ranks of a minimal resolution through homological
    degree top: degree 0 in layer 0, layer 1 minimally generated by the
    candidates (elements of F_0, by degree); and the projective dimension,
    the first i with ker d_i = 0 up to dcap (0 without generators), or None.

    Per layer i and degree j one `Echelon` over (F_{i-1})_j: first the
    products u * g of lower generators, tagged (T, k, u) with T the number of
    generators of F_{i-1}, so tags sort last and a product left with a tag
    pivot is a dependency, its tags a vector of ker d_i; then the candidates,
    one left with an element pivot a new generator.  Dependencies count up
    to dcap; layer-1 candidates above it are still taken."""
    one = A.field.one()
    layers, pd = [[0]], None
    candidates = candidates_by_degree
    for i in range(1, top + 1):
        if i == top > 1:
            layers.append(_count_generators(A, candidates))
            break
        T = len(layers[-1])
        shifts: list[int] = []
        gens: list[Element] = []
        kernel: dict[int, list[Element]] = {}
        degrees = set(candidates).union(range(1, dcap + 1) if i < top else ())
        for j in sorted(degrees):
            ech = Echelon(A.field)
            # every generator so far has degree below j
            for k, (s, g) in enumerate(zip(shifts, gens)):
                for u in A.component(j - s):
                    row = _mult(A, u, g)
                    row[(T, k, u)] = one
                    rem, c = ech.reduce(row)
                    if c[0] < T:
                        ech.store(rem, c)
                    elif j <= dcap:
                        kernel.setdefault(j, []).append(
                            {(k2, u2): x for (_, k2, u2), x in rem.items()})
            cands = candidates.get(j, ())
            for g in cands:
                # past layer 1 the candidates are a basis of a space that
                # holds the products: once they span it, none is new
                if i > 1 and len(ech.rows) == len(cands):
                    break
                rem, c = ech.reduce(g)
                if c is not None and c[0] < T:
                    ech.store(rem, c)
                    shifts.append(j)
                    gens.append(g)
        if not shifts:
            pd = i - 1
            break
        layers.append(shifts)
        if not kernel and i < top:
            pd = i
            break
        candidates = kernel
    betti = Counter((i, j) for i, shifts in enumerate(layers) for j in shifts)
    return dict(betti), [len(shifts) for shifts in layers], pd


def _count_generators(A: ArtinAlgebra, K: dict[int, list[Element]]) -> list[int]:
    """Shifts of minimal generators of a graded submodule K, from a basis of
    each degree: dim K_j - rank(A_1 K_{j-1}), as A is generated in degree 1."""
    shifts: list[int] = []
    for j in sorted(K):
        ech = Echelon(A.field)
        for v in K.get(j - 1, ()):
            for x in A.component(1):
                ech.add(_mult(A, x, v))
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

    first = [{(0, b): A.field.one()} for b in A.component(1)]
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
                {(0, index[mono]): c for mono, c in g.terms.items()})
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
