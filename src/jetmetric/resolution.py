"""Graded minimal free resolutions by degreewise linear algebra.

No Groebner or Schreyer machinery: a free module over a graded quotient is
handled one internal degree at a time, where everything is a finite matrix
over the coefficient field.  Syzygies in degree j are the kernel of the
evaluation matrix; minimal generators are the kernel vectors surviving
reduction against the submodule generated in lower degrees.  That yields
Betti tables of the residue field over an Artinian (or polynomial) graded
ring, finite resolutions of graded quotients over the polynomial ring, and
the depth / regular / Cohen-Macaulay / Gorenstein classification.

Module elements are sparse: only the nonzero coefficients are stored, and a
basis monomial times an element reads the ring's own sparse table of basis-
pair products (`ArtinAlgebra.mult_basis`, shared with the invariants and the
witness search), so no work is spent on the zero blocks of generators in
other degrees.  Degree components come from `ArtinAlgebra.component`.  This
module does no row reduction of its own: kernels come sparse from
`ExactMatrix.kernel_basis`, and membership in a submodule is tested by
`exactcore.Echelon`, the one elimination engine behind every `ExactMatrix`.

Completeness of a finite resolution is certified, not assumed: the
alternating sum of its Betti polynomials must reproduce the Hilbert-series
numerator of the certified leading ideal, and the internal degree cap must
clear the largest generator degree with margin; the cap is raised and the
computation redone until the certificate passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Optional, Sequence, Union

from .artin import ArtinAlgebra, jet, socle_dimension
from .errors import GradingError, InternalInconsistencyError, RangeError, ZeroRingError
from .exactcore import Echelon, ExactMatrix
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


def _span_reducer(A: ArtinAlgebra, gen_shifts: Sequence[int], gens: Sequence[Element],
                  deg: int) -> Echelon:
    """An Echelon seeded with the degree-deg multiples u * g of the given
    generators (degrees gen_shifts)."""
    red = Echelon(A.field)
    for d, g in zip(gen_shifts, gens):
        for u in A.component(deg - d):
            red.add(_mult(A, u, g))
    return red


def _syzygy_step(A: ArtinAlgebra, prev_shifts: Sequence[int],
                 shifts: Sequence[int], gens: Sequence[Element],
                 dcap: int) -> tuple[list[int], list[Element], bool]:
    """Minimal generators of the syzygy module of `gens`; the flag reports
    whether the kernel vanished identically at every degree up to the cap."""
    fld = A.field
    new_shifts: list[int] = []
    new_gens: list[Element] = []
    kernel_seen = False
    if not shifts:
        return new_shifts, new_gens, False
    for j in range(min(shifts) + 1, dcap + 1):
        # domain and codomain: one block of ring basis indices per generator
        dom = [(k, b) for k, s in enumerate(shifts) for b in A.component(j - s)]
        if not dom:
            continue
        row_of = {key: r for r, key in enumerate(
            (k, b) for k, s in enumerate(prev_shifts) for b in A.component(j - s))}
        rows: list[dict] = [{} for _ in row_of]
        for c, (k, b) in enumerate(dom):
            for key, x in _mult(A, b, gens[k]).items():
                rows[row_of[key]][c] = x
        kernel = ExactMatrix(fld, rows, len(dom)).kernel_basis()
        if not kernel:
            continue
        kernel_seen = True

        red = _span_reducer(A, new_shifts, new_gens, j)
        for v in kernel:
            elem = {dom[c]: x for c, x in v.items()}
            if not red.add(elem):
                continue
            if any(shifts[k] == j for k, _ in elem):
                raise InternalInconsistencyError(
                    "syzygy with a unit entry against a minimal generator")
            new_shifts.append(j)
            new_gens.append(elem)
    return new_shifts, new_gens, not kernel_seen


def _resolve(A: ArtinAlgebra, shifts1: list[int], gens1: list[Element],
             top: int, dcap: int) -> tuple[list[list[int]], Optional[int]]:
    """The layers' shifts of a minimal resolution with one generator of
    degree 0 in homological degree 0 and the given generators in degree 1,
    each further layer one `_syzygy_step`, below homological degree top;
    and its projective dimension: the first degree whose syzygies vanish
    up to dcap (0 with no generators), or None when the steps stop first
    (a kernel out of degree range, or top reached)."""
    if not shifts1:
        return [[0]], 0
    layers, gens = [[0], shifts1], gens1
    for i in range(1, top):
        shifts, gens, vanished = _syzygy_step(A, layers[i - 1], layers[i], gens, dcap)
        if vanished:
            return layers, i
        if not shifts:
            break  # kernel nonzero but out of degree range: truncated
        layers.append(shifts)
    return layers, None


def _minimalize(A: ArtinAlgebra, candidates: list[tuple[int, Element]]
                ) -> tuple[list[int], list[Element]]:
    """Minimal generating subset of homogeneous module elements: processed by
    ascending degree, keeping those outside the submodule of the kept ones.
    One reducer serves each degree, since a kept element is already a row."""
    shifts: list[int] = []
    kept: list[Element] = []
    red, red_deg = None, None
    for deg, elem in sorted(candidates, key=lambda t: t[0]):
        if deg != red_deg:
            red, red_deg = _span_reducer(A, shifts, kept, deg), deg
        if red.add(elem):
            shifts.append(deg)
            kept.append(elem)
    return shifts, kept


def _betti_from_layers(layers: list[list[int]]) -> tuple[dict, list[int]]:
    betti: dict[tuple[int, int], int] = {}
    for i, shifts in enumerate(layers):
        for j in shifts:
            betti[(i, j)] = betti.get((i, j), 0) + 1
    return betti, [len(s) for s in layers]


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
    layers, pd = _resolve(A, [1] * len(first), first, hcap, dcap)
    betti, ranks = _betti_from_layers(layers)
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
        candidates = [(g.degree(), {(0, index[mono]): c for mono, c in g.terms.items()})
                      for g in p.gens]
        layers, pd = _resolve(A, *_minimalize(A, candidates), r + 2, dcap)
        betti, ranks = _betti_from_layers(layers)
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
