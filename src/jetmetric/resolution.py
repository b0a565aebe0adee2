"""Graded minimal free resolutions by degreewise linear algebra.

No Groebner or Schreyer machinery: a free module over a graded quotient is
handled one internal degree at a time, where everything is a finite matrix
over the coefficient field.  Syzygies in degree j are the kernel of the
evaluation matrix; minimal generators are the kernel vectors surviving
reduction against the submodule generated in lower degrees.  That yields
Betti tables of the residue field over an Artinian (or polynomial) graded
ring, finite resolutions of graded quotients over the polynomial ring, and
the depth / regular / Cohen-Macaulay / Gorenstein classification.

Completeness of a finite resolution is certified, not assumed: the
alternating sum of its Betti polynomials must reproduce the Hilbert-series
numerator computed independently from degreewise ranks, and the internal
degree cap must clear the largest generator degree with margin; the cap is
raised and the computation redone until the certificate passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .artin import ArtinAlgebra, jet, socle
from .errors import GradingError, InternalInconsistencyError
from .exactcore import ExactMatrix
from .hilbert import hilbert_series
from .poly import DEFAULT_CAPACITY, Monomial, mono_deg, mono_mul
from .presentation import Presentation

# An element of a free module with generator degrees `shifts` is a list with
# one coordinate block per generator: a coefficient vector over the standard
# monomials of the ring component in the complementary degree, or None when
# that degree is negative.
Element = list


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

    def betti_row(self, i: int) -> dict[int, int]:
        return {j: b for (h, j), b in sorted(self.betti.items()) if h == i}


class _Frame:
    """Degreewise view of a graded Artinian algebra: component bases and
    multiplication of a component vector by a monomial."""

    def __init__(self, A: ArtinAlgebra):
        for rel in A.relations:
            if not rel.is_homogeneous():
                raise GradingError("resolution frame needs homogeneous relations")
        self.A = A
        self.field = A.field
        degs = A.degrees()
        top = max(degs)
        self.by_degree: list[list[int]] = [[] for _ in range(top + 1)]
        for idx, d in enumerate(degs):
            self.by_degree[d].append(idx)
        self._products: dict[tuple[int, Monomial], list] = {}

    def comp(self, d: int) -> list[int]:
        return self.by_degree[d] if 0 <= d < len(self.by_degree) else []

    def comp_dim(self, d: int) -> int:
        return len(self.comp(d))

    def hf(self, d: int) -> int:
        return self.comp_dim(d)

    def mult_mono(self, mono: Monomial, vec: Sequence, src_deg: int) -> list:
        """Multiply a degree-src_deg component vector by a monomial."""
        fld = self.field
        dst = src_deg + mono_deg(mono)
        out = fld.vec_zero(self.comp_dim(dst))
        if not out:
            return out
        add, mul = fld.add, fld.mul
        for b, c in zip(self.comp(src_deg), vec):
            if fld.is_zero(c):
                continue
            for t, w in self._product(b, mono, dst):
                out[t] = add(out[t], mul(c, w))
        return out

    def _product(self, b: int, mono: Monomial, dst: int) -> list[tuple[int, object]]:
        """Nonzero (position, value) entries of basis[b] * mono in the
        degree-dst component, cached for the frame's lifetime."""
        key = (b, mono)
        got = self._products.get(key)
        if got is None:
            A, fld = self.A, self.field
            full = A.reduce_monomial(mono_mul(A.basis[b], mono))
            got = [(t, full[i]) for t, i in enumerate(self.comp(dst))
                   if not fld.is_zero(full[i])]
            self._products[key] = got
        return got


class _Reducer:
    """Incremental row reduction for membership tests in a growing span.

    Each pivot row is stored as its nonzero (column, value) pairs, scaled
    so that the pivot entry is one, so reducing touches only those."""

    def __init__(self, field):
        self.field = field
        self.rows: dict[int, list[tuple[int, object]]] = {}

    def add(self, v: Sequence) -> bool:
        """Insert v unless it lies in the span; True when v was inserted."""
        fld = self.field
        is_zero, sub, mul = fld.is_zero, fld.sub, fld.mul
        v = list(v)
        for c in range(len(v)):
            coef = v[c]
            if is_zero(coef):
                continue
            row = self.rows.get(c)
            if row is None:
                inv = fld.inv(coef)
                self.rows[c] = [(i, mul(inv, x)) for i, x in enumerate(v[c:], c)
                                if not is_zero(x)]
                return True
            for i, r in row:
                v[i] = sub(v[i], mul(coef, r))
        return False


def _element_mult(frame: _Frame, mono: Monomial, elem: Element,
                  elem_deg: int, shifts: Sequence[int]) -> Element:
    out: Element = []
    for k, block in enumerate(elem):
        if block is None:
            out.append(None)
        else:
            out.append(frame.mult_mono(mono, block, elem_deg - shifts[k]))
    return out


def _flatten(frame: _Frame, elem: Element, deg: int,
             shifts: Sequence[int]) -> list:
    fld = frame.field
    out: list = []
    for k, s in enumerate(shifts):
        c = deg - s
        n = frame.comp_dim(c) if c >= 0 else 0
        block = elem[k] if k < len(elem) and elem[k] is not None else None
        out.extend(block if block is not None else fld.vec_zero(n))
    return out


def _span_reducer(frame: _Frame, gen_shifts: Sequence[int], gens: Sequence[Element],
                  deg: int, shifts: Sequence[int]) -> _Reducer:
    """A _Reducer seeded with the degree-deg multiples u * g of the given
    generators (degrees gen_shifts) of a module with the given shifts."""
    red = _Reducer(frame.field)
    for d, g in zip(gen_shifts, gens):
        for u in frame.comp(deg - d):
            red.add(_flatten(frame, _element_mult(frame, frame.A.basis[u], g, d, shifts),
                             deg, shifts))
    return red


def _syzygy_step(frame: _Frame, prev_shifts: Sequence[int],
                 shifts: Sequence[int], gens: Sequence[Element],
                 dcap: int) -> tuple[list[int], list[Element], bool]:
    """Minimal generators of the syzygy module of `gens`; the flag reports
    whether the kernel vanished identically at every degree up to the cap."""
    fld = frame.field
    new_shifts: list[int] = []
    new_gens: list[Element] = []
    kernel_seen = False
    if not shifts:
        return new_shifts, new_gens, False
    for j in range(min(shifts) + 1, dcap + 1):
        # domain: one block of ring monomials per generator
        dom: list[tuple[int, int]] = []  # (generator index, basis index)
        for k, s in enumerate(shifts):
            if j - s >= 0:
                dom.extend((k, b) for b in frame.comp(j - s))
        if not dom:
            continue
        cod_dim = sum(frame.comp_dim(j - s) for s in prev_shifts if j - s >= 0)
        cols: list[list] = []
        for k, b in dom:
            img = _element_mult(frame, frame.A.basis[b], gens[k],
                                shifts[k], prev_shifts)
            cols.append(_flatten(frame, img, j, prev_shifts))
        rows = [[cols[c][r] for c in range(len(dom))] for r in range(cod_dim)]
        kernel = ExactMatrix(fld, rows, len(dom)).kernel_basis()
        if not kernel:
            continue
        kernel_seen = True

        red = _span_reducer(frame, new_shifts, new_gens, j, shifts)
        offsets: list[Optional[tuple[int, int]]] = []
        pos = 0
        for k, s in enumerate(shifts):
            n = frame.comp_dim(j - s) if j - s >= 0 else 0
            offsets.append((pos, n) if j - s >= 0 else None)
            pos += n
        for v in kernel:
            if not red.add(v):
                continue
            elem: Element = []
            for k, s in enumerate(shifts):
                if offsets[k] is None:
                    elem.append(None)
                    continue
                start, n = offsets[k]
                block = list(v[start:start + n])
                if s == j and any(not fld.is_zero(c) for c in block):
                    raise InternalInconsistencyError(
                        "syzygy with a unit entry against a minimal generator")
                elem.append(block)
            new_shifts.append(j)
            new_gens.append(elem)
    return new_shifts, new_gens, not kernel_seen


def _minimalize(frame: _Frame, candidates: list[tuple[int, Element]],
                shifts_prev: Sequence[int]) -> tuple[list[int], list[Element]]:
    """Minimal generating subset of homogeneous module elements: processed by
    ascending degree, keeping those outside the submodule of the kept ones."""
    shifts: list[int] = []
    kept: list[Element] = []
    for deg, elem in sorted(candidates, key=lambda t: t[0]):
        red = _span_reducer(frame, shifts, kept, deg, shifts_prev)
        if red.add(_flatten(frame, elem, deg, shifts_prev)):
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


def _kappa_accounting_ok(frame: _Frame, betti: dict, dcap: int) -> bool:
    """The finite resolution of the residue field is complete iff the
    alternating Betti convolution with the ring's Hilbert function is the
    Hilbert function of the field."""
    for c in range(dcap + 1):
        acc = sum((-1) ** i * b * frame.hf(c - j)
                  for (i, j), b in betti.items() if c - j >= 0)
        if acc != (1 if c == 0 else 0):
            return False
    return True


def betti_residue_field(src: Union[ArtinAlgebra, Presentation], hcap: int,
                        dcap: Optional[int] = None,
                        capacity: int = DEFAULT_CAPACITY) -> ResolutionData:
    """Betti table of the residue field over a graded quotient, through
    homological degree hcap and internal degree dcap."""
    if hcap < 1:
        raise ValueError("homological cap must be at least 1")
    if isinstance(src, Presentation):
        if src.mode != "graded":
            raise GradingError("residue-field resolution needs a graded presentation")
        if dcap is None:
            dcap = hcap + 3
        frame = _Frame(jet(src, dcap + 1, capacity=capacity))
    else:
        A = src
        nilp = max(A.degrees()) + 1
        if dcap is None:
            dcap = hcap * max(nilp - 1, 1) + 1
        frame = _Frame(A)

    layers: list[list[int]] = [[0]]
    gens_by_layer: list[list[Element]] = [[]]
    first = [[frame.field.vec_zero(0)] for _ in frame.comp(1)]
    for t, b in enumerate(frame.comp(1)):
        vec = frame.field.vec_zero(frame.comp_dim(1))
        vec[t] = frame.field.one()
        first[t] = [vec]
    layers.append([1] * len(first))
    gens_by_layer.append(first)

    complete = False
    pd: Optional[int] = None
    if not first:
        complete, pd = True, 0
        layers = layers[:1]
    else:
        for i in range(1, hcap):
            shifts, gens, vanished = _syzygy_step(
                frame, layers[i - 1], layers[i], gens_by_layer[i], dcap)
            if vanished:
                complete, pd = True, i
                break
            if not shifts:
                break  # kernel nonzero but out of degree range: truncated
            layers.append(shifts)
            gens_by_layer.append(gens)

    betti, ranks = _betti_from_layers(layers)
    if complete and not _kappa_accounting_ok(frame, betti, dcap):
        complete, pd = False, None
    return ResolutionData(betti, ranks, pd, complete, hcap, dcap, "residue-field")


def minimal_resolution_of_quotient(p: Presentation,
                                   capacity: int = DEFAULT_CAPACITY
                                   ) -> ResolutionData:
    """Finite minimal free resolution of the quotient over the ambient
    polynomial ring, with the degree cap raised until certified complete."""
    if p.mode != "graded":
        raise GradingError("quotient resolution needs a graded presentation")
    hd = hilbert_series(p)
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
        frame = _Frame(jet(ambient, dcap + 1, capacity=capacity))
        candidates = []
        for g in p.gens:
            d = g.degree()
            comp = frame.comp(d)
            pos_of = {frame.A.basis[b]: t for t, b in enumerate(comp)}
            vec = frame.field.vec_zero(len(comp))
            for mono, c in g.terms.items():
                vec[pos_of[mono]] = c
            candidates.append((d, [vec]))
        shifts1, gens1 = _minimalize(frame, candidates, [0])

        layers = [[0]]
        gens_by_layer: list[list[Element]] = [[]]
        if shifts1:
            layers.append(shifts1)
            gens_by_layer.append(gens1)
        complete = not shifts1
        pd = 0
        for i in range(1, r + 2):
            if i >= len(layers):
                break
            shifts, gens, vanished = _syzygy_step(
                frame, layers[i - 1], layers[i], gens_by_layer[i], dcap)
            if vanished:
                complete, pd = True, i
                break
            if not shifts:
                break
            layers.append(shifts)
            gens_by_layer.append(gens)

        betti, ranks = _betti_from_layers(layers)
        maxdeg = max((j for (_, j) in betti), default=0)
        if complete and maxdeg <= dcap - 2 \
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
    res = minimal_resolution_of_quotient(p, capacity=capacity)
    hd = hilbert_series(p)
    depth = p.nvars - res.pd
    dim = hd.dim
    embdim = hd.series_prefix[1]
    regular = embdim == dim
    cm = depth == dim
    gorenstein: Optional[bool]
    if dim == 0:
        top = max(j for j, h in enumerate(hd.series_prefix) if h > 0)
        A = jet(p, top + 1, capacity=capacity)
        gorenstein = socle(A)[0] == 1
    elif cm:
        gorenstein = res.rank(res.pd) == 1
    else:
        gorenstein = None
    return ClassifyResult(depth, dim, embdim, res.pd, regular, cm, gorenstein)
