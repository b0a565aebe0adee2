"""Isomorphism testing for Artinian algebras over a common coefficient field.

Verdicts are tri-state.  NOT_ISO is only ever produced by a separating
invariant whose value is stable under coefficient-field extension (lengths,
Hilbert function, nilpotency, socle dimension, embedding dimension,
multiplication-rank profile, dimension of the derivation space), so a NOT_ISO
verdict rules out isomorphism after any base change as well.  The derivation
space costs one rank on r * dim A rows, so it is compared only when the
identity and the variable permutations have failed, before the larger
candidate lists, and at most once per decision.  ISO comes with an explicit
generator-image witness that is re-verified mechanically.  Exhausting the search space over
the allowed extensions without finding a witness yields UNKNOWN — the honest
outcome, since bigger coefficient fields might still glue the two algebras.

Over finite fields the search enumerates candidate images of the source
variables in a deterministic integer-encoding order: linear images first
(complete for graded algebras, where an isomorphism can always be chosen
degree-preserving), then images with higher-order terms for local inputs.
Over the rationals only variable permutations combined with a fixed set of
scalings are tried.  The scaled candidates are screened by an exact integer
plan that multiplies nothing in B: x_k -> s_k y_perm(k) sends each relation
term c x^a to c s^a [y^(perm a)], and the class [y^b] is a normal form B
already stores, so a per-permutation plan lists each coordinate's terms
once, with denominators cleared, and sums integer products of them with the
scalings' powers.  A nonzero sum rejects the candidate.

Both lists are walked as trees of prefixes in their own order, and each
prefix is decided once.  Over Q a prefix of the scalings decides every plan
coordinate whose terms differ in no later exponent; over F_q a prefix of
generator images fails when its degree-1 rows, with one more row for each
image still free, cannot span m/m^2, and the last image meets the relations
split by powers of its variable, evaluated once per prefix.  A prefix that
fails for every completion charges all of them against the effort in one
step, with the arithmetic of charging them one by one, so the effort spent,
the point where it runs out and the first witness are those of the
candidate-by-candidate search.  A candidate that survives still goes
through the exact relation and bijectivity checks.

Candidates and witnesses are `Sparse` elements, the one element form of
`artin`, in every field; only the CLI writes a witness out, as text.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import lcm
from typing import Callable, Optional, Sequence

from .artin import (
    ArtinAlgebra,
    MonomialMap,
    Sparse,
    hf_by_degree_count,
    nilpotency_index,
    socle_dimension,
)
from .errors import FieldError, FieldMismatchError, InternalInconsistencyError, RangeError
from .exactcore import (
    Echelon,
    ExactMatrix,
    Field,
    PrimeField,
    RationalField,
    finite_field,
)
from .poly import Monomial, TruncatedQuotient, monomials_of_degree
from .presentation import poly_to_str

QQ_SCALINGS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
               Fraction(1, 2), Fraction(-1, 2), Fraction(3), Fraction(-3),
               Fraction(1, 3), Fraction(-1, 3))


# ---------------------------------------------------------------------------
# invariant signature


@dataclass(frozen=True)
class InvariantSignature:
    """The values of the separating invariants in `INVARIANTS`, in its
    order; each field name is the separator name it reports."""

    length: int
    hilbert_function: tuple[int, ...]
    nilpotency_index: int
    socle_dimension: int
    embedding_dimension: int
    multiplication_rank_profile: tuple[int, ...]
    derivation_dimension: int


def _mult_rank_profile(A: ArtinAlgebra) -> tuple[int, ...]:
    """For each degree d >= 1, the rank of the multiplication pairing
    (m/m^2) x (m^d/m^{d+1}) -> m^{d+1}/m^{d+2} in the associated graded."""
    if A.is_zero_ring():
        return ()
    profile = []
    f = A.field
    lin = A.component(1)
    for d in range(1, max(A.degrees())):
        mid, out = A.component(d), A.component(d + 1)
        if not lin or not mid or not out:
            profile.append(0)
            continue
        pos = {i: j for j, i in enumerate(out)}
        rows = [{pos[k]: c for k, c in A.mult_basis(i, j) if k in pos}
                for i in lin for j in mid]
        profile.append(ExactMatrix(f, rows, len(out)).rank())
    return tuple(profile)


def derivation_dimension(A: ArtinAlgebra) -> int:
    """dim_k Der_k(A), the dimension of the Lie algebra of k-derivations
    (Mather-Yau, Invent. Math. 69, 1982).

    A derivation D is fixed by the images D(x_i) in A, and it is well defined
    exactly when every generator g of I + m^cap (A's relations and the
    degree-cap monomials) gives sum_i [dg/dx_i] D(x_i) = 0 in A.  With
    D(x_i) = sum_j d_ij b_j over the basis, the unknown d_ij meets generator
    g through [dg/dx_i] b_j, so one row per (i, j), holding those products
    for all g side by side, has the rank of the system, and
    dim Der = r dim A - rank.  A rank over k does not change under field
    extension, nor does the dimension depend on the presentation.
    """
    if A.is_zero_ring():
        return 0
    f, r, n = A.field, A.nvars, A.dim
    gens = [list(g.terms.items()) for g in A.relations]
    gens += [[(m, f.one())] for m in monomials_of_degree(r, A.cap)]
    rows: list[dict] = []
    for i in range(r):
        partials = []
        for terms in gens:
            d = [(a[:i] + (a[i] - 1,) + a[i + 1:], f.mul(c, f.from_int(a[i])))
                 for a, c in terms if a[i]]
            partials.append(A.combine(d, A.reduce_monomial))
        for j in range(n):
            unit = [(j, f.one())]
            row: dict = {}
            for g, dg in enumerate(partials):
                if dg:
                    for k, v in A.multiply(dg, unit):
                        row[g * n + k] = v
            rows.append(row)
    return r * n - ExactMatrix(f, rows, len(gens) * n).rank()


# The separating invariants as (name, function), in the order
# `find_separator` compares them and `InvariantSignature` lists them; each is
# defined on the zero ring too.  Cheap invariants come first.
# `decide_isomorphism` compares all but the last before its search, and the
# last only once the identity and the permutations have failed.
INVARIANTS = (
    ("length", lambda A: A.dim),
    ("hilbert_function", lambda A: tuple(hf_by_degree_count(A))),
    ("nilpotency_index", lambda A: 0 if A.is_zero_ring() else nilpotency_index(A)),
    ("socle_dimension", lambda A: 0 if A.is_zero_ring() else socle_dimension(A)),
    ("embedding_dimension", lambda A: len(A.component(1))),
    ("multiplication_rank_profile", _mult_rank_profile),
    ("derivation_dimension", derivation_dimension),
)


def invariant_signature(A: ArtinAlgebra) -> InvariantSignature:
    return InvariantSignature(**{name: inv(A) for name, inv in INVARIANTS})


def find_separator(A: ArtinAlgebra, B: ArtinAlgebra,
                   invariants: Sequence = INVARIANTS
                   ) -> Optional[tuple[str, object, object]]:
    """First differing invariant of `invariants` between A and B, or None; an
    invariant is computed only when every earlier one agrees."""
    for name, inv in invariants:
        va, vb = inv(A), inv(B)
        if va != vb:
            return (name, va, vb)
    return None


# ---------------------------------------------------------------------------
# base change


def embed_scalar(src: Field, dst: Field, root, c):
    """Image of c under the embedding sending the source generator to root."""
    if isinstance(src, PrimeField):
        return dst.from_int(c)
    out = dst.zero()
    for coeff in reversed(src.coeffs(c)):
        out = dst.add(dst.mul(out, root), dst.from_int(coeff))
    return out


def embedding_root(src: Field, dst: Field):
    """First root (in element-encoding order) of the source minimal polynomial
    inside the destination field; defines the canonical embedding.

    The roots lie in the subfield of order p^m, whose nonzero elements are
    the powers of beta = gamma^((q-1)/(p^m-1)) for a primitive gamma of the
    destination; they are the m Frobenius conjugates r^(p^i) of any one root.
    """
    if isinstance(src, PrimeField):
        return dst.one()
    mp = src.desc.minpoly

    def value(x):
        acc = dst.zero()
        for coeff in reversed(mp):
            acc = dst.add(dst.mul(acc, x), dst.from_int(coeff))
        return acc

    beta = dst.pow(dst.primitive_element(), (dst.order - 1) // (src.order - 1))
    x = dst.one()
    for _ in range(src.order - 1):
        if dst.is_zero(value(x)):
            conjugates = [x]
            for _ in range(src.m - 1):
                conjugates.append(dst.pow(conjugates[-1], src.p))
            return min(conjugates)
        x = dst.mul(x, beta)
    raise FieldError("minimal polynomial has no root in the target field")


def _map_scalars(A: ArtinAlgebra, dst: Field, emb) -> ArtinAlgebra:
    """A with every scalar (normal forms, relations, tuple images) sent
    through emb into dst; basis, truncation and origin are kept."""
    nf = {mono: [emb(c) for c in vec] for mono, vec in A.nf.items()}
    tq = TruncatedQuotient(field=dst, nvars=A.nvars, cap=A.cap,
                           basis=list(A.basis), nf=nf)
    relations = [g.map_coefficients(dst, emb) for g in A.relations]
    out = ArtinAlgebra(dst, A.nvars, tq, relations=relations, origin=A.origin)
    if A.tuple_images is not None:
        out.tuple_images = [[(i, emb(c)) for i, c in v] for v in A.tuple_images]
    return out


def base_change(A: ArtinAlgebra, m_prime: int) -> ArtinAlgebra:
    """Extend coefficients from F_{p^m} to F_{p^{m'}} (m | m'); the basis,
    normal forms, and every rank-type invariant are unchanged."""
    f = A.field
    if isinstance(f, RationalField):
        raise FieldError("base change along extensions of Q is out of scope")
    m = f.desc.m
    if m_prime % m != 0:
        raise FieldError(f"extension degree {m_prime} is not a multiple of {m}")
    if m_prime == m:
        return A
    dst = finite_field(f.p, m_prime)
    root = embedding_root(f, dst)
    return _map_scalars(A, dst, lambda c: embed_scalar(f, dst, root, c))


# An exact plan over the exponents a_0, a_1, ... its terms meet: for
# QQ_SCALINGS[j] = n/d, columns[k][j] lists n^(a_t)_k d^(D_k - (a_t)_k) over t,
# D_k the largest k-th exponent, and levels[k] lists the coordinates that
# scalings 0..k decide, each as (integer coefficients, exponent indices t).
PlanCoordinate = tuple[tuple[int, ...], tuple[int, ...]]
ScaledPlan = tuple[list[list[list[int]]], list[list[PlanCoordinate]]]


def _scaled_plan(A: ArtinAlgebra, B: ArtinAlgebra, perm: Sequence[int],
                 tuple_constraint: bool) -> Optional[ScaledPlan]:
    """The exact filter of the scaled candidates x_k -> s_k y_perm(k) from A
    to B over Q, or None when no scaling can pass it.

    Such a candidate sends c x^a to c s^a [y^(perm a)], with [y^b] B's normal
    form of y^b.  So a relation's value in coordinate i is the sum of
    (c [y^(perm a)]_i) s^a over its terms, and a tuple condition's is the
    same sum over A's tuple image, with B's tuple image in coordinate i
    subtracted as a term at a = 0.  Multiplying coordinate i by the lcm of
    its coefficients' denominators, and every value by the product of
    d_k^(D_k) for s_k = n_k/d_k, turns each term into an integer coefficient
    times the column entries above; both factors are nonzero, so the integer
    sum vanishes exactly when the rational value does.  The plan keeps every
    coordinate with a nonzero term, relations first.

    A scaling s_k at which all of a coordinate's terms share the exponent
    a_k multiplies each of them by the same nonzero column entry, so the
    coordinate's level, the last k at which its exponents differ, is the
    last scaling its vanishing depends on: the product of columns 0..level
    decides it.  A coordinate whose exponents never differ is a single
    term, nonzero at every scaling, and then the plan is None.
    """
    r = A.nvars
    classes: dict[Monomial, Sparse] = {}

    def cls(a: Monomial) -> Sparse:
        got = classes.get(a)
        if got is None:
            b = [0] * r
            for k, e in enumerate(a):
                b[perm[k]] += e
            got = classes[a] = B.reduce_monomial(tuple(b))
        return got

    def coordinates(terms, const: Sparse = ()) -> list[dict[Monomial, Fraction]]:
        coords: dict[int, dict[Monomial, Fraction]] = {
            i: {(0,) * r: -c} for i, c in const}
        for a, c in terms:
            if c:
                for i, v in cls(a):
                    row = coords.setdefault(i, {})
                    row[a] = row.get(a, 0) + c * v
        return [coords[i] for i in sorted(coords)]

    rows = []
    for g in A.relations:
        rows.extend(coordinates(g.terms.items()))
    if tuple_constraint:
        for va, vb in zip(A.tuple_images, B.tuple_images):
            rows.extend(coordinates(((A.basis[i], c) for i, c in va), vb))
    index: dict[Monomial, int] = {}
    levels: list[list[PlanCoordinate]] = [[] for _ in range(r)]
    for row in rows:
        row = {a: c for a, c in row.items() if c}
        if row:
            level = max((k for k in range(r) if len({a[k] for a in row}) > 1),
                        default=None)
            if level is None:
                return None
            den = lcm(*(c.denominator for c in row.values()))
            levels[level].append(
                (tuple(c.numerator * (den // c.denominator) for c in row.values()),
                 tuple(index.setdefault(a, len(index)) for a in row)))
    top = [max((a[k] for a in index), default=0) for k in range(r)]
    columns = [[[s.numerator ** a[k] * s.denominator ** (top[k] - a[k]) for a in index]
                for s in QQ_SCALINGS] for k in range(r)]
    return columns, levels


# ---------------------------------------------------------------------------
# witnesses


@dataclass
class Witness:
    """Generator-image description of an algebra map: for each source
    variable, its image in the target as a `Sparse` element, the ascending
    (index, value) pairs of its nonzero coordinates over the target's basis
    (after the base change ext_multiple records)."""

    images: list[Sparse]
    ext_multiple: int = 1     # base-change factor applied to both sides


def witness_field(B: ArtinAlgebra, w: Witness) -> Field:
    """The field the coordinates of w's images lie in: B's field after the
    base change w records."""
    f = B.field
    if w.ext_multiple == 1:
        return f
    return finite_field(f.p, f.desc.m * w.ext_multiple)


@dataclass
class IsoVerdict:
    status: str                                            # ISO | NOT_ISO | UNKNOWN
    witness: Optional[Witness] = None
    separator: Optional[tuple[str, object, object]] = None
    search_bounds: Optional[dict] = None


def linear_map_matrix(A: ArtinAlgebra, B: ArtinAlgebra, image: MonomialMap) -> list[list]:
    """Row-major matrix (B.dim x A.dim) of the linear map sending the class of
    each basis monomial of A to its value under the monomial map `image`."""
    zero = B.field.zero()
    rows = [[zero] * A.dim for _ in range(B.dim)]
    for j, mono in enumerate(A.basis):
        for i, c in image(mono):
            rows[i][j] = c
    return rows


def apply_linear_map(A: ArtinAlgebra, B: ArtinAlgebra, image: MonomialMap,
                     v: Sparse) -> Sparse:
    """Image of the element v of A under the monomial map `image` into B."""
    return B.combine(((A.basis[i], c) for i, c in v), image)


def _extend(A: ArtinAlgebra, ext_multiple: int) -> ArtinAlgebra:
    """A with its extension degree multiplied by ext_multiple, the base
    change a witness records."""
    if ext_multiple == 1:
        return A
    if isinstance(A.field, RationalField):
        raise FieldError("rational witnesses never carry an extension")
    return base_change(A, A.field.desc.m * ext_multiple)


def _maps_relations(A: ArtinAlgebra, B: ArtinAlgebra, image: MonomialMap,
                    match_tuples: bool) -> bool:
    """Whether every relation of A, and with match_tuples every tuple
    condition, vanishes in B under the monomial map image.  The values are
    canonical elements, so a zero test is truthiness and a tuple condition
    is equality with B's tuple image."""
    for rel in A.relations:
        if B.evaluate(rel, image):
            return False
    if match_tuples:
        ta, tb = A.tuple_images or [], B.tuple_images or []
        if len(ta) != len(tb):
            return False
        for va, vb in zip(ta, tb):
            if apply_linear_map(A, B, image, va) != vb:
                return False
    return True


def _bijective(A: ArtinAlgebra, B: ArtinAlgebra, image: MonomialMap) -> bool:
    """Whether the linear map of image is bijective, for A.dim == B.dim: its
    rows here are the sparse images of A's basis, the columns of the
    matrix, and a matrix and its transpose have the same rank."""
    rows = [dict(image(mono)) for mono in A.basis]
    return ExactMatrix(B.field, rows, B.dim).rank() == A.dim


def _in_maximal_ideal(B: ArtinAlgebra, v: Sparse) -> bool:
    """Whether v is an element of B's maximal ideal in the `Sparse` form:
    strictly ascending indices in range(B.dim), none at the unit monomial
    (the one basis monomial of degree 0, index 0), and no zero value."""
    last = 0
    for i, c in v:
        if not last < i < B.dim or B.field.is_zero(c):
            return False
        last = i
    return True


def verify_witness(A: ArtinAlgebra, B: ArtinAlgebra, w: Witness,
                   match_tuples: bool = False) -> bool:
    """Mechanical check that w defines an isomorphism A -> B (after the
    recorded base change): images lie in the maximal ideal, relations die,
    the truncation ideal dies, with match_tuples A's deformation-tuple
    images go to B's, and the induced linear map is bijective."""
    if w.ext_multiple != 1 and isinstance(A.field, RationalField):
        return False
    A, B = _extend(A, w.ext_multiple), _extend(B, w.ext_multiple)
    if A.dim != B.dim:
        return False
    if A.dim == 0:
        return True
    if len(w.images) != A.nvars:
        return False
    if not all(_in_maximal_ideal(B, img) for img in w.images):
        return False
    if nilpotency_index(B) > A.cap:
        return False
    image = B.monomial_map(w.images)
    return _maps_relations(A, B, image, match_tuples) and _bijective(A, B, image)


def invert_witness(A: ArtinAlgebra, B: ArtinAlgebra, w: Witness) -> Witness:
    """Witness for B -> A inverse to w (both sides base-changed as recorded)."""
    A0, B0 = _extend(A, w.ext_multiple), _extend(B, w.ext_multiple)
    image = B0.monomial_map(w.images)
    n, r = A0.dim, B0.nvars
    # solve L X = [classes of y_k] by rref of [L | targets], which ends in
    # [I | X]; row i of L holds coordinate i of each basis image
    aug: list[dict] = [{} for _ in range(n)]
    for j, mono in enumerate(A0.basis):
        for i, c in image(mono):
            aug[i][j] = c
    for k in range(r):
        for i, c in B0.var_image(k):
            aug[i][n + k] = c
    red = ExactMatrix(B0.field, aug, n + r).rref()
    images = [[(i, row[n + k]) for i, row in enumerate(red.rows) if n + k in row]
              for k in range(r)]
    return Witness(images=images, ext_multiple=w.ext_multiple)


def project_witness(w: Witness, B_high: ArtinAlgebra, B_low: ArtinAlgebra) -> Witness:
    """Push a witness at a higher order down to a lower order of the same
    presentation: compose with the quotient map B_high -> B_low, which sends
    each basis monomial of B_high to its normal form in B_low.  (For plain
    jets this is coordinate truncation by degree; for deformation pairs the
    ideals genuinely grow, so reduction is needed.)"""
    B_high, B_low = _extend(B_high, w.ext_multiple), _extend(B_low, w.ext_multiple)
    if not set(B_low.basis) <= set(B_high.basis):
        raise InternalInconsistencyError("jet bases are not nested")
    images = [B_low.combine(((B_high.basis[i], c) for i, c in img),
                            B_low.reduce_monomial) for img in w.images]
    return Witness(images=images, ext_multiple=w.ext_multiple)


# ---------------------------------------------------------------------------
# search


@dataclass
class SearchBudget:
    """How far the witness search may go: extension degrees 1 to
    ext_degree_max, and at most effort candidates over all of them."""

    ext_degree_max: int = 1
    effort: int = 1_000_000

    def __post_init__(self):
        if self.ext_degree_max < 1:
            raise RangeError(f"extension degree bound must be at least 1, "
                             f"got {self.ext_degree_max}")
        if self.effort < 0:
            raise RangeError(f"search effort must be nonnegative, got {self.effort}")


def _precedes(A: ArtinAlgebra, B: ArtinAlgebra) -> bool:
    """Whether A sorts strictly before B in the order that orients a pair:
    nvars, cap and basis, then the normal forms by monomial with their
    coefficients compared as printed, then the relations as printed, each
    sequence ordered as a tuple.  Equal bases and caps store normal forms of
    the same monomials, every other one below the cap, in vectors of one
    length.  A coefficient is printed only where the two values differ, and
    a relation only where the earlier ones print alike."""
    a, b = (A.nvars, A.cap, tuple(A.basis)), (B.nvars, B.cap, tuple(B.basis))
    if a != b:
        return a < b
    for mono in sorted(A.nf):
        for ca, cb in zip(A.nf[mono], B.nf[mono]):
            if ca != cb:
                sa, sb = A.field.to_str(ca), B.field.to_str(cb)
                if sa != sb:
                    return sa < sb
    names = tuple(f"v{i}" for i in range(A.nvars))
    for ga, gb in zip(A.relations, B.relations):
        sa, sb = poly_to_str(ga, names), poly_to_str(gb, names)
        if sa != sb:
            return sa < sb
    return len(A.relations) < len(B.relations)


def _is_graded_input(A: ArtinAlgebra) -> bool:
    if A.origin is not None and A.origin.presentation is not None:
        if A.origin.kind != "jet":
            return False
        return A.origin.presentation.mode == "graded"
    return all(g.is_homogeneous() for g in A.relations)


class _EffortExceeded(Exception):
    pass


class _Separated(Exception):
    """The late separator told the pair apart; args[0] is the separator."""


def _late_separator(A: ArtinAlgebra, B: ArtinAlgebra) -> Callable[[], None]:
    """The check the search runs once the identity and the permutations have
    failed: the first call compares the last of `INVARIANTS` on A and B, in
    the caller's order and before any base change, and raises _Separated
    when it differs; later calls do nothing."""
    pending = True

    def check() -> None:
        nonlocal pending
        if pending:
            pending = False
            sep = find_separator(A, B, INVARIANTS[-1:])
            if sep is not None:
                raise _Separated(sep)
    return check


def _plan_vanishes(coords: Sequence[PlanCoordinate], scale: Sequence[int]) -> bool:
    """Whether every plan coordinate sums to zero against the column
    product scale."""
    for cs, ms in coords:
        acc = 0
        for c, m in zip(cs, ms):
            acc += c * scale[m]
        if acc:
            return False
    return True


# how many enumerated F_q images (sparse form, degree-1 row, memoized powers)
# one search keeps from one block to the next
_KEPT_VECTORS = 1 << 12


class _Searcher:
    """Deterministic witness search from A to B over one coefficient field.

    Candidates are lists of sparse generator images, tried in a fixed order:
    the identity, the variable permutations, then, after `late_check` (which
    may end the search with _Separated), the scaled candidates over Q or the
    enumerated ones over F_q.  Every candidate in that order counts against
    the effort, whether or not it is built.

    The last two lists are walked as trees of prefixes in their own order,
    and each prefix is decided once.  A prefix that fails for every
    completion is charged as one block by `_charge_block`, whose arithmetic
    is that of as many single charges, so `tried`, the effort left, the
    point where the effort runs out and the first witness are those of the
    list walked one candidate at a time.

    Over Q a prefix of the scalings decides the plan coordinates of its
    level (`_scaled_plan`, built once per permutation when the search
    reaches it), and a permutation whose plan is None is charged whole.
    Over F_q a prefix of images fails when the rank of their degree-1 rows
    plus the number of images still free is below the embedding dimension.
    With only image 0 free, surjectivity is the last row's reduction against
    the fixed rows' echelon, read at its one free column, and (without tuple
    conditions) each relation is split as sum_e x_0^e H_e with the H_e
    evaluated once: a relation whose H_e vanish for e >= 1 but not for
    e = 0 fails the whole block, and otherwise sum_e v^e H_e filters each
    candidate v.  Every candidate that survives still goes through the exact
    relation and bijectivity checks (`_check`), and every witness
    through `verify_witness` in the caller.
    """

    def __init__(self, A: ArtinAlgebra, B: ArtinAlgebra, effort_left: int,
                 tuple_constraint: bool, late_check: Callable[[], None] = lambda: None):
        self.A = A
        self.B = B
        self.field = B.field
        self.effort_left = effort_left
        self.tried = 0
        self.tuple_constraint = tuple_constraint
        self.lin_idx = B.component(1)
        self.lin_pos = {i: j for j, i in enumerate(self.lin_idx)}
        self.max_idx = B.maxideal_basis
        self.late_check = late_check

    def _charge_block(self, n: int) -> None:
        """Charge n candidates as n single charges would: when fewer are
        left, charge those and raise _EffortExceeded."""
        if n <= self.effort_left:
            self.effort_left -= n
            self.tried += n
            return
        self.tried += self.effort_left
        self.effort_left = 0
        raise _EffortExceeded

    def _check(self, images: list[Sparse]) -> bool:
        """Whether the sparse images define an isomorphism: they kill the
        relations (and match the tuple images when asked) and give a
        bijective linear map.  Images built from B's variable images, as the
        identity, the permutations and the scaled candidates are, always
        span m/m^2; the enumeration tests that span itself."""
        A, B = self.A, self.B
        image = B.monomial_map(images)
        return (_maps_relations(A, B, image, self.tuple_constraint)
                and _bijective(A, B, image))

    def _try(self, images: list[Sparse]) -> Optional[Witness]:
        """Charge one candidate and check it."""
        self._charge_block(1)
        return Witness(images=images) if self._check(images) else None

    def _var_images(self) -> list[Sparse]:
        return [self.B.var_image(k) for k in range(self.B.nvars)]

    def identity_candidate(self) -> Optional[list[Sparse]]:
        if self.A.nvars != self.B.nvars:
            return None
        return self._var_images()

    def permutation_candidates(self):
        """Variable permutations (finite and rational fields; cheap first pass)."""
        r = self.A.nvars
        if r != self.B.nvars or r > 6:
            return
        var_vecs = self._var_images()
        for perm in permutations(range(r)):
            yield [var_vecs[perm[k]] for k in range(r)]

    def _scaled_search(self) -> Optional[Witness]:
        """The scaled candidates x_k -> QQ_SCALINGS[scals[k]] y_perm(k):
        permutations in order, and for each every scals in product order,
        scals[0] slowest.  A prefix scals[:k+1] whose plan coordinates of
        level k do not vanish charges its 10^(r-1-k) completions at once."""
        A, B = self.A, self.B
        r, n = A.nvars, len(QQ_SCALINGS)
        if r != B.nvars or r > 6:
            return None
        scaled = [[[(i, c * v) for i, v in img] for c in QQ_SCALINGS]
                  for img in self._var_images()]
        for perm in permutations(range(r)):
            plan = _scaled_plan(A, B, perm, self.tuple_constraint)
            if plan is None:
                self._charge_block(n ** r)
                continue
            columns, levels = plan
            images: list[Sparse] = [[] for _ in range(r)]

            def walk(k: int, scale: Optional[list[int]]) -> Optional[Witness]:
                # scals[:k] is fixed, with column product scale
                for j in range(n):
                    col = columns[k][j]
                    part = col if scale is None else [x * y for x, y in zip(scale, col)]
                    if not _plan_vanishes(levels[k], part):
                        self._charge_block(n ** (r - 1 - k))
                        continue
                    images[k] = scaled[perm[k]][j]
                    w = self._try(list(images)) if k == r - 1 else walk(k + 1, part)
                    if w is not None:
                        return w
                return None

            w = walk(0, None)
            if w is not None:
                return w
        return None

    def _coordinate_search(self, coords: Sequence[int]) -> Optional[Witness]:
        """All image tuples with coordinates over the basis positions
        coords, in integer-encoding order: digit k * width + j of the code is
        coordinate j of image k, digit 0 least significant, so image r-1
        varies slowest and each image's first coordinate fastest.

        Images r-1, r-2, ... are fixed in turn.  With images k..r-1 fixed,
        the q^(width k) completions all fail when the rank of the fixed
        degree-1 rows plus the k free images is below the embedding
        dimension.  With only image 0 free, each relation g is split as
        sum_e x_0^e H_e and the H_e are evaluated once at the fixed images;
        a candidate v then needs the degree-1 row of v outside the fixed
        rows' span (when they span a hyperplane) and sum_e v^e H_e = 0 for
        every g (when no tuple condition constrains the map).
        """
        A, B, f = self.A, self.B, self.field
        r, width = A.nvars, len(coords)
        if r * width == 0:
            return None
        q, lin_pos, embdim = f.order, self.lin_pos, len(self.lin_pos)
        elements = list(f.elements())
        count = q ** width
        kept: list[tuple[Sparse, dict, MonomialMap]] = []

        def vector(code: int) -> tuple[Sparse, dict, MonomialMap]:
            img = []
            for i in coords:
                code, d = divmod(code, q)
                if elements[d]:
                    img.append((i, elements[d]))
            lin = {lin_pos[i]: c for i, c in img if i in lin_pos}
            return img, lin, B.monomial_map([img])

        def vectors():
            for code in range(count):
                if code < len(kept):
                    yield kept[code]
                    continue
                v = vector(code)
                if code < _KEPT_VECTORS:
                    kept.append(v)
                yield v

        # each relation as {e: the terms of x_0^e H_e, with x_0 taken out}
        split: list[dict[int, list]] = []
        if not self.tuple_constraint:
            for g in A.relations:
                parts: dict[int, list] = {}
                for a, c in g.terms.items():
                    parts.setdefault(a[0], []).append(((0,) + a[1:], c))
                split.append(parts)
        images: list[Sparse] = [[] for _ in range(r)]
        multiply, add, mul, one = B.multiply, f.add, f.mul, f.one()

        def vanishes(filters, power: MonomialMap) -> bool:
            # sum_e v^e H_e, with each b_i H_e kept per block as it is met
            for h0, rest in filters:
                acc = list(h0)
                for e, h, cols in rest:
                    for i, c in power((e,)):
                        col = cols.get(i)
                        if col is None:
                            col = cols[i] = multiply([(i, one)], h)
                        for k, w in col:
                            acc[k] = add(acc[k], mul(c, w))
                if any(acc):
                    return False
            return True

        def last_image(ech: Echelon) -> Optional[Witness]:
            # images 1..r-1 are fixed: evaluate each relation's H_e there
            fixed = B.monomial_map([[]] + images[1:])
            filters = []
            for parts in split:
                h0 = B.combine(parts.get(0, ()), fixed)
                rest = [(e, h, {}) for e, terms in parts.items() if e
                        for h in (B.combine(terms, fixed),) if h]
                if rest:
                    # the dense start of the filter's accumulator
                    start = [f.zero()] * B.dim
                    for i, c in h0:
                        start[i] = c
                    filters.append((start, rest))
                elif h0:
                    self._charge_block(count)
                    return None
            # with the fixed rows spanning a hyperplane, a last row v is
            # surjective when its reduction is nonzero at the one free
            # column c: v_c minus sum over the pivots p of v_p row_p[c]
            residue = None
            if len(ech.rows) < embdim:
                rows = ech.reduced()
                c = next(j for j in range(embdim) if j not in rows)
                residue = {p: f.neg(row[c]) for p, row in rows.items() if c in row}
                residue[c] = one
            for img, lin, power in vectors():
                self._charge_block(1)
                if residue is not None:
                    acc = f.zero()
                    for j, x in lin.items():
                        if j in residue:
                            acc = add(acc, mul(residue[j], x))
                    if not acc:
                        continue
                if filters and not vanishes(filters, power):
                    continue
                images[0] = img
                if self._check(images):
                    return Witness(images=list(images))
            return None

        def walk(k: int, ech: Echelon) -> Optional[Witness]:
            # images k..r-1 are fixed, their degree-1 rows in ech
            if len(ech.rows) + k < embdim:
                self._charge_block(count ** k)
                return None
            if k == 1:
                return last_image(ech)
            for img, lin, _ in vectors():
                images[k - 1] = img
                sub = ech.copy()
                sub.add(lin)
                w = walk(k - 1, sub)
                if w is not None:
                    return w
            return None

        return walk(r, Echelon(f))

    def run(self, graded: bool) -> tuple[Optional[Witness], bool]:
        """(witness or None, whole space exhausted?); raises _EffortExceeded
        when the effort runs out first and _Separated when the late check
        separates the pair."""
        ident = self.identity_candidate()
        if ident is not None:
            w = self._try(ident)
            if w is not None:
                return w, False
        for images in self.permutation_candidates():
            w = self._try(images)
            if w is not None:
                return w, False
        self.late_check()
        if isinstance(self.field, RationalField):
            return self._scaled_search(), False  # rational search is never exhaustive
        coords = self.lin_idx if graded else self.max_idx
        seen_all = self.field.order ** (self.A.nvars * len(coords)) <= self.effort_left
        w = self._coordinate_search(coords)
        return w, w is None and seen_all


def decide_isomorphism(A: ArtinAlgebra, B: ArtinAlgebra,
                       budget: Optional[SearchBudget] = None,
                       match_tuples: bool = False) -> IsoVerdict:
    """Tri-state isomorphism decision; see the module docstring.

    With match_tuples=True the search is constrained to maps carrying the
    recorded deformation-tuple images of A to those of B, the morphism
    condition for deformation pairs.
    """
    if budget is None:
        budget = SearchBudget()
    if A.field.desc != B.field.desc:
        raise FieldMismatchError(
            f"cannot compare algebras over {A.field.desc.label()} and {B.field.desc.label()}")
    sep = find_separator(A, B, INVARIANTS[:-1])
    if sep is not None:
        return IsoVerdict(status="NOT_ISO", separator=sep)
    if A.dim == 0:
        return IsoVerdict(status="ISO", witness=Witness(images=[]))
    if A.dim == 1:
        w = Witness(images=[[] for _ in range(A.nvars)])
        if verify_witness(A, B, w, match_tuples):
            return IsoVerdict(status="ISO", witness=w)
        raise InternalInconsistencyError("one-dimensional algebras failed to match")

    if match_tuples:
        ta = A.tuple_images or []
        tb = B.tuple_images or []
        if len(ta) != len(tb):
            return IsoVerdict(status="NOT_ISO",
                              separator=("tuple_length", len(ta), len(tb)))

    swapped = _precedes(B, A)
    first, second = (B, A) if swapped else (A, B)
    try:
        verdict = _decide_oriented(first, second, budget, match_tuples,
                                   _late_separator(A, B))
    except _Separated as e:
        return IsoVerdict(status="NOT_ISO", separator=e.args[0])
    if swapped and verdict.status == "ISO":
        inv = invert_witness(first, second, verdict.witness)
        if not verify_witness(A, B, inv, match_tuples):
            raise InternalInconsistencyError("witness inversion failed verification")
        verdict = IsoVerdict(status="ISO", witness=inv,
                             search_bounds=verdict.search_bounds)
    return verdict


def _decide_oriented(A: ArtinAlgebra, B: ArtinAlgebra, budget: SearchBudget,
                     match_tuples: bool, late_check: Callable[[], None]) -> IsoVerdict:
    graded = _is_graded_input(A) and _is_graded_input(B) and not match_tuples
    f = A.field
    effort_left = budget.effort
    tried_total = 0

    if isinstance(f, RationalField):
        searcher = _Searcher(A, B, effort_left, match_tuples, late_check)
        stopped_by = "candidates"
        try:
            w, _ = searcher.run(graded)
        except _EffortExceeded:
            w, stopped_by = None, "effort"
        tried_total = searcher.tried
        if w is not None:
            if not verify_witness(A, B, w, match_tuples):
                raise InternalInconsistencyError("search produced an invalid witness")
            return IsoVerdict(status="ISO", witness=w)
        return IsoVerdict(status="UNKNOWN",
                          search_bounds={"ext_degree_tried": 1,
                                         "candidates_tried": tried_total,
                                         "space_exhausted": False,
                                         "stopped_by": stopped_by})

    m0 = f.desc.m
    exhausted_all = True
    ext_tried = 0
    for k in range(1, budget.ext_degree_max + 1):
        m_prime = m0 * k
        Ak = base_change(A, m_prime)
        Bk = base_change(B, m_prime)
        ext_tried = m_prime
        searcher = _Searcher(Ak, Bk, effort_left, match_tuples, late_check)
        try:
            w, seen_all = searcher.run(graded)
        except _EffortExceeded:
            w, seen_all = None, False
        tried_total += searcher.tried
        effort_left -= searcher.tried
        if w is not None:
            w = Witness(images=w.images, ext_multiple=k)
            if not verify_witness(A, B, w, match_tuples):
                raise InternalInconsistencyError("search produced an invalid witness")
            return IsoVerdict(status="ISO", witness=w,
                              search_bounds={"ext_degree_tried": m_prime,
                                             "candidates_tried": tried_total,
                                             "space_exhausted": False})
        if not seen_all:
            exhausted_all = False
        if effort_left <= 0:
            exhausted_all = False
            break
    return IsoVerdict(status="UNKNOWN",
                      search_bounds={"ext_degree_tried": ext_tried,
                                     "candidates_tried": tried_total,
                                     "space_exhausted": exhausted_all,
                                     "stopped_by": "space" if exhausted_all else "effort"})
