"""Isomorphism testing for Artinian algebras over a common coefficient field.

Verdicts are tri-state.  NOT_ISO is only ever produced by a separating
invariant whose value is stable under coefficient-field extension (length,
Hilbert function, socle dimension, dimension of the derivation space), so a
NOT_ISO verdict rules out isomorphism after any base change as well.  The
derivation space is the costliest: one rank on r * dim A rows, the algebra's
own product rows (`ArtinAlgebra.product_rows`, which the resolution reads
too) with one normalization per entry, so it is compared only when every
listed candidate has failed (the identity, the variable permutations and the
constructed one below), before the enumerated candidates, and at most once
per decision.  ISO comes with an explicit generator-image witness that is
re-verified mechanically.  Exhausting the search space over the allowed
extensions without finding a witness yields UNKNOWN — the honest outcome,
since bigger coefficient fields might still glue the two algebras.  The
allowed extensions are a ladder over one effort: rung k searches both
algebras with their extension degree multiplied by k, for k up to
ext_degree_max over F_q; over Q, where base change is out of scope, the
ladder is one rung.  Base change is the algebra's own operation:
`ArtinAlgebra.extension(k)` is the algebra over the field's
`Field.extension(k)`, built once per algebra and degree, so a rung's search,
the inversion of its witness and the verification share one extended pair,
and this module builds no algebra and names no field kind; where Q and F_q
part ways (the ladder, the candidate lists, the checks of a witness's
extension) it reads `Field.order`, None for Q.

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

Over F_q a graded pair whose algebras both have m^3 = 0 gets one
constructed candidate at every rung, the last listed one, after the
identity and the permutations.  Such an algebra is Sym(A_1)/(K + m^3),
fixed by its degree-1 space A_1 and its quadrics K = ker(Sym^2 A_1 -> A_2),
so a linear bijection A_1 -> B_1 whose square carries K_A onto K_B is an
isomorphism.  `_quadric_candidate` writes one down when K is 0 or all of
Sym^2 A_1, or one quadric on each side whose linear factors over the rung's
field are alike (independent on both sides, or a square on both); any other
pair gets none.  Every candidate it builds is thus an isomorphism, which no
invariant separates, so it comes before the late separator.  The candidate
is charged as one candidate, and when there is none, or it fails, the late
separator and the enumeration run as they would without it, so the
construction never decides an UNKNOWN or a NOT_ISO of its own.

The scaled and the enumerated lists are walked as trees of prefixes in
their own order, and each prefix is decided once.  Over Q a prefix of the scalings decides every plan
coordinate whose terms differ in no later exponent; over F_q a prefix of
generator images fails when its degree-1 rows, with one more row for each
image still free, cannot span m/m^2, and the last image meets the relations
split by powers of its variable, evaluated once per prefix.  A prefix that
fails for every completion charges all of them against the effort in one
step, with the arithmetic of charging them one by one, so the effort spent,
the point where it runs out and the first witness are those of the
candidate-by-candidate search.

Two jets are often the same quotient of k[x]: equal nvars, cap, basis,
normal forms and tuple images, with relations that may differ.  Such a pair
skips the eager separators, each a function of the basis and the normal
forms alone, so none can separate it, and the orientation.  The identity
is an isomorphism exactly when I + m^n = J + m^n, which the unique reduced
normal forms decide, so the search in the caller's order accepts it as its
first candidate, B's variable images, the witness either orientation
finds; the search and its bounds are those of the full path.

A candidate is accepted on its relations alone.  Every candidate spans
m/m^2 (the identity, the permutations and the scaled ones are built from
B's variable images; the constructed one is a bijection of the degree-1
spaces; the enumeration keeps only images whose degree-1 rows span it),
so it maps onto B by Nakayama's lemma, and it is bijective because the
lengths are equal: the separators have matched them, or the pair is one
quotient.  Every ISO verdict then leaves `decide_isomorphism`
through one `verify_witness`, the full check, which reads bijectivity by
the same argument: once images in m_B kill the relations and the
truncation ideal of A, the map is an algebra map, onto exactly when the
degree-1 coordinates of the images span m_B/m_B^2 (an Artinian local
algebra is generated by lifts of a basis of m/m^2, Nakayama's lemma), and
bijective when it is onto and the lengths are equal.  That is one rank of
r rows of at most embdim entries.

Candidates and witnesses are `Sparse` elements, the one element form of
`artin`, in every field; only the CLI writes a witness out, as text.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import lcm
from typing import Optional, Sequence

from .artin import (
    ArtinAlgebra,
    MonomialMap,
    Sparse,
    hf_by_degree_count,
    nilpotency_index,
    socle_dimension,
)
from .errors import FieldError, FieldMismatchError, InternalInconsistencyError, RangeError
from .exactcore import TABLE_MAX_ORDER, Echelon, ExactMatrix, Field
from .poly import Monomial, monomials_of_degree
from .presentation import poly_to_str

QQ_SCALINGS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
               Fraction(1, 2), Fraction(-1, 2), Fraction(3), Fraction(-3),
               Fraction(1, 3), Fraction(-1, 3))


# ---------------------------------------------------------------------------
# invariant signature


@dataclass(frozen=True)
class InvariantSignature:
    """The values of the separating invariants in `INVARIANTS`, in its
    order; each field name is the separator name it reports.  The
    nilpotency index, the embedding dimension and the ranks of
    multiplication by m/m^2 in the associated graded are not listed: they
    are len(hilbert_function), hilbert_function[1] and
    hilbert_function[2:], so they agree whenever it does."""

    length: int
    hilbert_function: tuple[int, ...]
    socle_dimension: int
    derivation_dimension: int


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

    The rows are the algebra's product rows (`ArtinAlgebra.product_rows`):
    the classes of dg/dx_i over all g form one module element, the class of
    dg/dx_i under the flat keys g*n + l, summed once per (i, g) from the
    classes of its monomials, and its products with the basis monomials b_j
    of one degree are the rows (i, j).  The entries of the partials and of
    the rows are sums in the field's `raw_arithmetic`, and `Echelon`'s entry
    conversion is their one normalization.
    """
    if A.is_zero_ring():
        return 0
    f, r, n = A.field, A.nvars, A.dim
    add, mul, _ = f.raw_arithmetic
    products = A.product_rows()
    gens = [list(g.terms.items()) for g in A.relations]
    gens += [[(m, f.one())] for m in monomials_of_degree(r, A.cap)]
    rows: list[dict] = []
    for i in range(r):
        # the class of dg/dx_i for every g, at the keys g*n + l
        dg: dict = {}
        for g, terms in enumerate(gens):
            for a, c in terms:
                if a[i]:
                    s = mul(c, f.from_int(a[i]))
                    for l, w in A.reduce_monomial(a[:i] + (a[i] - 1,) + a[i + 1:]):
                        key, x = g * n + l, mul(s, w)
                        dg[key] = add(dg[key], x) if key in dg else x
        dg = {key: c for key, c in dg.items() if c}
        for d in range(nilpotency_index(A)):
            rows += products(dg, A.component(d))
    return r * n - ExactMatrix(f, rows, len(gens) * n).rank()


# The separating invariants as (name, function), in the order
# `find_separator` compares them and `InvariantSignature` lists them; each is
# defined on the zero ring too.  Cheap invariants come first.
# `decide_isomorphism` compares those of `_EAGER` before its search, unless
# the pair is one quotient, and the last only once the listed candidates
# have failed.
INVARIANTS = (
    ("length", lambda A: A.dim),
    ("hilbert_function", lambda A: tuple(hf_by_degree_count(A))),
    ("socle_dimension", lambda A: 0 if A.is_zero_ring() else socle_dimension(A)),
    ("derivation_dimension", derivation_dimension),
)

_EAGER = INVARIANTS[:-1]


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


def base_change(A: ArtinAlgebra, m_prime: int) -> ArtinAlgebra:
    """Extend coefficients from F_{p^m} to F_{p^{m'}} (m | m'); the basis,
    normal forms, and every rank-type invariant are unchanged."""
    f = A.field
    if f.order is None:
        raise FieldError("base change along extensions of Q is out of scope")
    m = f.m
    if not isinstance(m_prime, int) or m_prime < 1:
        raise FieldError(f"extension degree must be a positive integer, got {m_prime!r}")
    if m_prime % m != 0:
        raise FieldError(f"extension degree {m_prime} is not a multiple of {m}")
    return A.extension(m_prime // m)


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
    return B.field.extension(w.ext_multiple)


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


def _spans_cotangent(B: ArtinAlgebra, images: Sequence[Sparse]) -> bool:
    """Whether the degree-1 coordinates of the images span B's degree-1
    component, that is m_B/m_B^2: a normal form never lowers the degree,
    so m_B^2 is spanned by the basis monomials of degree 2 and up, and an
    element of m_B is read modulo m_B^2 at its degree-1 indices, one run
    of the basis.  One `Echelon` on len(images) rows of at most embdim
    entries."""
    lin = B.component(1)
    if not lin:
        return True
    first, last = lin[0], lin[-1]
    ech = Echelon(B.field)
    for img in images:
        if ech.add({i: c for i, c in img if first <= i <= last}) and len(ech.rows) == len(lin):
            return True
    return False


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
    images go to B's, and the induced map is bijective.  A base change
    that is not a positive int, or any over Q, is rejected.

    Bijectivity is read on the cotangent space.  The checks before it make
    w an algebra map A = k[x]/(I + m^cap) -> B of local algebras of equal
    length.  Its image is a subalgebra S with m_B = (S ∩ m_B) + m_B^2
    exactly when the degree-1 coordinates of the images span m_B/m_B^2
    (`_spans_cotangent`); then m_B = (S ∩ m_B) + m_B^d for every d by
    induction, and m_B^d = 0 for large d, so S = B (Nakayama's lemma: an
    Artinian local algebra is generated by lifts of a basis of m/m^2).
    Conversely an onto map sends m_A onto m_B and so onto m_B/m_B^2.  An
    onto linear map between spaces of equal dimension is bijective."""
    m = w.ext_multiple
    if not isinstance(m, int) or m < 1 or (m > 1 and A.field.order is None):
        return False
    A, B = A.extension(m), B.extension(m)
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
    return _maps_relations(A, B, image, match_tuples) and _spans_cotangent(B, w.images)


def invert_witness(A: ArtinAlgebra, B: ArtinAlgebra, w: Witness) -> Witness:
    """Witness for B -> A inverse to w (both sides base-changed as recorded;
    the change keeps A's basis, so only B's scalars are read extended)."""
    B = B.extension(w.ext_multiple)
    image = B.monomial_map(w.images)
    n, r = A.dim, B.nvars
    # solve L X = [classes of y_k] by rref of [L | targets], which ends in
    # [I | X]; row i of L holds coordinate i of each basis image
    aug: list[dict] = [{} for _ in range(n)]
    for j, mono in enumerate(A.basis):
        for i, c in image(mono):
            aug[i][j] = c
    for k in range(r):
        for i, c in B.var_image(k):
            aug[i][n + k] = c
    red = ExactMatrix(B.field, aug, n + r).rref()
    images = [[(i, row[n + k]) for i, row in red.items() if n + k in row]
              for k in range(r)]
    return Witness(images=images, ext_multiple=w.ext_multiple)


def project_witness(w: Witness, B_high: ArtinAlgebra, B_low: ArtinAlgebra) -> Witness:
    """Push a witness at a higher order down to a lower order of the same
    presentation: compose with the quotient map B_high -> B_low, which sends
    each basis monomial of B_high to its normal form in B_low.  (For plain
    jets this is coordinate truncation by degree; for deformation pairs the
    ideals genuinely grow, so reduction is needed.)  Only B_low's normal
    forms are read extended: the base change keeps B_high's basis."""
    B_low = B_low.extension(w.ext_multiple)
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
        if not isinstance(self.ext_degree_max, int) or self.ext_degree_max < 1:
            raise RangeError(f"extension degree bound must be an integer of at least 1, "
                             f"got {self.ext_degree_max!r}")
        if not isinstance(self.effort, int) or self.effort < 0:
            raise RangeError(f"search effort must be a nonnegative integer, "
                             f"got {self.effort!r}")


def _same_quotient(A: ArtinAlgebra, B: ArtinAlgebra) -> bool:
    """Whether A and B, over one field, are the same quotient of k[x] with
    the same tuple images: equal nvars, cap, basis, classes of the other
    monomials below the cap and tuple images.  Their relations may differ."""
    return (A.nvars == B.nvars and A.cap == B.cap and A.basis == B.basis
            and A._classes == B._classes and A.tuple_images == B.tuple_images)


def _precedes(A: ArtinAlgebra, B: ArtinAlgebra) -> bool:
    """Whether A sorts strictly before B in the order that orients a pair:
    nvars, cap and basis, then the classes by monomial with their dense
    coordinates compared as printed, then the relations as printed, each
    sequence ordered as a tuple.  Equal bases and caps store the classes of
    the same monomials, every other one below the cap, over one basis.  A
    coordinate is printed only where the two values differ, a zero one as
    the field's zero, and a relation only where the earlier ones print
    alike."""
    a, b = (A.nvars, A.cap, tuple(A.basis)), (B.nvars, B.cap, tuple(B.basis))
    if a != b:
        return a < b
    for mono in sorted(A._classes):
        va, vb = dict(A._classes[mono]), dict(B._classes[mono])
        for k in sorted(va.keys() | vb.keys()):
            ca, cb = va.get(k, A.field.zero()), vb.get(k, B.field.zero())
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


# ---------------------------------------------------------------------------
# graded pairs with m^3 = 0: a linear form is a dict {position: value} over
# the degree-1 basis monomials, `component(1)` in order, and a quadric a dict
# {(a, b): value}, a <= b, over their products


def _quadrics(A: ArtinAlgebra) -> list[dict]:
    """A basis of K = ker(Sym^2 A_1 -> A_2): the product e_a e_b of each
    pair of degree-1 basis monomials enters an echelon tagged by (a, b), and
    a row whose products all cancel leaves its tags, a quadric of K."""
    lin, one = A.component(1), A.field.one()
    ech, out = Echelon(A.field), []
    for a, i in enumerate(lin):
        for b in range(a, len(lin)):
            row = {(0, k): c for k, c in A.mult_basis(i, lin[b])}
            row[(1, a, b)] = one
            v, c = ech.reduce(row)
            if c[0]:
                out.append({key[1:]: x for key, x in v.items()})
            else:
                ech.store(v, c)
    return out


def _combination(f: Field, terms) -> dict:
    """The sum of c v over the pairs (c, v) of a scalar and a linear form."""
    out: dict = {}
    for c, v in terms:
        for k, x in v.items():
            out[k] = f.add(out.get(k, f.zero()), f.mul(c, x))
    return {k: x for k, x in out.items() if not f.is_zero(x)}


def _product(f: Field, u: dict, v: dict) -> dict:
    """The quadric u v of two linear forms."""
    out: dict = {}
    for a, x in u.items():
        for b, y in v.items():
            key = (a, b) if a <= b else (b, a)
            out[key] = f.add(out.get(key, f.zero()), f.mul(x, y))
    return {key: x for key, x in out.items() if not f.is_zero(x)}


def _linear_factors(f: Field, q: dict) -> Optional[list[dict]]:
    """[l] with q = c l^2, or independent [l1, l2] with q = c l1 l2, for a
    nonzero quadric q and some c in f^x; None when q has no linear factor
    over f, or when that needs a root of a binary quadratic in a field of
    more than TABLE_MAX_ORDER elements.

    q lies in Sym^2 of the span W of its partials dq/de_k whenever it
    factors: W is the span of l1 and l2, or of l in odd characteristic,
    and W = 0 for q = l^2 in characteristic 2, where l is the sum of the
    square roots of q's diagonal coefficients times the e_k.  With W's
    reduced rows w1, w2 at pivots p1 < p2, q = a w1^2 + b w1 w2 + c w2^2
    reads a, b and c at e_p1^2, e_p1 e_p2 and e_p2^2, and factors with the
    roots of a t^2 + b t + c.  Every answer is checked by expanding it."""
    zero = f.zero()
    partials = Echelon(f)
    n = 1 + max(b for _, b in q)
    for k in range(n):
        d = {}
        for (a, b), x in q.items():
            if a == b == k:
                d[k] = f.add(x, x)
            elif k in (a, b):
                d[a + b - k] = x
        partials.add(d)
    rows = list(partials.reduced().items())
    if not rows:
        # characteristic 2: every square root of x is x^(q/2)
        factors = [{a: f.pow(x, f.order // 2) for (a, b), x in q.items() if a == b}]
    elif len(rows) == 1:
        factors = [rows[0][1]]
    elif len(rows) == 2:
        (p1, w1), (p2, w2) = rows
        a, b, c = (q.get(key, zero) for key in ((p1, p1), (p1, p2), (p2, p2)))
        if f.is_zero(a):
            # b u v + c v^2 = v (b u + c v)
            factors = [w2, _combination(f, ((b, w1), (c, w2)))]
        else:
            if f.order > TABLE_MAX_ORDER:
                return None
            roots = [t for t in range(f.order)
                     if f.is_zero(f.add(f.mul(f.add(f.mul(a, t), b), t), c))]
            if not roots:
                return None
            # a t^2 + b t + c = a (t - t1)(t - t2), so t2 = -b/a - t1
            t1 = roots[0]
            t2 = f.sub(f.neg(f.mul(b, f.inv(a))), t1)
            factors = [_combination(f, ((f.one(), w1), (f.neg(t), w2)))
                       for t in ((t1,) if t1 == t2 else (t1, t2))]
    else:
        return None
    got, k0 = _product(f, factors[0], factors[-1]), min(q)
    if set(got) != set(q) or any(f.mul(got[k], q[k0]) != f.mul(q[k], got[k0]) for k in q):
        return None
    return factors


def _completed(f: Field, n: int, vectors: list[dict]) -> list[dict]:
    """The independent vectors, then the unit vectors e_k outside their
    span in the order of k: a basis of f^n."""
    ech, out = Echelon(f), list(vectors)
    for v in vectors:
        ech.add(v)
    for k in range(n):
        if ech.add({k: f.one()}):
            out.append({k: f.one()})
    return out


def _quadric_candidate(A: ArtinAlgebra, B: ArtinAlgebra) -> Optional[list[Sparse]]:
    """Generator images of an isomorphism from A to B, for graded A and B
    over F_q with m^3 = 0, or None.

    Such an algebra is Sym(A_1)/(K + m^3), so a linear bijection phi from
    A_1 to B_1 whose square Sym^2 phi maps K_A onto K_B is an isomorphism,
    with x_k going to phi of its class in A_1.  Any phi does when K is 0 or
    all of Sym^2 A_1, and the degree-1 basis monomials are matched in order;
    when K is one quadric on each side, phi sends the linear factors of q_A
    to those of q_B, completed to bases by `_completed`, which needs both
    to factor alike: into independent factors, or as squares.  Any other
    pair, or a field too large for `_linear_factors`, gets None."""
    if A.component(3) or B.component(3):
        return None
    f, la, lb = B.field, A.component(1), B.component(1)
    n = len(la)
    ka, kb = _quadrics(A), _quadrics(B)
    if len(lb) != n or len(kb) != len(ka):
        return None
    fa = fb = []
    if 0 < len(ka) < n * (n + 1) // 2:
        if len(ka) > 1:
            return None
        fa, fb = _linear_factors(f, ka[0]), _linear_factors(f, kb[0])
        if fa is None or fb is None or len(fa) != len(fb):
            return None
    # row reduce [U | I], U's rows the basis u_t of A_1: the reduced row at
    # pivot (0, i) is e_i = sum_t c_t u_t in the tags (1, t), so phi(e_i) is
    # sum_t c_t v_t over the basis v_t of B_1
    ech = Echelon(f)
    for t, u in enumerate(_completed(f, n, fa)):
        ech.add({**{(0, k): x for k, x in u.items()}, (1, t): f.one()})
    vs = [{lb[k]: x for k, x in v.items()} for v in _completed(f, n, fb)]
    phi = {la[i]: _combination(f, ((c, vs[t]) for (side, t), c in row.items() if side))
           for (_, i), row in ech.reduced().items()}
    classes = [A.var_image(k) for k in range(A.nvars)]
    if any(i not in phi for v in classes for i, _ in v):
        return None
    return [sorted(_combination(f, ((c, phi[i]) for i, c in v)).items()) for v in classes]


# how many enumerated F_q images (sparse form, degree-1 row, memoized powers)
# one search keeps from one block to the next
_KEPT_VECTORS = 1 << 12


class _Searcher:
    """Deterministic witness search from A to B over one coefficient field.

    Candidates are lists of sparse generator images, tried in a fixed order
    from two lists.  `listed` tries the identity, the variable permutations
    (the identity among them again) and over F_q the constructed candidate
    of a graded pair with m^3 = 0 (`_quadric_candidate`, where there is
    one), each charged and checked in turn; `enumerated` then walks the
    scaled candidates over Q, or the enumerated ones over F_q.  Between the
    two, at rung 1, `_decide_oriented` compares the late separator.  Every
    candidate in that order counts against the effort, whether or not it
    is built.

    The scaled and the enumerated lists are walked as trees of prefixes in
    their own order, and each prefix is decided once.  A prefix that fails
    for every completion is charged as one block by `_charge_block`, whose
    arithmetic is that of as many single charges, so `tried`, the effort
    left, the point where the effort runs out and the first witness are
    those of the list walked one candidate at a time.

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
    candidate v.  Every candidate spans m/m^2, so one that kills the
    relations is a witness: a scaled candidate whose plan vanishes, or an
    enumerated one that passes the filter with no tuple condition, is
    returned as it is, and the others, the constructed one among them, go
    through `_check`.
    """

    def __init__(self, A: ArtinAlgebra, B: ArtinAlgebra, effort_left: int,
                 tuple_constraint: bool):
        self.A = A
        self.B = B
        self.field = B.field
        self.effort_left = effort_left
        self.tried = 0
        self.tuple_constraint = tuple_constraint
        self.lin_idx = B.component(1)
        self.lin_pos = {i: j for j, i in enumerate(self.lin_idx)}
        self.max_idx = B.maxideal_basis
        # the variable permutations, of both lists, for at most 6 variables
        r = A.nvars
        self.perms = list(permutations(range(r))) if r == B.nvars and r <= 6 else []

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
        """Whether the sparse images, which span m/m^2, define an
        isomorphism: whether they kill the relations (and match the tuple
        images when asked)."""
        return _maps_relations(self.A, self.B, self.B.monomial_map(images),
                               self.tuple_constraint)

    def _var_images(self) -> list[Sparse]:
        return [self.B.var_image(k) for k in range(self.B.nvars)]

    def _scaled_search(self) -> Optional[Witness]:
        """The scaled candidates x_k -> QQ_SCALINGS[scals[k]] y_perm(k):
        permutations in order, and for each every scals in product order,
        scals[0] slowest.  A prefix scals[:k+1] whose plan coordinates of
        level k do not vanish charges its 10^(r-1-k) completions at once."""
        A, B = self.A, self.B
        r, n = A.nvars, len(QQ_SCALINGS)
        scaled = [[[(i, c * v) for i, v in img] for c in QQ_SCALINGS]
                  for img in self._var_images()]
        for perm in self.perms:
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
                    if k == r - 1:
                        self._charge_block(1)
                        return Witness(images=list(images))
                    w = walk(k + 1, part)
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
        count = q ** width
        kept: list[tuple[Sparse, dict, MonomialMap]] = []

        def vector(code: int) -> tuple[Sparse, dict, MonomialMap]:
            img = []
            for i in coords:
                # both finite field kinds code their elements as range(q)
                code, d = divmod(code, q)
                if d:
                    img.append((i, d))
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
                if not self.tuple_constraint or self._check(images):
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

    def listed(self, graded: bool) -> Optional[Witness]:
        """The first listed candidate that is a witness, or None; raises
        _EffortExceeded when the effort runs out first."""
        A, B = self.A, self.B

        def candidates():
            if A.nvars == B.nvars:
                var = self._var_images()
                yield var
                for p in self.perms:
                    yield [var[k] for k in p]
            if graded and self.field.order is not None:
                images = _quadric_candidate(A, B)
                if images is not None:
                    yield images

        for images in candidates():
            self._charge_block(1)
            if self._check(images):
                return Witness(images=images)
        return None

    def enumerated(self, graded: bool) -> tuple[Optional[Witness], bool]:
        """(witness or None, whole space exhausted?) of the scaled or the
        enumerated candidates; raises _EffortExceeded when the effort runs
        out first."""
        if self.field.order is None:
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

    A pair that is one quotient (`_same_quotient`) compares no eager
    separator and is searched unoriented: the separators read only the
    basis and the normal forms, and the identity, the first candidate,
    is a witness in either orientation.
    """
    if budget is None:
        budget = SearchBudget()
    if A.field != B.field:
        raise FieldMismatchError(
            f"cannot compare algebras over {A.field.label()} and {B.field.label()}")
    same = _same_quotient(A, B)
    sep = None if same else find_separator(A, B, _EAGER)
    if sep is None and match_tuples:
        ta, tb = A.tuple_images or [], B.tuple_images or []
        if len(ta) != len(tb):
            sep = ("tuple_length", len(ta), len(tb))
    if sep is not None:
        return IsoVerdict(status="NOT_ISO", separator=sep)

    if A.dim <= 1:
        # the zero ring or the field itself: every variable goes to 0
        verdict = IsoVerdict(status="ISO", witness=Witness(
            images=[[] for _ in range(A.nvars)] if A.dim else []))
    else:
        swapped = not same and _precedes(B, A)
        first, second = (B, A) if swapped else (A, B)
        verdict = _decide_oriented(first, second, budget, match_tuples)
        if swapped and verdict.status == "ISO":
            verdict.witness = invert_witness(B, A, verdict.witness)
        elif swapped and verdict.separator is not None:
            name, vb, va = verdict.separator
            verdict.separator = (name, va, vb)
    if verdict.status == "ISO" and not verify_witness(A, B, verdict.witness, match_tuples):
        raise InternalInconsistencyError("the witness found fails verification")
    return verdict


def _decide_oriented(A: ArtinAlgebra, B: ArtinAlgebra, budget: SearchBudget,
                     match_tuples: bool) -> IsoVerdict:
    """The extension ladder: rung k searches A and B extended by k, for
    k = 1..ext_degree_max over F_q and k = 1 over Q, all rungs drawing on
    one effort.  Between its listed and its enumerated candidates, rung 1
    compares the late separator, the last of `INVARIANTS`, on A and B; a
    later rung runs only after rung 1 went past its listed candidates with
    effort left, so past the separator, which no base change moves."""
    graded = _is_graded_input(A) and _is_graded_input(B) and not match_tuples
    f = A.field
    rational = f.order is None
    m0, rungs = (1, 1) if rational else (f.m, budget.ext_degree_max)
    effort_left = budget.effort
    exhausted_all, ran_out = True, False
    for k in range(1, rungs + 1):
        searcher = _Searcher(A.extension(k), B.extension(k), effort_left, match_tuples)
        try:
            w, seen_all = searcher.listed(graded), False
            if w is None:
                sep = find_separator(A, B, INVARIANTS[-1:]) if k == 1 else None
                if sep is not None:
                    return IsoVerdict(status="NOT_ISO", separator=sep)
                w, seen_all = searcher.enumerated(graded)
        except _EffortExceeded:
            w, seen_all, ran_out = None, False, True
        effort_left -= searcher.tried
        bounds = {"ext_degree_tried": m0 * k,
                  "candidates_tried": budget.effort - effort_left,
                  "space_exhausted": False}
        if w is not None:
            w.ext_multiple = k
            return IsoVerdict(status="ISO", witness=w,
                              search_bounds=None if rational else bounds)
        exhausted_all = exhausted_all and seen_all
        if effort_left <= 0:
            # a rung that never ran has not seen its space
            exhausted_all = exhausted_all and k == rungs
            break
    if rational:
        stopped_by = "effort" if ran_out else "candidates"
    else:
        stopped_by = "space" if exhausted_all else "effort"
    return IsoVerdict(status="UNKNOWN", search_bounds={
        **bounds, "space_exhausted": exhausted_all, "stopped_by": stopped_by})
