import ast
import copy
import gc
import random
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetmetric import artin, iso
from jetmetric.artin import (
    defpair_jet,
    hf_by_degree_count,
    hilbert_function,
    jet,
    nilpotency_index,
    socle,
    socle_dimension,
)
from jetmetric.errors import (CapacityError, ConstantTermError, FieldError, RangeError,
                              TupleError, ZeroRingError)
from jetmetric.exactcore import ExactMatrix, PrimeField, finite_field
from jetmetric.iso import SearchBudget, base_change, invariant_signature, verify_witness
from jetmetric.metric import jet_distance
from jetmetric.poly import DEFAULT_CAPACITY, Poly, mono_deg, mono_mul
from jetmetric.presentation import parse_presentation
from jetmetric.resolution import betti_residue_field

from conftest import (_random_mono, dense_product, random_presentation,
                      random_presentation_text, to_dense, to_sparse)


def test_jet_of_free_ring_counts_monomials(plane):
    for n in range(1, 7):
        A = jet(plane, n)
        assert A.dim == comb(n + 1, 2)
        assert hf_by_degree_count(A) == list(range(1, n + 1))


def test_jet_order_zero_is_the_zero_ring(plane):
    A = jet(plane, 0)
    assert A.is_zero_ring()
    with pytest.raises(ZeroRingError):
        nilpotency_index(A)


def test_cusp_jet_hilbert_function(cusp):
    A = jet(cusp, 4)
    length, hf = hilbert_function(A)
    assert length == 7
    assert hf == [1, 2, 2, 2]
    assert nilpotency_index(A) == 4


def test_cusp_normal_form_is_local_not_graded(cusp):
    # in the local convention y^2 rewrites to x^3, not the other way round
    A = jet(cusp, 4)
    v = A.reduce_monomial((0, 2))
    assert [(A.basis[i], c) for i, c in v] == [((3, 0), 1)]


def test_multiplication_is_associative_and_commutative_on_cusp(cusp):
    A = jet(cusp, 5)
    rng = random.Random(11)
    f = A.field

    def rand_vec():
        return [f.from_int(rng.randint(-3, 3)) for _ in range(A.dim)]

    for _ in range(12):
        u, v, w = to_sparse(rand_vec()), to_sparse(rand_vec()), to_sparse(rand_vec())
        assert A.multiply(u, v) == A.multiply(v, u)
        assert A.multiply(A.multiply(u, v), w) == A.multiply(u, A.multiply(v, w))


def test_one_is_multiplicative_identity(quartic_cone):
    A = jet(quartic_cone, 3)
    one = A.reduce_monomial((0,) * A.nvars)
    assert one == [(0, A.field.one())]
    for i in range(A.dim):
        e = [(i, A.field.one())]
        assert A.multiply(one, e) == e


def test_fat_point_socle(fat_point):
    A = jet(fat_point, 5)
    assert A.dim == 3
    sdim, basis = socle(A)
    assert sdim == 2  # x and y both kill m
    assert nilpotency_index(A) == 2


def test_monomial_socle_of_x2_y3():
    p = parse_presentation("ring Q[x, y]\ngraded\nideal: x^2, y^3")
    A = jet(p, 10)
    sdim, _ = socle(A)
    assert sdim == 1  # Gorenstein: socle spanned by x*y^2


def test_hilbert_function_stops_at_nilpotency(quartic_cone):
    A = jet(quartic_cone, 6)
    _, hf = hilbert_function(A)
    assert len(hf) == nilpotency_index(A)
    assert hf[0] == 1


def test_capacity_guard(plane):
    with pytest.raises(CapacityError):
        jet(plane, 100)  # dim 5050 exceeds the default capacity


def test_negative_order_rejected(plane):
    from jetmetric.errors import RangeError
    with pytest.raises(RangeError):
        jet(plane, -1)


@given(st.integers(0, 10**6), st.sampled_from(["Q", "F_3", "F_4"]),
       st.sampled_from(["graded", "local"]), st.integers(1, 3), st.integers(0, 6))
@settings(max_examples=40, deadline=None)
def test_jet_basis_is_prefix_of_larger_jet(seed, field, mode, nvars, top):
    # the prefix lemma: for n <= top the order-n jet is the degree-< n part
    # of the order-top jet, so its length is a partial sum of the top
    # jet's Hilbert function
    p = random_presentation(random.Random(seed), field, nvars, mode)
    big = jet(p, top)
    big_nf = big.nf
    hf = hf_by_degree_count(big)
    lengths = [sum(hf[:n]) for n in range(top + 1)]
    for n in range(top + 1):
        small = jet(p, n)
        assert small.basis == [m for m in big.basis if mono_deg(m) < n]
        assert small.basis == big.basis[:small.dim]
        assert small.nf == {m: v[:small.dim] for m, v in big_nf.items()
                            if mono_deg(m) < n}
        assert lengths[n] == small.dim


def _hilbert_function_by_powers(A):
    """(length, hf) with the powers m^i computed literally, as iterated
    products of the span of the maximal ideal by the variable classes (which
    generate it), each measured by an exact rank."""
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
            current = [sorted(r.items()) for r in red.values()]
        else:
            current = []
    hf = [dims[i] - (dims[i + 1] if i + 1 < len(dims) else 0) for i in range(len(dims))]
    while hf and hf[-1] == 0:
        hf.pop()
    return A.dim, hf


@given(st.integers(0, 10**6), st.sampled_from(["Q", "F_2", "F_3"]),
       st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_two_hilbert_function_routes_agree(seed, field, nvars):
    p = random_presentation(random.Random(seed), field, nvars, "local")
    A = jet(p, 4)
    if A.is_zero_ring():
        return
    length, hf = _hilbert_function_by_powers(A)
    assert hf == hf_by_degree_count(A)
    assert (length, hf) == hilbert_function(A)
    assert length == sum(hf) == A.dim


@given(st.integers(0, 10**6), st.sampled_from(["Q", "F_3"]))
@settings(max_examples=25, deadline=None)
def test_socle_vectors_annihilate_every_variable(seed, field):
    p = random_presentation(random.Random(seed), field, 2, "local")
    A = jet(p, 4)
    if A.is_zero_ring():
        return
    _, basis = socle(A)
    f = A.field
    for v in basis:
        assert v and all(not f.is_zero(c) for _, c in v)
        for k in range(A.nvars):
            assert A.multiply(A.var_image(k), v) == []


@given(st.integers(0, 10**6), st.sampled_from(["Q", "F_3", "F_4"]),
       st.sampled_from(["graded", "local"]), st.integers(2, 3))
@settings(max_examples=40, deadline=None)
def test_socle_is_the_kernel_of_multiplication_by_every_variable(seed, field, mode, nvars):
    # socle() multiplies by the degree-1 basis monomials only; the reference
    # stacks multiplication by every variable class, which for y - x^2 is a
    # combination of higher basis monomials, not a basis monomial itself
    texts = [random_presentation(random.Random(seed), field, nvars, mode),
             parse_presentation("ring Q[x, y]\nlocal\nideal: y - x^2, x^4 + x*y")]
    for p in texts:
        A = jet(p, 4)
        if A.is_zero_ring():
            continue
        f = A.field
        stacked = [{c: x for c, x in enumerate(row) if x}
                   for k in range(A.nvars) for row in A.mult_matrix(A.var_image(k))]
        want = [sorted(v.items())
                for v in ExactMatrix(f, stacked, A.dim).kernel_basis()]
        assert socle(A) == (len(want), want)


@given(st.integers(0, 10**6), st.sampled_from(["Q", "F_2", "F_3", "F_4"]),
       st.sampled_from(["graded", "local"]), st.integers(1, 3), st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_socle_dimension_counts_the_socle_basis(seed, field, mode, nvars, order):
    A = jet(random_presentation(random.Random(seed), field, nvars, mode), order)
    if A.is_zero_ring():
        with pytest.raises(ZeroRingError):
            socle_dimension(A)
        return
    assert socle_dimension(A) == socle(A)[0]


def test_high_power_relation_evaluates_without_recursion():
    # 3000 exceeds the interpreter's recursion limit
    p = parse_presentation("ring Q[x, y]\nlocal\nideal: x^3000")
    A = jet(p, 4)
    rel, = A.relations
    at_vars = A.monomial_map([A.var_image(0), A.var_image(1)])
    assert A.evaluate(rel, at_vars) == []
    one = A.reduce_monomial((0, 0))
    at_one = A.monomial_map([one, A.var_image(1)])
    assert A.evaluate(rel, at_one) == one


@pytest.mark.parametrize("w", [3, 2000, 20000])
def test_powers_past_the_nilpotency_index_cost_no_multiply(w):
    # the images lie in m, so x^w with w at or above the nilpotency index is
    # 0 at once: only y^2 takes a multiply, whatever w is
    A = jet(parse_presentation(f"ring Q[x, y]\nlocal\nideal: y^2 - x^{w}"), 3)
    calls = []
    multiply = A.multiply
    A.multiply = lambda u, v: calls.append((u, v)) or multiply(u, v)
    rel, = A.relations
    at_vars = A.monomial_map([A.var_image(0), A.var_image(1)])
    assert A.evaluate(rel, at_vars) == []
    assert len(calls) == 1


# -- extension of scalars


def test_an_algebra_keeps_its_extension_of_each_degree():
    A = jet(parse_presentation("ring F_2[x, y]\ngraded\nideal: x^2 + x*y"), 3)
    assert A.extension(1) is A
    E = A.extension(2)
    assert E is A.extension(2) and E.field is finite_field(2, 2)
    assert (E.basis, E.cap, E.origin) == (A.basis, A.cap, A.origin)
    assert A.extension(4) is not E and A.extension(4).field is finite_field(2, 4)


def test_extension_degrees_are_checked_by_the_field():
    Q = jet(parse_presentation("ring Q[x, y]\ngraded\nideal: x^2 + y^2"), 3)
    F = jet(parse_presentation("ring F_2[x, y]\ngraded\nideal: x*y"), 3)
    assert Q.extension(1) is Q
    with pytest.raises(FieldError, match="^base change along extensions of Q is out of scope$"):
        Q.extension(2)
    for A in (Q, F):
        for k in (0, "2"):
            with pytest.raises(FieldError, match="extension degree must be a positive integer"):
                A.extension(k)


def test_algebras_on_one_basis_share_its_tables():
    # y^2 - x^3 and y^2 + 2*x^5 pivot at y^2 alike, so their jets of order
    # 4 have one basis, whatever the field; an extension keeps the basis
    texts = ["ring Q[x, y]\nlocal\nideal: y^2 - x^3", "ring Q[x, y]\nlocal\nideal: y^2 + 2*x^5",
             "ring F_2[x, y]\nlocal\nideal: y^2 + x^3"]
    A, *others = [jet(parse_presentation(text), 4) for text in texts]
    others.append(others[-1].extension(2))
    for B in others:
        assert B.basis == A.basis
        assert B._index is A._index
        assert B._degrees is A._degrees
        assert B._components is A._components


def test_every_basis_table_stays_as_it_was_built(monkeypatch):
    # the tables are shared read-only: after corpus-shaped distance runs, a
    # base-change ladder's resolutions and a jet over F_32003, each table
    # handed out equals one built afresh from its basis
    handed = []
    table = artin._basis_table

    def recorded(basis):
        handed.append((basis, table(basis)))
        return handed[-1][1]
    monkeypatch.setattr(artin, "_basis_table", recorded)
    rng = random.Random(20260814)
    budget = SearchBudget(ext_degree_max=1, effort=4000)
    for _ in range(8):
        field, nvars = rng.choice(["Q", "F_2", "F_3"]), rng.randint(1, 3)
        mode = rng.choice(["graded", "local"])
        ps = [random_presentation(rng, field, nvars, mode) for _ in range(3)]
        for i, j in ((0, 1), (0, 2), (1, 2)):
            jet_distance(ps[i], ps[j], 3, budget)
    A = jet(parse_presentation("ring F_2[x, y, z]\ngraded\nideal: x^2 + y*z + z^2, y^2 + x*y + x*z"), 4)
    for B in (A, base_change(A, 2), base_change(A, 4)):
        betti_residue_field(B, 4)
        socle(B)
    B = jet(parse_presentation("ring F_32003[x, y, z]\nlocal\nideal: x^2 - y^3 + z^4, y*z - x^3"), 6)
    invariant_signature(B)
    assert len({basis for basis, _ in handed}) < len(handed)
    for basis, got in handed:
        assert got == table.__wrapped__(basis), basis


def test_the_basis_table_memo_is_bounded():
    # k[x]/m^n has a basis of its own for each n
    p = parse_presentation("ring Q[x]\ngraded\nideal: ;")
    bound = artin.TABLE_CACHE_SIZE
    for n in range(1, bound + 9):
        assert jet(p, n).dim == n
    info = artin._basis_table.cache_info()
    assert info.maxsize == bound
    assert info.currsize == bound


# -- one jet per presentation and order

CUSP = "ring Q[x, y]\nlocal\nideal: y^2 - x^3"


def _same_jet(A, B):
    return A.basis == B.basis and A._classes == B._classes


def test_a_jet_is_built_once_per_presentation_order_and_capacity():
    p = parse_presentation(CUSP)
    A = jet(p, 4)
    assert jet(p, 4) is A and jet(p, 4, capacity=DEFAULT_CAPACITY) is A
    assert A.origin.presentation is p
    lower, *equal = (jet(p, 3), jet(p, 4, capacity=DEFAULT_CAPACITY + 1),
                     jet(parse_presentation(CUSP), 4))
    assert lower is not A and not _same_jet(lower, A)
    for B in equal:
        assert B is not A and _same_jet(B, A)


def test_reassigning_the_generators_gives_the_jet_of_the_new_ideal():
    # the pattern of the transformed copies in test_iso and test_standard
    p = parse_presentation(CUSP)
    A = jet(p, 4)
    other = parse_presentation("ring Q[x, y]\nlocal\nideal: x*y, y^2 + x^4")
    p.gens = list(other.gens)
    B = jet(p, 4)
    assert B is not A and B is jet(p, 4)
    assert _same_jet(B, jet(other, 4)) and not _same_jet(B, A)
    assert B.relations == p.gens


def _unit_ideal():
    # the parser refuses a constant term, so the unit is assigned after it
    p = parse_presentation("ring Q[x, y]\nlocal\nideal: x")
    p.gens = [Poly(p.field, 2, {(0, 0): p.field.one(), (1, 0): p.field.one()})]
    return p


@pytest.mark.parametrize("make, n, capacity, error", [
    (lambda: parse_presentation(CUSP), -1, DEFAULT_CAPACITY, RangeError),
    (_unit_ideal, 3, DEFAULT_CAPACITY, ConstantTermError),
    (lambda: parse_presentation("ring Q[x, y]\ngraded\nideal: x^2"), 6, 10, CapacityError),
], ids=["negative-order", "constant-term", "over-capacity"])
def test_a_jet_that_raises_caches_nothing(make, n, capacity, error):
    p = make()
    artin._jet.cache_clear()
    for _ in range(2):
        with pytest.raises(error):
            jet(p, n, capacity)
    assert artin._jet.cache_info().currsize == 0


def test_the_jet_memo_is_bounded():
    p = parse_presentation(CUSP)
    A = jet(p, 3)
    bound = artin.JET_CACHE_SIZE
    for _ in range(bound - 1):
        jet(parse_presentation(CUSP), 3)
    assert jet(p, 3) is A
    for _ in range(bound):
        jet(parse_presentation(CUSP), 3)
    B = jet(p, 3)
    assert B is not A and _same_jet(B, A)
    info = artin._jet.cache_info()
    assert info.maxsize == bound and info.currsize == bound


@given(st.integers(0, 10**6), st.sampled_from(["Q", "F_2", "F_3", "F_4"]),
       st.sampled_from(["graded", "local"]), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_shared_jets_decide_corpus_triples_as_fresh_ones(seed, field, mode, nvars):
    # the corpus order (0, 1), (0, 2), (1, 2) reads each member's jets from
    # the memo in its second pair; clearing the memo before each call
    # builds every jet afresh
    rng = random.Random(seed)
    texts = [random_presentation_text(rng, field, nvars, mode, max_deg=3) for _ in range(3)]
    budget = SearchBudget(ext_degree_max=1, effort=4000)
    pairs = ((0, 1), (0, 2), (1, 2))

    def run(fresh):
        ps = [parse_presentation(t) for t in texts]
        out = []
        for i, j in pairs:
            if fresh:
                artin._jet.cache_clear()
            out.append(jet_distance(ps[i], ps[j], 3, budget))
        return ps, out

    artin._jet.cache_clear()
    ps, shared = run(fresh=False)
    _, fresh = run(fresh=True)
    for (i, j), v, w in zip(pairs, shared, fresh):
        assert (v.lower, v.upper, v.exact) == (w.lower, w.upper, w.exact)
        assert v.per_order == w.per_order
        for n, verdict in v.per_order:
            if verdict.status == "ISO":
                assert verify_witness(jet(ps[i], n), jet(ps[j], n), verdict.witness)


# modules that may call each constructor: an algebra is built by `jet`,
# `defpair_jet` and `ArtinAlgebra.extension`, a truncated quotient by `poly`
# and, for an extension, by `artin`
BUILDERS = {"ArtinAlgebra": {"artin"}, "TruncatedQuotient": {"artin", "poly"}}


@pytest.mark.parametrize("module", sorted(
    path.stem for path in Path(artin.__file__).parent.glob("*.py")))
def test_only_artin_builds_algebras(module):
    path = Path(artin.__file__).with_name(f"{module}.py")
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            assert module in BUILDERS.get(name, {module}), (name, node.lineno)


def test_handing_out_classes_changes_none_of_them(monkeypatch):
    # reduce_monomial returns the stored classes themselves: the search,
    # the inversion of a witness, the resolution and the socle only read
    # them.  Every algebra built is snapshot as it is built.
    built = []
    init = artin.ArtinAlgebra.__init__

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append((self, copy.deepcopy(self._classes)))
    monkeypatch.setattr(artin.ArtinAlgebra, "__init__", recorded)
    swaps = []
    precedes = iso._precedes
    monkeypatch.setattr(iso, "_precedes", lambda A, B: swaps.append(precedes(A, B)) or swaps[-1])
    # x^2 + x*y + 2*y^2 has no root in F_3: the order-3 jets meet only
    # over F_9, at rung 2
    p = parse_presentation("ring F_3[x, y]\ngraded\nideal: x^2 + x*y + 2*y^2")
    q = parse_presentation("ring F_3[x, y]\ngraded\nideal: x*y")
    for a, b in ((p, q), (q, p)):
        v = jet_distance(a, b, 3, SearchBudget(ext_degree_max=2))
        assert [w.status for _, w in v.per_order] == ["ISO"] * 3
    assert True in swaps and False in swaps
    assert finite_field(3, 2) in {A.field for A, _ in built}
    A = jet(parse_presentation("ring F_2[x, y, z]\ngraded\nideal: x^2 + y*z + z^2, y^2 + x*y + x*z"), 4)
    for B in (A, base_change(A, 2), base_change(A, 4)):
        betti_residue_field(B, 4)
        socle(B)
    assert max(len(cls) for cls in A._classes.values()) == 3
    for B, classes in built:
        assert B._classes == classes, B.field


def test_defpair_jet_quotients_by_tuple_powers():
    p = parse_presentation("ring Q[x, y]\nlocal\nideal: ;\ntuple: x, y")
    A = defpair_jet(p, 2)
    # k[x,y]/(x^2, y^2) has basis 1, x, y, xy
    assert A.dim == 4
    assert hf_by_degree_count(A) == [1, 2, 1]
    assert defpair_jet(p, 3).dim == 9


def test_defpair_jet_of_order_zero_is_the_zero_ring():
    p = parse_presentation("ring Q[x, y]\nlocal\nideal: y^2 - x^3\ntuple: x, y")
    A = defpair_jet(p, 0)
    assert A.is_zero_ring() and A.tuple_images == []
    assert (A.origin.kind, A.origin.order) == ("defpair", 0)


def test_defpair_jet_requires_a_tuple(plane):
    with pytest.raises(TupleError):
        defpair_jet(plane, 3)


def test_defpair_jet_rejects_non_primary_tuple():
    from jetmetric.errors import NotPrimaryError
    p = parse_presentation("ring Q[x, y]\nlocal\nideal: ;\ntuple: x")
    with pytest.raises(NotPrimaryError):
        defpair_jet(p, 3)


def test_defpair_jet_rejects_tuple_of_units():
    from jetmetric.errors import ConstantTermError
    from jetmetric.poly import Poly

    with pytest.raises(ConstantTermError):
        parse_presentation("ring Q[x]\nlocal\nideal: ;\ntuple: 1 + x")
    # a presentation assembled in code bypasses the parser; the jet
    # constructor still refuses the unit
    p = parse_presentation("ring Q[x]\nlocal\nideal: ;\ntuple: x")
    fld = p.base_field()
    p.tuple[0] = p.tuple[0] + Poly.constant(fld, 1, fld.one())
    with pytest.raises(TupleError):
        defpair_jet(p, 3)


DIFFERENTIAL_RINGS = {"Q": ("Q", ["1", "(-1)", "2", "(1/2)"]),
                      "F_3": ("F_3", ["1", "2"]),
                      "F_4": ("F_2^2 minpoly a^2 + a + 1", ["1", "a", "(1+a)"]),
                      "F_16": ("F_2^4 minpoly a^4 + a + 1", ["1", "a", "(a+a^3)"]),
                      "F_P": ("F_1073741789", ["1", "(-1)", "2", "3"])}


def _differential_presentation(rng: random.Random, field: str, mode: str):
    """A random presentation whose generators have several terms of low
    degree, so the jets to order 4 carry normal forms with several nonzero
    entries; local generators mix two degrees."""
    ring, coeffs = DIFFERENTIAL_RINGS[field]
    names = ["x", "y", "z"][:rng.randint(2, 3)]
    gens = []
    for _ in range(rng.randint(1, 3)):
        d = rng.randint(2, 3)
        degs = [d] if mode == "graded" else [d, d + 1]
        monos = {_random_mono(rng, len(names), rng.choice(degs))
                 for _ in range(rng.randint(2, 4))}
        gens.append(" + ".join(
            rng.choice(coeffs) + "*" + "*".join(f"{v}^{e}" for v, e in zip(names, m) if e)
            for m in sorted(monos)))
    return parse_presentation(f"ring {ring}[{', '.join(names)}]\n{mode}\n"
                              f"ideal: {', '.join(gens)}")


@given(st.integers(0, 10**6), st.sampled_from(["Q", "F_3", "F_4"]),
       st.sampled_from(["graded", "local"]), st.integers(1, 4), st.data())
@settings(max_examples=40, deadline=None)
def test_sparse_basis_products_agree_with_dense_normal_forms(seed, field, mode,
                                                             order, data):
    A = jet(_differential_presentation(random.Random(seed), field, mode), order)
    f = A.field
    # the basis-pair products are the nonzero entries of the dense normal
    # forms: a basis monomial, zero at or above the cap, else its nf row
    nf, dense = A.nf, {}
    for i, mi in enumerate(A.basis):
        for j, mj in enumerate(A.basis):
            m = mono_mul(mi, mj)
            if m in A.basis:
                dense[i, j] = [f.one() if b == m else f.zero() for b in A.basis]
            elif mono_deg(m) >= A.cap:
                dense[i, j] = [f.zero()] * A.dim
            else:
                dense[i, j] = nf[m]
            want = [(k, w) for k, w in enumerate(dense[i, j]) if not f.is_zero(w)]
            assert A.mult_basis(i, j) == A.reduce_monomial(m) == want
    # multiply agrees with a dense bilinear product
    values = list(range(f.order)) if field != "Q" else \
        [Fraction(n, d) for n in range(-2, 3) for d in (1, 2)]
    vec = st.lists(st.sampled_from(values), min_size=A.dim, max_size=A.dim)
    u, v = data.draw(vec), data.draw(vec)
    want = [f.zero()] * A.dim
    for i in range(A.dim):
        for j in range(A.dim):
            c = f.mul(u[i], v[j])
            want = [f.add(x, f.mul(c, w)) for x, w in zip(want, dense[i, j])]
    assert to_dense(A, A.multiply(to_sparse(u), to_sparse(v))) == want
    # the degree components partition the basis indices by degree
    comps = [A.component(d) for d in range(A.cap + 1)]
    assert sorted(i for c in comps for i in c) == list(range(A.dim))
    for d, c in enumerate(comps):
        assert list(c) == [i for i, m in enumerate(A.basis) if mono_deg(m) == d]
    assert A.component(-1) == ()


@given(st.integers(0, 10**6), st.sampled_from(["Q", "F_2", "F_3", "F_4", "F_16"]),
       st.sampled_from(["graded", "local"]), st.integers(1, 3), st.integers(1, 4),
       st.integers(1, 2))
@settings(max_examples=60, deadline=None)
def test_no_basis_product_lies_past_the_top_degree(seed, field, mode, nvars, order,
                                                   pair_order):
    # a normal form never lowers the degree, so a basis pair whose degrees
    # add up past the top degree has no product: the premise of the pruning
    # in `product_rows`, checked on local jets, whose relations mix degrees,
    # and on deformation jets; the rows of a basis monomial are then its
    # basis-pair products in every degree
    text = random_presentation_text(random.Random(seed), field, nvars, mode,
                                    max_deg=3, min_deg=2)
    names = ", ".join(["x", "y", "z"][:nvars])
    for A in (jet(parse_presentation(text), order),
              defpair_jet(parse_presentation(f"{text}\ntuple: {names}"), pair_order)):
        degrees, top = A.degrees(), nilpotency_index(A) - 1
        one, products = A.field.one(), A.product_rows()
        for i in range(A.dim):
            for j in range(A.dim):
                if degrees[i] + degrees[j] > top:
                    assert A.mult_basis(i, j) == []
            for d in range(top + 1):
                us = A.component(d)
                assert products({i: one}, us) == [dict(A.mult_basis(i, u)) for u in us]


def test_algebras_leave_no_reference_cycles():
    # jets, a base change, their invariants and Betti tables are freed by
    # reference counting alone: a product-row builder kept on the algebra,
    # holding its bound `mult_basis`, would make every algebra cyclic garbage
    texts = ["ring F_2[x, y, z]\ngraded\nideal: y^2*z, x*y*z",
             "ring Q[x, y]\nlocal\nideal: x^2 - y^3 + x*y^2"]

    def build():
        for text in texts:
            A = jet(parse_presentation(text), 4)
            for B in (A, base_change(A, 2)) if A.field.order else (A,):
                invariant_signature(B)
                if "graded" in text:
                    betti_residue_field(B, 3)

    # the first pass fills the process-wide caches (fields, monomial frames)
    build()
    gc.collect()
    gc.disable()
    try:
        build()
        assert gc.collect() == 0
    finally:
        gc.enable()


def _random_element(rng: random.Random, f, dim: int) -> list:
    """Dense coordinates with about a third zero entries; over F_p the
    entries are integers in [-2p, 3p), so both zero and nonzero entries come
    in non-canonical residues too (p, -p, p + 1, ...)."""
    out = []
    for _ in range(dim):
        zero = rng.random() < 1 / 3
        if isinstance(f, PrimeField):
            c = f.p * rng.randint(-2, 2) if zero else rng.randrange(-2 * f.p, 3 * f.p)
        elif f.order is None:
            c = f.zero() if zero else Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        else:
            c = 0 if zero else rng.randrange(f.order)
        out.append(c)
    return out


@given(st.integers(0, 10**6), st.sampled_from(sorted(DIFFERENTIAL_RINGS)),
       st.sampled_from(["graded", "local"]), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_sparse_product_matches_dense_reference(seed, field, mode, order):
    rng = random.Random(seed)
    A = jet(_differential_presentation(rng, field, mode), order)
    f = A.field
    for _ in range(4):
        u, v = _random_element(rng, f, A.dim), _random_element(rng, f, A.dim)
        got = A.multiply(to_sparse(u), to_sparse(v))
        assert to_dense(A, got) == dense_product(A, u, v)
        # the product is in sparse form: ascending indices, nonzero values,
        # canonical residues over F_p
        assert [k for k, _ in got] == sorted({k for k, _ in got})
        assert all(c and (not isinstance(f, PrimeField) or 0 < c < f.p) for _, c in got)


@given(st.integers(0, 10**6), st.sampled_from(sorted(DIFFERENTIAL_RINGS)),
       st.sampled_from(["graded", "local"]), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_combine_matches_the_field_method_sum(seed, field, mode, order):
    # combine sums in the field's raw arithmetic; the reference sums
    # c * image(m) through the field's own add and mul, with the
    # coefficients non-canonical residues over F_p
    rng = random.Random(seed)
    A = jet(_differential_presentation(rng, field, mode), order)
    f = A.field
    image = A.monomial_map([to_sparse(_random_element(rng, f, A.dim))
                            for _ in range(A.nvars)])
    monos = [_random_mono(rng, A.nvars, rng.randint(0, order)) for _ in range(6)]
    terms = list(zip(monos, _random_element(rng, f, len(monos))))
    want = [f.zero()] * A.dim
    for m, c in terms:
        for i, w in image(m):
            want[i] = f.add(want[i], f.mul(c, w))
    got = A.combine(terms, image)
    assert to_dense(A, got) == want
    assert all(c and (not isinstance(f, PrimeField) or 0 < c < f.p) for _, c in got)
