import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetmetric.artin import (
    defpair_jet,
    hf_by_degree_count,
    hilbert_function,
    jet,
    nilpotency_index,
    socle,
    socle_dimension,
)
from jetmetric.errors import CapacityError, TupleError, ZeroRingError
from jetmetric.exactcore import ExactMatrix, PrimeField
from jetmetric.poly import mono_deg, mono_mul
from jetmetric.presentation import parse_presentation

from conftest import _random_mono, dense_product, random_presentation, to_dense, to_sparse


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
    hf = hf_by_degree_count(big)
    lengths = [sum(hf[:n]) for n in range(top + 1)]
    for n in range(top + 1):
        small = jet(p, n)
        assert small.basis == [m for m in big.basis if mono_deg(m) < n]
        assert small.basis == big.basis[:small.dim]
        assert small.nf == {m: v[:small.dim] for m, v in big.nf.items()
                            if mono_deg(m) < n}
        assert lengths[n] == small.dim


@given(st.integers(0, 10**6), st.sampled_from(["Q", "F_2", "F_3"]),
       st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_two_hilbert_function_routes_agree(seed, field, nvars):
    p = random_presentation(random.Random(seed), field, nvars, "local")
    A = jet(p, 4)
    if A.is_zero_ring():
        return
    length, hf = hilbert_function(A)
    assert hf == hf_by_degree_count(A)
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


def test_defpair_jet_quotients_by_tuple_powers():
    p = parse_presentation("ring Q[x, y]\nlocal\nideal: ;\ntuple: x, y")
    A = defpair_jet(p, 2)
    # k[x,y]/(x^2, y^2) has basis 1, x, y, xy
    assert A.dim == 4
    assert hf_by_degree_count(A) == [1, 2, 1]
    assert defpair_jet(p, 3).dim == 9


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
    dense = {}
    for i, mi in enumerate(A.basis):
        for j, mj in enumerate(A.basis):
            m = mono_mul(mi, mj)
            if m in A.basis:
                dense[i, j] = [f.one() if b == m else f.zero() for b in A.basis]
            elif mono_deg(m) >= A.cap:
                dense[i, j] = [f.zero()] * A.dim
            else:
                dense[i, j] = A.nf[m]
            want = [(k, w) for k, w in enumerate(dense[i, j]) if not f.is_zero(w)]
            assert A.mult_basis(i, j) == A.reduce_monomial(m) == want
    # multiply agrees with a dense bilinear product
    values = list(f.elements()) if field != "Q" else \
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


def _random_element(rng: random.Random, f, dim: int) -> list:
    """Dense coordinates with about a third zero entries; over F_p the
    entries are integers in [-2p, 3p), so both zero and nonzero entries come
    in non-canonical residues too (p, -p, p + 1, ...)."""
    out = []
    for _ in range(dim):
        zero = rng.random() < 1 / 3
        if isinstance(f, PrimeField):
            c = f.p * rng.randint(-2, 2) if zero else rng.randrange(-2 * f.p, 3 * f.p)
        elif f.desc.kind == "rationals":
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
