import random
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetmetric import resolution
from jetmetric.artin import ArtinAlgebra, hf_by_degree_count, jet, socle
from jetmetric.errors import (
    CapacityError,
    GradingError,
    InternalInconsistencyError,
    RangeError,
    ZeroRingError,
)
from jetmetric.exactcore import Echelon, ExactMatrix, finite_field, rationals
from jetmetric.hilbert import hilbert_series
from jetmetric.iso import base_change
from jetmetric.presentation import parse_presentation
from jetmetric.resolution import (
    betti_residue_field,
    depth_and_classify,
    minimal_resolution_of_quotient,
)

from conftest import random_presentation
from test_exactcore import _dense_rref


def _pres(text):
    return parse_presentation(text)


def test_koszul_ranks_for_free_rings():
    for r in range(1, 4):
        names = ", ".join("xyzw"[:r])
        p = _pres(f"ring Q[{names}]\ngraded\nideal: ;")
        res = betti_residue_field(p, r + 1)
        assert res.complete and res.pd == r
        assert [res.rank(i) for i in range(r + 1)] == [comb(r, i) for i in range(r + 1)]


def test_periodic_resolution_over_the_double_point():
    res = betti_residue_field(_pres("ring Q[x]\ngraded\nideal: x^2"), 10)
    assert [res.rank(i) for i in range(11)] == [1] * 11
    # infinite projective dimension: the truncation never claims completeness
    assert not res.complete
    assert res.pd is None


def test_exponential_resolution_over_the_fat_point(fat_point):
    res = betti_residue_field(fat_point, 8)
    assert [res.rank(i) for i in range(9)] == [2 ** i for i in range(9)]
    assert not res.complete


@pytest.mark.parametrize("hcap", [1, 2, 4])
def test_residue_field_over_a_power_of_x_is_never_complete(hcap):
    # the Euler identity through dcap held and an empty degree range read
    # as a vanished kernel, so this was reported complete with pd 1
    res = betti_residue_field(_pres("ring Q[x]\ngraded\nideal: x^10"), hcap)
    assert not res.complete and res.pd is None


@pytest.mark.parametrize("hcap", [3, 6])
def test_residue_field_over_x7_y7_is_never_complete(hcap):
    res = betti_residue_field(_pres("ring Q[x, y]\ngraded\nideal: x^7, y^7"), hcap)
    assert not res.complete and res.pd is None


@pytest.mark.parametrize("dcap", [0, 1, 2, 3])
def test_residue_field_over_the_fat_point_at_low_degree_caps(fat_point, dcap):
    res = betti_residue_field(fat_point, 6, dcap)
    assert not res.complete and res.pd is None


def test_residue_field_over_a_regular_ring_with_linear_relations():
    # k[x, y, z]/(x) is the polynomial ring in two variables: Koszul, pd 2
    res = betti_residue_field(_pres("ring Q[x, y, z]\ngraded\nideal: x"), 4)
    assert res.complete and res.pd == 2
    assert res.ranks == [1, 2, 1]
    # a field, given as an algebra, resolves its residue field in one step
    field = jet(_pres("ring Q[x]\ngraded\nideal: x"), 3)
    res = betti_residue_field(field, 2)
    assert res.complete and res.pd == 0


@pytest.mark.parametrize("dcap", [-1, 0])
@pytest.mark.parametrize("text", ["ring Q[x, y]\ngraded\nideal: ;",
                                  "ring Q[x, y, z]\ngraded\nideal: x"])
def test_residue_field_below_degree_one_is_not_complete(text, dcap):
    # a jet cut at order dcap + 1 <= 1 has no degree-1 part: the embedding
    # dimension read 0 and the Koszul test passed with pd 0, where the truth
    # is pd 2 with ranks 1, 2, 1
    res = betti_residue_field(_pres(text), 4, dcap)
    assert not res.complete and res.pd is None
    assert res.ranks[:2] == [1, 2]


def test_residue_field_at_homological_cap_one_is_not_complete():
    # k[x, y]/(x) is the polynomial ring in one variable, pd 1; at hcap 1
    # the kernel of d_1 is never computed, so pd 1 is not certified
    res = betti_residue_field(_pres("ring Q[x, y]\ngraded\nideal: x"), 1)
    assert not res.complete and res.pd is None
    assert res.ranks == [1, 1]
    assert betti_residue_field(_pres("ring Q[x, y]\ngraded\nideal: x"), 2).pd == 1


def test_residue_field_betti_from_artin_algebra_input(fat_point):
    A = jet(fat_point, 5)
    res = betti_residue_field(A, 4)
    assert [res.rank(i) for i in range(5)] == [1, 2, 4, 8, 16]


def test_graded_betti_of_fat_point_quotient(fat_point):
    res = minimal_resolution_of_quotient(fat_point)
    assert res.complete and res.pd == 2
    assert dict(res.betti) == {(0, 0): 1, (1, 2): 3, (2, 3): 2}


def test_redundant_generators_are_minimalized():
    p = _pres("ring Q[x, y]\ngraded\nideal: x^2, x^2 + y^2, y^2, x^3")
    res = minimal_resolution_of_quotient(p)
    # the ideal is (x^2, y^2): a complete intersection
    assert dict(res.betti) == {(0, 0): 1, (1, 2): 2, (2, 4): 1}


def test_generators_as_many_as_the_products_below_them_are_kept():
    # in degree 3 the products x^3, x^2*y of x^2 are as many as the new
    # generators x*y^2, y^3: neither lies in their span
    res = minimal_resolution_of_quotient(_pres("ring Q[x, y]\ngraded\nideal: x^2, x*y^2, y^3"))
    assert res.pd == 2
    assert dict(res.betti) == {(0, 0): 1, (1, 2): 1, (1, 3): 2, (2, 4): 2}


def test_complete_intersection_x2_y3():
    res = minimal_resolution_of_quotient(_pres("ring Q[x, y]\ngraded\nideal: x^2, y^3"))
    assert res.pd == 2
    assert dict(res.betti) == {(0, 0): 1, (1, 2): 1, (1, 3): 1, (2, 5): 1}


def test_alternating_betti_sum_recovers_the_series_numerator(fat_point):
    res = minimal_resolution_of_quotient(fat_point)
    hd = hilbert_series(fat_point)
    # K(t) = sum_{i,j} (-1)^i beta_{ij} t^j must equal Q(t) (1-t)^(r-d)
    maxj = max(j for _, j in res.betti)
    K = [0] * (maxj + 1)
    for (i, j), b in res.betti.items():
        K[j] += (-1) ** i * b
    target = [Fraction(c) for c in hd.numerator]
    for _ in range(2 - hd.pole_order):
        target = [a - b for a, b in zip(target + [Fraction(0)],
                                        [Fraction(0)] + target)]
    while len(target) > 1 and target[-1] == 0:
        target.pop()
    assert [Fraction(c) for c in K] == target


def test_quotient_resolution_of_free_ring_is_trivial(plane):
    res = minimal_resolution_of_quotient(plane)
    assert res.pd == 0
    assert dict(res.betti) == {(0, 0): 1}


def test_classify_quartic_cone(quartic_cone):
    c = depth_and_classify(quartic_cone)
    assert (c.depth, c.dim, c.embdim, c.pd) == (2, 2, 3, 1)
    assert c.cohen_macaulay and c.gorenstein and not c.regular


def test_classify_non_cm_union():
    c = depth_and_classify(_pres("ring Q[x, y]\ngraded\nideal: x^2, x*y"))
    assert (c.depth, c.dim) == (0, 1)
    assert not c.cohen_macaulay
    assert c.gorenstein is None  # honestly undecided for non-CM positive dim


def test_classify_regular_ring(plane):
    c = depth_and_classify(plane)
    assert c.regular and c.cohen_macaulay and c.gorenstein
    assert c.depth == c.dim == c.embdim == 2


def test_gorenstein_detection_in_dimension_zero():
    ci = depth_and_classify(_pres("ring Q[x, y]\ngraded\nideal: x^2, y^3"))
    assert ci.gorenstein is True
    fat = depth_and_classify(_pres("ring Q[x, y]\ngraded\nideal: x^2, x*y, y^2"))
    assert fat.gorenstein is False
    # cross-check against the socle
    A = jet(_pres("ring Q[x, y]\ngraded\nideal: x^2, y^3"), 6)
    assert socle(A)[0] == 1


def test_depth_plus_pd_is_the_variable_count():
    texts = [
        "ring Q[x, y]\ngraded\nideal: ;",
        "ring Q[x, y]\ngraded\nideal: x^2, y^3",
        "ring Q[x, y, z]\ngraded\nideal: x^4 + y^4 + z^4",
        "ring F_3[x, y]\ngraded\nideal: x^2, x*y",
    ]
    for t in texts:
        p = _pres(t)
        c = depth_and_classify(p)
        assert c.depth + c.pd == p.nvars
        assert 0 <= c.depth <= c.dim


def test_resolution_drivers_pass_their_capacity_to_the_engine(quartic_cone):
    # the engine's span of x^4 + y^4 + z^4 holds one row at degree 4, where
    # it stops: capacity 0 is too small for it and capacity 1 is enough; the
    # jets would fail later with "cap ..." had the engine run at the default
    # capacity
    for driver in (minimal_resolution_of_quotient, depth_and_classify):
        with pytest.raises(CapacityError, match=r"row count 1 exceeds capacity 0 \(degree 4 in 3"):
            driver(quartic_cone, capacity=0)
    with pytest.raises(CapacityError, match=r"\(degree 4 in 3"):
        hilbert_series(quartic_cone, capacity=0)
    assert hilbert_series(quartic_cone, capacity=1).numerator == [1, 1, 1, 1]


def test_resolution_requires_graded_input(cusp):
    with pytest.raises(GradingError):
        minimal_resolution_of_quotient(cusp)
    # an algebra is checked where it enters: the cusp's relation is not
    # homogeneous, so its jet has no graded residue-field resolution
    for src in (cusp, jet(cusp, 4)):
        with pytest.raises(GradingError):
            betti_residue_field(src, 3)


def test_base_change_preserves_betti_prefix():
    from jetmetric.iso import base_change
    p = _pres("ring F_2[x, y]\ngraded\nideal: x^2 + x*y, y^3")
    A = jet(p, 5)
    r1 = betti_residue_field(A, 4)
    r4 = betti_residue_field(base_change(A, 2), 4)
    assert [r1.rank(i) for i in range(5)] == [r4.rank(i) for i in range(5)]


def test_betti_rows_are_internally_consistent(fat_point):
    res = minimal_resolution_of_quotient(fat_point)
    for i in range(res.pd + 1):
        row = [(j, b) for (h, j), b in res.betti.items() if h == i]
        assert sum(b for _, b in row) == res.rank(i)
        assert all(j >= i for j, _ in row)


def test_residue_field_resolution_refuses_a_cap_below_one(fat_point):
    with pytest.raises(RangeError):
        betti_residue_field(fat_point, 0)


def test_residue_field_resolution_refuses_the_zero_ring(fat_point):
    with pytest.raises(ZeroRingError):
        betti_residue_field(jet(fat_point, 0), 2)


# closed forms of the residue-field Poincare series P(t) = sum rank_i t^i:
# 1/(1-t)^2 over the complete intersection (x^2, y^2), 1/(1-3t) over
# k[x,y,z]/m^2, 1/(1-t) over k[x]/(x^3)
CLOSED_FORMS = [
    ("x, y", "x^2, y^2", [1, 2, 3, 4, 5]),
    ("x, y, z", "x^2, x*y, x*z, y^2, y*z, z^2", [3 ** i for i in range(5)]),
    ("x", "x^3", [1] * 5),
]


@pytest.mark.parametrize("names,ideal,ranks", CLOSED_FORMS)
@pytest.mark.parametrize("field,extensions", [("Q", []), ("F_2", [2, 4]),
                                               ("F_3", [2, 4])])
def test_residue_field_betti_ranks_match_closed_forms(names, ideal, ranks,
                                                      field, extensions):
    A = jet(_pres(f"ring {field}[{names}]\ngraded\nideal: {ideal}"), 4)
    for B in [A] + [base_change(A, m) for m in extensions]:
        res = betti_residue_field(B, 4)
        assert [res.rank(i) for i in range(5)] == ranks


REDUCER_FIELDS = {"Q": rationals(), "F_3": finite_field(3, 1),
                  "F_4": finite_field(2, 2)}
REDUCER_NCOLS = 9
Q_VALUES = [Fraction(n, d) for n in range(-3, 4) for d in (1, 2, 3)]


def _key(c):
    # module-element keys (generator index, basis index) in column order
    return divmod(c, 3)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(REDUCER_FIELDS)), st.data())
def test_sparse_reducer_agrees_with_exact_rank_and_rref(name, data):
    fld = REDUCER_FIELDS[name]
    values = Q_VALUES if name == "Q" else list(range(fld.order))
    value = st.sampled_from(values)
    red = Echelon(fld)
    inserted: list[list] = []
    for _ in range(data.draw(st.integers(1, 12), label="count")):
        kind = data.draw(st.sampled_from(
            ["sparse", "repeat", "combination"] if inserted else ["sparse"]))
        if kind == "sparse":
            cols = data.draw(st.lists(st.integers(0, REDUCER_NCOLS - 1),
                                      max_size=4, unique=True))
            vec = [fld.zero()] * REDUCER_NCOLS
            for c in cols:
                vec[c] = data.draw(value)
        elif kind == "repeat":
            vec = list(data.draw(st.sampled_from(inserted)))
        else:
            vec = [fld.zero()] * REDUCER_NCOLS
            for old in data.draw(st.lists(st.sampled_from(inserted),
                                          min_size=1, max_size=3)):
                coef = data.draw(value)
                vec = [fld.add(x, fld.mul(coef, y)) for x, y in zip(vec, old)]
        before = len(_dense_rref(fld, inserted, REDUCER_NCOLS))
        inserted.append(vec)
        want = _dense_rref(fld, inserted, REDUCER_NCOLS)
        sparse = {_key(c): x for c, x in enumerate(vec) if not fld.is_zero(x)}
        assert red.add(sparse) == (len(want) > before)
        assert sorted(red.rows) == [_key(c) for c in want]
        got = []
        for entries in red.reduced().values():
            dense = [fld.zero()] * REDUCER_NCOLS
            for key, x in entries.items():
                dense[3 * key[0] + key[1]] = x
            got.append(dense)
        assert got == list(want.values())
        for key, row in red.rows.items():
            # a stored row holds its nonzero entries, its smallest key the pivot
            assert min(row) == key
            assert not any(fld.is_zero(x) for x in row.values())
            if name == "Q":
                # fraction-free integer rows with content 1
                assert all(type(x) is int for x in row.values())
                assert gcd(*row.values()) == 1
            else:
                assert row[key] == fld.one()


# -- reference: the resolution engine that built every layer, each degree's
# syzygies from an `ExactMatrix.kernel_basis` of the products and the minimal
# ones by a second elimination of the same products, which the one tagged
# elimination per layer and degree replaced.  It forms its products in the
# field's own methods, as the engine did before its raw product rows.


def _reference_mult(A, u, elem):
    """basis[u] * elem in field-method arithmetic, zero entries dropped."""
    add, mul, is_zero = A.field.add, A.field.mul, A.field.is_zero
    out = {}
    for (k, b), c in elem.items():
        for t, w in A.mult_basis(b, u):
            x = mul(c, w)
            key = (k, t)
            out[key] = add(out[key], x) if key in out else x
    return {key: x for key, x in out.items() if not is_zero(x)}


def _span_reducer(A, gen_shifts, gens, deg):
    red = Echelon(A.field)
    for d, g in zip(gen_shifts, gens):
        for u in A.component(deg - d):
            red.add(_reference_mult(A, u, g))
    return red


def _syzygy_step(A, prev_shifts, shifts, gens, dcap):
    fld = A.field
    new_shifts, new_gens = [], []
    kernel_seen = False
    if not shifts:
        return new_shifts, new_gens, False
    for j in range(min(shifts) + 1, dcap + 1):
        dom = [(k, b) for k, s in enumerate(shifts) for b in A.component(j - s)]
        if not dom:
            continue
        row_of = {key: r for r, key in enumerate(
            (k, b) for k, s in enumerate(prev_shifts) for b in A.component(j - s))}
        rows = [{} for _ in row_of]
        for c, (k, b) in enumerate(dom):
            for key, x in _reference_mult(A, b, gens[k]).items():
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


def _minimalize(A, candidates):
    shifts, kept = [], []
    red, red_deg = None, None
    for deg, elem in sorted(candidates, key=lambda t: t[0]):
        if deg != red_deg:
            red, red_deg = _span_reducer(A, shifts, kept, deg), deg
        if red.add(elem):
            shifts.append(deg)
            kept.append(elem)
    return shifts, kept


def _reference_layers(A, candidates_by_degree, top, dcap):
    shifts1, gens = _minimalize(A, [(d, g) for d, gs in candidates_by_degree.items()
                                    for g in gs])
    if not shifts1:
        return [[0]], 0
    layers = [[0], shifts1]
    for i in range(1, top):
        shifts, gens, vanished = _syzygy_step(A, layers[i - 1], layers[i], gens, dcap)
        if vanished:
            return layers, i
        if not shifts:
            break
        layers.append(shifts)
    return layers, None


def _pairs(A, elem):
    """A module element in the engine's flat keys k*n + b as (k, b) keys."""
    return {divmod(key, A.dim): x for key, x in elem.items()}


def _flat(A, elem):
    """A module element with (k, b) keys in the engine's flat keys."""
    return {k * A.dim + b: x for (k, b), x in elem.items()}


def _reference_resolve(A, candidates_by_degree, top, dcap):
    candidates_by_degree = {d: [_pairs(A, g) for g in gs]
                            for d, gs in candidates_by_degree.items()}
    layers, pd = _reference_layers(A, candidates_by_degree, top, dcap)
    betti = {}
    for i, shifts in enumerate(layers):
        for j in shifts:
            betti[(i, j)] = betti.get((i, j), 0) + 1
    return betti, [len(s) for s in layers], pd


def _outcome(res):
    return res.betti, res.ranks, res.pd, res.complete


def _with_reference_engine(compute):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(resolution, "_resolve", _reference_resolve)
        return compute()


# extension degrees of the base changes each field's jets are taken to
EXTENSIONS = {"Q": [1], "F_2": [1, 2, 4], "F_3": [1], "F_4": [2, 4], "F_1073741789": [1]}


@given(st.integers(0, 10**6), st.sampled_from(sorted(EXTENSIONS)), st.integers(1, 3),
       st.integers(1, 4), st.data())
@settings(max_examples=60, deadline=None)
def test_resolution_matches_the_kernel_basis_reference(seed, field, nvars, hcap, data):
    p = random_presentation(random.Random(seed), field, nvars, "graded")
    A = jet(p, 4)
    m = data.draw(st.sampled_from(EXTENSIONS[field]), label="extension degree")
    B = A if m == 1 else base_change(A, m)
    for src in (p, B):
        want = _with_reference_engine(lambda: betti_residue_field(src, hcap))
        assert _outcome(betti_residue_field(src, hcap)) == _outcome(want)
    want = _with_reference_engine(lambda: minimal_resolution_of_quotient(p))
    assert _outcome(minimal_resolution_of_quotient(p)) == _outcome(want)


@given(st.integers(0, 10**6), st.sampled_from(sorted(EXTENSIONS)), st.integers(1, 3),
       st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_counted_top_layer_matches_the_built_one(seed, field, nvars, h):
    # at hcap h the top layer is counted; at h + 1 it is built and the
    # next one counted
    A = jet(random_presentation(random.Random(seed), field, nvars, "graded"), 4)
    low, high = betti_residue_field(A, h), betti_residue_field(A, h + 1)
    assert low.ranks == high.ranks[:h + 1]
    assert low.betti == {(i, j): b for (i, j), b in high.betti.items() if i <= h}


# -- the product rows against the field-method product

# field name -> (the field of the presentation, the base-change degree)
PRODUCT_FIELDS = {"Q": ("Q", 1), "F_3": ("F_3", 1), "F_4": ("F_4", 1),
                  "F_16": ("F_2", 4), "F_1073741789": ("F_1073741789", 1)}
P_BIG = 1073741789


def _product_values(fld):
    if fld == rationals():
        return [x for x in Q_VALUES if x]
    if fld == finite_field(P_BIG, 1):
        return [1, 2, 3, 2 ** 29, P_BIG - 2, P_BIG - 1]
    return list(range(1, fld.order))


def _draw_element(A, data, mixed=False):
    """A module element over two generators, each homogeneous as the
    resolution's are, or of mixed degrees when mixed is set, as the
    derivation space's are, whose coefficients come in pairs c, -c often, so
    that products of neighbouring entries cancel."""
    fld = A.field
    # positive degrees below the top, so that a positive-degree u meets them
    degrees = range(1, max(max(A.degrees()), 2))
    keys = []
    for k in range(data.draw(st.integers(1, 2), label="generators")):
        comp = ([b for d in degrees for b in A.component(d)] if mixed else
                A.component(data.draw(st.sampled_from(degrees), label="degree")))
        keys += [(k, b) for b in data.draw(
            st.lists(st.sampled_from(comp), min_size=1, max_size=4, unique=True),
            label="support")]
    elem, prev = {}, None
    for key in keys:
        if prev is not None and data.draw(st.booleans(), label="negate"):
            x = fld.neg(prev)
        else:
            x = data.draw(st.sampled_from(_product_values(fld)), label="value")
        elem[key] = prev = x
    return elem


def _assert_rows_match(A, g, us):
    entry = Echelon(A.field)._entry
    rows = [_pairs(A, row) for row in A.product_rows()(_flat(A, g), us)]
    assert len(rows) == len(us)
    for u, row in zip(us, rows):
        want = _reference_mult(A, u, g)
        assert entry(row) == entry(want)
        if A.field == rationals():
            # over Q entry clears denominators: compare the values themselves
            assert {key: x for key, x in row.items() if x} == want
        else:
            assert entry(row) == want
        # an empty row is a product with no basis term at all
        assert bool(row) == any(A.mult_basis(b, u) for _, b in g)


# nonzero coefficients and ring statements of the product checks' quadrics
QUADRIC_COEFFS = {"Q": ["1", "-1", "2", "-3", "1/2"], "F_2": ["1"], "F_3": ["1", "2"],
                  "F_4": ["1", "a", "1+a"], "F_1073741789": ["1", "-1", "2", "-2", "3"]}
RINGS = {"F_4": "F_2^2 minpoly a^2 + a + 1"}


def _quadrics(rng, base, nvars, count, mode="graded"):
    """Relations with every degree-2 monomial: each normal form in degree 2
    and up has several terms, so the products of g's entries meet.  In local
    mode each relation also has a cubic term, so the normal forms of degree 2
    have terms of degree 3."""
    names = "xyz"[:nvars]
    coeffs = QUADRIC_COEFFS[base]
    monos = [f"{a}*{b}" for i, a in enumerate(names) for b in names[i:]]
    rels = [" + ".join(f"({rng.choice(coeffs)})*{m}" for m in monos)
            for _ in range(count)]
    if mode == "local":
        rels = [f"{rel} + ({rng.choice(coeffs)})*{'*'.join(rng.choices(names, k=3))}"
                for rel in rels]
    return _pres(f"ring {RINGS.get(base, base)}[{', '.join(names)}]\n{mode}\n"
                 f"ideal: {', '.join(rels)}")


@given(st.sampled_from(sorted(PRODUCT_FIELDS)), st.integers(0, 10**6), st.integers(2, 3),
       st.integers(1, 2), st.sampled_from(["graded", "local"]), st.data())
@settings(max_examples=120, deadline=None)
def test_product_rows_match_the_field_method_product(name, seed, nvars, count, mode, data):
    base, m = PRODUCT_FIELDS[name]
    A = jet(_quadrics(random.Random(seed), base, nvars, count, mode), 4)
    A = A if m == 1 else base_change(A, m)
    g = _draw_element(A, data, mixed=mode == "local")
    d = data.draw(st.integers(1, 3 - min(A.degrees()[b] for _, b in g)), label="degree")
    _assert_rows_match(A, g, A.component(d))


@pytest.mark.parametrize("name", sorted(PRODUCT_FIELDS))
def test_product_rows_keep_a_sum_that_cancels(name):
    # x^2 = x*y + y^2 (or y^2 = x^2 - x*y): two basis products share a
    # normal-form term, and g weighs them so that it cancels
    base, m = PRODUCT_FIELDS[name]
    A = jet(_pres(f"ring {RINGS.get(base, base)}[x, y]\ngraded\nideal: x^2 - x*y - y^2"), 3)
    A = A if m == 1 else base_change(A, m)
    fld = A.field
    u, b1, b2, t, w1, w2 = next(
        (u, b1, b2, t, dict(A.mult_basis(b1, u))[t], dict(A.mult_basis(b2, u))[t])
        for u in range(A.dim) for b1 in range(A.dim) for b2 in range(b1 + 1, A.dim)
        for t in sorted(dict(A.mult_basis(b1, u)).keys() & dict(A.mult_basis(b2, u))))
    g = {(0, b1): w2, (0, b2): fld.neg(w1)}
    row = _pairs(A, A.product_rows()(_flat(A, g), (u,))[0])
    assert fld.is_zero(row[(0, t)])
    assert (0, t) not in _reference_mult(A, u, g)
    _assert_rows_match(A, g, A.component(A.degrees()[u]))


# -- zero products: basis[u] * g = 0 for every basis monomial of g's support

ZERO_PRODUCTS = "ring F_2[x, y, z]\ngraded\nideal: y^2*z, x*y*z"


@pytest.mark.parametrize("m", [1, 2, 4])
def test_zero_products_stay_out_of_the_echelon(m):
    A = jet(_pres(ZERO_PRODUCTS), 4)
    B = A if m == 1 else base_change(A, m)
    reduce, products = Echelon.reduce, ArtinAlgebra.product_rows
    tag_only, zero_rows = [], []
    product_rows = {}  # id -> row, held so that no id is reused

    def watched_reduce(self, v):
        # a product row reaches the echelon with its one tag: tag only
        # when that is its only key
        if id(v) in product_rows:
            tag_only.append(len(v) == 1)
        return reduce(self, v)

    def watched_products(A):
        rows_of = products(A)

        def watched(g, us):
            rows = rows_of(g, us)
            zero_rows.extend(row for row in rows if not row)
            product_rows.update((id(row), row) for row in rows)
            return rows
        return watched

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Echelon, "reduce", watched_reduce)
        mp.setattr(ArtinAlgebra, "product_rows", watched_products)
        got = betti_residue_field(B, 4)
    assert zero_rows and tag_only
    assert not any(tag_only)
    want = _with_reference_engine(lambda: betti_residue_field(B, 4))
    assert _outcome(got) == _outcome(want)


# -- degree pruning: a basis pair whose degrees add up past the ring's top
# degree has a zero product, and is never multiplied

PRUNED = [
    ("ring Q[x, y]\ngraded\nideal: x^2, x*y, y^2", 1),
    ("ring F_2[x, y]\ngraded\nideal: x^2 + x*y, y^3", 4),
    (ZERO_PRODUCTS, 2),
    ("ring F_3[x, y, z]\ngraded\nideal: x^2 - y*z, y^3, z^3 + x*y^2", 1),
]


@pytest.mark.parametrize("text,m", PRUNED, ids=["Q", "F_16", "F_4", "F_3"])
def test_no_basis_pair_past_the_top_degree_is_multiplied(text, m):
    p = _pres(text)
    A = jet(p, 5)
    B = A if m == 1 else base_change(A, m)
    mult_basis = ArtinAlgebra.mult_basis
    calls, past = [], []

    def counted(self, i, j):
        degrees = self.degrees()
        calls.append((i, j))
        if degrees[i] + degrees[j] > max(degrees):
            past.append((i, j))
        return mult_basis(self, i, j)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ArtinAlgebra, "mult_basis", counted)
        got = [_outcome(betti_residue_field(src, 4)) for src in (p, A, B)]
        got.append(_outcome(minimal_resolution_of_quotient(p)))
    assert calls and not past
    want = _with_reference_engine(
        lambda: [_outcome(betti_residue_field(src, 4)) for src in (p, A, B)]
        + [_outcome(minimal_resolution_of_quotient(p))])
    assert got == want


# -- split socle generators: a generator g of degree s with A_1 g = 0 forms
# no products, and each later layer i + t inherits layers[t] shifted by s

# dcap of a presentation source: None takes betti_residue_field's default
EDGE_DCAPS = [None, 1, 2, 3, 5]


@given(st.integers(0, 10**6), st.sampled_from(sorted(EXTENSIONS)), st.integers(1, 3),
       st.integers(2, 6), st.integers(1, 5), st.sampled_from(EDGE_DCAPS), st.data())
@settings(max_examples=60, deadline=None)
def test_split_resolution_matches_the_reference_at_the_edges(seed, field, nvars, order,
                                                             hcap, dcap, data):
    p = random_presentation(random.Random(seed), field, nvars, "graded")
    A = jet(p, order)
    m = data.draw(st.sampled_from(EXTENSIONS[field]), label="extension degree")
    B = A if m == 1 else base_change(A, m)

    def outcomes():
        return ([_outcome(betti_residue_field(p, hcap, dcap))]
                + [_outcome(betti_residue_field(src, hcap)) for src in (A, B)]
                + [_outcome(minimal_resolution_of_quotient(p)), depth_and_classify(p)])
    assert outcomes() == _with_reference_engine(outcomes)


@pytest.mark.parametrize("text,hcap,dcap,shifts", [
    # layer 2's generator x^3 e_1 is a socle element; layer 5 would inherit
    # 9, past dcap 8, so the resolution stops at layer 4 with no trailing
    # empty layer
    ("ring F_3[x]\ngraded\nideal: x^4", 5, None, [0, 1, 4, 5, 8]),
    ("ring F_3[x]\ngraded\nideal: x^3", 4, 5, [0, 1, 3, 4]),
    ("ring Q[x, y, z]\ngraded\nideal: -2*z^2 + x*z, 4*y, 11/2*x", 3, 2, [0, 1, 2]),
])
def test_split_resolution_regressions(text, hcap, dcap, shifts):
    p = _pres(text)
    res = betti_residue_field(p, hcap, dcap)
    assert res.ranks == [1] * len(shifts)
    assert res.betti == {(i, j): 1 for i, j in enumerate(shifts)}
    want = _with_reference_engine(lambda: betti_residue_field(p, hcap, dcap))
    assert _outcome(res) == _outcome(want)


def _watched_builder(mp, calls):
    """Record (g, us, rows) of every call of the algebra's product-row
    builder: g itself, which the builder never changes, and copies of
    the rows, which the resolution tags."""
    products = ArtinAlgebra.product_rows

    def watched_products(A):
        rows_of = products(A)

        def watched(g, us):
            rows = rows_of(g, us)
            calls.append((g, tuple(us), [dict(row) for row in rows]))
            return rows
        return watched
    mp.setattr(ArtinAlgebra, "product_rows", watched_products)


def test_double_point_forms_only_the_layer_one_socle_test():
    # over Q[x]/(x^2) the one generator x of layer 1 has x * x = 0: every
    # later layer is a shifted copy, and no product is formed past the test
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        _watched_builder(mp, calls)
        res = betti_residue_field(_pres("ring Q[x]\ngraded\nideal: x^2"), 10)
    assert res.ranks == [1] * 11 and not res.complete
    assert res.betti == {(i, i): 1 for i in range(11)}
    (g, us, rows), = calls
    assert len(g) == 1 and len(us) == 1 and rows == [{}]


def test_split_keeps_the_criterion_13_table_and_forms_fewer_rows():
    # the criterion-13 member with Hilbert function [1, 3, 6, 8]; the
    # engine without the split formed 2,431 product rows here at F_2, F_4
    # and F_16 alike, and the split forms fewer than a quarter of them
    A = jet(_pres(ZERO_PRODUCTS), 4)
    assert hf_by_degree_count(A) == [1, 3, 6, 8]
    for B in (A, base_change(A, 2), base_change(A, 4)):
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            _watched_builder(mp, calls)
            got = betti_residue_field(B, 4)
        assert got.ranks == [1, 3, 15, 56, 245]
        assert _outcome(got) == _outcome(_with_reference_engine(
            lambda: betti_residue_field(B, 4)))
        assert sum(len(us) for _, us, _ in calls) < 2431 // 4


@pytest.mark.parametrize("name", sorted(PRODUCT_FIELDS))
def test_socle_test_reads_a_raw_product_that_cancels_as_zero(name):
    # x^2 = x*y = y^2: layer 2 of the residue field starts with the syzygy
    # (y - x) e_1, whose raw products with x and with y are the one basis
    # term of degree 2 with the entries 1 and -1 summed, nonempty rows whose
    # entries cancel.  Read through the field's row conversion it is a
    # socle element: its one builder call is the socle test, and no
    # product of it is formed in degree 3.
    base, m = PRODUCT_FIELDS[name]
    A = jet(_pres(f"ring {RINGS.get(base, base)}[x, y]\ngraded\n"
                  "ideal: x^2 - x*y, y^2 - x*y"), 4)
    A = A if m == 1 else base_change(A, m)
    entry = A.field.row_arithmetic[0]
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        _watched_builder(mp, calls)
        got = betti_residue_field(A, 4)
    cancelled = [g for g, _, rows in calls
                 if all(rows) and not any(map(entry, rows))]
    assert cancelled
    for g in cancelled:
        # the socle test and nothing after it
        assert [us for h, us, _ in calls if h is g] == [tuple(A.component(1))]
    assert _outcome(got) == _outcome(_with_reference_engine(
        lambda: betti_residue_field(A, 4)))
