import random
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetmetric import resolution
from jetmetric.artin import jet, socle
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
    values = Q_VALUES if name == "Q" else list(fld.elements())
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
        before = _dense_rref(fld, inserted, REDUCER_NCOLS).rank
        inserted.append(vec)
        want = _dense_rref(fld, inserted, REDUCER_NCOLS)
        sparse = {_key(c): x for c, x in enumerate(vec) if not fld.is_zero(x)}
        assert red.add(sparse) == (want.rank > before)
        assert sorted(red.rows) == [_key(c) for c in want.pivots]
        got = []
        for entries in red.reduced().values():
            dense = [fld.zero()] * REDUCER_NCOLS
            for key, x in entries.items():
                dense[3 * key[0] + key[1]] = x
            got.append(dense)
        assert got == want.rows
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
# elimination per layer and degree replaced


def _span_reducer(A, gen_shifts, gens, deg):
    red = Echelon(A.field)
    for d, g in zip(gen_shifts, gens):
        for u in A.component(deg - d):
            red.add(resolution._mult(A, u, g))
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
            for key, x in resolution._mult(A, b, gens[k]).items():
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


def _reference_resolve(A, candidates_by_degree, top, dcap):
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
