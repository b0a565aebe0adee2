import random
from dataclasses import fields
from fractions import Fraction
from functools import reduce
from itertools import islice, permutations, product
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetmetric import iso
from jetmetric.artin import defpair_jet, jet
from jetmetric.iso import (
    QQ_SCALINGS,
    SearchBudget,
    Witness,
    apply_linear_map,
    base_change,
    decide_isomorphism,
    embedding_root,
    find_separator,
    invariant_signature,
    invert_witness,
    linear_map_matrix,
    project_witness,
    verify_witness,
    witness_field,
)
from jetmetric.errors import RangeError
from jetmetric.exactcore import (TABLE_MAX_ORDER, ExactMatrix, PrimeField, RationalField, _is_prime,
                                 finite_field)
from jetmetric.poly import Poly
from jetmetric.presentation import parse_presentation, poly_to_str, print_presentation

from conftest import (dense_product, random_presentation, random_presentation_text, to_dense,
                      to_sparse)

BUDGET = SearchBudget(ext_degree_max=1, effort=200_000)


def _decide(A, B, budget=BUDGET):
    return decide_isomorphism(A, B, budget=budget)


def test_signature_of_cusp_jet(cusp):
    sig = invariant_signature(jet(cusp, 4))
    assert sig.length == 7
    assert sig.hilbert_function == (1, 2, 2, 2)
    assert sig.nilpotency_index == 4
    assert sig.embedding_dimension == 2


def test_identity_is_found_immediately(cusp):
    A, B = jet(cusp, 5), jet(cusp, 5)
    v = _decide(A, B)
    assert v.status == "ISO"
    assert verify_witness(A, B, v.witness)


def test_renamed_variables_are_isomorphic():
    a = parse_presentation("ring Q[x, y]\ngraded\nideal: x^2 + y^2")
    b = parse_presentation("ring Q[u, v]\ngraded\nideal: u^2 + v^2")
    v = _decide(jet(a, 4), jet(b, 4))
    assert v.status == "ISO"


def test_variable_swap_iso():
    a = parse_presentation("ring Q[x, y]\ngraded\nideal: x^3, y^2")
    b = parse_presentation("ring Q[x, y]\ngraded\nideal: x^2, y^3")
    v = _decide(jet(a, 5), jet(b, 5))
    assert v.status == "ISO"
    assert verify_witness(jet(a, 5), jet(b, 5), v.witness)


def test_scaling_iso_over_q():
    # x^2 - 2y^2 and x^2 - 8y^2 match after y -> 2y
    a = parse_presentation("ring Q[x, y]\ngraded\nideal: x^2 - 2*y^2")
    b = parse_presentation("ring Q[x, y]\ngraded\nideal: x^2 - 8*y^2")
    v = _decide(jet(a, 3), jet(b, 3))
    assert v.status == "ISO"


def test_different_hilbert_functions_separate():
    a = parse_presentation("ring Q[x]\ngraded\nideal: x^2")
    b = parse_presentation("ring Q[x]\ngraded\nideal: x^3")
    v = _decide(jet(a, 4), jet(b, 4))
    assert v.status == "NOT_ISO"
    name, va, vb = v.separator
    assert va != vb


def test_separator_values_recompute(fat_point):
    cases = [(jet(fat_point, 3),
              jet(parse_presentation("ring Q[x, y]\ngraded\nideal: x^2, y^2"), 3)),
             # equal lengths; the Hilbert functions and socle dimensions both differ
             (jet(parse_presentation("ring Q[x]\ngraded\nideal: x^4"), 5),
              jet(parse_presentation("ring Q[x, y, z]\ngraded\n"
                                     "ideal: x^2, x*y, x*z, y^2, y*z, z^2"), 5))]
    for A, B in cases:
        sep = find_separator(A, B)
        assert sep is not None
        name = sep[0]
        sa, sb = invariant_signature(A), invariant_signature(B)
        assert getattr(sa, name) == sep[1]
        assert getattr(sb, name) == sep[2]
        assert sep[1] != sep[2]
        # every invariant listed before the separator agrees
        names = [x.name for x in fields(sa)]
        assert all(getattr(sa, n) == getattr(sb, n) for n in names[:names.index(name)])


@given(st.integers(0, 10**6), st.sampled_from(["Q", "F_2", "F_3"]),
       st.sampled_from(["graded", "local"]))
@settings(max_examples=40, deadline=None)
def test_find_separator_is_the_first_differing_signature_field(seed, field, mode):
    # the lazy walk computes an invariant only when every earlier one agrees,
    # and must report what comparing the full signatures reports
    rng = random.Random(seed)
    nvars = rng.randint(1, 3)
    A, B = (jet(random_presentation(rng, field, nvars, mode), rng.randint(0, 4))
            for _ in range(2))
    sa, sb = invariant_signature(A), invariant_signature(B)
    differing = [(x.name, getattr(sa, x.name), getattr(sb, x.name)) for x in fields(sa)
                 if getattr(sa, x.name) != getattr(sb, x.name)]
    assert find_separator(A, B) == (differing[0] if differing else None)


def test_unknown_when_budget_is_tiny():
    # same invariants, nontrivial coordinate search, nearly no effort allowed
    a = parse_presentation("ring F_3[x, y]\nlocal\nideal: y^2 - x^3")
    b = parse_presentation("ring F_3[x, y]\nlocal\nideal: y^2 - 2*x^3")
    v = _decide(jet(a, 5), jet(b, 5), SearchBudget(ext_degree_max=1, effort=3))
    assert v.status == "UNKNOWN"
    assert v.search_bounds is not None
    assert v.search_bounds["stopped_by"] == "effort"


def test_unknown_names_the_budget_it_ran_out_of():
    # over Q the fixed candidate list runs dry before a large effort does
    a = parse_presentation("ring Q[x, y]\ngraded\nideal: x^2 - 5*y^2")
    b = parse_presentation("ring Q[x, y]\ngraded\nideal: x^2 - 7*y^2")
    v = _decide(jet(a, 3), jet(b, 3))
    assert v.status == "UNKNOWN"
    assert v.search_bounds == {"ext_degree_tried": 1, "candidates_tried": 203,
                               "space_exhausted": False, "stopped_by": "candidates"}
    v = _decide(jet(a, 3), jet(b, 3), SearchBudget(ext_degree_max=1, effort=50))
    assert v.search_bounds["stopped_by"] == "effort"
    # over F_3 without the extension the whole linear space is searched
    a = parse_presentation("ring F_3[x, y]\ngraded\nideal: x^2 + y^2")
    b = parse_presentation("ring F_3[x, y]\ngraded\nideal: x*y")
    v = _decide(jet(a, 3), jet(b, 3))
    assert v.search_bounds["space_exhausted"] is True
    assert v.search_bounds["stopped_by"] == "space"


def test_iso_search_bounds_carry_no_stop_reason():
    a = parse_presentation("ring F_3[x, y]\ngraded\nideal: x^2 + y^2")
    b = parse_presentation("ring F_3[x, y]\ngraded\nideal: x*y")
    v = _decide(jet(a, 3), jet(b, 3), SearchBudget(ext_degree_max=2, effort=400_000))
    assert v.status == "ISO"
    assert set(v.search_bounds) == {"ext_degree_tried", "candidates_tried", "space_exhausted"}


def test_mismatched_fields_are_an_error():
    from jetmetric.errors import FieldMismatchError
    a = parse_presentation("ring F_2[x]\ngraded\nideal: x^2")
    b = parse_presentation("ring F_3[x]\ngraded\nideal: x^2")
    with pytest.raises(FieldMismatchError):
        _decide(jet(a, 3), jet(b, 3))


def test_witness_verification_rejects_wrong_map(cusp):
    A = jet(cusp, 4)
    f = A.field
    # x -> x, y -> x is not an isomorphism (not surjective on m/m^2)
    img_x = A.var_image(0)
    w = Witness(images=[img_x, img_x])
    assert not verify_witness(A, A, w)


def test_witness_verification_checks_the_tuple_condition():
    # (Q[x]/x^3, x) and (Q[x]/x^3, 2x) at order 2: the identity kills the
    # relations and is bijective, but sends the tuple x to x, not to 2x
    a = parse_presentation("ring Q[x]\nlocal\nideal: x^3\ntuple: x")
    b = parse_presentation("ring Q[x]\nlocal\nideal: x^3\ntuple: 2*x")
    A, B = defpair_jet(a, 2), defpair_jet(b, 2)
    identity = Witness(images=[B.var_image(0)])
    assert verify_witness(A, B, identity)
    assert not verify_witness(A, B, identity, match_tuples=True)
    # the search finds x -> 2x, and both orientations re-verify with tuples
    for S, T in ((A, B), (B, A)):
        v = decide_isomorphism(S, T, BUDGET, match_tuples=True)
        assert v.status == "ISO"
        assert verify_witness(S, T, v.witness, match_tuples=True)
        assert v.witness.images != identity.images
    # tuples of different lengths admit no map of pairs
    assert not verify_witness(A, jet(parse_presentation("ring Q[x]\nlocal\nideal: x^2"), 2),
                              identity, match_tuples=True)


def _malformed_images(B):
    """Image lists for a witness into B, two variables, that are not two
    sparse elements of B's maximal ideal, each with the reason."""
    f = B.field
    one = f.one()
    x, y = B.var_image(0), B.var_image(1)
    # zero as the field stores it, and over F_p as the residue p
    zeros = [f.zero()] + ([f.p] if isinstance(f, PrimeField) else [])
    return [
        ("index past the basis", [x, y + [(B.dim, one)]]),
        ("negative index", [[(-1, one)] + x, y]),
        ("unit monomial", [[(0, one)] + x, y]),
        ("descending indices", [x, sorted(x + y, reverse=True)]),
        ("repeated index", [x, y + y]),
        *((f"zero value {z!r}", [x, y + [(B.dim - 1, z)]]) for z in zeros),
        ("one image", [x]),
        ("three images", [x, y, sorted(x + y)]),
    ]


@pytest.mark.parametrize("ring", ["Q", "F_3"])
def test_verify_witness_rejects_malformed_sparse_images(ring):
    A = jet(parse_presentation(f"ring {ring}[x, y]\nlocal\nideal: y^2 - x^3"), 4)
    B = jet(parse_presentation(f"ring {ring}[x, y]\nlocal\nideal: y^2 - x^3"), 4)
    assert verify_witness(A, B, Witness(images=[B.var_image(0), B.var_image(1)]))
    for why, images in _malformed_images(B):
        assert verify_witness(A, B, Witness(images=images)) is False, why


def test_witness_images_are_sparse_elements():
    # found, inverted and projected witnesses: ascending indices in the
    # maximal ideal of the target, nonzero values
    a = parse_presentation("ring Q[x, y]\ngraded\nideal: x^2, y^3")
    b = parse_presentation("ring Q[u, v]\ngraded\nideal: v^3, u^2")
    A, B = jet(a, 5), jet(b, 5)
    w = _decide(A, B).witness
    A3, B3 = jet(a, 3), jet(b, 3)
    for target, images in ((B, w.images), (A, invert_witness(A, B, w).images),
                           (B3, project_witness(w, B, B3).images)):
        for img in images:
            idx = [i for i, _ in img]
            assert idx == sorted(set(idx)) and all(0 < i < target.dim for i in idx)
            assert all(not target.field.is_zero(c) for _, c in img)
    assert verify_witness(A3, B3, project_witness(w, B, B3))


def test_witness_inversion_roundtrip():
    a = parse_presentation("ring Q[x, y]\ngraded\nideal: x^2, y^3")
    b = parse_presentation("ring Q[u, v]\ngraded\nideal: v^3, u^2")
    A, B = jet(a, 5), jet(b, 5)
    v = _decide(A, B)
    assert v.status == "ISO"
    back = invert_witness(A, B, v.witness)
    assert verify_witness(B, A, back)


def test_witness_projection_to_lower_order(cusp):
    A5, A3 = jet(cusp, 5), jet(cusp, 3)
    v = _decide(A5, A5)
    w3 = project_witness(v.witness, A5, A3)
    assert verify_witness(A3, A3, w3)


def test_extension_search_finds_f9_iso():
    # x^2 + y^2 factors over F_9 but not F_3; the pair below needs the
    # quadratic extension before a coordinate change can align them
    a = parse_presentation("ring F_3[x, y]\ngraded\nideal: x^2 + y^2")
    b = parse_presentation("ring F_3[x, y]\ngraded\nideal: x*y")
    A, B = jet(a, 3), jet(b, 3)
    v1 = _decide(A, B, SearchBudget(ext_degree_max=1, effort=200_000))
    assert v1.status == "UNKNOWN"
    v2 = _decide(A, B, SearchBudget(ext_degree_max=2, effort=400_000))
    assert v2.status == "ISO"
    assert v2.witness.ext_multiple == 2
    assert witness_field(B, v2.witness) is base_change(B, 2).field
    assert witness_field(B, Witness(images=[], ext_multiple=1)) is B.field


def test_f9_witness_inverts_and_round_trips():
    a = parse_presentation("ring F_3[x, y]\ngraded\nideal: x^2 + y^2")
    b = parse_presentation("ring F_3[x, y]\ngraded\nideal: x*y")
    A, B = jet(a, 3), jet(b, 3)
    w = _decide(A, B, SearchBudget(ext_degree_max=2, effort=400_000)).witness
    assert w.ext_multiple == 2
    back = invert_witness(A, B, w)
    assert back.ext_multiple == 2
    assert verify_witness(B, A, back)
    # the inverse is unique: inverting twice returns w
    assert invert_witness(B, A, back).images == w.images


def _reference_image(B, images, mono):
    # left-to-right dense product of the variable images, starting from one
    vec = to_dense(B, B.reduce_monomial((0,) * B.nvars))
    for k, e in enumerate(mono):
        for _ in range(e):
            vec = dense_product(B, vec, images[k])
    return vec


def _random_scalar(rng, f):
    if isinstance(f, RationalField):
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return rng.randrange(f.order)


@pytest.mark.parametrize("field", ["Q", "F_3", "F_4", "F_1073741789"])
def test_monomial_map_matches_left_to_right_products(field):
    rng = random.Random(20260814)
    ground = "F_2" if field == "F_4" else field
    checked = 0
    while checked < 6:
        A = jet(random_presentation(rng, ground, rng.randint(1, 3), "local"), 5)
        B = jet(random_presentation(rng, ground, 2, "local"), 5)
        if field == "F_4":
            A, B = base_change(A, 2), base_change(B, 2)
        if A.is_zero_ring() or B.is_zero_ring():
            continue
        checked += 1
        f = B.field
        images = [[f.zero() if d == 0 else _random_scalar(rng, f) for d in B.degrees()]
                  for _ in range(A.nvars)]
        image = B.monomial_map([to_sparse(v) for v in images])

        def reference_sum(terms):
            out = [f.zero()] * B.dim
            for mono, c in terms:
                ref = _reference_image(B, images, mono)
                out = [f.add(o, f.mul(c, r)) for o, r in zip(out, ref)]
            return out

        monos = {tuple(rng.randint(0, 4) for _ in range(A.nvars)) for _ in range(8)}
        g = Poly(f, A.nvars, {m: _random_scalar(rng, f) for m in monos})
        for rel in A.relations + [g]:
            got = B.evaluate(rel, image)
            assert got == to_sparse(reference_sum(rel.terms.items()))
            assert all(not f.is_zero(c) for _, c in got)
        L = linear_map_matrix(A, B, image)
        cols = [_reference_image(B, images, mono) for mono in A.basis]
        assert L == [[col[i] for col in cols] for i in range(B.dim)]
        v = [_random_scalar(rng, f) for _ in range(A.dim)]
        Lv = [reduce(f.add, (f.mul(L[i][j], v[j]) for j in range(A.dim)), f.zero())
              for i in range(B.dim)]
        assert apply_linear_map(A, B, image, to_sparse(v)) == to_sparse(Lv)


def _first_root_by_scan(src, dst):
    # every element of dst in code order, the minimal polynomial evaluated at each
    for cand in dst.elements():
        acc = dst.zero()
        for coeff in reversed(src.desc.minpoly):
            acc = dst.add(dst.mul(acc, cand), dst.from_int(coeff))
        if dst.is_zero(acc):
            return cand
    raise AssertionError("no root")


def test_embedding_root_matches_scan_of_the_whole_field():
    cases = [(p, m, n) for p in range(2, 65) if _is_prime(p)
             for n in range(2, 13) if p**n <= TABLE_MAX_ORDER
             for m in range(2, n + 1) if n % m == 0]
    assert len(cases) > 30
    for p, m, n in cases:
        src, dst = finite_field(p, m), finite_field(p, n)
        assert embedding_root(src, dst) == _first_root_by_scan(src, dst), (p, m, n)


def test_base_change_preserves_hilbert_function():
    p = parse_presentation("ring F_2[x, y]\ngraded\nideal: x^2 + x*y")
    A = jet(p, 4)
    A4 = base_change(A, 2)
    from jetmetric.artin import hf_by_degree_count
    assert hf_by_degree_count(A4) == hf_by_degree_count(A)
    assert A4.field.order == 4


def test_search_budget_rejects_out_of_range_bounds():
    for bad in ({"ext_degree_max": 0}, {"ext_degree_max": -1}, {"effort": -5}):
        with pytest.raises(RangeError):
            SearchBudget(**bad)
    # zero effort is an empty budget, not an error: the search stops at once
    a = parse_presentation("ring F_3[x, y]\ngraded\nideal: x^2 + y^2")
    b = parse_presentation("ring F_3[x, y]\ngraded\nideal: x*y")
    v = _decide(jet(a, 3), jet(b, 3), SearchBudget(ext_degree_max=1, effort=0))
    assert v.status == "UNKNOWN"
    assert v.search_bounds["candidates_tried"] == 0
    assert v.search_bounds["stopped_by"] == "effort"


def test_decide_handles_zero_rings(plane):
    Z = jet(plane, 0)
    v = _decide(Z, Z)
    assert v.status == "ISO"


def test_linear_change_of_coordinates_is_recognized():
    base = parse_presentation("ring F_2[x, y]\ngraded\nideal: x^3 + x*y^2")
    # substitute x -> x + y, y -> y by hand:
    # (x+y)^3 + (x+y)y^2 = x^3 + x^2 y + x y^2 + y^3 + x y^2 + y^3 (char 2)
    other = parse_presentation("ring F_2[x, y]\ngraded\nideal: "
                               "x^3 + x^2*y")
    A, B = jet(base, 4), jet(other, 4)
    v = _decide(A, B, SearchBudget(ext_degree_max=1, effort=500_000))
    assert v.status == "ISO"
    assert verify_witness(A, B, v.witness)


# ---------------------------------------------------------------------------
# the rational search's exact plan against the exact check


def _substituted(g, perm, scales):
    """g(scales[0] * x_perm[0], ..., scales[r-1] * x_perm[r-1])."""
    terms = {}
    for mono, c in g.terms.items():
        e = [0] * len(mono)
        for k, a in enumerate(mono):
            e[perm[k]] += a
            c = c * scales[k] ** a
        terms[tuple(e)] = c
    return Poly(g.field, g.nvars, terms)


def _transformed_copy(p, perm, scales):
    """The presentation whose ideal (and tuple) is p's under x_k -> c_k x_perm(k);
    on jets, x_k -> c_k x_perm(k) is an isomorphism from p's to the copy's."""
    q = parse_presentation(print_presentation(p))
    q.gens = [_substituted(g, perm, scales) for g in p.gens]
    if p.tuple is not None:
        q.tuple = [_substituted(t, perm, scales) for t in p.tuple]
    return parse_presentation(print_presentation(q))


@st.composite
def _rational_pairs(draw):
    """(A, B, true witness as (perm, scaling indices), match_tuples): Q graded
    or local jets with multi-term relations, or deformation pairs, B a
    permuted and scaled copy of A (the witness x_k -> QQ_SCALINGS[scals[k]]
    y_perm(k)) or an unrelated algebra of the same shape (witness None)."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    nvars = draw(st.integers(2, 3))
    kind = draw(st.sampled_from(["graded", "local", "defpair", "defpair"]))
    mode = "local" if kind == "defpair" else kind
    text = random_presentation_text(rng, "Q", nvars, mode, max_deg=3)
    if kind == "defpair":
        names = ["x", "y", "z"][:nvars]
        text += "\ntuple: " + ", ".join(f"{v}{rng.choice([' + 2*', ' - ', ' + 1/2*'])}{w}^2"
                                        for v, w in zip(names, names[1:] + names[:1]))
    p = parse_presentation(text)
    perm = tuple(draw(st.permutations(range(nvars))))
    scals = tuple(draw(st.integers(0, len(QQ_SCALINGS) - 1)) for _ in range(nvars))
    related = draw(st.sampled_from([True, True, True, False]))
    if related:
        q = _transformed_copy(p, perm, [QQ_SCALINGS[j] for j in scals])
    else:
        other = random_presentation_text(rng, "Q", nvars, mode, max_deg=3)
        q = parse_presentation(other + text[text.index("\ntuple"):]
                               if kind == "defpair" else other)
    if kind == "defpair":
        n = draw(st.integers(2, 3))
        A, B = defpair_jet(p, n), defpair_jet(q, n)
    else:
        n = draw(st.integers(2, 4))
        A, B = jet(p, n), jet(q, n)
    return A, B, (perm, scals) if related else None, kind == "defpair"


def _scaled_images(B, perm, scals):
    """Sparse images x_k -> QQ_SCALINGS[scals[k]] y_perm(k) in B."""
    return [[(i, QQ_SCALINGS[j] * c) for i, c in B.var_image(perm[k])]
            for k, j in enumerate(scals)]


# ---------------------------------------------------------------------------
# the one-by-one reference search


class _ReferenceSearcher(iso._Searcher):
    """The witness search one candidate at a time, in `iso._Searcher`'s
    order: every candidate is built and charged by itself, a scaled one is
    screened by its permutation's whole plan at the full product of its
    scalings' columns, and every enumerated one goes through the exact
    check.  Block pruning must reproduce its `tried`, its effort left, where
    its effort runs out and its first witness."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.plans = {}

    def _charge(self):
        if self.effort_left <= 0:
            raise iso._EffortExceeded
        self.effort_left -= 1
        self.tried += 1

    def _vanishes(self, perm, scals):
        """Whether the relations and tuple conditions vanish at
        x_k -> QQ_SCALINGS[scals[k]] y_perm(k), read off perm's cached
        plan; a plan of None never vanishes."""
        if perm not in self.plans:
            self.plans[perm] = iso._scaled_plan(self.A, self.B, perm,
                                                self.tuple_constraint)
        plan = self.plans[perm]
        if plan is None:
            return False
        columns, levels = plan
        scale = columns[0][scals[0]]
        for k in range(1, len(scals)):
            scale = [x * y for x, y in zip(scale, columns[k][scals[k]])]
        return all(sum(c * scale[m] for c, m in zip(cs, ms)) == 0
                   for level in levels for cs, ms in level)

    def _try(self, images, scaled=None):
        self._charge()
        if scaled is not None and not self._vanishes(*scaled):
            return None
        if self._check(images):
            return Witness(images=list(images))
        return None

    def rational_candidates(self):
        """Permutations combined with per-variable scalings, each as
        (images, (perm, scals)) with scals indices into QQ_SCALINGS."""
        r = self.A.nvars
        if r != self.B.nvars or r > 6:
            return
        scaled = [[[(i, c * v) for i, v in img] for c in QQ_SCALINGS]
                  for img in self._var_images()]
        for perm in permutations(range(r)):
            for scals in product(range(len(QQ_SCALINGS)), repeat=r):
                yield [scaled[perm[k]][scals[k]] for k in range(r)], (perm, scals)

    def coordinate_candidates(self, coords_idx):
        """All image tuples with coordinates over the given basis positions,
        as sparse images in integer-encoding order: digit k * width + j of
        the code is coordinate j of image k, digit 0 least significant."""
        r = self.A.nvars
        if r * len(coords_idx) == 0:
            return
        elements = self.field.elements()

        def vectors():
            # product varies its last factor fastest, the first coordinate here
            for ds in product(elements, repeat=len(coords_idx)):
                yield [(i, d) for i, d in zip(coords_idx, reversed(ds)) if d]

        def tuples(k):
            # images 0..k, the k-th varying slowest
            if k < 0:
                yield []
                return
            for v in vectors():
                for rest in tuples(k - 1):
                    yield rest + [v]

        yield from tuples(r - 1)

    def space_size(self, coords_idx):
        return self.field.order ** (self.A.nvars * len(coords_idx))

    def run(self, graded):
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
            for images, scaled in self.rational_candidates():
                w = self._try(images, scaled)
                if w is not None:
                    return w, False
            return None, False
        coords = self.lin_idx if graded else self.max_idx
        seen_all = self.space_size(coords) <= self.effort_left
        for images in self.coordinate_candidates(coords):
            w = self._try(images)
            if w is not None:
                return w, False
        return None, seen_all


class _ExactOnlySearcher(_ReferenceSearcher):
    """The reference search with no candidate screened: every candidate
    takes the exact check alone."""

    def _vanishes(self, perm, scals):
        return True


def _decide_with(searcher, A, B, budget, match_tuples=False):
    """decide_isomorphism with the given searcher class in place of
    `iso._Searcher`."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(iso, "_Searcher", searcher)
        return decide_isomorphism(A, B, budget=budget, match_tuples=match_tuples)


def _decide_exact_only(A, B, budget, match_tuples=False):
    return _decide_with(_ExactOnlySearcher, A, B, budget, match_tuples)


# ---------------------------------------------------------------------------
# the exact plan against the exact check, one candidate at a time


@given(pair=_rational_pairs(), seed=st.integers(0, 2**32))
@settings(max_examples=100, deadline=None)
def test_exact_plan_matches_maps_relations(pair, seed):
    A, B, witness, match_tuples = pair
    if A.dim != B.dim or A.dim < 2:
        return
    s = _ReferenceSearcher(A, B, effort_left=1000, tuple_constraint=match_tuples)
    rng = random.Random(seed)
    every = list(product(range(len(QQ_SCALINGS)), repeat=A.nvars))
    rejected = []
    for perm in permutations(range(A.nvars)):
        sample = rng.sample(every, 12)
        if witness is not None and witness[0] == perm:
            sample.append(witness[1])
        for scals in sample:
            got = s._vanishes(perm, scals)
            image = B.monomial_map(_scaled_images(B, perm, scals))
            assert got == iso._maps_relations(A, B, image, match_tuples)
            if not got:
                rejected.append((perm, scals))
    assert len(s.plans) == len(list(permutations(range(A.nvars))))
    if witness is not None:
        assert s._vanishes(*witness)
        assert s._check(_scaled_images(B, *witness))
    # no candidate the plan rejects passes the exact check
    for perm, scals in rng.sample(rejected, min(len(rejected), 12)):
        assert not s._check(_scaled_images(B, perm, scals))


@given(pair=_rational_pairs(), seed=st.integers(0, 2**32))
@settings(max_examples=100, deadline=None)
def test_filter_agrees_with_the_exact_check(pair, seed):
    A, B, witness, match_tuples = pair
    if A.dim != B.dim or A.dim < 2:
        return
    s = _ReferenceSearcher(A, B, effort_left=1000, tuple_constraint=match_tuples)
    rng = random.Random(seed)
    candidates = [witness] if witness is not None else []
    candidates += [(tuple(rng.sample(range(A.nvars), A.nvars)),
                    tuple(rng.randrange(len(QQ_SCALINGS)) for _ in range(A.nvars)))
                   for _ in range(8)]
    for scaled in candidates:
        images = _scaled_images(B, *scaled)
        exact = s._check(images)
        # a candidate the plan rules out never passes the exact check
        if not s._vanishes(*scaled):
            assert not exact
        assert (s._try(images, scaled) is not None) == exact
    if witness is not None:
        assert s._try(_scaled_images(B, *witness), witness) is not None


def _verdict_fields(v):
    return (v.status, v.witness, v.separator, v.search_bounds)


@given(pair=_rational_pairs())
@settings(max_examples=25, deadline=None)
def test_search_with_the_filter_matches_the_exact_search(pair):
    A, B, _, match_tuples = pair
    budget = SearchBudget(ext_degree_max=1, effort=300)
    got = decide_isomorphism(A, B, budget=budget, match_tuples=match_tuples)
    want = _decide_exact_only(A, B, budget, match_tuples)
    assert _verdict_fields(got) == _verdict_fields(want)


def _scaled_pair_is_found_exactly(a, b, order, y_scaling, wrong_scaling):
    """A, B jets of a and b, where x -> x, y -> QQ_SCALINGS[y_scaling] y maps
    A onto B and y -> QQ_SCALINGS[wrong_scaling] y does not; the search finds
    an ISO, verified and equal to the exact-only search's."""
    A, B = jet(parse_presentation(a), order), jet(parse_presentation(b), order)
    s = _ReferenceSearcher(A, B, 10, False)
    assert s._vanishes((0, 1), (0, y_scaling))
    assert not s._vanishes((0, 1), (0, wrong_scaling))
    got = _decide(A, B)
    assert got.status == "ISO"
    assert verify_witness(A, B, got.witness)
    assert _verdict_fields(got) == _verdict_fields(_decide_exact_only(A, B, BUDGET))
    return A, B, s.plans[(0, 1)]


def test_a_large_prime_in_a_denominator_is_searched_exactly():
    # the normal form of y^2 is x^2 / P for the prime P = 2^30 - 35, so no
    # residue filter modulo P could read the pair; y -> 2y needs the scaled
    # candidates, and y -> y/2 fails
    P = 1073741789
    assert _is_prime(P)
    A, B, _ = _scaled_pair_is_found_exactly(
        f"ring Q[x, y]\ngraded\nideal: x^2 - {P}*y^2",
        f"ring Q[x, y]\ngraded\nideal: x^2 - {4 * P}*y^2", 3, 2, 4)
    assert any(c.denominator % P == 0 for vec in B.nf.values() for c in vec)


def test_coefficients_beyond_64_bits_are_searched_exactly():
    # y -> 2y maps x^2 - N y^3 to x^2 - 8N y^3; y -> -2y leaves 16N y^3,
    # which vanishes modulo 2^64, so only whole integers reject it
    N = 2**64 + 2**60
    assert 16 * N % 2**64 == 0
    _, _, (_, levels) = _scaled_pair_is_found_exactly(
        f"ring Q[x, y]\nlocal\nideal: x^2 - {N}*y^3, x*y^3 + {N}/{N + 2}*y^5",
        f"ring Q[x, y]\nlocal\nideal: x^2 - {8 * N}*y^3, x*y^3 + {4 * N}/{N + 2}*y^5",
        5, 2, 3)
    assert max(abs(c) for level in levels for cs, _ in level for c in cs) > 2**64


def test_plan_levels_are_the_last_scaling_each_coordinate_reads():
    # under the identity, x^2 - 2y^2 goes to s_0^2 [x^2] - 2 s_1^2 [y^2]; in
    # B, where x^2 = 8y^2, that is one coordinate of level 1, and against
    # x*y, where x^2 and y^2 are basis monomials, two single terms, nonzero
    # at every scaling, so no scaling of the identity can pass
    A = jet(parse_presentation("ring Q[x, y]\ngraded\nideal: x^2 - 2*y^2"), 3)
    B = jet(parse_presentation("ring Q[x, y]\ngraded\nideal: x^2 - 8*y^2"), 3)
    columns, levels = iso._scaled_plan(A, B, (0, 1), False)
    assert levels[0] == [] and len(levels[1]) == 1
    C = jet(parse_presentation("ring Q[x, y]\ngraded\nideal: x*y"), 3)
    assert iso._scaled_plan(A, C, (0, 1), False) is None


# ---------------------------------------------------------------------------
# block pruning against the one-by-one reference


def test_a_single_term_plan_coordinate_charges_its_permutation_at_once():
    # x^2, y^2 against x*y over Q: under either permutation x^2 goes to the
    # single term s_0^2 y_perm(0)^2, nonzero in B, so each permutation's 100
    # scaled candidates are charged in one step
    A = jet(parse_presentation("ring Q[x, y]\ngraded\nideal: x^2, y^2"), 3)
    B = jet(parse_presentation("ring Q[x, y]\ngraded\nideal: x*y"), 3)
    assert all(iso._scaled_plan(A, B, perm, False) is None
               for perm in permutations(range(2)))

    class Recording(iso._Searcher):
        def _charge_block(self, n):
            charges.append(n)
            super()._charge_block(n)

    charges = []
    s = Recording(A, B, 1000, False)
    assert s.run(graded=True) == (None, False)
    assert charges == [1, 1, 1, 100, 100]
    ref = _ReferenceSearcher(A, B, 1000, False)
    assert ref.run(graded=True) == (None, False)
    assert (s.tried, s.effort_left) == (ref.tried, ref.effort_left) == (203, 797)
    # an effort that ends inside the first block charges what is left
    charges = []
    s = Recording(A, B, 50, False)
    with pytest.raises(iso._EffortExceeded):
        s.run(graded=True)
    assert charges == [1, 1, 1, 100] and (s.tried, s.effort_left) == (50, 0)


def _identity_maps(A, B):
    s = iso._Searcher(A, B, 1, False)
    return s._check(s.identity_candidate())


@st.composite
def _search_pairs(draw):
    """(A, B, match_tuples): over F_2, F_3 or F_4, graded or local jets of
    order 3 of a presentation p and of q, where q is p after an invertible
    linear change of variables or an unrelated presentation of the same
    shape, the first of a few draws whose jet has p's length and is not
    matched by the identity; over Q a pair of `_rational_pairs` (graded,
    local or deformation pairs)."""
    field = draw(st.sampled_from(["F_2", "F_3", "F_4", "Q"]))
    if field == "Q":
        A, B, _, match_tuples = draw(_rational_pairs())
        return A, B, match_tuples
    rng = random.Random(draw(st.integers(0, 2**32)))
    nvars = draw(st.integers(2, 3))
    mode = draw(st.sampled_from(["graded", "local"]))
    top = 2 if mode == "graded" else 3
    p = random_presentation(rng, field, nvars, mode, max_deg=top, min_deg=2)
    related = draw(st.booleans())
    A = jet(p, 3)
    for _ in range(20):
        q = (_linear_change(p, rng) if related
             else random_presentation(rng, field, nvars, mode, max_deg=top, min_deg=2))
        B = jet(q, 3)
        if B.dim == A.dim and not _identity_maps(A, B):
            break
    return A, B, False


def _block_sizes(s, graded):
    """The sizes of the blocks `_Searcher.run` may charge at once after the
    identity and the permutations."""
    r = s.A.nvars
    if isinstance(s.field, RationalField):
        return [len(QQ_SCALINGS) ** k for k in range(r + 1)]
    width = len(s.lin_idx if graded else s.max_idx)
    return [s.field.order ** (width * k) for k in range(r + 1)]


def _outcome(searcher, A, B, effort, match_tuples, graded):
    s = searcher(A, B, effort, match_tuples)
    try:
        w, seen_all = s.run(graded)
        got = (None if w is None else w.images, seen_all)
    except iso._EffortExceeded:
        got = "effort"
    return got, s.tried, s.effort_left


@given(pair=_search_pairs(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_block_pruning_matches_the_one_by_one_search(pair, data):
    A, B, match_tuples = pair
    if A.dim != B.dim or A.dim < 2:
        return
    graded = iso._is_graded_input(A) and iso._is_graded_input(B) and not match_tuples
    probe = iso._Searcher(A, B, 0, match_tuples)
    r = A.nvars
    before = 1 + factorial(r) if r == B.nvars and r <= 6 else 0
    sizes = [n for n in _block_sizes(probe, graded) if before + 3 * n < 3200]
    size = data.draw(st.sampled_from(sizes))
    blocks = data.draw(st.integers(1, 3))
    where = data.draw(st.sampled_from(["inside", "boundary", "past"]))
    effort = before + blocks * size + (1 if where == "past" else 0)
    if where == "inside" and size > 1:
        effort -= data.draw(st.integers(1, size - 1))
    got = _outcome(iso._Searcher, A, B, effort, match_tuples, graded)
    want = _outcome(_ReferenceSearcher, A, B, effort, match_tuples, graded)
    assert got == want
    budget = SearchBudget(ext_degree_max=1, effort=effort)
    assert (_verdict_fields(decide_isomorphism(A, B, budget=budget, match_tuples=match_tuples))
            == _verdict_fields(_decide_with(_ReferenceSearcher, A, B, budget, match_tuples)))


@pytest.mark.parametrize("a, b, ext, order", [
    # b is a under a linear change that is no permutation, such as
    # x -> x + y, so the first witness comes from the enumeration
    ("ring F_2[x, y]\ngraded\nideal: x^3 + x*y^2", "x^3 + x^2*y", 1, 4),
    ("ring F_2[x, y]\ngraded\nideal: x^3 + x*y^2", "x^3 + x^2*y", 2, 4),
    ("ring F_2[x, y]\nlocal\nideal: x*y + y^3", "x*y + y^2 + y^3", 2, 3),
    ("ring F_3[x, y]\ngraded\nideal: x^2 + x*y", "x^2 + 2*y^2", 1, 3),
    # x^2 - y^2 = (x + y)(x - y): the witness's last row, x - y, is
    # surjective against the fixed x + y only through both coordinates
    ("ring F_3[x, y]\ngraded\nideal: x*y", "x^2 + 2*y^2", 1, 3),
    ("ring F_3[x, y]\nlocal\nideal: x^2 + y^3", "x^2 + 2*x*y + y^2 + y^3", 1, 3),
])
def test_block_pruning_matches_after_base_change(a, b, ext, order):
    # both orientations, after base change, at efforts around every block
    # boundary and the first witness
    p = parse_presentation(a)
    q = parse_presentation(a[:a.index("ideal: ")] + "ideal: " + b)
    for A, B in ((jet(p, order), jet(q, order)), (jet(q, order), jet(p, order))):
        A, B = base_change(A, ext), base_change(B, ext)
        graded = iso._is_graded_input(A) and iso._is_graded_input(B)
        s = iso._Searcher(A, B, 0, False)
        before = 1 + factorial(A.nvars)
        (w, _), tried, _ = _outcome(_ReferenceSearcher, A, B, 5000, False, graded)
        assert w is not None and tried > before
        marks = {0, 1, before, tried}
        marks |= {before + m * n for n in _block_sizes(s, graded) for m in (1, 2)}
        for effort in sorted(e + d for e in marks for d in (-1, 0, 1) if 0 <= e + d <= 5000):
            assert (_outcome(iso._Searcher, A, B, effort, False, graded)
                    == _outcome(_ReferenceSearcher, A, B, effort, False, graded)), effort


# ---------------------------------------------------------------------------
# orienting a pair


def _printed_key(A):
    """The key that oriented a pair before `_precedes`: every normal-form
    coefficient and relation printed up front."""
    nf_items = tuple(sorted(
        (mono, tuple(A.field.to_str(c) for c in vec)) for mono, vec in A.nf.items()))
    rels = tuple(poly_to_str(g, tuple(f"v{i}" for i in range(A.nvars)))
                 for g in A.relations)
    return (A.nvars, A.cap, tuple(A.basis), nf_items, rels)


def _assert_orients_as_printed(A, B):
    for S, T in ((A, B), (B, A), (A, A)):
        assert iso._precedes(S, T) == (_printed_key(S) < _printed_key(T))


@pytest.mark.parametrize("a, b", [
    # y^2 - c x^2 stores the normal form y^2 = c x^2, and the printed order
    # differs from the numeric one: "-1" < "1/2", "10" < "9", "1" < "1/2"
    ("y^2 + x^2", "y^2 - 1/2*x^2"),
    ("y^2 - 10*x^2", "y^2 - 9*x^2"),
    ("y^2 - x^2", "y^2 - 1/2*x^2"),
    ("y^2 - 2*x^2, x*y^2", "y^2 - 2*x^2, x*y^2 - 1/3*x^3"),
    # equal normal forms, told apart by the relations as printed
    ("x^2 - 2*y^2", "2*x^2 - 4*y^2"),
    ("x^2 - 2*y^2", "x^2 - 2*y^2"),
    # x^4 dies in the jet of order 4, so only the number of relations differs
    ("x^2 - 2*y^2", "x^2 - 2*y^2, x^4"),
])
def test_precedes_orders_rational_pairs_as_printed(a, b):
    A, B = (jet(parse_presentation(f"ring Q[x, y]\ngraded\nideal: {g}"), 4) for g in (a, b))
    _assert_orients_as_printed(A, B)


@given(st.integers(0, 2**32), st.sampled_from(["Q", "F_3", "F_4"]),
       st.sampled_from(["graded", "local"]))
@settings(max_examples=60, deadline=None)
def test_precedes_matches_the_printed_key(seed, field, mode):
    # random pairs of a field and mode, mostly of one number of variables
    # and one order, so that many share their basis and some their normal
    # forms (one coefficient of the second redrawn)
    rng = random.Random(seed)
    nvars, order = rng.randint(1, 3), rng.randint(1, 3)
    p = random_presentation(rng, field, nvars, mode, max_deg=3)
    q = random_presentation(rng, field, rng.choice([nvars, nvars, rng.randint(1, 3)]),
                            mode, max_deg=3)
    A, B = jet(p, order), jet(q, rng.choice([order, order, rng.randint(1, 3)]))
    _assert_orients_as_printed(A, B)
    r = parse_presentation(print_presentation(p))
    if not r.gens:
        return
    g = r.gens[0]
    mono = rng.choice(sorted(g.terms))
    c = rng.choice([c for c in r.base_field().elements() if c] if field != "Q"
                   else [Fraction(-1), Fraction(1, 2), Fraction(10), Fraction(9)])
    r.gens[0] = Poly(g.field, g.nvars, {**g.terms, mono: c})
    _assert_orients_as_printed(A, jet(r, order))


# ---------------------------------------------------------------------------
# the finite-field enumeration


def _dense_enumeration(f, r, dim, coords_idx):
    """Dense image tuples over coords_idx in integer-encoding order: digit t
    of the code is coordinate t % width of image t // width, the first
    coordinate of the first image least significant."""
    elements = list(f.elements())
    q, width = len(elements), len(coords_idx)
    for code in range(q ** (r * width)):
        digits = []
        for _ in range(r * width):
            digits.append(elements[code % q])
            code //= q
        images = []
        for k in range(r):
            v = [f.zero()] * dim
            for d, i in zip(digits[k * width:(k + 1) * width], coords_idx):
                v[i] = d
            images.append(v)
        yield images


@pytest.mark.parametrize("text, ext, order", [
    ("ring F_2[x, y, z]\ngraded\nideal: x^2 + y*z, y^2", 1, 3),
    ("ring F_3[x, y]\ngraded\nideal: x^2 + y^2", 1, 3),
    ("ring F_3[x, y]\nlocal\nideal: x^2 + y^3", 1, 3),
    ("ring F_2[x, y]\ngraded\nideal: x^2 + x*y", 2, 3),
    ("ring F_2[x, y]\nlocal\nideal: x*y + y^3", 2, 3),
])
def test_sparse_coordinate_candidates_follow_the_dense_order(text, ext, order):
    B = base_change(jet(parse_presentation(text), order), ext)
    s = _ReferenceSearcher(B, B, effort_left=10, tuple_constraint=False)
    for coords in (s.lin_idx, s.max_idx):
        got = s.coordinate_candidates(coords)
        want = _dense_enumeration(B.field, B.nvars, B.dim, coords)
        n = 0
        for images, dense_images in islice(zip(got, want), 20_000):
            assert images == [to_sparse(v) for v in dense_images], n
            n += 1
        assert n == min(20_000, s.space_size(coords))
        assert n > B.field.order ** len(coords)


# ---------------------------------------------------------------------------
# the derivation-space separator


TRIPLE6 = ("ring F_3[x, y, z]\ngraded\nideal: y^2, x*y^2*z + 2*y*z^3 + 2*x^2*y*z",
           "ring F_3[x, y, z]\ngraded\nideal: x^2*y, 2*y*z")


def test_derivation_dimension_reports_in_the_callers_order():
    # criterion-01 triple 6, pair 0-1, at order 3: every eager invariant
    # agrees, the identity and permutations fail, and Der has dimension 22
    # against 20; both orientations report the values as the caller gave
    # the pair, and both re-evaluate through the signature
    A, B = (jet(parse_presentation(t), 3) for t in TRIPLE6)
    for S, T, want in ((A, B, (22, 20)), (B, A, (20, 22))):
        v = _decide(S, T)
        assert v.status == "NOT_ISO"
        assert v.separator == ("derivation_dimension", *want)
        assert invariant_signature(S).derivation_dimension == want[0]
        assert invariant_signature(T).derivation_dimension == want[1]


@pytest.mark.parametrize("text, order, want", [
    # 3x^2 D(x) = 0 puts D(x) in (x) over Q; over F_3 the derivative of x^3
    # vanishes and D(x) is free
    ("ring Q[x]\nlocal\nideal: x^3", 5, 2),
    ("ring F_3[x]\nlocal\nideal: x^3", 5, 3),
    ("ring Q[x]\nlocal\nideal: x^3", 3, 2),
    ("ring F_3[x]\nlocal\nideal: x^3", 3, 3),
    # 2x D(x) = 0 puts D(x) in (x) = <x, xy> over Q; over F_2 every pair of
    # images is a derivation of the 4-dimensional algebra
    ("ring Q[x, y]\ngraded\nideal: x^2, y^2", 3, 4),
    ("ring F_2[x, y]\ngraded\nideal: x^2, y^2", 3, 8),
    # the field has no derivation, the zero ring one
    ("ring Q[x, y]\ngraded\nideal: ;", 1, 0),
    ("ring Q[x, y]\ngraded\nideal: ;", 0, 0),
])
def test_derivation_dimension_of_small_algebras(text, order, want):
    assert iso.derivation_dimension(jet(parse_presentation(text), order)) == want


def _linear_change(p, rng):
    """The presentation whose ideal is p's under an invertible linear
    x_k -> sum_j M[k][j] x_j, M drawn from rng."""
    f, r = p.base_field(), p.nvars
    pool = ([Fraction(c) for c in (-2, -1, 0, 1, 2)] if isinstance(f, RationalField)
            else list(f.elements()))
    while True:
        M = [[rng.choice(pool) for _ in range(r)] for _ in range(r)]
        if ExactMatrix(f, [dict(enumerate(row)) for row in M], r).rank() == r:
            break
    xs = [Poly.variable(f, r, j) for j in range(r)]
    lin = [reduce(lambda a, b: a + b, (x.scale(c) for x, c in zip(xs, row))) for row in M]
    one = Poly.constant(f, r, f.one())

    def substituted(g):
        out = Poly.zero(f, r)
        for mono, c in g.terms.items():
            out = out + reduce(lambda a, b: a * b, (l.pow(e) for l, e in zip(lin, mono)),
                               one).scale(c)
        return out

    q = parse_presentation(print_presentation(p))
    q.gens = [substituted(g) for g in p.gens]
    return q


@given(st.integers(0, 10**6), st.sampled_from(["Q", "F_3", "F_4"]),
       st.sampled_from(["graded", "local"]), st.integers(1, 3), st.integers(2, 4))
@settings(max_examples=40, deadline=None)
def test_derivation_dimension_survives_linear_coordinate_changes(seed, field, mode,
                                                                 nvars, order):
    # relations of degree 2 and 3 keep the jets from collapsing to a point
    rng = random.Random(seed)
    p = random_presentation(rng, field, nvars, mode, max_deg=3, min_deg=2)
    q = _linear_change(p, rng)
    A, B = jet(p, order), jet(q, order)
    assert A.dim == B.dim
    assert iso.derivation_dimension(A) == iso.derivation_dimension(B)


def _leibniz_defect(A, D):
    """For D a list of dense images of A's basis, the dense vectors
    D(b_k b_l) - D(b_k) b_l - b_k D(b_l) over basis pairs k <= l, products
    taken by the reference `dense_product`."""
    f, n = A.field, A.dim

    def apply(v):
        out = [f.zero()] * n
        for c, img in zip(v, D):
            out = [f.add(o, f.mul(c, w)) for o, w in zip(out, img)]
        return out

    for k in range(n):
        for l in range(k, n):
            prod = A.reduce_monomial(tuple(a + b for a, b in zip(A.basis[k], A.basis[l])))
            left = apply(to_dense(A, prod))
            unit_k, unit_l = (to_dense(A, [(i, f.one())]) for i in (k, l))
            for u, w in ((D[k], unit_l), (unit_k, D[l])):
                left = [f.sub(x, y) for x, y in zip(left, dense_product(A, u, w))]
            yield left


def _dense_rank(rows):
    """Rank of a list of rational rows by plain Gaussian elimination."""
    rows, rank = [list(r) for r in rows], 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                c = rows[i][col] / rows[rank][col]
                rows[i] = [x - c * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@given(st.integers(0, 10**6), st.sampled_from(["graded", "local"]),
       st.integers(1, 3), st.integers(2, 3))
@settings(max_examples=30, deadline=None)
def test_derivation_dimension_matches_a_dense_nullspace_over_q(seed, mode, nvars, order):
    # the unknowns are the entries D_ji of D(b_j) = sum_i D_ji b_i for an
    # arbitrary linear map D, and the equations are the Leibniz rule
    # D(b_k b_l) = D(b_k) b_l + b_k D(b_l) on basis pairs, read off the normal
    # forms: the nullspace is Der(A) itself, with no presentation or partial
    # derivative involved
    A = jet(random_presentation(random.Random(seed), "Q", nvars, mode, max_deg=3,
                                min_deg=2), order)
    n = A.dim
    if n > 8:
        return
    prod = [[to_dense(A, A.reduce_monomial(tuple(a + b for a, b in zip(u, v))))
             for v in A.basis] for u in A.basis]
    rows = []
    for k in range(n):
        for l in range(k, n):
            for o in range(n):
                rows.append([prod[k][l][j] * (i == o) - (k == j) * prod[i][l][o]
                             - (l == j) * prod[k][i][o]
                             for j in range(n) for i in range(n)])
    assert iso.derivation_dimension(A) == n * n - _dense_rank(rows)


@pytest.mark.parametrize("text, order", [
    ("ring F_2[x]\nlocal\nideal: x^2", 4),
    ("ring F_2[x, y]\ngraded\nideal: x^2, y^2", 3),
    ("ring F_2[x, y]\nlocal\nideal: x^2 + y^3", 3),
    ("ring F_2[x, y]\ngraded\nideal: x*y", 3),
    ("ring F_2[x, y]\nlocal\nideal: y + x^2", 4),
    ("ring F_2[x, y]\ngraded\nideal: x^2 + x*y, y^3", 4),
])
def test_derivation_dimension_counts_every_derivation_over_f2(text, order):
    # enumerate all images D(x_i) in A; D is a derivation exactly when the
    # map it forces on the basis, D(x^a) = sum_i a_i x^(a - e_i) D(x_i),
    # obeys the Leibniz rule and sends each [x_i] back to D(x_i)
    A = jet(parse_presentation(text), order)
    f, n, r = A.field, A.dim, A.nvars
    count = 0
    for flat in product((0, 1), repeat=r * n):
        d = [list(flat[i * n:(i + 1) * n]) for i in range(r)]
        D = []
        for a in A.basis:
            img = [f.zero()] * n
            for i in range(r):
                if a[i]:
                    lower = to_dense(A, [(A.basis.index(a[:i] + (a[i] - 1,) + a[i + 1:]),
                                          f.one())])
                    img = [(x + a[i] * y) % 2
                           for x, y in zip(img, dense_product(A, lower, d[i]))]
            D.append(img)
        if any(any(v) for v in _leibniz_defect(A, D)):
            continue
        images = [[sum(c * w for c, w in zip(to_dense(A, A.var_image(i)), col)) % 2
                   for col in zip(*D)] for i in range(r)]
        count += images == d
    assert count == 2 ** iso.derivation_dimension(A)
