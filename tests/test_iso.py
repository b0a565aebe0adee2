import random
import time
from dataclasses import fields, replace
from fractions import Fraction
from functools import reduce
from itertools import islice, permutations, product
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetmetric import iso
from jetmetric.artin import (ArtinAlgebra, defpair_jet, hf_by_degree_count, jet, nilpotency_index,
                             socle_dimension)
from jetmetric.iso import (
    QQ_SCALINGS,
    SearchBudget,
    Witness,
    apply_linear_map,
    base_change,
    decide_isomorphism,
    find_separator,
    invariant_signature,
    invert_witness,
    linear_map_matrix,
    project_witness,
    verify_witness,
    witness_field,
)
from jetmetric.errors import FieldError, RangeError
from jetmetric.exactcore import (TABLE_MAX_ORDER, ExactMatrix, PrimeField, RationalField, _is_prime,
                                 finite_field)
from jetmetric.poly import Poly, monomials_of_degree
from jetmetric.presentation import parse_presentation, poly_to_str, print_presentation

from conftest import (dense_product, random_presentation, random_presentation_text, to_dense,
                      to_sparse)

BUDGET = SearchBudget(ext_degree_max=1, effort=200_000)


def _decide(A, B, budget=BUDGET):
    return decide_isomorphism(A, B, budget=budget)


def test_signature_of_cusp_jet(cusp):
    A = jet(cusp, 4)
    sig = invariant_signature(A)
    assert sig.length == 7
    assert sig.hilbert_function == (1, 2, 2, 2)
    # the nilpotency index and the embedding dimension, read off the
    # Hilbert function
    assert nilpotency_index(A) == len(sig.hilbert_function) == 4
    assert sig.hilbert_function[1] == 2


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


def test_search_bounds_at_the_effort_edges():
    # over Q the 203 candidates run dry at effort 203 and the effort runs
    # out first at 202; Q's ladder is one rung, so a second changes nothing
    a = parse_presentation("ring Q[x, y]\ngraded\nideal: x^2 - 5*y^2")
    b = parse_presentation("ring Q[x, y]\ngraded\nideal: x^2 - 7*y^2")
    A, B = jet(a, 3), jet(b, 3)
    for ext in (1, 2):
        v = _decide(A, B, SearchBudget(ext_degree_max=ext, effort=203))
        assert v.search_bounds == {"ext_degree_tried": 1, "candidates_tried": 203,
                                   "space_exhausted": False, "stopped_by": "candidates"}
        v = _decide(A, B, SearchBudget(ext_degree_max=ext, effort=202))
        assert v.search_bounds == {"ext_degree_tried": 1, "candidates_tried": 202,
                                   "space_exhausted": False, "stopped_by": "effort"}
    v = _decide(A, B, SearchBudget(ext_degree_max=2, effort=1000))
    assert v.search_bounds == {"ext_degree_tried": 1, "candidates_tried": 203,
                               "space_exhausted": False, "stopped_by": "candidates"}
    # over F_3 the 84 candidates exhaust a rung's space: at effort 84 all of
    # them are tried, which exhausts a one-rung ladder, while a two-rung
    # ladder stops there with rung 2 unrun; at effort 85 rung 2 tries one
    # candidate
    a = parse_presentation("ring F_3[x, y]\ngraded\nideal: x^2 + y^2")
    b = parse_presentation("ring F_3[x, y]\ngraded\nideal: x*y")
    A, B = jet(a, 3), jet(b, 3)
    cases = [(1, 85, (1, 84, True, "space")), (1, 84, (1, 84, True, "space")),
             (2, 84, (1, 84, False, "effort")), (2, 85, (2, 85, False, "effort"))]
    for ext, effort, want in cases:
        v = _decide(A, B, SearchBudget(ext_degree_max=ext, effort=effort))
        assert v.status == "UNKNOWN"
        assert v.search_bounds == dict(zip(
            ("ext_degree_tried", "candidates_tried", "space_exhausted", "stopped_by"), want))


def test_rational_iso_carries_no_search_bounds_at_any_extension_bound():
    a = parse_presentation("ring Q[x, y]\ngraded\nideal: x^2 - y^2")
    b = parse_presentation("ring Q[x, y]\ngraded\nideal: x^2 - 4*y^2")
    v = _decide(jet(a, 3), jet(b, 3), SearchBudget(ext_degree_max=2))
    assert v.status == "ISO"
    assert v.search_bounds is None and v.witness.ext_multiple == 1


def test_iso_search_bounds_carry_no_stop_reason():
    a = parse_presentation("ring F_3[x, y]\ngraded\nideal: x^2 + y^2")
    b = parse_presentation("ring F_3[x, y]\ngraded\nideal: x*y")
    v = _decide(jet(a, 3), jet(b, 3), SearchBudget(ext_degree_max=2, effort=400_000))
    assert v.status == "ISO"
    assert set(v.search_bounds) == {"ext_degree_tried", "candidates_tried", "space_exhausted"}


def test_only_rung_one_runs_the_late_separator(monkeypatch):
    # rung 1 goes past its permutations before rung 2 runs, so the last
    # invariant is computed once on each algebra of the pair
    name, last = iso.INVARIANTS[-1]
    seen = []

    def counted(A):
        seen.append(A)
        return last(A)
    monkeypatch.setattr(iso, "INVARIANTS", iso.INVARIANTS[:-1] + ((name, counted),))
    a = parse_presentation("ring F_3[x, y]\ngraded\nideal: x^2 + y^2")
    b = parse_presentation("ring F_3[x, y]\ngraded\nideal: x*y")
    A, B = jet(a, 3), jet(b, 3)
    v = decide_isomorphism(A, B, SearchBudget(ext_degree_max=3))
    assert (v.status, v.witness.ext_multiple, v.search_bounds["candidates_tried"]) == \
        ("ISO", 2, 88)
    assert len(seen) == 2 and {id(X) for X in seen} == {id(A), id(B)}


def test_a_constructed_witness_skips_the_late_separator(monkeypatch):
    # x^2 - y^2 = (x - y)(x + y) against x*y over F_3: one quadric with
    # independent factors on each side, so the constructed candidate, the
    # last listed one, is a witness after the identity and the six
    # permutations, and the last invariant is never computed; x(x + y)
    # against the square y^2 gets no candidate, and the late separator
    # tells them apart; each pair is swapped in one of its orientations
    name, last = iso.INVARIANTS[-1]
    seen = []

    def counted(A):
        seen.append(A)
        return last(A)
    monkeypatch.setattr(iso, "INVARIANTS", iso.INVARIANTS[:-1] + ((name, counted),))
    ring = "ring F_3[x, y, z]\ngraded\nideal: "
    A, B = (jet(parse_presentation(ring + t), 3) for t in ("x^2 - y^2", "x*y"))
    for S, T in ((A, B), (B, A)):
        v = _decide(S, T)
        assert (v.status, v.search_bounds["candidates_tried"]) == ("ISO", 8)
        assert verify_witness(S, T, v.witness)
    assert seen == []
    A, B = (jet(parse_presentation(ring + t), 3) for t in ("x^2 + x*y", "y^2"))
    assert iso._quadric_candidate(A, B) is None
    for S, T, want in ((A, B, (20, 22)), (B, A, (22, 20))):
        seen.clear()
        v = _decide(S, T)
        assert (v.status, v.separator) == ("NOT_ISO", ("derivation_dimension", *want))
        assert len(seen) == 2


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


def test_one_dimensional_pairs_of_different_tuple_lengths_are_separated():
    # at order 1 both deformation jets are the field itself, so only the
    # tuple lengths tell the pairs apart
    a = parse_presentation("ring Q[x, y]\nlocal\nideal: y\ntuple: x")
    b = parse_presentation("ring Q[x, y]\nlocal\nideal: ;\ntuple: x, y")
    A, B = defpair_jet(a, 1), defpair_jet(b, 1)
    assert A.dim == B.dim == 1
    for S, T, want in ((A, B, (1, 2)), (B, A, (2, 1))):
        v = decide_isomorphism(S, T, BUDGET, match_tuples=True)
        assert v.status == "NOT_ISO"
        assert v.separator == ("tuple_length", *want)
    assert decide_isomorphism(A, B, BUDGET).status == "ISO"


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
    good = [B.var_image(0), B.var_image(1)]
    assert verify_witness(A, B, Witness(images=good))
    for why, images in _malformed_images(B):
        assert verify_witness(A, B, Witness(images=images)) is False, why
    # a base change that is not a positive int
    for ext in (0, -1, 1.5):
        assert verify_witness(A, B, Witness(images=good, ext_multiple=ext)) is False, ext


@pytest.mark.parametrize("a, b, order, status", [
    # one-dimensional: no search
    ("ring Q[x, y]\nlocal\nideal: y^2 - x^3", "x*y", 1, "ISO"),
    # over Q, found among the scaled candidates
    ("ring Q[x, y]\ngraded\nideal: x^2 - 2*y^2", "x^2 - 8*y^2", 3, "ISO"),
    # over F_2, found by the enumeration
    ("ring F_2[x, y]\ngraded\nideal: x^3 + x*y^2", "x^3 + x^2*y", 4, "ISO"),
    # told apart by a separator
    ("ring Q[x, y]\ngraded\nideal: x^2, y^3", "x*y", 4, "NOT_ISO"),
])
def test_every_iso_verdict_verifies_its_witness_once(monkeypatch, a, b, order, status):
    # both orientations: one of them is decided swapped, and a witness
    # found then is inverted before its one verification
    p = parse_presentation(a)
    q = parse_presentation(a[:a.index("ideal: ")] + "ideal: " + b)
    A, B = jet(p, order), jet(q, order)
    calls = []
    verify = iso.verify_witness
    monkeypatch.setattr(iso, "verify_witness", lambda *a: calls.append(a) or verify(*a))
    swapped = []
    for S, T in ((A, B), (B, A)):
        calls.clear()
        assert _decide(S, T).status == status
        assert len(calls) == (status == "ISO")
        swapped.append(iso._precedes(T, S))
    assert sorted(swapped) == [False, True]


def test_an_iso_at_a_higher_rung_extends_each_algebra_once(monkeypatch):
    # -1 is no square in F_3, so x^2 + y^2 and x*y meet only over F_9; each
    # algebra keeps its extension, which serves the search, the inversion
    # and the verification of both orientations
    p = parse_presentation("ring F_3[x, y]\ngraded\nideal: x^2 + y^2")
    q = parse_presentation("ring F_3[x, y]\ngraded\nideal: x*y")
    A, B = jet(p, 3), jet(q, 3)
    calls = []
    init = ArtinAlgebra.__init__

    def counted_init(self, tq, *args, **kwargs):
        calls.append(tq.field)
        init(self, tq, *args, **kwargs)
    monkeypatch.setattr(ArtinAlgebra, "__init__", counted_init)
    # the verdicts and witnesses found when each step extended on its own
    want = {(A, B): [[(1, 3), (2, 6)], [(1, 2), (2, 2)]],
            (B, A): [[(1, 1), (2, 6)], [(1, 1), (2, 3)]]}
    swapped = []
    for (S, T), images in want.items():
        v = decide_isomorphism(S, T, SearchBudget(ext_degree_max=2))
        assert v.status == "ISO" and v.witness == Witness(images=images, ext_multiple=2)
        assert v.search_bounds == {"ext_degree_tried": 2, "candidates_tried": 88,
                                   "space_exhausted": False}
        assert verify_witness(S, T, v.witness)
        swapped.append(iso._precedes(T, S))
    assert sorted(swapped) == [False, True]
    assert calls == [finite_field(3, 2)] * 2


def test_graded_input_is_a_jet_of_a_graded_presentation():
    # the search's graded rule on every kind of algebra the package builds:
    # a jet of a graded presentation and its extensions are graded; a local
    # jet is not, homogeneous generators or not, and a deformation jet never
    # is, at any order, extended or not
    graded = "ring Q[x, y]\ngraded\nideal: x^2 + y^2\ntuple: x, y"
    local = "ring Q[x, y]\nlocal\nideal: x^2 + y^2"
    f2 = "ring F_2[x, y]\ngraded\nideal: x*y\ntuple: x, y"
    p, q, r = map(parse_presentation, (graded, local, f2))
    cases = [(jet(p, 3), True), (jet(q, 3), False),
             (defpair_jet(p, 0), False), (defpair_jet(p, 2), False),
             (jet(r, 3).extension(2), True), (defpair_jet(r, 2).extension(2), False)]
    assert all(g.is_homogeneous() for g in jet(q, 3).relations)
    assert [iso._is_graded_input(A) for A, _ in cases] == [want for _, want in cases]


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
    for cand in range(dst.order):
        acc = dst.zero()
        for coeff in reversed(src.minpoly):
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
        root = src.embedding(dst)(src.generator())
        assert root == _first_root_by_scan(src, dst), (p, m, n)


def test_base_change_preserves_hilbert_function():
    p = parse_presentation("ring F_2[x, y]\ngraded\nideal: x^2 + x*y")
    A = jet(p, 4)
    A4 = base_change(A, 2)
    from jetmetric.artin import hf_by_degree_count
    assert hf_by_degree_count(A4) == hf_by_degree_count(A)
    assert A4.field.order == 4


@pytest.mark.parametrize("m_prime", [-2, 2.0, 0])
def test_base_change_refuses_a_degree_that_is_not_a_positive_int(m_prime):
    A = jet(parse_presentation("ring F_2[x, y]\ngraded\nideal: x^2 + x*y"), 3)
    with pytest.raises(FieldError, match="extension degree must be a positive integer"):
        base_change(A, m_prime)


def test_base_change_errors_are_pinned():
    Q = jet(parse_presentation("ring Q[x, y]\ngraded\nideal: x^2 + y^2"), 3)
    with pytest.raises(FieldError, match="^base change along extensions of Q is out of scope$"):
        base_change(Q, 2)
    F4 = base_change(jet(parse_presentation("ring F_2[x, y]\ngraded\nideal: x*y"), 3), 2)
    with pytest.raises(FieldError, match="^extension degree 3 is not a multiple of 2$"):
        base_change(F4, 3)
    # a witness's extension over Q meets the same refusal, from the field
    with pytest.raises(FieldError, match="^base change along extensions of Q is out of scope$"):
        Q.extension(2)
    assert not verify_witness(Q, Q, Witness(images=[[(1, 1)], [(2, 1)]], ext_multiple=2))


def test_extending_an_f4_algebra_by_2_is_base_change_to_f16():
    text = "ring F_2^2 minpoly a^2 + a + 1 [x, y]\ngraded\nideal: x^2 + a*y^2, x*y^2"
    A = jet(parse_presentation(text), 4)
    E, B = A.extension(2), base_change(A, 4)
    assert E.field is B.field is finite_field(2, 4)
    assert (E.basis, E.nf, E.relations) == (B.basis, B.nf, B.relations)
    assert E.nf != {mono: list(v) for mono, v in A.nf.items()}
    assert witness_field(A, Witness(images=[], ext_multiple=2)) is finite_field(2, 4)


def test_base_change_sends_tuple_images_through_the_embedding():
    # tuple images are scalars too; with them carried over, the variable
    # images match the tuple over F_9
    A = defpair_jet(parse_presentation("ring F_3[x, y]\nlocal\nideal: x^2 + y^2\ntuple: x"), 2)
    E = A.extension(2)
    emb = A.field.embedding(E.field)
    assert A.tuple_images
    assert E.tuple_images == [[(i, emb(c)) for i, c in v] for v in A.tuple_images]
    w = Witness(images=[A.var_image(k) for k in range(A.nvars)], ext_multiple=2)
    assert verify_witness(A, A, w, match_tuples=True)


@pytest.mark.parametrize("field, status, tried", [("Q", "UNKNOWN", 0), ("F_3", "ISO", 2)])
def test_a_search_between_variable_counts_that_differ(field, status, tried):
    # the identity, the permutations and the scaled candidates need equal
    # variable counts, so over Q nothing is tried; over F_3 the enumeration
    # runs
    a = parse_presentation(f"ring {field}[x]\nlocal\nideal: x^2")
    b = parse_presentation(f"ring {field}[x, y]\nlocal\nideal: y, x^2")
    A, B = jet(a, 3), jet(b, 3)
    for S, T in ((A, B), (B, A)):
        v = decide_isomorphism(S, T)
        assert v.status == status and v.search_bounds["candidates_tried"] == tried
        assert v.search_bounds.get("stopped_by") == ("candidates" if field == "Q" else None)


def test_base_change_past_the_field_order_bound_is_refused_at_once():
    A = jet(parse_presentation("ring F_2[x, y]\ngraded\nideal: x*y"), 3)
    start = time.process_time()
    with pytest.raises(FieldError, match="^F_2\\^1000 has more than 4294967296 elements$"):
        base_change(A, 1000)
    assert time.process_time() - start < 0.5


@pytest.mark.parametrize("bad", [{"ext_degree_max": 2.0}, {"effort": 10.5}])
def test_search_budget_refuses_bounds_that_are_not_ints(bad):
    with pytest.raises(RangeError, match="integer"):
        SearchBudget(**bad)


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


def _reference_bijective(A, B, image):
    """Whether the linear map of image is bijective, for A.dim == B.dim, by
    the n x n rank of the images of A's basis: the rows here are the
    columns of the map's matrix, and a matrix and its transpose have the
    same rank."""
    rows = [dict(image(mono)) for mono in A.basis]
    return ExactMatrix(B.field, rows, B.dim).rank() == A.dim


class _ReferenceSearcher(iso._Searcher):
    """The witness search one candidate at a time, in `iso._Searcher`'s
    order, through its own `listed` and `enumerated`, the two methods
    `_decide_oriented` calls: every candidate is built and charged by
    itself, a scaled one is screened by its permutation's whole plan at the
    full product of its scalings' columns, and every candidate goes through
    the full exact check, relations and bijectivity.  Block pruning, and
    acceptance on the relations alone, must reproduce its `tried`, its
    effort left, where its effort runs out and its first witness.  The
    constructed candidate of a graded pair over F_q is
    `iso._quadric_candidate`'s, which `test_every_quadric_candidate_verifies`
    checks on its own."""

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

    def _check(self, images):
        A, B = self.A, self.B
        image = B.monomial_map(images)
        return (iso._maps_relations(A, B, image, self.tuple_constraint)
                and _reference_bijective(A, B, image))

    def identity_candidate(self):
        if self.A.nvars != self.B.nvars:
            return None
        return self._var_images()

    def permutation_candidates(self):
        r = self.A.nvars
        if r != self.B.nvars or r > 6:
            return
        var_vecs = self._var_images()
        for perm in permutations(range(r)):
            yield [var_vecs[perm[k]] for k in range(r)]

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
        elements = range(self.field.order)

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

    def _coordinate_search(self, coords):
        for images in self.coordinate_candidates(coords):
            w = self._try(images)
            if w is not None:
                return w
        return None

    def listed(self, graded):
        ident = self.identity_candidate()
        if ident is not None:
            w = self._try(ident)
            if w is not None:
                return w
        for images in self.permutation_candidates():
            w = self._try(images)
            if w is not None:
                return w
        if graded and not isinstance(self.field, RationalField):
            images = iso._quadric_candidate(self.A, self.B)
            if images is not None:
                return self._try(images)
        return None

    def enumerated(self, graded):
        if isinstance(self.field, RationalField):
            for images, scaled in self.rational_candidates():
                w = self._try(images, scaled)
                if w is not None:
                    return w, False
            return None, False
        coords = self.lin_idx if graded else self.max_idx
        seen_all = self.space_size(coords) <= self.effort_left
        w = self._coordinate_search(coords)
        return w, w is None and seen_all


class _ExactOnlySearcher(_ReferenceSearcher):
    """The reference search with no candidate screened: every candidate
    takes the exact check alone."""

    def _vanishes(self, perm, scals):
        return True


def _run(s, graded):
    """(witness or None, space exhausted) of searcher s's listed, then its
    enumerated candidates: rung 1 of the ladder when the late separator,
    which `_decide_oriented` compares between the two, does not fire."""
    w = s.listed(graded)
    return (w, False) if w is not None else s.enumerated(graded)


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
    assert _run(s, graded=True) == (None, False)
    assert charges == [1, 1, 1, 100, 100]
    ref = _ReferenceSearcher(A, B, 1000, False)
    assert _run(ref, graded=True) == (None, False)
    assert (s.tried, s.effort_left) == (ref.tried, ref.effort_left) == (203, 797)
    # an effort that ends inside the first block charges what is left
    charges = []
    s = Recording(A, B, 50, False)
    with pytest.raises(iso._EffortExceeded):
        _run(s, graded=True)
    assert charges == [1, 1, 1, 100] and (s.tried, s.effort_left) == (50, 0)


def _identity_maps(A, B):
    s = _ReferenceSearcher(A, B, 1, False)
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
    """The sizes of the blocks `_Searcher.enumerated` may charge at once
    after the listed candidates."""
    r = s.A.nvars
    if isinstance(s.field, RationalField):
        return [len(QQ_SCALINGS) ** k for k in range(r + 1)]
    width = len(s.lin_idx if graded else s.max_idx)
    return [s.field.order ** (width * k) for k in range(r + 1)]


def _outcome(searcher, A, B, effort, match_tuples, graded, enumeration=False):
    """(witness images or None, space exhausted), tried and effort left of
    the search; with enumeration, of `_coordinate_search` alone, which
    reports no exhaustion (None)."""
    s = searcher(A, B, effort, match_tuples)
    try:
        if enumeration:
            w, seen_all = s._coordinate_search(s.lin_idx if graded else s.max_idx), None
        else:
            w, seen_all = _run(s, graded)
        got = (None if w is None else w.images, seen_all)
    except iso._EffortExceeded:
        got = "effort"
    return got, s.tried, s.effort_left


def _candidate_wins(A, B, graded):
    """Whether the constructed candidate ends the search before the F_q
    enumeration; the enumeration is then compared by itself."""
    return graded and A.field.order is not None and iso._quadric_candidate(A, B) is not None


@given(pair=_search_pairs(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_block_pruning_matches_the_one_by_one_search(pair, data):
    A, B, match_tuples = pair
    if A.dim != B.dim or A.dim < 2:
        return
    graded = iso._is_graded_input(A) and iso._is_graded_input(B) and not match_tuples
    probe = iso._Searcher(A, B, 0, match_tuples)
    r = A.nvars
    enumeration = _candidate_wins(A, B, graded)
    before = 1 + factorial(r) if r == B.nvars and r <= 6 and not enumeration else 0
    sizes = [n for n in _block_sizes(probe, graded) if before + 3 * n < 3200]
    size = data.draw(st.sampled_from(sizes))
    blocks = data.draw(st.integers(1, 3))
    where = data.draw(st.sampled_from(["inside", "boundary", "past"]))
    effort = before + blocks * size + (1 if where == "past" else 0)
    if where == "inside" and size > 1:
        effort -= data.draw(st.integers(1, size - 1))
    got = _outcome(iso._Searcher, A, B, effort, match_tuples, graded, enumeration)
    want = _outcome(_ReferenceSearcher, A, B, effort, match_tuples, graded, enumeration)
    assert got == want
    budget = SearchBudget(ext_degree_max=1, effort=effort)
    assert (_verdict_fields(decide_isomorphism(A, B, budget=budget, match_tuples=match_tuples))
            == _verdict_fields(_decide_with(_ReferenceSearcher, A, B, budget, match_tuples)))


@pytest.mark.parametrize("a, b, ext, order", [
    # b is a under a linear change that is no permutation, such as
    # x -> x + y, so the first witness comes from the enumeration; where the
    # constructed candidate comes first (the F_3 pairs with m^3 = 0), from
    # the enumeration run by itself
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
        enumeration = _candidate_wins(A, B, graded)
        before = 0 if enumeration else 1 + factorial(A.nvars)
        (w, _), tried, _ = _outcome(_ReferenceSearcher, A, B, 5000, False, graded, enumeration)
        assert w is not None and tried > before
        marks = {0, 1, before, tried}
        marks |= {before + m * n for n in _block_sizes(s, graded) for m in (1, 2)}
        for effort in sorted(e + d for e in marks for d in (-1, 0, 1) if 0 <= e + d <= 5000):
            assert (_outcome(iso._Searcher, A, B, effort, False, graded, enumeration)
                    == _outcome(_ReferenceSearcher, A, B, effort, False, graded,
                                enumeration)), effort


def test_the_reference_exhausts_the_space_at_the_same_effort():
    # x^2 + y^2 against x*y over F_3 has no witness at rung 1, whose 84
    # candidates (the identity, 2 permutations and 81 images) see its whole
    # space at effort 84 and not at 83; rung 2 over F_9 finds one
    a = parse_presentation("ring F_3[x, y]\ngraded\nideal: x^2 + y^2")
    b = parse_presentation("ring F_3[x, y]\ngraded\nideal: x*y")
    A, B = jet(a, 3), jet(b, 3)
    for ext, effort in product((1, 2), (83, 84, 85, 90)):
        budget = SearchBudget(ext_degree_max=ext, effort=effort)
        assert (_verdict_fields(_decide(A, B, budget))
                == _verdict_fields(_decide_with(_ReferenceSearcher, A, B, budget))), (ext, effort)


@given(pair=_search_pairs(), effort=st.integers(0, 3000))
@settings(max_examples=60, deadline=None)
def test_search_witnesses_are_bijective(pair, effort):
    # accepted on the relations alone, every witness of the search (run as
    # `decide_isomorphism` runs it, after the eager separators) is bijective
    A, B, match_tuples = pair
    if A.dim < 2 or find_separator(A, B, iso.INVARIANTS[:-1]) is not None:
        return
    graded = iso._is_graded_input(A) and iso._is_graded_input(B) and not match_tuples
    try:
        w, _ = _run(iso._Searcher(A, B, effort, match_tuples), graded)
    except iso._EffortExceeded:
        return
    if w is not None:
        image = B.monomial_map(w.images)
        assert _reference_bijective(A, B, image)
        assert verify_witness(A, B, w, match_tuples)


# ---------------------------------------------------------------------------
# bijectivity read on m/m^2 against the n x n rank

_RING_TEXT = {"Q": "Q", "F_3": "F_3", "F_4": "F_2^2 minpoly a^2 + a + 1"}
_IMAGE_KINDS = ["var", "var", "random", "deep", "top", "zero"]


def _drawn_image(rng, B, kind, var):
    """An element of B's maximal ideal of one kind: var, the class of a
    variable, plus random terms of degree 2 and up ("var"); random terms of
    every positive degree ("random"), of degree 2 and up only, into m^2
    ("deep"), or of the top degree only ("top"); or zero, a dropped
    variable ("zero")."""
    f, degrees = B.field, B.degrees()
    low = {"var": 2, "random": 1, "deep": 2, "top": degrees[-1]}.get(kind)
    out = dict(var) if kind == "var" else {}
    if low is not None:
        for i, d in enumerate(degrees):
            if d >= max(low, 1) and rng.random() < 0.5:
                out[i] = f.add(out.get(i, f.zero()), _random_scalar(rng, f))
    return sorted((i, c) for i, c in out.items() if not f.is_zero(c))


@st.composite
def _verification_cases(draw):
    """(A, B, images) over Q, F_3 or F_4: A and B one power quotient
    k[x]/m^n, which every map into B's maximal ideal maps, or corpus-shaped
    jets of order 2 to 4 of a random presentation p and of p itself or p
    after an invertible linear change of variables; and one drawn image in
    B's maximal ideal per variable, permuted variable classes among them."""
    field = draw(st.sampled_from(sorted(_RING_TEXT)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    nvars, n = draw(st.integers(1, 3)), draw(st.integers(2, 4))
    if draw(st.booleans()):
        names = ", ".join("xyz"[:nvars])
        p = q = parse_presentation(f"ring {_RING_TEXT[field]}[{names}]\ngraded\nideal: ;")
    else:
        mode = draw(st.sampled_from(["graded", "local"]))
        p = random_presentation(rng, field, nvars, mode, max_deg=3, min_deg=2)
        q = _linear_change(p, rng) if draw(st.booleans()) else p
    A, B = jet(p, n), jet(q, n)
    perm = draw(st.permutations(range(nvars)))
    kinds = draw(st.lists(st.sampled_from(_IMAGE_KINDS), min_size=nvars, max_size=nvars))
    return A, B, [_drawn_image(rng, B, kind, B.var_image(perm[k]))
                  for k, kind in enumerate(kinds)]


@given(case=_verification_cases())
@settings(max_examples=200, deadline=None)
def test_cotangent_check_agrees_with_the_reference_rank(case):
    # images in the maximal ideal of equal-length jets of one order: the
    # map is a witness exactly when it kills the relations and its linear
    # map on the bases has full rank
    A, B, images = case
    assert A.dim == B.dim and nilpotency_index(B) <= A.cap
    image = B.monomial_map(images)
    want = iso._maps_relations(A, B, image, False) and _reference_bijective(A, B, image)
    assert verify_witness(A, B, Witness(images=images)) == want


# ---------------------------------------------------------------------------
# the constructed candidate of graded pairs with m^3 = 0


def test_triple_194_at_order_3_is_iso_from_its_quadrics():
    # the corpus's one effort-bound F_q order: each side's quadrics are one
    # quadric with independent factors, y(x + 2y) against yz, and the 3^9
    # linear images of the enumeration ran past the corpus's effort of 4,000
    a = parse_presentation("ring F_3[x, y, z]\ngraded\n"
                           "ideal: 2*x*y*z + 2*x^2*z + 2*x^2*y, 2*y^2 + x*y")
    b = parse_presentation("ring F_3[x, y, z]\ngraded\nideal: 2*y*z")
    A, B = jet(a, 3), jet(b, 3)
    v = decide_isomorphism(A, B, SearchBudget(ext_degree_max=1, effort=4000))
    assert v.status == "ISO" and verify_witness(A, B, v.witness)
    assert v.search_bounds["candidates_tried"] <= 8


def _quadric_space(A):
    """K = ker(Sym^2 A_1 -> A_2) as `ExactMatrix.kernel_basis` vectors
    {(a, b): value}, a <= b positions in `component(1)`, from the normal
    forms of the products of degree-1 basis monomials."""
    lin, f = A.component(1), A.field
    pairs = [(a, b) for a in range(len(lin)) for b in range(a, len(lin))]
    rows = {}
    for col, (a, b) in enumerate(pairs):
        mono = tuple(x + y for x, y in zip(A.basis[lin[a]], A.basis[lin[b]]))
        for i, c in A.reduce_monomial(mono):
            rows.setdefault(i, {})[col] = c
    kernel = ExactMatrix(f, list(rows.values()), len(pairs)).kernel_basis()
    return [{pairs[col]: c for col, c in v.items() if not f.is_zero(c)} for v in kernel]


def _has_linear_factor(f, n, q):
    """Whether a linear form divides the quadric q, tried over every form
    l whose first nonzero coefficient, at j, is one: l divides q exactly
    when q vanishes under e_j -> e_j - l."""
    for j in range(n):
        for rest in product(range(f.order), repeat=n - 1 - j):
            sub = {j: {j + 1 + k: f.neg(c) for k, c in enumerate(rest) if c}}
            out = {}
            for (a, b), c in q.items():
                for ka, xa in sub.get(a, {a: f.one()}).items():
                    for kb, xb in sub.get(b, {b: f.one()}).items():
                        key = (min(ka, kb), max(ka, kb))
                        out[key] = f.add(out.get(key, f.zero()), f.mul(c, f.mul(xa, xb)))
            if all(f.is_zero(x) for x in out.values()):
                return True
    return False


@st.composite
def _square_zero_pairs(draw):
    """(A, B, related): over F_2, F_3 or F_4, or after `extension(2)`,
    graded jets of order 3, where m^3 = 0, or of order 2, of a presentation
    p of up to two random quadrics (one in most draws) and maybe a random
    linear form, and of q, p under an invertible linear change (related) or
    the first of a few draws of p's shape whose jet has p's length."""
    field = draw(st.sampled_from(["F_2", "F_3", "F_4"]))
    nvars, ext = draw(st.integers(2, 3)), draw(st.integers(1, 2))
    order = draw(st.sampled_from([2, 3, 3, 3]))
    degrees = [2] * draw(st.sampled_from([0, 1, 1, 1, 2])) + [1] * draw(st.integers(0, 1))
    related = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2**32)))
    ring = {"F_4": "F_2^2 minpoly a^2 + a + 1"}.get(field, field)
    blank = f"ring {ring}[{', '.join('xyz'[:nvars])}]\ngraded\nideal: ;"

    def draw_presentation():
        p = parse_presentation(blank)
        f = p.base_field()
        forms = [Poly(f, nvars, {m: rng.randrange(f.order) for m in monomials_of_degree(nvars, d)})
                 for d in degrees]
        p.gens = [g for g in forms if not g.is_zero()]
        return p

    p = draw_presentation()
    A = jet(p, order)
    for _ in range(20):
        B = jet(_linear_change(p, rng) if related else draw_presentation(), order)
        if B.dim == A.dim:
            break
    return A.extension(ext), B.extension(ext), related


@given(pair=_square_zero_pairs())
@settings(max_examples=150, deadline=None)
def test_every_quadric_candidate_verifies(pair):
    A, B, related = pair
    images = iso._quadric_candidate(A, B)
    if images is not None:
        assert verify_witness(A, B, Witness(images=images))
    # an isomorphism the enumeration finds (or, under a linear change, one
    # known to exist), with K_A 0, all of Sym^2 A_1 or one quadric that has
    # a linear factor over the field, has the candidate; the enumeration,
    # like the search, assumes the eager separators agree
    if find_separator(A, B, iso._EAGER) is not None:
        return
    s = iso._Searcher(A, B, 3000, False)
    try:
        found = s._coordinate_search(s.lin_idx) is not None
    except iso._EffortExceeded:
        found = False
    n, kernel = len(A.component(1)), _quadric_space(A)
    if (found or related) and (len(kernel) in (0, n * (n + 1) // 2) or (
            len(kernel) == 1 and _has_linear_factor(A.field, n, kernel[0]))):
        assert images is not None


# ---------------------------------------------------------------------------
# the invariants the Hilbert function decides


def _reference_mult_rank_profile(A: ArtinAlgebra) -> tuple[int, ...]:
    """For each degree d >= 1, the rank of the multiplication pairing
    (m/m^2) x (m^d/m^{d+1}) -> m^{d+1}/m^{d+2} in the associated graded."""
    if A.is_zero_ring():
        return ()
    profile = []
    f = A.field
    lin = A.component(1)
    for d in range(1, nilpotency_index(A) - 1):
        mid, out = A.component(d), A.component(d + 1)
        pos = {i: j for j, i in enumerate(out)}
        rows = [{pos[k]: c for k, c in A.mult_basis(i, j) if k in pos}
                for i in lin for j in mid]
        profile.append(ExactMatrix(f, rows, len(out)).rank())
    return tuple(profile)


# the four separating invariants with the three that the Hilbert function
# decides (its length, its entry at 1 and its entries from 2 on) in their
# places among them: the reference the four are checked against
_REFERENCE_INVARIANTS = (
    ("length", lambda A: A.dim),
    ("hilbert_function", lambda A: tuple(hf_by_degree_count(A))),
    ("nilpotency_index", lambda A: 0 if A.is_zero_ring() else nilpotency_index(A)),
    ("socle_dimension", lambda A: 0 if A.is_zero_ring() else socle_dimension(A)),
    ("embedding_dimension", lambda A: len(A.component(1))),
    ("multiplication_rank_profile", _reference_mult_rank_profile),
    ("derivation_dimension", iso.derivation_dimension),
)


@st.composite
def _hf_shapes(draw, low=0):
    """(field, nvars, kind, order, extended) for `_hf_jet`, the order at
    least low."""
    field = draw(st.sampled_from(["Q", "F_2", "F_3", "F_4"]))
    kind = draw(st.sampled_from(["graded", "local", "graded", "local", "defpair"]))
    order = draw(st.integers(low, 3 if kind == "defpair" else 5))
    extended = field != "Q" and kind != "defpair" and draw(st.booleans())
    return field, draw(st.integers(1, 3)), kind, order, extended


def _hf_jet(rng, shape):
    """A jet of the given order of a random graded or local presentation,
    extended to degree 2 over its finite field if asked, or a deformation
    jet, its tuple x_k + x_(k+1)^2."""
    field, nvars, kind, order, extended = shape
    if kind == "defpair":
        names = ["x", "y", "z"][:nvars]
        text = random_presentation_text(rng, field, nvars, "local", max_deg=3, min_deg=2)
        text += "\ntuple: " + ", ".join(f"{v} + {w}^2"
                                        for v, w in zip(names, names[1:] + names[:1]))
        return defpair_jet(parse_presentation(text), order)
    A = jet(random_presentation(rng, field, nvars, kind, max_deg=3, min_deg=2), order)
    return A.extension(2) if extended else A


@st.composite
def _hf_pairs(draw):
    """Two `_hf_jet`s of one shape, of order at least 3, B the first of a
    few draws with A's length, so that their Hilbert functions often agree;
    or a pair of `_search_pairs`."""
    if draw(st.integers(0, 3)) == 0:
        A, B, _ = draw(_search_pairs())
        return A, B
    shape, rng = draw(_hf_shapes(3)), random.Random(draw(st.integers(0, 2**32)))
    A = _hf_jet(rng, shape)
    for _ in range(10):
        B = _hf_jet(rng, shape)
        if B.dim == A.dim:
            break
    return A, B


def test_signature_fields_are_the_invariants_in_order():
    names = [name for name, _ in iso.INVARIANTS]
    assert [x.name for x in fields(iso.InvariantSignature)] == names
    assert names == ["length", "hilbert_function", "socle_dimension", "derivation_dimension"]
    assert iso._EAGER == iso.INVARIANTS[:-1]


@given(seed=st.integers(0, 2**32), shape=_hf_shapes())
@settings(max_examples=150, deadline=None)
def test_the_dropped_invariants_are_read_off_the_hilbert_function(seed, shape):
    A = _hf_jet(random.Random(seed), shape)
    ref = dict(_REFERENCE_INVARIANTS)
    hf = invariant_signature(A).hilbert_function
    assert ref["nilpotency_index"](A) == len(hf)
    assert ref["embedding_dimension"](A) == (hf[1] if len(hf) > 1 else 0)
    assert ref["multiplication_rank_profile"](A) == tuple(hf[2:])


@given(pair=_hf_pairs())
@settings(max_examples=80, deadline=None)
def test_the_four_invariants_separate_as_the_seven_did(pair):
    A, B = pair
    assert find_separator(A, B) == find_separator(A, B, _REFERENCE_INVARIANTS)
    assert (find_separator(A, B, iso._EAGER)
            == find_separator(A, B, _REFERENCE_INVARIANTS[:-1]))


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
    c = rng.choice(list(range(1, r.base_field().order)) if field != "Q"
                   else [Fraction(-1), Fraction(1, 2), Fraction(10), Fraction(9)])
    r.gens[0] = Poly(g.field, g.nvars, {**g.terms, mono: c})
    _assert_orients_as_printed(A, jet(r, order))


# ---------------------------------------------------------------------------
# the finite-field enumeration


def _dense_enumeration(f, r, dim, coords_idx):
    """Dense image tuples over coords_idx in integer-encoding order: digit t
    of the code is coordinate t % width of image t // width, the first
    coordinate of the first image least significant."""
    elements = range(f.order)
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
            else list(range(f.order)))
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


def _reference_derivation_dimension(A):
    """dim_k Der_k(A) with each row (i, j) built by a full `multiply` of
    [dg/dx_i] by the unit b_j: the reference the rows `derivation_dimension`
    reads off the product table are checked against."""
    if A.is_zero_ring():
        return 0
    f, r, n = A.field, A.nvars, A.dim
    gens = [list(g.terms.items()) for g in A.relations]
    gens += [[(m, f.one())] for m in monomials_of_degree(r, A.cap)]
    rows = []
    for i in range(r):
        partials = []
        for terms in gens:
            d = [(a[:i] + (a[i] - 1,) + a[i + 1:], f.mul(c, f.from_int(a[i])))
                 for a, c in terms if a[i]]
            partials.append(A.combine(d, A.reduce_monomial))
        for j in range(n):
            unit = [(j, f.one())]
            row = {}
            for g, dg in enumerate(partials):
                if dg:
                    for k, v in A.multiply(dg, unit):
                        row[g * n + k] = v
            rows.append(row)
    return r * n - ExactMatrix(f, rows, len(gens) * n).rank()


@given(st.integers(0, 10**6), st.sampled_from(["Q", "F_3", "F_4", "F_16", "F_1073741789"]),
       st.sampled_from(["graded", "local"]), st.integers(1, 3), st.integers(1, 4),
       st.integers(1, 2))
@settings(max_examples=150, deadline=None)
def test_derivation_rows_match_the_multiply_reference(seed, field, mode, nvars, order,
                                                      pair_order):
    # the jet, the pair quotient by the powers of the variables, and over
    # F_3 the jet base-changed to F_9, whose value is the jet's own
    text = random_presentation_text(random.Random(seed), field, nvars, mode,
                                    max_deg=3, min_deg=2)
    A = jet(parse_presentation(text), order)
    want = _reference_derivation_dimension(A)
    assert iso.derivation_dimension(A) == want
    names = ", ".join(["x", "y", "z"][:nvars])
    D = defpair_jet(parse_presentation(f"{text}\ntuple: {names}"), pair_order)
    assert iso.derivation_dimension(D) == _reference_derivation_dimension(D)
    if field == "F_3":
        E = base_change(A, 2)
        assert iso.derivation_dimension(E) == _reference_derivation_dimension(E) == want


def test_derivation_rows_make_no_multiply(monkeypatch):
    # criterion-01 triple 6 at order 3: the rows come off the product table
    A, B = (jet(parse_presentation(t), 3) for t in TRIPLE6)
    calls = []
    multiply = ArtinAlgebra.multiply
    monkeypatch.setattr(ArtinAlgebra, "multiply",
                        lambda self, u, v: calls.append(1) or multiply(self, u, v))
    assert (iso.derivation_dimension(A), iso.derivation_dimension(B)) == (22, 20)
    assert calls == []


def _pairwise_derivation_dimension(A):
    """dim_k Der_k(A) with each row (i, j) summed pair by pair off
    `mult_basis`: every entry c b_l of the class of dg/dx_i adds c times
    basis[l] * basis[j] to row (i, j) in g's block of columns, for each j
    whose degree stays below the cap less deg l.  No product-row builder and
    no top-degree pruning: the reference `derivation_dimension`'s rows from
    `ArtinAlgebra.product_rows` are checked against."""
    if A.is_zero_ring():
        return 0
    f, r, n, cap = A.field, A.nvars, A.dim, A.cap
    add, mul, _ = f.raw_arithmetic
    mult_basis, deg = A.mult_basis, A.degrees()
    gens = [list(g.terms.items()) for g in A.relations]
    gens += [[(m, f.one())] for m in monomials_of_degree(r, cap)]
    # below[d]: the basis indices of degree below d
    below = [[j for e in range(d) for j in A.component(e)] for d in range(cap + 1)]
    rows = []
    for i in range(r):
        block = [{} for _ in range(n)]
        for g, terms in enumerate(gens):
            # the class of dg/dx_i
            dg = {}
            for a, c in terms:
                if a[i]:
                    s = mul(c, f.from_int(a[i]))
                    for l, w in A.reduce_monomial(a[:i] + (a[i] - 1,) + a[i + 1:]):
                        x = mul(s, w)
                        dg[l] = add(dg[l], x) if l in dg else x
            base = g * n
            for l, c in dg.items():
                if not c:
                    continue
                for j in below[cap - deg[l]]:
                    row = block[j]
                    for k, w in mult_basis(l, j):
                        key, x = base + k, mul(c, w)
                        row[key] = add(row[key], x) if key in row else x
        rows += block
    return r * n - ExactMatrix(f, rows, len(gens) * n).rank()


@given(st.integers(0, 10**6), st.sampled_from(["Q", "F_2", "F_3", "F_4"]),
       st.sampled_from(["graded", "local"]), st.integers(1, 3), st.integers(1, 4),
       st.integers(1, 2))
@settings(max_examples=100, deadline=None)
def test_derivation_rows_match_the_pairwise_rows(seed, field, mode, nvars, order,
                                                pair_order):
    # the jet, the pair quotient by the powers of the variables and, over a
    # finite field, the jet base-changed to the field of degree 2 over its
    # own; local relations mix degrees from 1 to 3
    text = random_presentation_text(random.Random(seed), field, nvars, mode,
                                    max_deg=3, min_deg=1)
    names = ", ".join(["x", "y", "z"][:nvars])
    A = jet(parse_presentation(text), order)
    algebras = [A, defpair_jet(parse_presentation(f"{text}\ntuple: {names}"), pair_order)]
    if A.field.order is not None:
        algebras.append(base_change(A, 2 * A.field.m))
    for B in algebras:
        assert iso.derivation_dimension(B) == _pairwise_derivation_dimension(B)


# ---------------------------------------------------------------------------
# equal jets: decided without separators or orientation

# a tuple entry's coefficients, one of which scales the entry
_TUPLE_SCALES = {"Q": ["", "2*", "-1/2*"], "F_3": ["", "2*"], "F_4": ["", "a*"]}


@st.composite
def _equal_jet_pairs(draw):
    """(A, B, match_tuples): over Q, F_3 or F_4, graded or local, the jets
    of order n of p and of q, or with match_tuples their deformation jets
    for one tuple of scaled variables, where q is p with one more generator
    that lies in I + m^n, placed first or last: a multiple of one of p's
    relations (with match_tuples the n-th powers of the tuple among them),
    or for jets a monomial of degree n."""
    field = draw(st.sampled_from(sorted(_TUPLE_SCALES)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    nvars = draw(st.integers(1, 3))
    mode = draw(st.sampled_from(["graded", "local"]))
    defpair = draw(st.booleans())
    text = random_presentation_text(rng, field, nvars, mode, max_deg=3)
    if defpair:
        text += "\ntuple: " + ", ".join(rng.choice(_TUPLE_SCALES[field]) + v
                                        for v in ["x", "y", "z"][:nvars])
    p = parse_presentation(text)
    F = p.field
    # mostly past order 1, where every jet is the field
    n = draw(st.sampled_from([1, 2, 2, 2] if defpair else [1, 2, 3, 3, 4, 4]))
    # the relations of the jet, or of the deformation jet, below the cap
    bases = [*p.gens, *(t.pow(n) for t in p.tuple or ())]
    if bases and (defpair or draw(st.booleans())):
        g = draw(st.sampled_from(bases))
        u = Poly.constant(F, nvars, F.from_int(draw(st.integers(1, 2))))
        for _ in range(draw(st.integers(0, 2))):
            u = u * Poly.variable(F, nvars, draw(st.integers(0, nvars - 1)))
        extra = u * g
    else:
        bars = draw(st.lists(st.integers(0, nvars - 1), min_size=n, max_size=n))
        extra = Poly(F, nvars, {tuple(bars.count(k) for k in range(nvars)): F.one()})
    gens = [extra, *p.gens] if draw(st.booleans()) else [*p.gens, extra]
    q = replace(p, gens=gens)
    make = defpair_jet if defpair else jet
    return make(p, n), make(q, n), defpair


def _decide_full_path(A, B, budget, match_tuples):
    """decide_isomorphism with no pair taken for the same quotient."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(iso, "_same_quotient", lambda A, B: False)
        return decide_isomorphism(A, B, budget=budget, match_tuples=match_tuples)


@given(pair=_equal_jet_pairs())
@settings(max_examples=150, deadline=None)
def test_equal_jets_decide_as_the_full_path(pair):
    # the separators cannot tell equal jets apart, and the identity is the
    # first candidate in either orientation, so the verdict, the witness
    # and the bounds are those of the full path, at the effort-0 edge too
    A, B, match_tuples = pair
    assert iso._same_quotient(A, B) and iso._same_quotient(B, A)
    for S, T in ((A, B), (B, A)):
        for ext, effort in product((1, 2), (0, 1)):
            budget = SearchBudget(ext_degree_max=ext, effort=effort)
            got = decide_isomorphism(S, T, budget=budget, match_tuples=match_tuples)
            assert (_verdict_fields(got)
                    == _verdict_fields(_decide_full_path(S, T, budget, match_tuples)))
            if effort:
                assert got.status == "ISO"
                assert verify_witness(S, T, got.witness, match_tuples)


def test_equal_jets_compute_no_separator_and_no_orientation(monkeypatch):
    calls = []
    for name in ("find_separator", "_precedes"):
        fn = getattr(iso, name)
        monkeypatch.setattr(iso, name,
                            lambda *a, _name=name, _fn=fn: calls.append(_name) or _fn(*a))
    # the second presentation adds 2x times the first generator and x^5
    ring = "ring Q[x, y]\nlocal\n"
    p = parse_presentation(ring + "ideal: y^2 - x^3\ntuple: x, y")
    q = parse_presentation(ring + "ideal: y^2 - x^3, 2*x*y^2 - 2*x^4, x^5\ntuple: x, y")
    for n in range(1, 6):
        A, B = jet(p, n), jet(q, n)
        assert iso._same_quotient(A, B)
        for S, T in ((A, B), (B, A)):
            assert decide_isomorphism(S, T, BUDGET).status == "ISO"
    for n in (1, 2):
        A, B = defpair_jet(p, n), defpair_jet(q, n)
        assert iso._same_quotient(A, B) and A.relations != B.relations
        assert decide_isomorphism(A, B, BUDGET, match_tuples=True).status == "ISO"
    assert calls == []
    # an unequal pair of one length still runs both
    a = parse_presentation("ring Q[x, y]\ngraded\nideal: x^2 - 2*y^2")
    b = parse_presentation("ring Q[x, y]\ngraded\nideal: x^2 - 8*y^2")
    A, B = jet(a, 3), jet(b, 3)
    assert A.dim == B.dim and not iso._same_quotient(A, B)
    assert decide_isomorphism(A, B, BUDGET).status == "ISO"
    assert {"find_separator", "_precedes"} <= set(calls)


@pytest.mark.parametrize("ring", ["Q", "F_3"])
def test_tuple_images_keep_a_pair_off_the_equal_quotient_rule(ring):
    # at the even order 2, the pairs (x^3, x) and (x^3, -x) have the same
    # relations x^3, x^2 and the same normal forms; only their tuple images
    # x and -x differ, and the map x -> -x carries one to the other
    a = parse_presentation(f"ring {ring}[x]\nlocal\nideal: x^3\ntuple: x")
    b = parse_presentation(f"ring {ring}[x]\nlocal\nideal: x^3\ntuple: -x")
    A, B = defpair_jet(a, 2), defpair_jet(b, 2)
    assert A.relations == B.relations and A.basis == B.basis and A.nf == B.nf
    assert A.tuple_images != B.tuple_images
    assert not iso._same_quotient(A, B) and not iso._same_quotient(B, A)
    forward = decide_isomorphism(A, B, BUDGET, match_tuples=True)
    backward = decide_isomorphism(B, A, BUDGET, match_tuples=True)
    assert forward.status == backward.status == "ISO"
    assert forward.witness.images == backward.witness.images == [B.tuple_images[0]]
    assert verify_witness(A, B, forward.witness, match_tuples=True)
    assert verify_witness(B, A, backward.witness, match_tuples=True)
