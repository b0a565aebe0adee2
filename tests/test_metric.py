import random
import time
from fractions import Fraction

import pytest

from jetmetric import artin, metric
from jetmetric.artin import defpair_jet, jet
from jetmetric.errors import (
    CapacityError,
    CrossCharacteristicError,
    InternalInconsistencyError,
    NotStabilizedError,
    RangeError,
    TupleError,
    UnknownStabilizationError,
)
from jetmetric.iso import (
    IsoVerdict,
    SearchBudget,
    Witness,
    decide_isomorphism,
    verify_witness,
)
from jetmetric.metric import (
    ball_descriptor,
    defpair_distance,
    jet_distance,
    limit_jets,
)
from jetmetric.presentation import FamilyTemplate, parse_presentation
from jetmetric.standard import hilbert_numerator

from conftest import random_presentation

BUDGET = SearchBudget(ext_degree_max=1, effort=100_000)


def _dist(pa, pb, n, budget=BUDGET):
    return jet_distance(pa, pb, n, budget=budget)


def test_x2_vs_x3_distance_is_exactly_quarter():
    a = parse_presentation("ring Q[x]\ngraded\nideal: x^2")
    b = parse_presentation("ring Q[x]\nlocal\nideal: x^3")
    v = _dist(a, b, 6)
    assert v.lower == v.upper == Fraction(1, 4)
    assert v.exact


def test_line_vs_plane_distance_is_exactly_half():
    a = parse_presentation("ring Q[x]\ngraded\nideal: ;")
    b = parse_presentation("ring Q[x, y]\ngraded\nideal: ;")
    v = _dist(a, b, 5)
    assert v.lower == v.upper == Fraction(1, 2)
    assert v.exact


def test_identical_presentations_distance_upper_shrinks():
    a = parse_presentation("ring Q[x, y]\nlocal\nideal: y^2 - x^3")
    v = _dist(a, a, 5)
    assert v.upper == Fraction(1, 32)
    assert v.lower == 0
    assert not v.exact  # equality is never certified by finitely many orders


def test_interval_is_always_ordered_and_dyadic(cusp, fat_point):
    v = _dist(cusp, fat_point, 4)
    assert 0 <= v.lower <= v.upper <= 1
    for frac in (v.lower, v.upper):
        if frac:
            num, den = frac.numerator, frac.denominator
            assert num == 1 and den & (den - 1) == 0


def test_iso_orders_form_an_initial_segment(cusp):
    b = parse_presentation("ring Q[x, y]\nlocal\nideal: y^2")
    v = _dist(cusp, b, 6)
    statuses = [s.status for _, s in v.per_order]
    # the cusp agrees with y^2 through order 3 (x^3 dies below the cap);
    # beyond that the pair is left undecided rather than misclassified
    assert statuses[:3] == ["ISO", "ISO", "ISO"]
    first_bad = next((i for i, s in enumerate(statuses) if s != "ISO"),
                     len(statuses))
    assert "ISO" not in statuses[first_bad:]


def test_cusp_vs_free_plane_separates_at_order_three():
    # order-2 jets agree (the relation is invisible below degree 2); at
    # order 3 the lengths differ (5 vs 6), so the distance is exactly 1/4
    a = parse_presentation("ring Q[x, y]\nlocal\nideal: y^2 - x^3")
    free = parse_presentation("ring Q[x, y]\nlocal\nideal: ;")
    v = _dist(a, free, 4)
    assert v.lower == v.upper == Fraction(1, 4)
    assert v.exact


def test_cross_characteristic_distance_is_an_error():
    a = parse_presentation("ring F_2[x]\ngraded\nideal: x^2")
    b = parse_presentation("ring F_3[x]\ngraded\nideal: x^2")
    with pytest.raises(CrossCharacteristicError):
        _dist(a, b, 3)


def test_same_char_different_fields_is_distance_one():
    a = parse_presentation("ring F_2[x]\ngraded\nideal: x^2")
    b = parse_presentation("ring F_2^2 minpoly a^2 + a + 1[x]\ngraded\nideal: x^2")
    v = _dist(a, b, 4)
    assert v.lower == v.upper == Fraction(1)
    assert v.exact


def test_ball_descriptor_radius(cusp):
    d = ball_descriptor(jet(cusp, 4))
    assert d.radius == Fraction(1, 8)  # nilpotency 4 -> radius 2^(1-4)


def test_ultrametric_on_random_triples():
    rng = random.Random(424242)
    checked = 0
    for _ in range(12):
        field = rng.choice(["Q", "F_2", "F_3"])
        ps = [random_presentation(rng, field, rng.randint(1, 2), "local")
              for _ in range(3)]
        verdicts = {}
        for i, j in [(0, 1), (0, 2), (1, 2)]:
            verdicts[(i, j)] = _dist(ps[i], ps[j], 3)
        # certified data may never contradict the ultrametric inequality
        for i, j, k in [(0, 1, 2), (0, 2, 1), (1, 2, 0)]:
            vij = verdicts[(min(i, j), max(i, j))]
            vik = verdicts[(min(i, k), max(i, k))]
            vjk = verdicts[(min(j, k), max(j, k))]
            assert vij.lower <= max(vik.upper, vjk.upper)
            checked += 1
    assert checked == 36


def test_defpair_distance_separates_orders():
    a = parse_presentation("ring Q[x]\nlocal\nideal: ;\ntuple: x")
    b = parse_presentation("ring Q[x]\nlocal\nideal: x^5\ntuple: x")
    v = defpair_distance(a, b, 8, budget=BUDGET)
    assert v.upper < 1
    assert v.lower > 0


def test_defpair_distance_searches_only_maps_matching_the_tuples():
    # the order-2 pair quotients k[x,y]/(x^2, y^4) and k[x,y]/(x^4, y^2) are
    # isomorphic, but no isomorphism sends (x, y^2) to (x^2, y)
    a = parse_presentation("ring F_3[x, y]\nlocal\nideal: ;\ntuple: x, y^2")
    b = parse_presentation("ring F_3[x, y]\nlocal\nideal: ;\ntuple: x^2, y")
    budget = SearchBudget(ext_degree_max=1, effort=400)
    assert decide_isomorphism(defpair_jet(a, 2), defpair_jet(b, 2), budget).status == "ISO"
    v = defpair_distance(a, b, 2, budget=budget)
    assert [s.status for _, s in v.per_order] == ["ISO", "UNKNOWN"]
    assert v.upper == Fraction(1, 2)
    # an UNKNOWN last order bounds nothing from below, even right above b
    assert v.lower == 0 and not v.exact


def test_projected_defpair_witnesses_are_reverified_with_the_tuples(monkeypatch):
    # an order-3 ISO whose witness (the identity) ignores the tuples x and
    # 2x, above budget-limited UNKNOWNs: pushed down to order 2 it maps the
    # tuple x to x, not to 2x, so defpair_distance must refuse it, not upgrade
    a = parse_presentation("ring Q[x]\nlocal\nideal: x^3\ntuple: x")
    b = parse_presentation("ring Q[x]\nlocal\nideal: x^3\ntuple: 2*x")

    def decide(A, B, budget, match_tuples):
        assert match_tuples
        if A.origin.order < 3:
            return IsoVerdict(status="UNKNOWN")
        return IsoVerdict(status="ISO", witness=Witness(images=[B.var_image(0)]))

    monkeypatch.setattr(metric, "decide_isomorphism", decide)
    with pytest.raises(InternalInconsistencyError, match="order 2"):
        defpair_distance(a, b, 3, budget=BUDGET)


def test_top_iso_witness_is_pushed_down_to_undecided_lower_orders(monkeypatch):
    # orders 1 and 2 come back UNKNOWN; the order-3 witness, projected to
    # each, must upgrade them to verified ISOs under the separation at order 4
    a = parse_presentation("ring Q[x, y]\nlocal\nideal: y^2 - x^3")
    b = parse_presentation("ring Q[x, y]\nlocal\nideal: y^2 - x^5")

    def decide(A, B, budget, match_tuples):
        if A.origin.order < 3:
            return IsoVerdict(status="UNKNOWN")
        return decide_isomorphism(A, B, budget, match_tuples=match_tuples)

    monkeypatch.setattr(metric, "decide_isomorphism", decide)
    v = jet_distance(a, b, 6, budget=BUDGET)
    assert [(n, s.status) for n, s in v.per_order] == [
        (1, "ISO"), (2, "ISO"), (3, "ISO"), (4, "NOT_ISO")]
    for n, s in v.per_order[:3]:
        assert verify_witness(jet(a, n), jet(b, n), s.witness)
    assert v.lower == v.upper == Fraction(1, 8)
    assert v.exact


def test_defpair_distance_computes_each_colength_once(monkeypatch):
    # the colength of I + (t) does not depend on the order: one leading
    # ideal per presentation, not one per order and side
    calls = []

    def counting(*args):
        calls.append(args)
        return hilbert_numerator(*args)

    artin._colength.cache_clear()
    monkeypatch.setattr(artin, "hilbert_numerator", counting)
    a = parse_presentation("ring Q[x]\nlocal\nideal: ;\ntuple: x")
    b = parse_presentation("ring Q[x]\nlocal\nideal: x^5\ntuple: x")
    v = defpair_distance(a, b, 8, budget=BUDGET)
    assert len(v.per_order) == 6 and len(calls) == 2


def test_limit_jets_of_cusp_family():
    tpl = FamilyTemplate("ring Q[x, y]\nlocal\nideal: y^2 - x^w", 1, 10)
    last, w0 = limit_jets(tpl, 3, budget=BUDGET)
    assert w0 == 3
    target = jet(parse_presentation("ring Q[x, y]\nlocal\nideal: y^2"), 3)
    from jetmetric.iso import decide_isomorphism
    assert decide_isomorphism(last, target, BUDGET).status == "ISO"


def test_limit_jets_refuses_a_family_larger_than_the_capacity(monkeypatch):
    # no parameter is instantiated: the refusal comes before any jet
    monkeypatch.setattr(metric, "instantiate_template", None)
    tpl = FamilyTemplate("ring Q[x, y]\nlocal\nideal: y^2 - x^w", 1, 10**9)
    start = time.process_time()
    with pytest.raises(CapacityError, match="family size 1000000000"):
        limit_jets(tpl, 3, budget=BUDGET)
    with pytest.raises(CapacityError, match="family size 11 exceeds capacity 10"):
        limit_jets(FamilyTemplate(tpl.body, 1, 11), 3, budget=BUDGET, capacity=10)
    assert time.process_time() - start < 0.1


def test_defpair_distance_of_tuples_of_different_lengths_is_exactly_one():
    a = parse_presentation("ring Q[x, y]\nlocal\nideal: y^2 - x^3\ntuple: x")
    b = parse_presentation("ring Q[x, y]\nlocal\nideal: y^2 - x^3\ntuple: x, y")
    v = defpair_distance(a, b, 3, budget=BUDGET)
    assert (v.lower, v.upper, v.per_order, v.exact) == (1, 1, [], True)


def test_defpair_distance_needs_tuples_on_both_sides():
    a = parse_presentation("ring Q[x, y]\nlocal\nideal: y^2 - x^3\ntuple: x")
    b = parse_presentation("ring Q[x, y]\nlocal\nideal: y^2 - x^3")
    for p, q in [(a, b), (b, a), (b, b)]:
        with pytest.raises(TupleError):
            defpair_distance(p, q, 3, budget=BUDGET)


def test_defpair_distance_passes_through_the_field_gate():
    text = "ring {}[x, y]\nlocal\nideal: y^2 - x^3\ntuple: x"
    f2, f4, f3 = (parse_presentation(text.format(k))
                  for k in ["F_2", "F_2^2 minpoly a^2 + a + 1", "F_3"])
    v = defpair_distance(f2, f4, 3, budget=BUDGET)
    assert (v.lower, v.upper, v.per_order, v.exact) == (1, 1, [], True)
    with pytest.raises(CrossCharacteristicError):
        defpair_distance(f2, f3, 3, budget=BUDGET)


@pytest.mark.parametrize("max_order", [0, -2])
def test_distance_drivers_reject_a_max_order_below_one(max_order):
    # orders start at 1: a lower bound tested nothing yet reported [0, 1];
    # the check comes first, before the field gate and the tuple check
    x2 = parse_presentation("ring Q[x]\ngraded\nideal: x^2")
    f2 = parse_presentation("ring F_2[x]\ngraded\nideal: x^2")
    with pytest.raises(RangeError):
        jet_distance(x2, x2, max_order, budget=BUDGET)
    with pytest.raises(RangeError):
        jet_distance(x2, f2, max_order, budget=BUDGET)
    pa = parse_presentation("ring Q[x, y]\nlocal\nideal: y^2 - x^3\ntuple: x")
    with pytest.raises(RangeError):
        defpair_distance(pa, pa, max_order, budget=BUDGET)
    with pytest.raises(RangeError):
        defpair_distance(pa, x2, max_order, budget=BUDGET)


@pytest.mark.parametrize("tail", [0, -1, -3])
def test_limit_jets_rejects_a_tail_below_one(tail):
    # jets[-0:] is every jet and jets[-1:] past a negative k is no tail
    tpl = FamilyTemplate("ring Q[x, y]\nlocal\nideal: y^2 - x^w", 1, 10)
    with pytest.raises(RangeError):
        limit_jets(tpl, 3, budget=BUDGET, tail=tail)


def test_limit_jets_raises_when_family_never_settles():
    # x^w for w in a short window keeps changing the order-6 jet
    tpl = FamilyTemplate("ring Q[x]\nlocal\nideal: x^w", 1, 4)
    with pytest.raises(NotStabilizedError,
                       match="family jet at parameter 3 differs from the last, at 4"):
        limit_jets(tpl, 6, budget=BUDGET)


def test_limit_jets_decides_each_member_against_the_last_once(monkeypatch):
    # isomorphism is an equivalence: the walk back from the last jet decides
    # the tail too, members 9 down to 3 are ISO and member 2 ends the walk
    tpl = FamilyTemplate("ring Q[x, y]\nlocal\nideal: y^2 - x^w", 1, 10)
    pairs = []

    def counting(A, B, budget):
        pairs.append((A.origin.presentation, B))
        return decide_isomorphism(A, B, budget)

    monkeypatch.setattr(metric, "decide_isomorphism", counting)
    last, w0 = limit_jets(tpl, 3, budget=BUDGET)
    assert w0 == 3
    assert len(pairs) == 8 and all(B is last for _, B in pairs)


def test_limit_jets_names_an_undecided_tail_member_and_the_last(monkeypatch):
    tpl = FamilyTemplate("ring Q[x, y]\nlocal\nideal: y^2 - x^w", 1, 10)
    monkeypatch.setattr(metric, "decide_isomorphism",
                        lambda A, B, budget: IsoVerdict(status="UNKNOWN"))
    with pytest.raises(UnknownStabilizationError,
                       match="tail jet at parameter 9 to the last, at 10"):
        limit_jets(tpl, 3, budget=BUDGET)
    # a tail of one is the last jet alone: an undecided member only ends the walk
    assert limit_jets(tpl, 3, budget=BUDGET, tail=1)[1] == 10
