"""Deformation distance: certified intervals from order-by-order jet tests.

The distance between two presented algebras is the infimum of 2^{-n} over the
orders n at which their jets are isomorphic.  Finite computation can only
bracket it: an isomorphism witness at order b gives the upper bound 2^{-b}, a
separating invariant at order a gives the lower bound 2^{-(a-1)}, and the
interval is exact when a = b + 1.  A run never claims distance zero — "ISO
through every tested order" keeps the lower bound at 0 with exact = False.

Isomorphism at order n forces it at every lower order, so ISO verdicts must
form an initial segment.  When a budget-limited UNKNOWN at a low order sits
under an ISO at a higher order, the higher witness is pushed down (composing
with the quotient map) and re-verified, upgrading the low order.  A NOT_ISO
below a verified ISO can only be an engine bug and raises
InternalInconsistencyError instead of being papered over.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .artin import ArtinAlgebra, defpair_jet, jet, nilpotency_index
from .errors import (
    CrossCharacteristicError,
    InternalInconsistencyError,
    NotStabilizedError,
    RangeError,
    TupleError,
    UnknownStabilizationError,
    ZeroRingError,
)
from .iso import (
    IsoVerdict,
    SearchBudget,
    decide_isomorphism,
    project_witness,
    verify_witness,
)
from .poly import DEFAULT_CAPACITY
from .presentation import FamilyTemplate, Presentation, instantiate_template


@dataclass
class DistanceVerdict:
    """Certified interval [lower, upper] for the deformation distance."""

    lower: Fraction
    upper: Fraction
    per_order: list[tuple[int, IsoVerdict]]
    exact: bool

    def __post_init__(self):
        if self.lower > self.upper:
            raise InternalInconsistencyError(
                f"distance interval inverted: [{self.lower}, {self.upper}]")


@dataclass
class BallDescriptor:
    residue_ring: ArtinAlgebra
    radius: Fraction


def ball_descriptor(A: ArtinAlgebra) -> BallDescriptor:
    """The ball of the metric space determined by an Artinian local ring; its
    radius is 2^(1-n) for n the nilpotency index (a field gives the unit ball)."""
    if A.is_zero_ring():
        raise ZeroRingError("no ball for the zero ring")
    n = nilpotency_index(A)
    return BallDescriptor(residue_ring=A, radius=Fraction(1, 2 ** (n - 1)))


def _field_gate(p: Presentation, q: Presentation) -> Optional[DistanceVerdict]:
    """None if comparable over one field; a distance-1 verdict for different
    fields of equal characteristic; an error across characteristics."""
    if p.field == q.field:
        return None
    ca = 0 if p.field.kind == "rationals" else p.field.p
    cb = 0 if q.field.kind == "rationals" else q.field.p
    if ca != cb:
        raise CrossCharacteristicError(
            f"cannot compare characteristic {ca} with characteristic {cb}")
    return DistanceVerdict(lower=Fraction(1), upper=Fraction(1),
                           per_order=[], exact=True)


def _enforce_initial_segment(per_order: list[tuple[int, IsoVerdict]],
                             high_algebras: dict[int, tuple[ArtinAlgebra, ArtinAlgebra]],
                             match_tuples: bool):
    """Upgrade UNKNOWN orders sitting below a later ISO by pushing the ISO
    witness down and re-verifying it (with match_tuples, as a map of
    deformation pairs); then check the ISO orders form an initial segment."""
    iso_orders = [n for n, v in per_order if v.status == "ISO"]
    if iso_orders:
        top = max(iso_orders)
        top_witness = next(v.witness for n, v in per_order if n == top)
        A_top, B_top = high_algebras[top]
        for idx, (n, v) in enumerate(per_order):
            if v.status == "UNKNOWN" and n < top:
                A_low, B_low = high_algebras[n]
                w_low = project_witness(top_witness, B_top, B_low)
                if not verify_witness(A_low, B_low, w_low, match_tuples):
                    raise InternalInconsistencyError(
                        f"projected witness failed at order {n}")
                per_order[idx] = (n, IsoVerdict(status="ISO", witness=w_low))
            elif v.status == "NOT_ISO" and n < top:
                raise InternalInconsistencyError(
                    f"NOT_ISO at order {n} under a verified ISO at order {top}")
    seen_non_iso = False
    for n, v in per_order:
        if v.status == "ISO" and seen_non_iso:
            raise InternalInconsistencyError(
                f"ISO at order {n} after a non-ISO verdict at a lower order")
        if v.status != "ISO":
            seen_non_iso = True


def _aggregate(per_order: list[tuple[int, IsoVerdict]]) -> DistanceVerdict:
    iso_orders = [n for n, v in per_order if v.status == "ISO"]
    not_orders = [n for n, v in per_order if v.status == "NOT_ISO"]
    b = max(iso_orders, default=0)           # order-0 jets are always isomorphic
    upper = Fraction(1, 2 ** b)
    if not_orders:
        a = min(not_orders)
        lower = Fraction(1, 2 ** (a - 1))
        exact = (a == b + 1)
    else:
        lower = Fraction(0)
        exact = False
    return DistanceVerdict(lower=lower, upper=upper, per_order=per_order, exact=exact)


def _check_max_order(max_order: int):
    """Orders start at 1, so a smaller bound would test nothing and still
    report an interval."""
    if max_order < 1:
        raise RangeError(f"maximum order must be at least 1, got {max_order}")


def _by_order(p: Presentation, q: Presentation, max_order: int, make,
              budget: Optional[SearchBudget], match_tuples: bool,
              capacity: int) -> DistanceVerdict:
    """Decide the jets make(p, n), make(q, n) for n = 1..max_order, stopping
    at the first NOT_ISO, then enforce the initial segment and aggregate."""
    per_order: list[tuple[int, IsoVerdict]] = []
    algebras: dict[int, tuple[ArtinAlgebra, ArtinAlgebra]] = {}
    for n in range(1, max_order + 1):
        A = make(p, n, capacity=capacity)
        B = make(q, n, capacity=capacity)
        algebras[n] = (A, B)
        verdict = decide_isomorphism(A, B, budget, match_tuples=match_tuples)
        per_order.append((n, verdict))
        if verdict.status == "NOT_ISO":
            break
    _enforce_initial_segment(per_order, algebras, match_tuples)
    return _aggregate(per_order)


def jet_distance(p: Presentation, q: Presentation, max_order: int,
                 budget: Optional[SearchBudget] = None,
                 capacity: int = DEFAULT_CAPACITY) -> DistanceVerdict:
    """Bracket the deformation distance by testing jets at orders 1..max_order,
    stopping at the first certified separation."""
    _check_max_order(max_order)
    gate = _field_gate(p, q)
    if gate is not None:
        return gate
    return _by_order(p, q, max_order, jet, budget, False, capacity)


def defpair_distance(p: Presentation, q: Presentation, max_n: int,
                     budget: Optional[SearchBudget] = None,
                     capacity: int = DEFAULT_CAPACITY) -> DistanceVerdict:
    """Distance between deformation pairs: the same order-by-order scheme on
    the pair quotients, with the search restricted to maps matching the
    distinguished tuples.  Pairs with tuples of different lengths admit no
    morphisms at all, so their distance is exactly 1."""
    _check_max_order(max_n)
    if p.tuple is None or q.tuple is None:
        raise TupleError("defpair distance needs tuples on both presentations")
    gate = _field_gate(p, q)
    if gate is not None:
        return gate
    if len(p.tuple) != len(q.tuple):
        return DistanceVerdict(lower=Fraction(1), upper=Fraction(1),
                               per_order=[], exact=True)
    return _by_order(p, q, max_n, defpair_jet, budget, True, capacity)


def limit_jets(tpl: FamilyTemplate, order: int,
               budget: Optional[SearchBudget] = None,
               tail: int = 3,
               capacity: int = DEFAULT_CAPACITY) -> tuple[ArtinAlgebra, int]:
    """Jet of the limit of a parameterized family.

    Computes the order-n jet for every parameter in the range, requires the
    final `tail` jets to be pairwise isomorphic (the desk-scale stand-in for
    Cauchy convergence), and returns the last jet together with the least
    parameter from which every later jet is certifiably isomorphic to it.
    """
    if tail < 1:
        raise RangeError(f"tail must be at least 1, got {tail}")
    ws = list(range(tpl.lo, tpl.hi + 1))
    jets = [jet(instantiate_template(tpl, w), order, capacity=capacity) for w in ws]
    k = min(tail, len(jets))
    tail_jets = jets[-k:]
    for i in range(len(tail_jets)):
        for j in range(i + 1, len(tail_jets)):
            v = decide_isomorphism(tail_jets[i], tail_jets[j], budget)
            if v.status == "NOT_ISO":
                raise NotStabilizedError(
                    f"family jets at parameters {ws[-k + i]} and {ws[-k + j]} differ: "
                    f"{v.separator[0]} = {v.separator[1]} vs {v.separator[2]}")
            if v.status == "UNKNOWN":
                raise UnknownStabilizationError(
                    f"isomorphism of tail jets at parameters {ws[-k + i]} and "
                    f"{ws[-k + j]} undecided within budget")
    last = jets[-1]
    w0 = ws[-1]
    for idx in range(len(jets) - 2, -1, -1):
        v = decide_isomorphism(jets[idx], last, budget)
        if v.status != "ISO":
            break
        w0 = ws[idx]
    return last, w0
