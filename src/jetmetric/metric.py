"""Deformation distance: certified intervals from order-by-order jet tests.

The distance between two presented algebras is the infimum of 2^{-n} over the
orders n at which their jets are isomorphic.  Finite computation can only
bracket it: an isomorphism witness at order b gives the upper bound 2^{-b}, a
separating invariant at order a gives the lower bound 2^{-(a-1)}, and the
interval is exact when a = b + 1.  A run never claims distance zero — "ISO
through every tested order" keeps the lower bound at 0 with exact = False.

Isomorphism at order n forces it at every lower order, and a separation at
order n separates every higher one.  So the orders are decided upward and the
loop stops at the first NOT_ISO; a budget-limited UNKNOWN below the top ISO
order gets that order's witness pushed down (composed with the quotient map)
and re-verified, which upgrades it to ISO, and a pushed witness that fails
verification raises InternalInconsistencyError instead of being papered over.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .artin import ArtinAlgebra, defpair_jet, jet, nilpotency_index
from .errors import (
    CapacityError,
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

# how many of a family's last jets limit_jets requires isomorphic to the last
DEFAULT_TAIL = 3


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
    ca, cb = p.field.characteristic, q.field.characteristic
    if ca != cb:
        raise CrossCharacteristicError(
            f"cannot compare characteristic {ca} with characteristic {cb}")
    return DistanceVerdict(lower=Fraction(1), upper=Fraction(1),
                           per_order=[], exact=True)


def _check_max_order(max_order: int):
    """Orders start at 1, so a smaller bound would test nothing and still
    report an interval."""
    if max_order < 1:
        raise RangeError(f"maximum order must be at least 1, got {max_order}")


def _distance(p: Presentation, q: Presentation, max_order: int,
              budget: Optional[SearchBudget], capacity: int,
              defpair: bool) -> tuple[DistanceVerdict, list[ArtinAlgebra]]:
    """`defpair_distance` when defpair is set, else `jet_distance`, with the
    target jets make(q, n) of the decided orders, in order, for the CLI to
    print each witness in.

    The jets make(p, n), make(q, n) (`defpair_jet` with defpair, maps
    matching the tuples; else `jet`) are decided for n = 1..max_order up to
    the first NOT_ISO; the witness of the top ISO order b is pushed down to
    every UNKNOWN below it, re-verified, and the interval is read off b and
    the last order."""
    _check_max_order(max_order)
    if defpair and (p.tuple is None or q.tuple is None):
        raise TupleError("defpair distance needs tuples on both presentations")
    gate = _field_gate(p, q)
    if gate is None and defpair and len(p.tuple) != len(q.tuple):
        gate = DistanceVerdict(lower=Fraction(1), upper=Fraction(1),
                               per_order=[], exact=True)
    if gate is not None:
        return gate, []
    make = defpair_jet if defpair else jet
    per_order: list[tuple[int, IsoVerdict]] = []
    algebras: list[tuple[ArtinAlgebra, ArtinAlgebra]] = []
    for n in range(1, max_order + 1):
        A = make(p, n, capacity=capacity)
        B = make(q, n, capacity=capacity)
        algebras.append((A, B))
        verdict = decide_isomorphism(A, B, budget, match_tuples=defpair)
        per_order.append((n, verdict))
        if verdict.status == "NOT_ISO":
            break
    # order-0 jets are always isomorphic
    b = max((n for n, v in per_order if v.status == "ISO"), default=0)
    for n in range(1, b):
        if per_order[n - 1][1].status == "UNKNOWN":
            A, B = algebras[n - 1]
            w = project_witness(per_order[b - 1][1].witness, algebras[b - 1][1], B)
            if not verify_witness(A, B, w, defpair):
                raise InternalInconsistencyError(f"projected witness failed at order {n}")
            per_order[n - 1] = (n, IsoVerdict(status="ISO", witness=w))
    a, last = per_order[-1]
    separated = last.status == "NOT_ISO"
    verdict = DistanceVerdict(lower=Fraction(1, 2 ** (a - 1)) if separated else Fraction(0),
                              upper=Fraction(1, 2 ** b), per_order=per_order,
                              exact=separated and a == b + 1)
    return verdict, [B for _, B in algebras]


def jet_distance(p: Presentation, q: Presentation, max_order: int,
                 budget: Optional[SearchBudget] = None,
                 capacity: int = DEFAULT_CAPACITY) -> DistanceVerdict:
    """Bracket the deformation distance by testing jets at orders 1..max_order,
    stopping at the first certified separation."""
    return _distance(p, q, max_order, budget, capacity, defpair=False)[0]


def defpair_distance(p: Presentation, q: Presentation, max_n: int,
                     budget: Optional[SearchBudget] = None,
                     capacity: int = DEFAULT_CAPACITY) -> DistanceVerdict:
    """Distance between deformation pairs: the same order-by-order scheme on
    the pair quotients, with the search restricted to maps matching the
    distinguished tuples.  Pairs with tuples of different lengths admit no
    morphisms at all, so their distance is exactly 1."""
    return _distance(p, q, max_n, budget, capacity, defpair=True)[0]


def limit_jets(tpl: FamilyTemplate, order: int,
               budget: Optional[SearchBudget] = None,
               tail: int = DEFAULT_TAIL,
               capacity: int = DEFAULT_CAPACITY) -> tuple[ArtinAlgebra, int]:
    """Jet of the limit of a parameterized family.

    Computes the order-n jet for every parameter in the range, requires the
    final `tail` jets to be isomorphic to the last one (the desk-scale
    stand-in for Cauchy convergence; isomorphism is an equivalence, so they
    are then pairwise isomorphic), and returns the last jet together with the
    least parameter from which every later jet is certifiably isomorphic to it.
    A family of more than `capacity` parameters is refused before any jet.
    """
    if tail < 1:
        raise RangeError(f"tail must be at least 1, got {tail}")
    if tpl.hi - tpl.lo + 1 > capacity:
        raise CapacityError(tpl.hi - tpl.lo + 1, capacity, what="family size")
    ws = list(range(tpl.lo, tpl.hi + 1))
    jets = [jet(instantiate_template(tpl, w), order, capacity=capacity) for w in ws]
    last = jets[-1]
    w0 = ws[-1]
    for idx in range(len(jets) - 2, -1, -1):
        v = decide_isomorphism(jets[idx], last, budget)
        if v.status == "ISO":
            w0 = ws[idx]
            continue
        if idx < len(jets) - tail:
            break
        if v.status == "NOT_ISO":
            raise NotStabilizedError(
                f"family jet at parameter {ws[idx]} differs from the last, at "
                f"{ws[-1]}: {v.separator[0]} = {v.separator[1]} vs {v.separator[2]}")
        raise UnknownStabilizationError(
            f"isomorphism of the tail jet at parameter {ws[idx]} to the last, at "
            f"{ws[-1]}, undecided within budget")
    return last, w0
