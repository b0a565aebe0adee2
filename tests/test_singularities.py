"""Coordinate-free ground truth: the simple plane curve singularities.

The ADE normal forms (Greuel-Lossen-Shustin, Introduction to Singularities
and Deformations, 2007, I.2) have deformation distances known independently
of the package: for j < k, y^(j+1) lies in m^(j+1), so the jets of A_j and
A_k agree through order j + 1, and so on for the other families.  The
distance does not depend on coordinates, but the witness search does, so
the second germ of each pair is also run in disguise, moved by the linear
change x -> x + 2y, y -> y - x and by the nonlinear change
x -> x + 2y + y^2, y -> y - x + xy: a disguised run may leave an order
UNKNOWN, but it may never contradict the normal-form run, and every
interval it brackets exactly must be the normal-form one.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations

import pytest

from jetmetric.iso import SearchBudget
from jetmetric.metric import jet_distance
from jetmetric.presentation import parse_presentation

# in the variables X and Y, which a germ's text replaces
NORMAL_FORMS = {
    "A1": "X^2 + Y^2", "A2": "X^2 + Y^3", "A3": "X^2 + Y^4", "A4": "X^2 + Y^5",
    "A5": "X^2 + Y^6", "A6": "X^2 + Y^7",
    "D4": "X^2*Y + Y^3", "D5": "X^2*Y + Y^4", "D6": "X^2*Y + Y^5",
    "E6": "X^3 + Y^4", "E7": "X^3 + X*Y^3", "E8": "X^3 + Y^5",
}
# the corpus's search budget; p = 7 > 5 keeps the normal forms those of
# characteristic 0
BUDGET = SearchBudget(ext_degree_max=1, effort=4000)
FIELDS = ["Q", "F_7"]
# the images of x and y under each change of coordinates; the linear part
# of both has determinant 3, a unit over Q and F_7
DISGUISES = [("(x + 2*y)", "(y - x)"), ("(x + 2*y + y^2)", "(y - x + x*y)")]


def _germ(field, name, change=("x", "y")):
    x, y = change
    text = NORMAL_FORMS[name].replace("X", x).replace("Y", y)
    return parse_presentation(f"ring {field}[x, y]\nlocal\nideal: {text}")


def _known_distance(a, b):
    """The distance of the normal forms a and b, a listed before b."""
    if a[0] == b[0] == "A":
        return Fraction(1, 2 ** (int(a[1]) + 1))
    if "A" in (a[0], b[0]):
        return Fraction(1, 4)
    if a[0] == b[0] and a != "D4":
        return Fraction(1, 16)   # D5 against D6, and E6, E7 and E8
    return Fraction(1, 8)        # D4 against the rest, D5 or D6 against an E


@lru_cache(maxsize=None)
def _normal_form_distances(field):
    """{(a, b): the jet_distance of the normal forms a and b at max order
    7}, over every unordered pair, a listed before b."""
    return {(a, b): jet_distance(_germ(field, a), _germ(field, b), 7, BUDGET)
            for a, b in combinations(NORMAL_FORMS, 2)}


@pytest.mark.parametrize("field", FIELDS)
def test_the_normal_forms_have_their_known_distances(field):
    # all 66 pairs are exact at max order 7; A5 and A6, whose jets agree
    # through order 6, need that order
    distances = _normal_form_distances(field)
    assert len(distances) == 66
    for (a, b), v in distances.items():
        want = _known_distance(a, b)
        assert (v.exact, v.lower, v.upper) == (True, want, want), (a, b)


@pytest.mark.parametrize("field", FIELDS)
def test_a_disguise_contradicts_no_normal_form_verdict(field):
    # at max order 5, for every ordered pair and each change, the germ
    # against the other in disguise: the normal-form distance 2^-b makes
    # orders 1..b ISO and every higher order NOT_ISO; each germ against its
    # own disguise is ISO at every order
    distances = _normal_form_distances(field)
    for change in DISGUISES:
        for a, b in permutations(NORMAL_FORMS, 2):
            v = jet_distance(_germ(field, a), _germ(field, b, change), 5, BUDGET)
            known = distances.get((a, b)) or distances[b, a]
            top = known.upper.denominator.bit_length() - 1
            for n, o in v.per_order:
                assert o.status in ("UNKNOWN", "ISO" if n <= top else "NOT_ISO"), \
                    (change, a, b, n)
            if v.exact:
                assert (v.lower, v.upper) == (known.lower, known.upper), (change, a, b)
        for a in NORMAL_FORMS:
            v = jet_distance(_germ(field, a), _germ(field, a, change), 5, BUDGET)
            assert all(o.status != "NOT_ISO" for _, o in v.per_order), (change, a)
