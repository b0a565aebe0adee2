"""Seeded input generators for the three benchmark workloads.

Every generator is a pure function of its seed and returns presentation
texts (plus plain descriptors); parsing happens in the caller's set-up so
that it is timed as set-up.  The random presentation grammar is the one the
acceptance corpora use, so seed 20260814 reproduces the criterion-01 triple
corpus and seed 20260814 + 2 the criterion-13 base-change ladder.

Where a workload's cost would otherwise swing with the seed, the seed only
picks what leaves the size of the work alone (coefficients, variable names)
and the shapes and supports stay fixed.
"""

from __future__ import annotations

import random
import re

DEFAULT_SEED = 20260814

_COEFFS = {"Q": ["1", "-1", "2", "-2", "3", "1/2"],
           "F_2": ["1"],
           "F_3": ["1", "2"]}


def _mono_str(exps, names) -> str:
    parts = []
    for e, v in zip(exps, names):
        if e == 1:
            parts.append(v)
        elif e > 1:
            parts.append(f"{v}^{e}")
    return "*".join(parts)


def _random_mono(rng: random.Random, nvars: int, deg: int) -> tuple:
    exps = [0] * nvars
    for _ in range(deg):
        exps[rng.randrange(nvars)] += 1
    return tuple(exps)


def _term(coeff: str, mono: tuple, names) -> str:
    ms = _mono_str(mono, names)
    return ms if coeff == "1" else f"{coeff}*{ms}"


def _join_terms(terms: list[str]) -> str:
    expr = terms[0]
    for t in terms[1:]:
        expr += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return expr


def random_presentation_text(rng: random.Random, field: str, nvars: int,
                             mode: str, max_deg: int = 4) -> str:
    """One random presentation: 1-3 generators of 1-3 terms each, all terms
    of one degree when graded.  The draw order is part of the corpus
    definition; changing it changes every seeded corpus."""
    names = ["x", "y", "z"][:nvars]
    gens = []
    for _ in range(rng.randint(1, 3)):
        if mode == "graded":
            deg = rng.randint(1, max_deg)
            degs = [deg] * rng.randint(1, 3)
        else:
            degs = [rng.randint(1, max_deg) for _ in range(rng.randint(1, 3))]
        terms = []
        for d in degs:
            mono = _random_mono(rng, nvars, d)
            coeff = rng.choice(_COEFFS[field])
            terms.append(_term(coeff, mono, names))
        gens.append(_join_terms(terms))
    return (f"ring {field}[{', '.join(names)}]\n{mode}\n"
            f"ideal: {', '.join(gens)}")


# ---------------------------------------------------------------------------
# distance-corpus: the criterion-01 triples


def distance_triples(seed: int) -> list[list[str]]:
    """200 triples of presentation texts; the three members of a triple
    share field, variable count and mode.  The triples are those of the
    criterion corpus (seed DEFAULT_SEED); any other seed renames the
    variables of each triple by a random permutation, one for all three
    members, which leaves every distance alone."""
    rng = random.Random(DEFAULT_SEED)
    out = []
    for _ in range(200):
        field = rng.choice(["Q", "F_2", "F_3"])
        nvars = rng.randint(1, 3)
        mode = rng.choice(["graded", "local"])
        out.append([random_presentation_text(rng, field, nvars, mode)
                    for _ in range(3)])
    if seed != DEFAULT_SEED:
        perm_rng = random.Random(seed)
        for k, tri in enumerate(out):
            image = _permutation(tri[0], perm_rng)
            out[k] = [_rename(t, image) for t in tri]
    return out


# ---------------------------------------------------------------------------
# base-change-ladder: the criterion-13 members


def ladder_members(seed: int, jet_dim) -> list[str]:
    """The criterion-13 rule: the first 20 F_2 graded candidates whose
    order-4 jet is not the zero ring (`jet_dim` maps a text to that jet's
    dimension); every third member has three variables."""
    rng = random.Random(seed)
    members: list[str] = []
    while len(members) < 20:
        nvars = 2 if len(members) % 3 else 3
        text = random_presentation_text(rng, "F_2", nvars, "graded", max_deg=3)
        if jet_dim(text):
            members.append(text)
    return members


def _permutation(text: str, rng: random.Random) -> dict[str, str]:
    names = text[text.index("[") + 1:text.index("]")].split(", ")
    return dict(zip(names, rng.sample(names, len(names))))


def _rename(text: str, image: dict[str, str]) -> str:
    head, ideal = text.split("ideal:")
    return head + "ideal:" + re.sub(r"[a-z]", lambda m: image[m.group()], ideal)


def permute_variables(text: str, rng: random.Random) -> str:
    """The same presentation with its variables renamed by a random
    permutation: an isomorphic algebra with the same sparsity."""
    return _rename(text, _permutation(text, rng))


# ---------------------------------------------------------------------------
# jet-growth: fixed shapes and supports, seeded coefficients

_SMALL = ["1", "-1", "2", "-2", "3", "-3"]


def _monos_of_degree(nvars: int, d: int) -> list[tuple]:
    if nvars == 1:
        return [(d,)]
    return [(a,) + rest for a in range(d, -1, -1)
            for rest in _monos_of_degree(nvars - 1, d - a)]


def _coeff(rng: random.Random, coeff_rng: random.Random | None) -> str:
    """A small coefficient from `rng`, redrawn from `coeff_rng` if given
    (`rng` still draws, so its later draws do not depend on `coeff_rng`)."""
    coeff = rng.choice(_SMALL)
    return coeff if coeff_rng is None else coeff_rng.choice(_SMALL)


def _shaped_generator(rng: random.Random, coeff_rng: random.Random | None,
                      lead: tuple, extra_degs: list[int],
                      names: list[str]) -> str:
    """lead monomial plus one term in each degree of `extra_degs` (all
    above the lead's degree, so the initial form is the lead)."""
    terms = [_mono_str(lead, names)]
    for d in extra_degs:
        mono = rng.choice([m for m in _monos_of_degree(len(names), d)
                           if m != lead])
        terms.append(_term(_coeff(rng, coeff_rng), mono, names))
    return _join_terms(terms)


def jet_growth_inputs(seed: int, variants: int) -> dict[str, dict]:
    """`variants` seeded inputs of each fixed shape, keyed "<shape>.<k>".
    Each entry carries the generator texts (field left open), the variable
    names, the mode and the lead degrees of its generators: the leads form
    a regular sequence, so the tangent cone, hence every jet length and the
    dimension, is fixed by the shape alone.  The supports are those of
    seed DEFAULT_SEED; any other seed redraws only the coefficients.  With
    drawn supports item_p50_ms spread by a fifth of its median over five
    seeds, with fixed ones by 0.06 over ten."""
    rng = random.Random(DEFAULT_SEED)
    coeff_rng = None if seed == DEFAULT_SEED else random.Random(seed)
    xy, xyz = ["x", "y"], ["x", "y", "z"]
    shapes = {
        # local plane curve: x^3 + terms of degree 4 and 5
        "curve2": (xy, "local", [(3, 0)], [[4, 5]]),
        # local space curve, complete intersection with leads x^2, y^2
        "ci3": (xyz, "local", [(2, 0, 0), (0, 2, 0)], [[3], [3]]),
        # graded quartic surface cone: x^4 + y^4 + z^4 plus two quartic terms
        "quartic3": (xyz, "graded", None, None),
    }
    out = {}
    for key, (names, mode, leads, extra) in (
            (f"{name}.{k}", shape) for k in range(variants)
            for name, shape in shapes.items()):
        if leads is None:
            monos = rng.sample([m for m in _monos_of_degree(3, 4)
                                if m not in ((4, 0, 0), (0, 4, 0), (0, 0, 4))], 2)
            terms = ["x^4", "y^4", "z^4"]
            for m in monos:
                terms.append(_term(_coeff(rng, coeff_rng), m, names))
            gens = [_join_terms(terms)]
            leads = [(4, 0, 0)]
        else:
            gens = [_shaped_generator(rng, coeff_rng, lead, degs, names)
                    for lead, degs in zip(leads, extra)]
        out[key] = {"names": names, "mode": mode, "gens": gens,
                    "lead_degrees": [sum(l) for l in leads]}
    return out


def shape_text(shape: dict, field: str) -> str:
    return (f"ring {field}[{', '.join(shape['names'])}]\n{shape['mode']}\n"
            f"ideal: {', '.join(shape['gens'])}")
