"""The three benchmark workloads: set-up, items and correctness checks.

A workload's `setup(jm, seed)` builds its items from the seed; `jm` is the
namespace of freshly imported jetmetric modules.  An item is a zero-argument
callable whose run is timed; it reaches the library through `jm.<module>`
attribute lookups at call time, so a tracer that rebinds those attributes
sees every call.  Items carry no state from one run to the next: each
builds its jets afresh, so repeated passes time the same work.

`check(results)` runs outside the timed region and returns one failure
reason (or None) per item.  A result is the item's return value, a
`TypedError` for a `JetMetricError` (an outcome, not a failure) or a
`Failure` for any other exception; checks pass over both.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import corpus

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "jet_growth_digests.json"


@dataclass(frozen=True)
class TypedError:
    name: str
    message: str


@dataclass(frozen=True)
class Failure:
    why: str


def answered(r) -> bool:
    return not isinstance(r, (TypedError, Failure))


@dataclass
class Item:
    label: str
    run: Callable[[], object]


def digest(value) -> str:
    """Stable digest of an item result (repr-based; ArtinAlgebra by its
    normal forms, which carry no addresses)."""
    if hasattr(value, "nf") and hasattr(value, "basis"):
        f = value.field
        value = (value.dim, tuple(value.basis),
                 sorted((m, tuple(f.to_str(c) for c in v))
                        for m, v in value.nf.items()))
    return hashlib.sha256(repr(value).encode()).hexdigest()


# ---------------------------------------------------------------------------
# distance-corpus


class DistanceCorpus:
    """Criterion-01 triples: jet_distance on all three pairs of each triple
    at max order 3.  The triples are those of the criterion corpus; any
    other seed renames each triple's variables.  Fully reseeded corpora were
    tried and rejected: over eight seeds their summed item time moved by 37%
    (interquartile range over median) and the tail item by 115%.  Redrawn
    coefficients moved item_tail_ms by 22% over ten seeds, as they change
    which pairs run their search to the effort limit."""

    name = "distance-corpus"
    PASS_S = 15.0          # nominal seconds per pass at the benchmark's commit
    MAX_ORDER = 3

    def setup(self, jm, seed: int):
        self.jm = jm
        self.budget = jm.iso.SearchBudget(ext_degree_max=1, effort=4000)
        texts = corpus.distance_triples(seed)
        self.triples = [[jm.presentation.parse_presentation(t) for t in tri]
                        for tri in texts]
        self.pairs = [(t, i, j) for t in range(len(self.triples))
                      for i, j in ((0, 1), (0, 2), (1, 2))]
        return [Item(f"triple{t}/{i}{j}", self._item(t, i, j))
                for t, i, j in self.pairs]

    def _item(self, t, i, j):
        ps, budget, jm = self.triples[t], self.budget, self.jm
        return lambda: jm.metric.jet_distance(ps[i], ps[j], self.MAX_ORDER,
                                              budget=budget)

    def check(self, results) -> list:
        jm = self.jm
        jets: dict = {}

        def J(t, k, n):
            if (t, k, n) not in jets:
                jets[(t, k, n)] = jm.artin.jet(self.triples[t][k], n)
            return jets[(t, k, n)]

        reasons = [None] * len(results)
        by_pair = {}
        for idx, ((t, i, j), v) in enumerate(zip(self.pairs, results)):
            by_pair[(t, i, j)] = v
            if not answered(v):
                continue
            for n, s in v.per_order:
                if s.status == "ISO":
                    if not jm.iso.verify_witness(J(t, i, n), J(t, j, n),
                                                 s.witness):
                        reasons[idx] = f"ISO witness fails at order {n}"
                elif s.status == "NOT_ISO":
                    name, va, vb = s.separator
                    sa = getattr(jm.iso.invariant_signature(J(t, i, n)), name)
                    sb = getattr(jm.iso.invariant_signature(J(t, j, n)), name)
                    if not (sa == va and sb == vb and va != vb):
                        reasons[idx] = f"separator {name} fails at order {n}"
        for idx, (t, i, j) in enumerate(self.pairs):
            k = 3 - i - j
            vij = by_pair[(t, i, j)]
            vik = by_pair[(t, min(i, k), max(i, k))]
            vjk = by_pair[(t, min(j, k), max(j, k))]
            if not all(answered(v) for v in (vij, vik, vjk)):
                continue
            if vij.lower > max(vik.upper, vjk.upper):
                reasons[idx] = "ultrametric inequality broken"
        return reasons

    def shares(self, results) -> tuple[Fraction, Fraction]:
        """(decided ISO/NOT_ISO verdicts over all verdicts, exact intervals
        over pairs)."""
        verdicts = decided = exact = 0
        for v in results:
            if not answered(v):
                continue
            for _, s in v.per_order:
                verdicts += 1
                decided += s.status != "UNKNOWN"
            exact += v.exact
        return Fraction(decided, verdicts), Fraction(exact, len(results))


# ---------------------------------------------------------------------------
# base-change-ladder


class BaseChangeLadder:
    """Criterion-13 ladder: each F_2 member's order-4 jet at F_2, F_4 and
    F_16; one item is one (member, field) step.  The members are the
    criterion's own; the seed renames each member's variables by a random
    permutation (the criterion seed keeps them), which changes the inputs
    but neither the answers nor the size of the work.  Freshly drawn
    members were tried and rejected: with their jet dimensions held fixed,
    ten seeds still moved item_p50_ms by 29% and item_tail_ms by 41%."""

    name = "base-change-ladder"
    PASS_S = 14.0
    ORDER = 4
    STEPS = (("F_2", 1), ("F_4", 2), ("F_16", 4))
    BETTI_CAP = 4

    def setup(self, jm, seed: int):
        self.jm = jm

        def jet_dim(text):
            return jm.artin.jet(jm.presentation.parse_presentation(text),
                                self.ORDER).dim

        texts = corpus.ladder_members(corpus.DEFAULT_SEED + 2, jet_dim)
        if seed != corpus.DEFAULT_SEED:
            rng = random.Random(seed)
            texts = [corpus.permute_variables(t, rng) for t in texts]
        self.members = [jm.presentation.parse_presentation(t) for t in texts]
        self.steps = [(k, label, m) for k in range(len(self.members))
                      for label, m in self.STEPS]
        return [Item(f"member{k}/{label}", self._item(k, m))
                for k, label, m in self.steps]

    def _item(self, k, m):
        jm, p = self.jm, self.members[k]

        def run():
            A = jm.artin.jet(p, self.ORDER)
            B = A if m == 1 else jm.iso.base_change(A, m)
            hf = jm.artin.hf_by_degree_count(B)
            soc = jm.artin.socle(B)[0]
            res = jm.resolution.betti_residue_field(B, self.BETTI_CAP)
            return hf, soc, [res.rank(i) for i in range(self.BETTI_CAP + 1)]
        return run

    def check(self, results) -> list:
        reasons = [None] * len(results)
        base = {}
        for idx, ((k, label, m), r) in enumerate(zip(self.steps, results)):
            if not answered(r):
                continue
            if m == 1:
                base[k] = r
            elif k in base and r != base[k]:
                reasons[idx] = f"{label} invariants differ from F_2"
        return reasons


# ---------------------------------------------------------------------------
# jet-growth


GOLDEN = "docs/golden"
INPUTS = f"{GOLDEN}/inputs"
GOLDEN_COMMANDS = {
    "jets.json": ["jets", f"{INPUTS}/cusp.pres", "--order", "4"],
    "hilbert.json": ["hilbert", f"{INPUTS}/quartic.pres"],
    "distance.json": ["distance", f"{INPUTS}/x2.pres",
                      f"{INPUTS}/x3.pres", "--max-order", "6"],
    "defpair-distance.json": ["defpair-distance", f"{INPUTS}/pair-line.pres",
                              f"{INPUTS}/pair-fat.pres", "--max-order", "8"],
    "slopes.json": ["slopes", f"{INPUTS}/plane.pres", "--which", "quasidim"],
    "resolve.json": ["resolve", f"{INPUTS}/fat-point.pres", "--hcap", "6"],
    "classify.json": ["classify", f"{INPUTS}/quartic.pres"],
    "euler.json": ["euler", f"{INPUTS}/quartic.pres"],
    "limit.json": ["limit", "--template", f"{INPUTS}/family.tmpl",
                   "--range", "1..10", "--order", "3"],
}


def _series_coeffs(lead_degrees: list[int], nvars: int, n: int) -> list[int]:
    """First n coefficients of prod(1 - t^d) / (1 - t)^nvars."""
    c = [1] + [0] * (n - 1)
    for d in lead_degrees:
        c = [c[k] - (c[k - d] if k >= d else 0) for k in range(n)]
    for _ in range(nvars):
        for k in range(1, n):
            c[k] += c[k - 1]
    return c


class JetGrowth:
    """Fixed-shape elimination over Q beside F_32003: jets of one input at a
    ladder of orders (repeated orders, which one elimination could serve)
    beside a one-shot high-order jet, quasi_dimension (which re-eliminates
    every window order), Hilbert series (also over F_2) and classification
    of a quartic cone, then the nine golden CLI commands.  Two seeded
    inputs per shape keep any one item kind from setting the percentiles."""

    name = "jet-growth"
    PASS_S = 12.5
    VARIANTS = 2           # seeded inputs per shape
    # (kind, jet order or series prefix) per shape, over Q and F_32003
    KINDS = {
        "curve2": [("jet", 18), ("quasi_dimension", None)],
        "ci3": [("jet", 8), ("jet", 10), ("jet", 12),
                ("quasi_dimension", None)],
        "quartic3": [("hilbert_series", 16), ("depth_and_classify", None)],
    }
    # over F_2 the graded ranks take the bit-packed rank_gf2 path
    GF2_KINDS = {"quartic3": [("hilbert_series", 16)]}
    FIELDS = (("Q", KINDS), ("F_32003", KINDS), ("F_2", GF2_KINDS))

    def setup(self, jm, seed: int):
        self.jm = jm
        self.shapes = corpus.jet_growth_inputs(seed, self.VARIANTS)
        items, self.expect = [], []
        for fld, kinds in self.FIELDS:
            for key, shape in self.shapes.items():
                if key.split(".")[0] not in kinds:
                    continue
                p = jm.presentation.parse_presentation(
                    corpus.shape_text(shape, fld))
                for kind, n in kinds[key.split(".")[0]]:
                    label = f"{fld}/{kind}/{key}" + (f"/{n}" if n else "")
                    items.append(Item(label, self._item(kind, p, n)))
                    self.expect.append((kind, key, n))
        self.golden = {}
        for name, argv in sorted(GOLDEN_COMMANDS.items()):
            self.golden[name] = (ROOT / GOLDEN / name).read_text()
            items.append(Item(f"cli/{name}", self._cli(argv)))
            self.expect.append(("cli", name, None))
        self.labels = [it.label for it in items]
        self.recorded = {}
        if DIGESTS.exists():
            doc = json.loads(DIGESTS.read_text())
            if doc["seed"] == seed:
                self.recorded = doc["digests"]
        return items

    def _item(self, kind, p, n):
        jm = self.jm
        if kind == "jet":
            return lambda: jm.artin.jet(p, n)
        if kind == "quasi_dimension":
            return lambda: jm.slopes.quasi_dimension(p)
        if kind == "hilbert_series":
            return lambda: jm.hilbert.hilbert_series(p, prefix_len=n)
        return lambda: jm.resolution.depth_and_classify(p)

    def _cli(self, argv):
        def run():
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = self.jm.cli.run(argv)
            return code, out.getvalue()
        return run

    def _check_one(self, kind, name, n, r):
        if isinstance(r, Failure):
            return r.why
        if isinstance(r, TypedError):
            return f"typed error {r.name}"
        if kind == "cli":
            code, out = r
            return None if code == 0 and out == self.golden[name] else \
                "CLI output differs from the golden"
        shape = self.shapes[name]
        nvars, leads = len(shape["names"]), shape["lead_degrees"]
        if kind == "jet":
            want = sum(_series_coeffs(leads, nvars, n))
            return None if r.dim == want else f"jet dim {r.dim} != {want}"
        if kind == "quasi_dimension":
            value, cert = r
            want = nvars - len(leads)
            return None if value == want and cert["satisfied"] else \
                f"quasi_dimension {value} != {want}"
        if kind == "hilbert_series":
            want = _series_coeffs(leads, nvars, n)
            return None if r.series_prefix[:n] == want and r.dim == 2 else \
                "Hilbert series differs from (1 - t^d) / (1 - t)^3"
        if kind == "depth_and_classify":
            ok = (r.depth, r.dim, r.embdim, r.pd, r.regular, r.cohen_macaulay,
                  r.gorenstein) == (2, 2, 3, 1, False, True, True)
            return None if ok else "hypersurface classification differs"
        raise ValueError(kind)

    def check(self, results) -> list:
        reasons = []
        for label, (kind, name, n), r in zip(self.labels, self.expect, results):
            why = self._check_one(kind, name, n, r)
            if why is None and self.recorded and \
                    self.recorded.get(label) != digest(r):
                why = "result digest differs from the recorded one"
            reasons.append(why)
        return reasons

    def digests(self, results) -> dict:
        return {label: digest(r) for label, r in zip(self.labels, results)}


WORKLOADS = {w.name: w for w in (DistanceCorpus, BaseChangeLadder, JetGrowth)}
