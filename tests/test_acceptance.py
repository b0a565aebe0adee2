"""End-to-end acceptance gate.

Each test below checks one numbered claim about the package as a whole and
prints a single PASS/FAIL line so the run log doubles as a checklist.  The
random corpora are seeded, so every run sees the same examples.
"""

import random
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

from jetmetric.artin import hf_by_degree_count, jet, socle
from jetmetric.hilbert import euler_characteristic, hilbert_series, poly_eval
from jetmetric.iso import (
    SearchBudget,
    base_change,
    decide_isomorphism,
    invariant_signature,
    verify_witness,
)
from jetmetric.metric import jet_distance, limit_jets
from jetmetric.poly import graded_component_rank
from jetmetric.presentation import FamilyTemplate, parse_presentation
from jetmetric.resolution import (
    betti_residue_field,
    depth_and_classify,
    minimal_resolution_of_quotient,
)
from jetmetric.slopes import (
    delta0_at_order,
    eps0,
    eps0_at_order,
    length_model,
    rho,
)

import conftest
from conftest import random_presentation

SEED = 20260814
GOLDEN_VERDICTS = Path(__file__).resolve().parents[1] / "docs" / "golden" / "criterion01_verdicts.txt"
TRIPLE_BUDGET = SearchBudget(ext_degree_max=1, effort=4000)
LIMIT_BUDGET = SearchBudget(ext_degree_max=1, effort=100_000)


def _report(num, ok, text):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {text}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)


# ---------------------------------------------------------------------------
# shared corpora, built once per run

_CACHE = {}


def _triples():
    """200 random triples with all pairwise distance verdicts at orders <= 3."""
    if "triples" not in _CACHE:
        rng = random.Random(SEED)
        out = []
        for _ in range(200):
            field = rng.choice(["Q", "F_2", "F_3"])
            nvars = rng.randint(1, 3)
            mode = rng.choice(["graded", "local"])
            ps = [random_presentation(rng, field, nvars, mode) for _ in range(3)]
            pairs = {}
            for i, j in ((0, 1), (0, 2), (1, 2)):
                pairs[(i, j)] = jet_distance(ps[i], ps[j], 3,
                                             budget=TRIPLE_BUDGET)
            out.append((ps, pairs))
        _CACHE["triples"] = out
    return _CACHE["triples"]


def _graded_corpus():
    """30 graded presentations: 1-2 variables over Q/F_2/F_3, plus a few
    3-variable members over F_2 where exact linear algebra stays cheap."""
    if "graded" not in _CACHE:
        rng = random.Random(SEED + 1)
        corpus = []
        for _ in range(24):
            field = rng.choice(["Q", "F_2", "F_3"])
            corpus.append(random_presentation(rng, field, rng.randint(1, 2),
                                              "graded"))
        for _ in range(6):
            corpus.append(random_presentation(rng, "F_2", 3, "graded"))
        _CACHE["graded"] = corpus
    return _CACHE["graded"]


def _limit_runs():
    """Order-n limits of the family y^2 - x^w, with the explicit comparison
    of the limit jet against the jet of y^2."""
    if "limits" not in _CACHE:
        tpl = FamilyTemplate("ring Q[x, y]\nlocal\nideal: y^2 - x^w", 1, 10)
        target_pres = parse_presentation("ring Q[x, y]\nlocal\nideal: y^2")
        runs = []
        for order in (3, 4, 5):
            last, w0 = limit_jets(tpl, order, budget=LIMIT_BUDGET)
            target = jet(target_pres, order)
            verdict = decide_isomorphism(last, target, LIMIT_BUDGET)
            runs.append((order, last, w0, target, verdict))
        _CACHE["limits"] = runs
    return _CACHE["limits"]


# ---------------------------------------------------------------------------


def test_criterion_01_ultrametric_on_random_triples():
    ok = False
    try:
        violations = 0
        statuses = {"ISO": 0, "NOT_ISO": 0, "UNKNOWN": 0}
        for ps, pairs in _triples():
            for _, v in pairs.items():
                for _, s in v.per_order:
                    statuses[s.status] += 1
            for i, j, k in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
                vij = pairs[(min(i, j), max(i, j))]
                vik = pairs[(min(i, k), max(i, k))]
                vjk = pairs[(min(j, k), max(j, k))]
                if vij.lower > max(vik.upper, vjk.upper):
                    violations += 1
        assert violations == 0
        # the corpus genuinely exercises both certificate kinds
        assert statuses["ISO"] > 100 and statuses["NOT_ISO"] > 100
        ok = True
    finally:
        _report(1, ok, "ultrametric inequality holds on 200 random triples "
                       "(certified bounds, zero violations)")


def _verdict_line(t, ps, i, j, v):
    """One readable line for the pair (ps[i], ps[j]) of the triple corpus:
    the interval, then per order the status, witness images, separator and
    search bounds.  Each witness image is printed with one coordinate per
    basis monomial of the target jet, zeros included."""
    parts = [f"t{t:03d} {i}-{j} [{v.lower}, {v.upper}] exact={v.exact}"]
    for n, s in v.per_order:
        item = f"n{n} {s.status}"
        if s.witness is not None:
            dim = jet(ps[j], n).dim

            def coordinates(img):
                out = ["0"] * dim
                for k, c in img:
                    out[k] = str(c)
                return out

            imgs = " ".join("(" + ",".join(coordinates(img)) + ")"
                            for img in s.witness.images)
            item += f" ext={s.witness.ext_multiple} w={imgs}"
        if s.separator is not None:
            item += f" sep={s.separator!r}"
        if s.search_bounds is not None:
            item += " bounds=" + ",".join(f"{k}={s.search_bounds[k]}"
                                          for k in sorted(s.search_bounds))
        parts.append(item)
    return " | ".join(parts)


def criterion01_verdict_lines():
    """The lines of docs/golden/criterion01_verdicts.txt; rewrite that file
    from a trusted commit with
    PYTHONPATH=src:tests python -c "import test_acceptance as t;
    print('\\n'.join(t.criterion01_verdict_lines()))" > docs/golden/criterion01_verdicts.txt
    """
    return [_verdict_line(t, ps, i, j, v)
            for t, (ps, pairs) in enumerate(_triples())
            for (i, j), v in sorted(pairs.items())]


def test_criterion_01_verdicts_match_the_recorded_file():
    ok = False
    try:
        want = GOLDEN_VERDICTS.read_text().splitlines()
        got = criterion01_verdict_lines()
        assert len(got) == len(want) == 600
        for g, w in zip(got, want):
            assert g == w
        ok = True
    finally:
        _report(1, ok, "every pair's per-order status, witness, separator and "
                       "search bounds match docs/golden/criterion01_verdicts.txt")


def test_criterion_02_close_algebras_share_embedding_dimension():
    ok = False
    try:
        checked = 0
        for ps, pairs in _triples():
            for (i, j), v in pairs.items():
                if v.upper < Fraction(1, 2):
                    hi = hf_by_degree_count(jet(ps[i], 2))
                    hj = hf_by_degree_count(jet(ps[j], 2))
                    ei = hi[1] if len(hi) > 1 else 0
                    ej = hj[1] if len(hj) > 1 else 0
                    assert ei == ej, (i, j, ei, ej)
                    checked += 1
        assert checked > 50
        ok = True
    finally:
        _report(2, ok, "every pair at distance < 1/2 has matching embedding "
                       "dimension across the triple corpus")


def test_criterion_03_two_exact_distances():
    ok = False
    try:
        a = parse_presentation("ring Q[x]\ngraded\nideal: x^2")
        b = parse_presentation("ring Q[x]\ngraded\nideal: x^3")
        v = jet_distance(a, b, 6, budget=LIMIT_BUDGET)
        assert v.exact and v.lower == v.upper == Fraction(1, 4)
        line = parse_presentation("ring Q[x]\ngraded\nideal: ;")
        plane = parse_presentation("ring Q[x, y]\ngraded\nideal: ;")
        w = jet_distance(line, plane, 5, budget=LIMIT_BUDGET)
        assert w.exact and w.lower == w.upper == Fraction(1, 2)
        ok = True
    finally:
        _report(3, ok, "d(k[x]/x^2, k[x]/x^3) = 1/4 and d(k[x], k[x,y]) = 1/2, "
                       "both with exact certificates")


def test_criterion_04_polynomial_matches_brute_force_counts():
    ok = False
    try:
        for p in _graded_corpus():
            hd = hilbert_series(p, prefix_len=41)
            threshold = len(hd.numerator) - 1 - hd.pole_order
            fld = p.base_field()
            for n in range(max(threshold + 1, 0), 41):
                brute = graded_component_rank(fld, p.nvars, p.gens, n)[1]
                if hd.degreewise is None:
                    assert brute == 0, (p.vars, n, brute)
                else:
                    assert poly_eval(hd.degreewise, n) == brute, (p.vars, n)
        ok = True
    finally:
        _report(4, ok, "degreewise dimension polynomial reproduces brute-force "
                       "graded ranks on (deg Q - d, 40] for 30 presentations")


def test_criterion_05_plane_curve_euler_characteristics():
    ok = False
    try:
        expected = {3: (0, 1), 4: (-2, 3), 5: (-5, 6)}
        for d, (chi_want, genus_want) in expected.items():
            p = parse_presentation(
                f"ring Q[x, y, z]\ngraded\nideal: x^{d} + y^{d} + z^{d}")
            chi, genus = euler_characteristic(p)
            assert chi == chi_want
            assert genus == genus_want == (d - 1) * (d - 2) // 2
        ok = True
    finally:
        _report(5, ok, "plane curves of degree 3, 4, 5 give chi = 0, -2, -5 "
                       "and genus 1, 3, 6 = (d-1)(d-2)/2")


def test_criterion_06_jet_lengths_are_series_partial_sums():
    ok = False
    try:
        for p in _graded_corpus():
            hd = hilbert_series(p, prefix_len=12)
            for n in range(1, 11):
                A = jet(p, n, capacity=3000)
                assert A.dim == sum(hd.series_prefix[:n]), (p.vars, n)
        ok = True
    finally:
        _report(6, ok, "jet length equals the partial sum of the graded series "
                       "for n <= 10 across the graded corpus")


def test_criterion_07_defect_suprema_of_free_rings():
    ok = False
    try:
        kx = parse_presentation("ring Q[x]\ngraded\nideal: ;")
        kxy = parse_presentation("ring Q[x, y]\ngraded\nideal: ;")
        kxyz = parse_presentation("ring Q[x, y, z]\ngraded\nideal: ;")
        r1, r2, r3 = rho(kx), rho(kxy), rho(kxyz)
        assert r1.value == 0 and r1.attained
        assert r2.value == 1 and r2.argmax_n == 1
        assert r3.value == 5 and r3.argmax_n == 1 and r3.tail_limit == 3
        ok = True
    finally:
        _report(7, ok, "normalized length defects: sup 0, 1, 5 for 1, 2, 3 "
                       "free variables, all exact")


def test_criterion_08_log_rounding_sweeps():
    ok = False
    try:
        plane = length_model(parse_presentation("ring Q[x, y]\ngraded\nideal: ;"))
        space = length_model(parse_presentation("ring Q[x, y, z]\ngraded\nideal: ;"))
        failures = []
        for n in range(10, 61, 2):
            if delta0_at_order(plane, n).rounded() != 2:
                failures.append(("plane", n))
        for n in range(50, 121, 2):
            if delta0_at_order(space, n).rounded() != 3:
                failures.append(("space", n))
        assert failures == []
        ok = True
    finally:
        _report(8, ok, "rounded half-order length ratio recovers the dimension "
                       "for even orders in [10,60] (2 vars) and [50,120] (3 vars)")


def test_criterion_09_square_order_slopes():
    ok = False
    try:
        plane = length_model(parse_presentation("ring Q[x, y]\ngraded\nideal: ;"))
        val = eps0_at_order(plane, 10**4)
        assert val == Fraction(10201, 20002)
        assert abs(val - Fraction(1, 2)) <= Fraction(1, 20)
        kx = parse_presentation("ring Q[x]\ngraded\nideal: ;")
        for n in range(2, 13):
            assert eps0(jet(kx, n * n)) == 1
        ok = True
    finally:
        _report(9, ok, "square-order slope sits within 1/20 of 1/2 on the plane "
                       "at order 10^4 and equals 1 on the line at orders n^2")


def test_criterion_10_residue_field_betti_numbers():
    ok = False
    try:
        double = parse_presentation("ring Q[x]\ngraded\nideal: x^2")
        r = betti_residue_field(double, 10)
        assert [r.rank(i) for i in range(11)] == [1] * 11
        fat = parse_presentation("ring Q[x, y]\ngraded\nideal: x^2, x*y, y^2")
        r2 = betti_residue_field(fat, 8)
        assert [r2.rank(i) for i in range(9)] == [2 ** i for i in range(9)]
        free = parse_presentation("ring Q[x, y]\ngraded\nideal: ;")
        r3 = betti_residue_field(free, 4)
        assert r3.complete and r3.pd == 2
        assert [r3.rank(i) for i in range(3)] == [1, 2, 1]
        ok = True
    finally:
        _report(10, ok, "residue-field Betti numbers: 1,1,1,... over k[x]/x^2; "
                        "2^i over the fat point; 1,2,1 over k[x,y]")


def test_criterion_11_depth_classification_and_accounting():
    ok = False
    try:
        cone = depth_and_classify(
            parse_presentation("ring Q[x, y, z]\ngraded\nideal: x^4 + y^4 + z^4"))
        assert cone.cohen_macaulay and cone.gorenstein and not cone.regular
        axes = depth_and_classify(
            parse_presentation("ring Q[x, y]\ngraded\nideal: x^2, x*y"))
        assert (axes.depth, axes.dim, axes.cohen_macaulay) == (0, 1, False)
        for p in _graded_corpus():
            c = depth_and_classify(p)
            assert c.depth + c.pd == p.nvars, (p.vars, c)
            assert 0 <= c.depth <= c.dim <= p.nvars
        ok = True
    finally:
        _report(11, ok, "quartic cone is CM Gorenstein non-regular; (x^2, xy) "
                        "has depth 0 < dim 1; depth + pd = #vars corpus-wide")


def test_criterion_12_family_limits_stabilize_at_the_order():
    ok = False
    try:
        for order, last, w0, target, verdict in _limit_runs():
            assert w0 == order, (order, w0)
            assert verdict.status == "ISO"
            assert verify_witness(last, target, verdict.witness)
        ok = True
    finally:
        _report(12, ok, "y^2 - x^w settles at w0 = n to the jets of y^2 for "
                        "n = 3, 4, 5, certified by verified witnesses")


def test_criterion_13_invariants_survive_base_change():
    ok = False
    try:
        rng = random.Random(SEED + 2)
        members = 0
        while members < 20:
            nvars = 2 if members % 3 else 3
            p = random_presentation(rng, "F_2", nvars, "graded", max_deg=3)
            A = jet(p, 4)
            if A.is_zero_ring():
                continue
            members += 1
            ladder = [A, base_change(A, 2), base_change(A, 4)]
            hfs = [hf_by_degree_count(B) for B in ladder]
            socles = [socle(B)[0] for B in ladder]
            resolutions = [betti_residue_field(B, 4) for B in ladder]
            bettis = [[res.rank(i) for i in range(5)] for res in resolutions]
            assert hfs[0] == hfs[1] == hfs[2], p.vars
            assert socles[0] == socles[1] == socles[2], p.vars
            assert bettis[0] == bettis[1] == bettis[2], p.vars
        ok = True
    finally:
        _report(13, ok, "Hilbert function, socle dimension and Betti prefixes "
                        "are unchanged along F_2 -> F_4 -> F_16 on 20 members")


def test_criterion_14_every_emitted_certificate_re_verifies():
    ok = False
    try:
        iso_checked = not_checked = 0
        for ps, pairs in _triples():
            for (i, j), v in pairs.items():
                for n, s in v.per_order:
                    if s.status == "ISO":
                        A, B = jet(ps[i], n), jet(ps[j], n)
                        assert verify_witness(A, B, s.witness), (i, j, n)
                        iso_checked += 1
                    elif s.status == "NOT_ISO":
                        A, B = jet(ps[i], n), jet(ps[j], n)
                        name, va, vb = s.separator
                        sa = getattr(invariant_signature(A), name)
                        sb = getattr(invariant_signature(B), name)
                        assert sa == va and sb == vb and va != vb, (i, j, n)
                        not_checked += 1
        for order, last, w0, target, verdict in _limit_runs():
            assert verify_witness(last, target, verdict.witness)
            iso_checked += 1
        assert iso_checked > 100 and not_checked > 100
        ok = True
    finally:
        _report(14, ok, "100% of ISO witnesses re-verify and 100% of NOT_ISO "
                        "separators re-evaluate to distinct values")


def test_criterion_15_reports_are_byte_deterministic():
    ok = False
    try:
        import test_cli
        for name, argv in sorted(test_cli.GOLDEN_COMMANDS.items()):
            import os
            cwd = os.getcwd()
            os.chdir(test_cli.ROOT)
            try:
                code1, out1, _ = test_cli._capture(argv)
                code2, out2, _ = test_cli._capture(argv)
            finally:
                os.chdir(cwd)
            assert code1 == code2 == 0, name
            assert out1 == out2, name
            assert out1 == (test_cli.GOLDEN / name).read_text(), name
        ok = True
    finally:
        _report(15, ok, "all nine CLI subcommands emit byte-identical JSON "
                        "across repeated runs, matching the committed goldens")
