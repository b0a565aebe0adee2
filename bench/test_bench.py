"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest bench -q

They pin the seeded corpora to the acceptance criteria they reproduce,
show that traced counters repeat exactly, and show that the benchmark
refuses to report without the package source.
"""

import itertools
import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import corpus  # noqa: E402
import run  # noqa: E402
from jetmetric.artin import hf_by_degree_count, jet, socle  # noqa: E402
from jetmetric.iso import SearchBudget  # noqa: E402
from jetmetric.metric import jet_distance  # noqa: E402
from jetmetric.presentation import parse_presentation  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import DistanceCorpus  # noqa: E402

SEED = corpus.DEFAULT_SEED


def test_distance_corpus_reproduces_criterion_01():
    statuses = {"ISO": 0, "NOT_ISO": 0, "UNKNOWN": 0}
    inexact = 0
    budget = SearchBudget(ext_degree_max=1, effort=4000)
    for texts in corpus.distance_triples(SEED):
        ps = [parse_presentation(t) for t in texts]
        for i, j in ((0, 1), (0, 2), (1, 2)):
            v = jet_distance(ps[i], ps[j], 3, budget=budget)
            for _, s in v.per_order:
                statuses[s.status] += 1
            inexact += not v.exact
    assert statuses == {"ISO": 1008, "NOT_ISO": 439, "UNKNOWN": 24}
    assert inexact == 166


def test_distance_seed_renames_each_triple_by_one_permutation():
    base = corpus.distance_triples(SEED)
    other = corpus.distance_triples(SEED + 1)
    assert other != base
    for tri, renamed in zip(base, other):
        names = tri[0][tri[0].index("[") + 1:tri[0].index("]")].split(", ")
        assert any([corpus._rename(t, dict(zip(names, perm))) for t in tri]
                   == renamed for perm in itertools.permutations(names))


def test_jet_growth_seed_redraws_only_coefficients():
    def support(shapes):
        return {key: [re.sub(r"-?\d\*", "", g).replace(" - ", " + ")
                      for g in shape["gens"]]
                for key, shape in shapes.items()}

    base = corpus.jet_growth_inputs(SEED, 2)
    other = corpus.jet_growth_inputs(SEED + 1, 2)
    assert other != base
    assert support(other) == support(base)


def test_timeline_scales_by_nearby_calibration():
    line = run.Timeline()
    line.calib = [(0.0, 2, 0.004), (10.0, 4, 0.002)]
    line.spans = [(0.5, 0.1), (10.2, 0.1)]
    ref = run.CALIB_REF_S
    assert line.scaled() == [0.1 * ref / 0.002, 0.1 * ref / 0.0005]
    assert line.raw() == [0.1, 0.1]


def test_ladder_reproduces_criterion_13():
    # the criterion's own rule: the first 20 candidates with a nonzero jet
    rng = random.Random(SEED + 2)
    want = []
    while len(want) < 20:
        nvars = 2 if len(want) % 3 else 3
        text = corpus.random_presentation_text(rng, "F_2", nvars, "graded",
                                               max_deg=3)
        if not jet(parse_presentation(text), 4).is_zero_ring():
            want.append(text)
    got = corpus.ladder_members(
        SEED + 2, lambda t: jet(parse_presentation(t), 4).dim)
    assert got == want


def test_permuted_ladder_members_keep_their_invariants():
    rng = random.Random(1)
    for text in corpus.ladder_members(
            SEED + 2, lambda t: jet(parse_presentation(t), 4).dim)[:6]:
        other = corpus.permute_variables(text, rng)
        A, B = (jet(parse_presentation(t), 4) for t in (text, other))
        assert hf_by_degree_count(A) == hf_by_degree_count(B)
        assert socle(A)[0] == socle(B)[0]


def _traced_counters(seed: int, ntriples: int) -> dict:
    items = DistanceCorpus().setup(run.import_jetmetric(), seed)[:3 * ntriples]
    tracer = Tracer()
    tracer.install()
    try:
        for k, item in enumerate(items):
            with tracer.root("bench.item", k):
                item.run()
    finally:
        tracer.uninstall()
    counts, _ = tracer.summary()
    return counts


def test_traced_counters_repeat_exactly():
    first = _traced_counters(SEED, 40)
    assert first == _traced_counters(SEED, 40)
    assert first["iso.decide_isomorphism.calls"] > 0
    assert first["exactcore.rref.calls"] > 0
    assert first["artin.ArtinAlgebra.multiply.calls"] > 0


def test_tracer_restores_the_package():
    import jetmetric.metric as metric

    before = metric.jet, metric.decide_isomorphism
    tracer = Tracer()
    tracer.install()
    assert metric.jet is not before[0]
    tracer.uninstall()
    assert (metric.jet, metric.decide_isomorphism) == before


def _run(args, cwd):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_traced_runs_repeat_counters_and_report_every_layer():
    args = ["--workload", "jet-growth", "--seed", str(SEED), "--seconds",
            "1", "--trace", "1"]
    counters = ROOT / ".bench_out" / "jet-growth.trace1.counters.json"
    seen = []
    for _ in range(2):
        proc = _run(args, ROOT)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        seen.append(counters.read_text())
    assert seen[0] == seen[1]
    layers = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in layers}


def test_refuses_without_package_source():
    bare = ROOT / ".bench_out" / "no-source"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run(["--workload", "jet-growth", "--seed", "1",
                     "--seconds", "1", "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
