"""jetmetric benchmark: one seeded, single-threaded closed loop per workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the package is imported from
its `src/`.  One client sends the next item only after the previous one
has returned.  Workloads (see BENCHMARK.json for why each was chosen):

  distance-corpus     jet_distance pairs of the criterion-01 triples
  base-change-ladder  criterion-13 members at F_2, F_4 and F_16
  jet-growth          fixed-shape elimination over Q and F_32003, plus the
                      golden CLI commands

With `--trace 0` the run makes as many whole passes over the workload's
items as fill `--seconds` at the workload's nominal pass time (at least
two) and reports the end-to-end metrics over all samples.  With
`--trace 1` it makes a warm-up pass and an untraced pass, then traces one
more set-up and one more pass over the same items and reports the
per-layer metrics of those two; the fixed item set keeps the counters
deterministic.  Every run checks every answer outside
the timed region; the last line of standard
output is one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Item and set-up times are CPU seconds of the single benchmark thread (on
an idle host they equal wall time; CPU time leaves out stretches in which
the hypervisor gave the virtual CPU to someone else), scaled to a
reference speed.  A shared host's speed swings by up to 1.7x for seconds
to minutes, so a short stdlib-only calibration loop is timed between items
and around set-ups, for about CALIB_SHARE of the time the timed work
takes, and each timed span is scaled by CALIB_REF_S over the mean loop
time within CALIB_WINDOW_S of it.  The loop calls nothing in jetmetric, so
a change to the package cannot move it.  Unscaled figures are kept in the
run record; per-layer times are unscaled wall times.

Spans, counters, wall times and the machine record go to `.bench_out/`.
"""

from __future__ import annotations

import argparse
import bisect
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_REPS = 3          # set-ups before timing; two more after each pass
# Two passes at least: pooled samples keep a run's tail percentile inside
# the cluster of slow items instead of at its edge.
MIN_PASSES = 2
CLOCK = time.process_time
CALIB_LOOPS = 3         # calibration loops per sample, at least
CALIB_SHARE = 0.05      # calibration time over timed time, roughly
CALIB_REF_S = 0.001     # scaled times are those of a host where a loop takes 1 ms
CALIB_WINDOW_S = 1.0    # samples this close to a span set its scale

MODULES = ["exactcore", "poly", "presentation", "artin", "iso", "metric",
           "hilbert", "slopes", "resolution", "cli"]

# Per-layer metrics of a traced run: name -> (unit, better, the end-to-end
# metric and workload the layer metric should move).  Absent layers read 0.
DC, BL, JG = "distance-corpus", "base-change-ladder", "jet-growth"
PER_LAYER = {
    "iso.decide_isomorphism.self_s": ("s", "lower", f"items_per_s, item_tail_ms on {DC}"),
    "artin.ArtinAlgebra.multiply.self_s": ("s", "lower", f"items_per_s, item_tail_ms on {DC}"),
    "artin.ArtinAlgebra.multiply.calls": ("count", "lower", f"items_per_s, item_tail_ms on {DC}"),
    "artin.ArtinAlgebra.evaluate.self_s": ("s", "lower", f"items_per_s, item_tail_ms on {DC}"),
    "iso.verify_witness.self_s": ("s", "lower", f"items_per_s, item_tail_ms on {DC}"),
    "iso.verdicts.ISO": ("count", "higher", f"decided_share, exact_share on {DC}"),
    "iso.verdicts.NOT_ISO": ("count", "higher", f"decided_share, exact_share on {DC}"),
    "iso.verdicts.UNKNOWN": ("count", "lower", f"decided_share, exact_share on {DC}"),
    "iso.unknown.candidates_tried": ("count", "lower", f"decided_share, exact_share on {DC}"),
    "iso.find_separator.self_s": ("s", "lower", f"item_p50_ms on {DC}"),
    "iso.invariant_signature.calls": ("count", "lower", f"item_p50_ms on {DC}"),
    "metric.order_1.decide_s": ("s", "lower", f"item_tail_ms on {DC}"),
    "metric.order_2.decide_s": ("s", "lower", f"item_tail_ms on {DC}"),
    "metric.order_3.decide_s": ("s", "lower", f"item_tail_ms on {DC}"),
    "resolution.betti_residue_field.self_s": ("s", "lower", f"items_per_s on {BL}"),
    "resolution.betti_residue_field.F_2.self_s": ("s", "lower", f"items_per_s on {BL}"),
    "resolution.betti_residue_field.F_4.self_s": ("s", "lower", f"items_per_s on {BL}"),
    "resolution.betti_residue_field.F_16.self_s": ("s", "lower", f"items_per_s on {BL}"),
    "iso.base_change.self_s": ("s", "lower", f"items_per_s on {BL}"),
    "exactcore.rref.calls": ("count", "lower", f"items_per_s on {JG}; item_p50_ms on {DC}"),
    "exactcore.rref.self_s": ("s", "lower", f"items_per_s on {JG}; item_p50_ms on {DC}"),
    "exactcore.rref.cells": ("count", "lower", f"items_per_s on {JG}; item_p50_ms on {DC}"),
    "exactcore.rank_gf2.self_s": ("s", "lower", f"items_per_s on {JG}; item_p50_ms on {DC}"),
    "poly.truncated_quotient.calls": ("count", "lower", f"items_per_s, peak_rss_mib on {JG}"),
    "poly.truncated_quotient.self_s": ("s", "lower", f"items_per_s, peak_rss_mib on {JG}"),
    "poly.graded_component_rank.self_s": ("s", "lower", f"items_per_s, peak_rss_mib on {JG}"),
    "artin.jet.calls": ("count", "lower", f"items_per_s, peak_rss_mib on {JG}"),
    "slopes.length_model.calls": ("count", "lower", f"items_per_s, peak_rss_mib on {JG}"),
    "hilbert.hilbert_series.self_s": ("s", "lower", f"items_per_s on {JG}"),
    "slopes.quasi_dimension.total_s": ("s", "lower", f"items_per_s on {JG}"),
    "resolution.depth_and_classify.total_s": ("s", "lower", f"items_per_s on {JG}"),
    "presentation.parse_presentation.self_s": ("s", "lower", "setup_s on every workload"),
    "presentation.Presentation.base_field.calls": ("count", "lower", "setup_s on every workload"),
    "presentation.Presentation.base_field.self_s": ("s", "lower", "setup_s on every workload"),
    "cli.run.self_s": ("s", "lower", f"item_p50_ms on {JG}"),
    **{f"{m}.self_s": ("s", "lower", "where each workload's item time goes")
       for m in MODULES},
    "trace.overhead": ("ratio", "lower", "none; traced over untraced pass time"),
}


def machine() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.exists():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.exists() else ref
        commit = ref
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "commit": commit}


def calibration_loop() -> int:
    """Fixed stdlib work of the kinds jetmetric does: Fraction arithmetic,
    a tuple-keyed dict, a sort."""
    d = {}
    x = Fraction(1, 3)
    for i in range(1, 120):
        x = x * Fraction(i + 1, i + 2) + Fraction(1, i)
        d[(i % 7, i % 5, i)] = (x.numerator * 12345 + i) % 32003
    return sum(sorted(d.values())) + len(d)


class Timeline:
    """Timed spans of one stretch of a run and the calibration samples
    taken between them, all on CLOCK."""

    def __init__(self):
        self.calib: list[tuple[float, int, float]] = []   # (start, loops, s)
        self.spans: list[tuple[float, float]] = []        # (start, s)

    def calibrate(self, after: float = 0.0):
        """One calibration sample, sized to CALIB_SHARE of `after`, the
        time of the span just timed."""
        loops = max(CALIB_LOOPS, round(CALIB_SHARE * after / CALIB_REF_S))
        t0 = CLOCK()
        for _ in range(loops):
            calibration_loop()
        self.calib.append((t0, loops, CLOCK() - t0))

    def raw(self) -> list[float]:
        return [s for _, s in self.spans]

    def scaled(self) -> list[float]:
        """Each span scaled by CALIB_REF_S over the mean loop time of the
        samples within CALIB_WINDOW_S of it."""
        at = [t for t, _, _ in self.calib]
        out = []
        for start, s in self.spans:
            lo = bisect.bisect_left(at, start - CALIB_WINDOW_S)
            hi = bisect.bisect_right(at, start + s + CALIB_WINDOW_S)
            near = self.calib[lo:hi]
            loop_s = sum(c for _, _, c in near) / sum(n for _, n, _ in near)
            out.append(s * CALIB_REF_S / loop_s)
        return out


def import_jetmetric():
    """Import (or re-import) every jetmetric module; returns a namespace
    with one attribute per module."""
    for name in [n for n in sys.modules if n.split(".")[0] == "jetmetric"]:
        del sys.modules[name]
    ns = SimpleNamespace()
    importlib.import_module("jetmetric")
    for m in MODULES + ["errors"]:
        setattr(ns, m, importlib.import_module(f"jetmetric.{m}"))
    return ns


def run_items(items, jm, results, timeline, tracer=None):
    """One pass; appends each result (or TypedError / failure marker) and
    its span, with a calibration sample before and after each item."""
    from workloads import Failure, TypedError
    clock = CLOCK
    timeline.calibrate()
    for k, item in enumerate(items):
        t0 = clock()
        try:
            if tracer is None:
                r = item.run()
            else:
                with tracer.root("bench.item", k):
                    r = item.run()
        except jm.errors.JetMetricError as e:
            r = TypedError(type(e).__name__, str(e))
        except Exception as e:            # counted as a failed item
            r = Failure(f"{type(e).__name__}: {e}")
        timeline.spans.append((t0, clock() - t0))
        timeline.calibrate(timeline.spans[-1][1])
        results.append(r)


def check_passes(wl, passes) -> list:
    """Failure reason (or None) per item of every pass: the workload's own
    checks on the first pass, equality with the first pass afterwards."""
    from workloads import Failure, digest
    first = passes[0]
    reasons = [r.why if isinstance(r, Failure) else why
               for r, why in zip(first, wl.check(first))]
    out = list(reasons)
    base = [digest(r) for r in first]
    for later in passes[1:]:
        for r, d, why in zip(later, base, reasons):
            if isinstance(r, Failure):
                out.append(r.why)
            elif why is None and digest(r) != d:
                out.append("result differs from the first pass")
            else:
                out.append(why)
    return out


def npasses(wl, seconds: float) -> int:
    """Passes that fill `seconds` at the workload's nominal pass time.  The
    count depends on `seconds` only, never on measured speed, so every run
    of one length times the same work and pools the same number of samples
    (a percentile over a varying sample count would jump between items)."""
    return max(MIN_PASSES, round(seconds / wl.PASS_S))


def tail(sorted_ms: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) for the highest percentile with at
    least ten samples beyond it."""
    n = len(sorted_ms)
    k = max(n - 11, 0)
    return sorted_ms[k], 100.0 * (k + 1) / n, n - 1 - k


def timing(times) -> dict:
    ms = sorted(1000 * t for t in times)
    tail_ms, tail_pct, beyond = tail(ms)
    return {"items_per_s": len(ms) / sum(times), "item_p50_ms":
            statistics.median(ms), "item_tail_ms": tail_ms,
            "tail_percentile": tail_pct, "tail_samples_beyond": beyond}


def end_to_end(wl, passes, timeline, setups, record) -> dict:
    times = timeline.scaled()
    t = timing(times)
    tail_pct, beyond = t["tail_percentile"], t["tail_samples_beyond"]
    if hasattr(wl, "shares"):
        decided, exact = wl.shares(passes[0])
    else:   # shares are measured on distance-corpus; 1 elsewhere
        decided = exact = Fraction(1)
    setup_s = statistics.median(setups.scaled())
    record.update(samples=len(times), decided=str(decided), exact=str(exact),
                  scaled=t, unscaled=dict(timing(timeline.raw()),
                      setup_s=statistics.median(setups.raw())),
                  item_s=[round(x, 6) for x in times])
    print(f"tail percentile {tail_pct:.2f} with {beyond} of {len(times)} "
          f"samples beyond; decided {decided}; exact {exact}")
    return {
        "items_per_s": (t["items_per_s"], "1/s"),
        "item_p50_ms": (t["item_p50_ms"], "ms"),
        "item_tail_ms": (t["item_tail_ms"], "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "decided_share": (float(decided), "share"),
        "exact_share": (float(exact), "share"),
    }


def per_layer(tracer, traced, plain, stem, record) -> dict:
    counts, walls = tracer.summary()
    walls["trace.overhead"] = sum(traced.scaled()) / sum(plain.scaled())
    (stem.parent / f"{stem.name}.counters.json").write_text(
        json.dumps(counts, indent=1, sort_keys=True) + "\n")
    tracer.write_spans(stem.parent / f"{stem.name}.spans.csv")
    record["wall_times_s"] = walls
    return {name: (counts.get(name, walls.get(name, 0)), unit)
            for name, (unit, _, _) in PER_LAYER.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "jetmetric" / "__init__.py").exists():
        print(f"bench: no jetmetric package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    os.chdir(ROOT)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine(), "loadavg_before": os.getloadavg()}

    # set-up: import plus generating and parsing the inputs.  It is timed
    # several times, spread over the run, so that one slow stretch of the
    # machine does not set the median; later set-ups are only timed.
    setups = Timeline()

    def set_up():
        setups.calibrate()
        t0 = CLOCK()
        jm = import_jetmetric()
        wl = WORKLOADS[args.workload]()
        items = wl.setup(jm, args.seed)
        setups.spans.append((t0, CLOCK() - t0))
        setups.calibrate(setups.spans[-1][1])
        return jm, wl, items

    for _ in range(SETUP_REPS):
        jm, wl, items = set_up()

    passes, timeline = [], Timeline()
    if args.trace == 0:
        for _ in range(npasses(wl, args.seconds)):
            passes.append([])
            run_items(items, jm, passes[-1], timeline)
            set_up()
            set_up()
    else:
        from tracer import Tracer
        plain = Timeline()
        run_items(items, jm, [], Timeline())  # warm-up, not reported
        run_items(items, jm, [], plain)
        tracer = Tracer()
        tracer.install()
        try:
            with tracer.root("bench.setup"):
                WORKLOADS[args.workload]().setup(jm, args.seed)
            passes.append([])
            run_items(items, jm, passes[-1], timeline, tracer)
        finally:
            tracer.uninstall()

    record["setup_runs_s"] = setups.raw()
    reasons = check_passes(wl, passes)
    attempted = len(reasons)
    failed = sum(r is not None for r in reasons)
    record.update(loadavg_after=os.getloadavg(), passes=len(passes),
                  failures=sorted({r for r in reasons if r is not None}))

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}.trace{args.trace}"
    if args.trace == 0:
        metrics = end_to_end(wl, passes, timeline, setups, record)
    else:
        metrics = per_layer(tracer, timeline, plain, stem, record)
    record["metrics"] = {k: v for k, (v, _) in metrics.items()}
    (stem.parent / f"{stem.name}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")

    m = record["machine"]
    print(f"machine: nproc {m['nproc']}, {m['cpu']}, python {m['python']}, "
          f"commit {m['commit']}; load {record['loadavg_before'][0]:.2f} -> "
          f"{record['loadavg_after'][0]:.2f}")
    for why in record["failures"]:
        print(f"FAILED: {why}")
    print(f"failed_share {failed / attempted:.6f} share ({failed}/{attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
