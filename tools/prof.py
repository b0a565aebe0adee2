"""Profile the set-up and one pass of a benchmark workload.

    python tools/prof.py WORKLOAD

Sets the workload up at the benchmark's seed through the harness in bench/
(imported, never changed) five times, and prints the median CPU time of the
package import and of the workload's own set-up (generating and parsing its
inputs), the two parts of the benchmark's setup_s.  Then it imports the
package once more, profiles one set-up under cProfile and prints the
functions under src/jetmetric with the most cumulative time in it
(:func:`profile_setup`).  Next it runs one warm-up pass and five unprofiled
passes, and prints their CPU times and the median.  Then it profiles one
more pass under cProfile and prints the functions under src/jetmetric with
the most cumulative time.  cProfile inflates small calls, so compare shares
within one profile, not seconds across profiles.  Last come the hits,
misses and size of each package memo, counted from the profiled set-up on:
every module-level callable with a ``cache_info`` in the loaded jetmetric
modules, found by looking (one frame per shape, one basis table per basis,
one jet per presentation and order, ln 2 per precision, the parser and the
rest), each printed as module._name under the module that defines it.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import re
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 20260814
SETUPS = 5
PASSES = 5
TOP = 30
SETUP_TOP = 15


def main(argv: list[str]) -> int:
    run, workloads = harness()
    if len(argv) != 1 or argv[0] not in workloads:
        print(f"usage: python tools/prof.py {{{','.join(sorted(workloads))}}}",
              file=sys.stderr)
        return 2
    jm, items = profile_setup(run, workloads, argv[0])

    def one_pass() -> float:
        """CPU seconds of the items of one pass, calibration left out."""
        timeline = run.Timeline()
        run.run_items(items, jm, [], timeline)
        return sum(timeline.raw())

    one_pass()                                  # warm-up
    times = [one_pass() for _ in range(PASSES)]
    print(f"{argv[0]}: {len(items)} items at seed {SEED}; unprofiled passes "
          + ", ".join(f"{t:.4f}" for t in times)
          + f" s CPU; median {statistics.median(times):.4f} s")
    prof = cProfile.Profile()
    profiled = prof.runcall(one_pass)
    print(f"profiled pass {profiled:.4f} s CPU")
    stats = pstats.Stats(prof, stream=sys.stdout)
    stats.sort_stats("cumulative").print_stats(re.escape(str(ROOT / "src" / "jetmetric")), TOP)
    print("memos from the set-up on (set-up, warm-up and every pass):")
    for name, memo in _memos():
        info = memo.cache_info()
        print(f"  {name}: {info.hits} hits, {info.misses} misses, "
              f"size {info.currsize} of {info.maxsize}")
    return 0


def harness():
    """The harness's run module and its WORKLOADS, imported from bench/ with
    the package's source first on the path."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    os.chdir(ROOT)          # the workloads name their inputs from the root
    import run
    from workloads import WORKLOADS
    return run, WORKLOADS


def profile_setup(run, workloads, name: str):
    """Print the median CPU of SETUPS set-ups of workload name, split into
    the package import and the workload's setup (inputs), then import the
    package again and print the package functions with the most cumulative
    time in one profiled setup; returns that package and its items."""
    imports, inputs = [], []
    for _ in range(SETUPS):
        t0 = time.process_time()
        jm = run.import_jetmetric()
        t1 = time.process_time()
        workloads[name]().setup(jm, SEED)
        imports.append(t1 - t0)
        inputs.append(time.process_time() - t1)
    print(f"{name}: set-up CPU over {SETUPS} set-ups: import median "
          f"{statistics.median(imports):.4f} s, inputs median "
          f"{statistics.median(inputs):.4f} s")
    jm = run.import_jetmetric()
    prof = cProfile.Profile()
    items = prof.runcall(workloads[name]().setup, jm, SEED)
    print("profiled set-up (inputs):")
    pstats.Stats(prof, stream=sys.stdout).sort_stats("cumulative").print_stats(
        re.escape(str(ROOT / "src" / "jetmetric")), SETUP_TOP)
    return jm, items


def _memos() -> list[tuple[str, object]]:
    """(module._name, memo) for every module-level callable with a
    cache_info in the loaded jetmetric modules, listed once, under the
    module that defines it (not under one that imports it)."""
    out = []
    for modname, module in list(sys.modules.items()):
        if not modname.startswith("jetmetric."):
            continue
        for attr, value in vars(module).items():
            if (callable(value) and hasattr(value, "cache_info")
                    and getattr(value, "__module__", None) == modname):
                out.append((f"{modname.removeprefix('jetmetric.')}.{attr}", value))
    return sorted(out, key=lambda t: t[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
