"""Profile one pass of a benchmark workload.

    python tools/prof.py WORKLOAD

Sets the workload up at the benchmark's seed through the harness in bench/
(imported, never changed), runs one warm-up pass and five unprofiled passes,
and prints their CPU times and the median.  Then it profiles one more pass
under cProfile and prints the functions under src/jetmetric with the most
cumulative time.  cProfile inflates small calls, so compare shares within
one profile, not seconds across profiles.  Last come the hits, misses and
size of each package memo, counted from the set-up on: one frame per
shape, the monomials of each degree, one basis table per basis, one jet
per presentation and order, and the colengths of deformation pairs.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 20260814
PASSES = 5
TOP = 30


def main(argv: list[str]) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    os.chdir(ROOT)          # the workloads name their inputs from the root
    import run
    from workloads import WORKLOADS
    if len(argv) != 1 or argv[0] not in WORKLOADS:
        print(f"usage: python tools/prof.py {{{','.join(sorted(WORKLOADS))}}}",
              file=sys.stderr)
        return 2
    jm = run.import_jetmetric()
    items = WORKLOADS[argv[0]]().setup(jm, SEED)

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
    for name, memo in (("poly._frame", jm.poly._frame),
                       ("poly.monomials_of_degree", jm.poly.monomials_of_degree),
                       ("artin._basis_table", jm.artin._basis_table),
                       ("artin._jet", jm.artin._jet),
                       ("artin._colength", jm.artin._colength)):
        info = memo.cache_info()
        print(f"  {name}: {info.hits} hits, {info.misses} misses, "
              f"size {info.currsize} of {info.maxsize}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
