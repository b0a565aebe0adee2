"""Record the jet-growth result digests of the default seed.

    python3 bench/record_digests.py

Run it only when the jet-growth items themselves change.  Every later
default-seed run of the benchmark compares each item's result digest with
the recorded one and counts a mismatch as a failed item.
"""

import json
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import corpus  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    os.chdir(BENCH.parent)
    jm = run.import_jetmetric()
    wl = workloads.JetGrowth()
    items = wl.setup(jm, corpus.DEFAULT_SEED)
    wl.recorded = {}
    results = [item.run() for item in items]
    bad = [(it.label, why) for it, why in zip(items, wl.check(results)) if why]
    if bad:
        print(f"not recording, checks fail: {bad}", file=sys.stderr)
        return 1
    workloads.DIGESTS.write_text(json.dumps(
        {"seed": corpus.DEFAULT_SEED, "digests": wl.digests(results)},
        indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(results)} digests in {workloads.DIGESTS.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
