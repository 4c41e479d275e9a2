"""Record the golden results digests the benchmark checks against.

    python3 perfbench/golden.py

Runs one sweep per (workload, seed) for every workload and seeds 0-19,
and stores the SHA-256 of its canonical results document
(``render_results_document``) in ``golden.json``.  Re-record only when
a change is meant to alter the simulated results, and say so in that
change.
"""

import json
import os

from grids import GRIDS
from run import HERE, load_golden, sweep_once

#: Seed 0 is the default the benchmark was built with; the others were
#: never used while building it (held out).
SEEDS = tuple(range(20))


def main() -> None:
    path = os.path.join(HERE, "golden.json")
    golden = load_golden() if os.path.exists(path) else {}
    for seed in SEEDS:
        for workload in sorted(GRIDS):
            sample = sweep_once(workload, seed)
            if sample["failed"]:
                raise SystemExit(
                    f"{workload} seed {seed}: {sample['failed']} failed "
                    f"points; not recording")
            golden.setdefault(workload, {})[str(seed)] = sample["digest"]
            print(f"{workload} seed {seed}: {sample['digest']}", flush=True)
        # Written after every seed, so an interrupted run keeps its work.
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(golden, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
