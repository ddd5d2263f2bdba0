"""Regenerate bench/pins.json from the current source tree.

    python3 bench/make_pins.py

Pins, for each workload, the per-cell error counts of its sweep at the
default seed and at seeds 0..20. The benchmark requires them to match
exactly: decisions are meant to stay bit-identical across refactors and
speed-ups. Rerun it only when a change is meant to alter decisions, and say
so.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from common import DEFAULT_SEED, PINS_PATH, SRC, WORK_PARENT, WORKLOADS, cell_key, sweep_at_seed

PINNED_SEEDS = (DEFAULT_SEED, *range(21))


def main() -> None:
    sys.path.insert(0, str(SRC))
    WORK_PARENT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_PARENT) as tmp:
        pins = {
            workload: {
                str(seed): {
                    cell_key(c): c["error_count"]
                    for c in sweep_at_seed(workload, seed, Path(tmp) / f"{workload}-{seed}")
                }
                for seed in PINNED_SEEDS
            }
            for workload in WORKLOADS
        }
    PINS_PATH.write_text(json.dumps(pins, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {PINS_PATH}")


if __name__ == "__main__":
    main()
