"""Record the small-pipeline reference (OOD AUCs and final train accuracy)
for a range of workload seeds.

    python3 benchmarks/record_reference.py 0 64

The small-pipeline checks compare each run's figures with these values, so they
must come from the commit that defines the reference; re-record them only
when a change to the model's numerics is intended, and say so.
"""

from __future__ import annotations

import json
import sys

import run

run.import_library()

from harness import Session  # noqa: E402
from workloads import AUC_METHODS, REFERENCE_PATH, SmallPipeline  # noqa: E402


def main(first: int, stop: int) -> None:
    wl = SmallPipeline()
    table = {}
    for seed in range(first, stop):
        session = Session(lambda: wl.setup(seed), wl.setup_every)
        out = wl.round(session, session.run_setup(), 0)
        if session.failed:
            sys.exit(f"seed {seed}: {session.errors}")
        table[str(seed)] = {m: out["auc"][m][0] for m in AUC_METHODS}
        table[str(seed)]["accuracy"] = out["history"].epochs[-1][2]
        print(seed, table[str(seed)], flush=True)
    REFERENCE_PATH.write_text(json.dumps(table, indent=1) + "\n")


if __name__ == "__main__":
    main(int(sys.argv[1]), int(sys.argv[2]))
