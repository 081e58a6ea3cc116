"""Run the ten acceptance criteria on the fixed seeds 1-60.

    PYTHONPATH=src python scripts/accept_sweep.py [PATH]

Writes every failing (seed, criterion, details) and the number of failing
seeds per criterion as JSON with sorted keys to PATH (default
ACCEPT_SWEEP.json).  The seed list is fixed in advance and holds no wall
clock time, so a second run writes the same bytes.  About 2 min on two
cores.
"""

import json
import sys

from geoproj import acceptance

SEEDS = range(1, 61)


def main(path="ACCEPT_SWEEP.json"):
    failures = []
    counts = {str(row[0]): 0 for row in acceptance.CRITERIA}
    for seed in SEEDS:
        for res in acceptance.run_all(seed):
            if not res.passed:
                failures.append({"seed": seed, "criterion": res.cid,
                                 "details": res.details})
                counts[str(res.cid)] += 1
    report = {
        "schema": 1,
        "seeds": [SEEDS.start, SEEDS.stop - 1],
        "runs": len(SEEDS),
        "failing_runs": len({f["seed"] for f in failures}),
        "failures_per_criterion": counts,
        "failures": failures,
    }
    with open(path, "w") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")
    sys.stdout.write("%d of %d runs fail; per criterion: %s\n"
                     % (report["failing_runs"], report["runs"],
                        {k: v for k, v in counts.items() if v}))


if __name__ == "__main__":
    main(*sys.argv[1:])
