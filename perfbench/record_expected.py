"""Record the exact outputs that ``verify.py`` checks recorded seeds
against, into ``expected.json``.

Run from the repository root::

    PYTHONPATH=src python3 perfbench/record_expected.py

Seeds ``0 .. verify.RECORDED_SEEDS-1`` of every workload are recorded;
each pass must be healthy first (an unhealthy output is never recorded
as expected).  Later seeds stay held out and are health-checked only.
Re-record only when a change is meant to alter simulation outputs.
"""

from __future__ import annotations

import argparse
import json
import sys

import harnesses
import verify


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default=verify.EXPECTED_PATH)
    args = parser.parse_args(argv)
    expected = {}
    for workload in harnesses.WORKLOADS:
        expected[workload] = {}
        for seed in range(verify.RECORDED_SEEDS):
            summary = harnesses.run_untraced(workload, seed).summary
            problems = verify.health(workload, summary)
            if problems:
                print(f"{workload} seed {seed} unhealthy: {problems}",
                      file=sys.stderr)
                return 1
            expected[workload][str(seed)] = summary
            print(f"recorded {workload} seed {seed}", file=sys.stderr)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
