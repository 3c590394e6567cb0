"""Record the reference outputs that ``checks.py`` compares against.

    python3 perfbench/record_reference.py

Runs the first ``REFERENCE_BATCHES`` batches of every workload at the
default seed and stores the parsed result files in ``reference.json``.
Run it only on a commit whose outputs are known to be right; the file in
the repository was recorded from the package as first committed.
"""

from __future__ import annotations

import json
import sys

import checks
from run import DEFAULT_SEED, REFERENCE, WORK, Runner, import_cli
from workloads import WORKLOADS

REFERENCE_BATCHES = 3


def main() -> int:
    cli = import_cli()
    recorded = {}
    for name, workload in WORKLOADS.items():
        runner = Runner(cli, workload, DEFAULT_SEED, WORK / "reference" / name, [])
        ops = []
        for number in range(REFERENCE_BATCHES):
            for offset, result in enumerate(runner.batch(number)):
                spec = workload.op(number * len(workload.batch) + offset)
                ops.append(checks.parse_results(spec, result.files))
        if runner.failed:
            print("\n".join(runner.problems), file=sys.stderr)
            return 1
        recorded[name] = ops
        print(f"{name}: {len(ops)} ops recorded")
    with open(REFERENCE, "w") as fh:
        json.dump({"seed": DEFAULT_SEED, "workloads": recorded}, fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
