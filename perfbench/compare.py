"""Compare two sets of benchmark results, or summarise one.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl
    python3 perfbench/compare.py RESULTS.jsonl

Inputs are the JSON-lines files ``run.py`` appends to (``--results``).  For
every workload and end-to-end metric (records with ``trace`` 0) it prints
each side's median and quartiles and the ratio new/base, with a verdict
against the metric's bound in ``BENCHMARK.json``:

* ``worse``: the new median is worse than the base median by more than
  the bound;
* ``better``: the new side wins at least 9 in 10 pairs (runs with the same
  seed, or all cross pairs when no seed is shared) and the medians differ
  by more than the base runs' interquartile range.  Run the two sides
  alternately with shared seeds: the host's speed drifts, and two sets run
  minutes apart can differ by more than their own spreads;
* ``unchanged``: neither of the above;
* ``unresolved``: a side's spread (interquartile range over median)
  exceeds the bound, unless every new run beats, or loses to, every base
  run.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict[tuple[str, str], dict[int, float]]:
    """Values by (workload, metric), keyed by seed (first run of a seed wins)."""
    out: dict[tuple[str, str], dict[int, float]] = defaultdict(dict)
    with open(path) as fh:
        for line in fh:
            record = json.loads(line)
            if record["trace"] != 0:
                continue
            for metric, entry in record["metrics"].items():
                out[record["workload"], metric].setdefault(record["seed"], entry["value"])
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: dict[int, float], new: dict[int, float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0

    def beats(n: float, b: float) -> bool:
        return sign * (n - b) < 0.0

    b1, bm, b3 = quartiles(list(base.values()))
    n1, nm, n3 = quartiles(list(new.values()))
    spread = max((b3 - b1) / abs(bm) if bm else 0.0, (n3 - n1) / abs(nm) if nm else 0.0)
    if spread > bound:
        if all(beats(n, b) for n in new.values() for b in base.values()):
            return "better"
        if all(beats(b, n) for n in new.values() for b in base.values()):
            return "worse"
        return "unresolved"
    if bm and sign * (nm - bm) / abs(bm) > bound:
        return "worse"
    shared = sorted(set(base) & set(new))
    pairs = ([(base[s], new[s]) for s in shared] if shared
             else [(b, n) for b in base.values() for n in new.values()])
    wins = sum(beats(n, b) for b, n in pairs)
    if wins >= 0.9 * len(pairs) and sign * (bm - nm) > b3 - b1:
        return "better"
    return "unchanged"


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = {m["name"]: m for m in json.loads(SPEC.read_text())["end_to_end"]}
    sets = [load(path) for path in argv]
    keys = [k for k in sets[0] if k[1] in spec]
    width = max(len(w) for w, _ in keys) if keys else 8
    for workload, metric in keys:
        unit = spec[metric]["unit"]
        cells = []
        for values in sets:
            data = values.get((workload, metric), {})
            if not data:
                cells.append("missing")
                continue
            q1, med, q3 = quartiles(list(data.values()))
            cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}] n={len(data)}")
        line = f"{workload:<{width}} {metric:<12} {unit:<6} " + " | ".join(cells)
        if len(sets) == 2 and "missing" not in cells:
            base, new = sets[0][workload, metric], sets[1][workload, metric]
            bm, nm = statistics.median(base.values()), statistics.median(new.values())
            ratio = f"{nm / bm:.4f}" if bm else "n/a"
            line += f" | ratio {ratio} | " + verdict(
                base, new, spec[metric]["better"], spec[metric]["bound"])
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
