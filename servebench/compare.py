"""Compare two sets of run records, e.g. a parent commit against a change.

    python3 servebench/compare.py BASE_DIR NEW_DIR

Each directory holds the JSON records ``run.py`` writes under
``servebench/runs/``.  All records of one workload, on both sides, must
share one environment (core count, native kernels, listener strategy,
calibration, Python and NumPy); otherwise the comparison is refused.
For every workload and end-to-end metric it prints each side's median
and quartiles and the change of the medians, marking changes for the
worse beyond the metric's bound in ``BENCHMARK.json``.  Exits 1 when
any metric regressed past its bound, 2 when the comparison is refused.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory: str) -> list[dict]:
    records = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json"):
            with open(os.path.join(directory, name)) as fh:
                rec = json.load(fh)
            if rec.get("trace") == 0 and rec.get("guard_error") is None:
                records.append(rec)
    return records


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    sides = [load(d) for d in argv]
    for d, recs in zip(argv, sides):
        if not recs:
            print(f"no untraced run records in {d}", file=sys.stderr)
            return 2
    # The listener strategy belongs to a workload's server flags, so
    # environments are compared per workload.
    envs: dict[str, set[str]] = {}
    for recs in sides:
        for r in recs:
            envs.setdefault(r["workload"], set()).add(
                json.dumps(r["environment"], sort_keys=True))
    for workload, seen in sorted(envs.items()):
        if len(seen) != 1:
            print(f"refused: {workload} runs were made in different "
                  "environments:", file=sys.stderr)
            for env in sorted(seen):
                print(f"  {env}", file=sys.stderr)
            return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    worse = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = [[r for r in recs if r["workload"] == workload] for recs in sides]
        if not all(runs):
            print(f"\n{workload}: missing on one side, skipped")
            continue
        print(f"\n{workload}  (runs: {len(runs[0])} vs {len(runs[1])})")
        print(f"  environment: {next(iter(envs[workload]))}")
        print(f"  {'metric':<20}{'base median [q1, q3]':>34}"
              f"{'new median [q1, q3]':>34}{'change':>10}")
        for name, m in metrics.items():
            stats = [quartiles([r["end_to_end"][name] for r in side])
                     for side in runs]
            (bq1, bmed, bq3), (nq1, nmed, nq3) = stats
            change = (nmed - bmed) / bmed if bmed else 0.0
            regress = change if m["better"] == "lower" else -change
            flag = ""
            if regress > m["bound"]:
                flag = f"  WORSE than the {m['bound']:.0%} bound"
                worse += 1
            base = f"{bmed:.5g} [{bq1:.4g}, {bq3:.4g}]"
            new = f"{nmed:.5g} [{nq1:.4g}, {nq3:.4g}]"
            print(f"  {name:<20}{base:>34}{new:>34}{change:>+10.1%}{flag}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
