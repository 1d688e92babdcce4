"""Summarize benchmark records across runs: ``python3 perfbench/report.py``.

Reads the records ``run.py`` wrote under ``.perfbench/records/`` and
prints, per workload and per metric, the median and quartiles over the
runs and their spread (interquartile range over median), also before
host-speed scaling.  For end-to-end metrics the spread is compared with
a third of the metric's bound in ``BENCHMARK.json``, the steadiness a
benchmark run should show.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402
from run import ROOT, WORK  # noqa: E402


def load(directory: str, trace: int) -> dict[str, list[dict]]:
    """Records by workload, oldest first."""
    by_workload: dict[str, list[dict]] = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        if record.get("trace") == trace:
            by_workload.setdefault(record["workload"], []).append(record)
    return by_workload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dir", default=os.path.join(WORK, "records"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bounds = {m["name"]: m["bound"]
                  for m in json.load(fh)["end_to_end"]}
    steady = True
    for workload, records in sorted(load(args.dir, args.trace).items()):
        seeds = sorted({r["seed"] for r in records})
        bad = sum(1 for r in records if not r["correct"] or r["failed"])
        print(f"{workload}: {len(records)} run(s), seeds {seeds}, "
              f"{bad} failed or incorrect")
        for name, first in records[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in records]
            raw = [r["metrics"][name].get("raw", v)
                   for r, v in zip(records, values)]
            q1, q2, q3 = stats.quartiles(values)
            spread = stats.spread(values) if q2 else 0.0
            raw_spread = stats.spread(raw) if any(raw) else 0.0
            line = (f"  {name:36s} median {q2:12.6g} {first['unit']:8s} "
                    f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:6.3f} "
                    f"(raw {raw_spread:6.3f})")
            bound = bounds.get(name)
            if bound is not None and name != "setup_s":
                ok = spread < bound / 3
                steady &= ok
                line += f"  (bound/3 {bound / 3:.3f}{'' if ok else ' !'})"
            print(line)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
