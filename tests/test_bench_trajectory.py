"""The committed benchmark trajectory (``BENCH_perfbench.json``)."""

import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_trajectory_rows_name_benchmark_workloads_and_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in bench["workloads"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    rows = json.loads((ROOT / "BENCH_perfbench.json").read_text())["rows"]
    assert rows
    for row in rows:
        assert row["workload"] in workloads, row["workload"]
        assert row["side"] in ("parent", "change")
        assert row["sha"]
        assert {"nproc", "python", "numpy"} <= set(row["host"])
        assert row["seeds"] and len(row["seeds"]) == row["runs"]
        assert row["metrics"]
        for name, metric in row["metrics"].items():
            assert name in units, name
            assert metric["unit"] == units[name]
            assert metric["q1"] <= metric["median"] <= metric["q3"]
    # every change row has its parent row on the same workload
    sides = {(row["change"], row["workload"], row["side"]) for row in rows}
    for change, workload, side in sides:
        assert (change, workload, "parent") in sides
