"""Self-tests of the benchmark's own code: ``python3 perfbench/selftest.py``.

They need no simulation: the percentile rule, self-time subtraction,
due-time latency against a fake service, and the golden check.
"""

from __future__ import annotations

import asyncio
import contextlib
import io
import json
import os
import sys
import tempfile
import time
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import loaddriver  # noqa: E402
import probes  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        self.assertEqual(stats.tail_percentile(1000), 99)
        self.assertEqual(stats.tail_percentile(999), 98)
        self.assertEqual(stats.tail_percentile(200), 95)
        self.assertEqual(stats.tail_percentile(26), 61)
        self.assertEqual(stats.tail_percentile(20), 50)
        self.assertIsNone(stats.tail_percentile(19))

    def test_tail_reports_its_percentile_and_count(self):
        values = list(range(1, 1001))
        value, q = stats.tail(values)
        self.assertEqual(q, 99)
        self.assertEqual(sum(v > value for v in values), 10)
        described = stats.describe(values)
        self.assertEqual((described["n"], described["tail_q"]), (1000, 99))

    def test_too_few_samples_fall_back_to_median(self):
        self.assertEqual(stats.tail([1, 2, 3]), (2.0, 50))

    def test_spread_is_iqr_over_median(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        q1, q2, q3 = stats.quartiles(values)
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / q2)


def _span(span_id, parent, start, wall, name="s"):
    return {"span_id": span_id, "parent_id": parent, "start_s": start,
            "wall_s": wall, "name": name}


class SelfTime(unittest.TestCase):
    def test_overlapping_children_are_subtracted_once(self):
        tree = [_span("root", None, 0.0, 10.0, "root"),
                _span("a", "root", 1.0, 3.0, "child"),    # 1..4
                _span("b", "root", 3.0, 3.0, "child"),    # 3..6
                _span("c", "a", 2.0, 1.0, "leaf"),        # 2..3
                _span("d", "b", 5.0, 4.0, "leaf")]        # 5..9, past b
        own = spans.self_times(tree)
        self.assertAlmostEqual(own["root"], 10.0 - 5.0)
        self.assertAlmostEqual(own["a"], 3.0 - 1.0)
        self.assertAlmostEqual(own["b"], 3.0 - 1.0)
        self.assertAlmostEqual(own["c"], 1.0)
        summary = spans.summarize(tree)
        self.assertEqual(summary["child"]["count"], 2)
        self.assertAlmostEqual(summary["leaf"]["self_s"], 5.0)

    def test_probe_self_time_excludes_nested_probes(self):
        now = [0.0]

        def clock():
            return now[0]

        rec = probes.Recorder(clock=clock)

        def leaf():
            now[0] += 2.0

        wrapped_leaf = rec.wrap(leaf, "inner")

        def outer():
            now[0] += 1.0
            wrapped_leaf()
            wrapped_leaf()
            now[0] += 0.5

        rec.wrap(outer, "outer")()
        self.assertEqual(rec.probes["outer"].calls, 1)
        self.assertAlmostEqual(rec.probes["outer"].total_s, 5.5)
        self.assertAlmostEqual(rec.probes["outer"].self_s, 1.5)
        self.assertEqual(rec.probes["inner"].calls, 2)
        self.assertAlmostEqual(rec.probes["inner"].self_s, 4.0)


class _Response:
    ok = True
    queue_s = 0.0
    service_s = 0.001


class _FakeService:
    """Serves every request in 1 ms, except that request ``stall_at``
    blocks the event loop for ``stall_s`` before it is admitted."""

    def __init__(self, stall_at: int, stall_s: float) -> None:
        self.stall_at = stall_at
        self.stall_s = stall_s
        self.admitted = 0
        self.served = 0

    def counters(self) -> dict:
        return {"admitted": self.admitted, "requests_served": self.served,
                "requests_shed": 0, "post_warm_compiles": 0,
                "batches_formed": self.served,
                "lanes_dispatched": self.served}

    async def submit(self, request) -> _Response:
        if request == self.stall_at:
            time.sleep(self.stall_s)
        self.admitted += 1
        await asyncio.sleep(0.001)
        self.served += 1
        return _Response()


class DueTimeLatency(unittest.TestCase):
    def test_stall_counts_against_later_requests(self):
        gap, stall = 0.01, 0.2
        service = _FakeService(stall_at=5, stall_s=stall)
        phase = loaddriver.Phase("scripted", 1 / gap, 30, seed=0)
        result = asyncio.run(loaddriver.run_phase(
            service, phase, requests=[(i, gap) for i in range(30)]))
        self.assertEqual(result.problems, [])
        self.assertEqual(result.completed, 30)
        # request 6 was due one gap after the stall began, so it waited
        # out nearly the whole stall although the service takes 1 ms
        self.assertGreater(result.latency_s[6], stall - 2 * gap)
        self.assertLess(result.latency_s[0], stall / 4)
        self.assertGreater(max(result.lag_s), stall - 2 * gap)
        self.assertLess(result.within_limit, result.offered)

    def test_books_that_disagree_invalidate_the_phase(self):
        service = _FakeService(stall_at=-1, stall_s=0.0)
        submit = service.submit

        async def double_counting(request):
            response = await submit(request)
            service.served += request == 0
            return response

        service.submit = double_counting
        phase = loaddriver.Phase("books", 100.0, 3, seed=0)
        result = asyncio.run(loaddriver.run_phase(
            service, phase, requests=[(i, 0.001) for i in range(3)]))
        self.assertTrue(result.problems)


def _artifact_pass(hashes: dict) -> dict:
    return {"wall_s": 1.0, "done_s": [0.5, 1.0], "hashes": dict(hashes),
            "failed": {}, "tasks": len(hashes), "task_s": [0.5, 0.5],
            "computed": len(hashes), "hits": 0, "cache_hits": 0,
            "cache_misses": 0}


class GoldenCheck(unittest.TestCase):
    golden = {"artifacts": {"table_x": "aa", "figure_y": "bb"},
              "serve_profiles": {"p:1": {"cycles": 3}}}

    def raw(self, warm_hashes) -> dict:
        good = {"table_x": "aa", "figure_y": "bb"}
        return {"setup_s": 0.1, "jobs": 1, "cold": _artifact_pass(good),
                "warm": [_artifact_pass(warm_hashes)]}

    def test_matching_outputs_pass(self):
        raw = self.raw({"table_x": "aa", "figure_y": "bb"})
        self.assertEqual(
            run.check_goldens("artifacts-serial", raw, self.golden), [])

    def test_mismatch_and_missing_artifacts_are_reported(self):
        raw = self.raw({"table_x": "zz"})
        problems = run.check_goldens("artifacts-serial", raw, self.golden)
        self.assertEqual(len(problems), 2)

    def test_serve_profile_mismatch_is_reported(self):
        raw = {"profiles": [{"p:1": {"cycles": 3}}, {"p:1": {"cycles": 4}}]}
        self.assertEqual(
            len(run.check_goldens("serve-mixed", raw, self.golden)), 1)

    def test_golden_mismatch_fails_the_run(self):
        raw = self.raw({"table_x": "zz", "figure_y": "bb"})
        saved = run.run_child, run.WORK, run.GOLDEN
        with tempfile.TemporaryDirectory() as tmp:
            golden = os.path.join(tmp, "golden.json")
            with open(golden, "w", encoding="utf-8") as fh:
                json.dump(self.golden, fh)
            run.WORK, run.GOLDEN = tmp, golden
            run.run_child = (lambda args, workdir, deadline,
                             setup_probe=False:
                             {"setup_s": 0.1} if setup_probe else raw)
            out = io.StringIO()
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = run.main(["--workload", "artifacts-serial",
                                     "--seed", "1", "--seconds", "1"])
            finally:
                run.run_child, run.WORK, run.GOLDEN = saved
        self.assertEqual(code, 1)
        result = json.loads(out.getvalue().strip().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertEqual(sorted(result["metrics"]),
                         sorted(m["name"] for m in json.load(open(
                             os.path.join(run.ROOT, "BENCHMARK.json"),
                             encoding="utf-8"))["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
