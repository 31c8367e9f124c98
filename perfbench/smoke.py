"""Smoke tests for the benchmark itself, at tiny scale.

Run with::

    python3 perfbench/smoke.py

They take about ten seconds.  The file name keeps them out of the
repository's pytest run, so the harness stays out of the tier-1 tests.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
TIME_UNITS = {"s", "us", "ns"}
WORKLOADS = ("pendulum", "linear20", "linear2-sweep")
OUT = os.path.join(HERE, "_out", f"smoke-{os.getpid()}")


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _command(args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


class TracedRepeats(unittest.TestCase):
    """Two traced repeats of every workload with one seed, in this process."""

    @classmethod
    def setUpClass(cls):
        cls.originals = {(mod.__name__, attr): getattr(mod, attr)
                         for mod, attr, _ in tracing.patch_sites()}
        cls.runs = {}
        for name in WORKLOADS:
            for rep in range(2):
                spans_path = os.path.join(OUT, f"{name}-{rep}.spans.json")
                os.makedirs(OUT, exist_ok=True)
                with contextlib.redirect_stdout(io.StringIO()):
                    result = worker.run_repeat(
                        name, 5, os.path.join(OUT, f"{name}-{rep}"), scale="tiny",
                        trace=True, spans_path=spans_path)
                with open(spans_path, encoding="utf-8") as fh:
                    spans = json.load(fh)
                cls.runs.setdefault(name, []).append(
                    (result, spans, layers.metrics(spans), layers.extra_metrics(spans)))

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(OUT, ignore_errors=True)

    def test_repeats_pass_their_checks(self):
        for name, runs in self.runs.items():
            for result, *_ in runs:
                self.assertEqual([op for op in result["ops"] if not op[1]], [], name)

    def test_names(self):
        bench = _benchmark()
        names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
        names += [w["name"] for w in bench["workloads"]]
        for runs in self.runs.values():
            for result, spans, per_layer, extra in runs:
                names += list(result["e2e"]) + list(per_layer) + list(extra)
                names += sorted({span[0] for span in spans})
        for name in names:
            self.assertTrue(NAME.fullmatch(name), name)

    def test_timings_finite_and_nonnegative(self):
        for name, runs in self.runs.items():
            for result, spans, per_layer, extra in runs:
                for key, value in [*result["e2e"].items(), *per_layer.items(),
                                   *extra.items()]:
                    self.assertTrue(math.isfinite(value), (name, key, value))
                    if layers.unit_of(key) in TIME_UNITS or key in result["e2e"]:
                        self.assertGreaterEqual(value, 0.0, (name, key))
                self.assertGreaterEqual(layers.min_self_time(spans), 0.0, name)
                self.assertTrue(all(s[1] <= s[2] for s in spans), name)

    def test_every_benchmark_layer_metric_is_reported(self):
        wanted = {m["name"] for m in _benchmark()["per_layer"]} - {"trace.overhead_pct"}
        for name, runs in self.runs.items():
            self.assertEqual(wanted - set(runs[0][2]), set(), name)

    def test_counts_identical_across_two_runs(self):
        for name, ((first, _, a, _), (second, _, b, _)) in self.runs.items():
            self.assertEqual({k: a[k] for k in layers.EXACT},
                             {k: b[k] for k in layers.EXACT}, name)
            self.assertEqual(first["digests"], second["digests"], name)
            self.assertEqual(first["eval_error"], second["eval_error"], name)
            self.assertGreater(a["dynamics.rhs_rows"], 0, name)
            self.assertGreater(a["train.steps"], 0, name)

    def test_patched_attributes_restored(self):
        for mod, attr, _ in tracing.patch_sites():
            self.assertIs(getattr(mod, attr), self.originals[(mod.__name__, attr)],
                          f"{mod.__name__}.{attr}")

    def test_patched_attributes_restored_after_an_error(self):
        tracer = tracing.Tracer()
        with self.assertRaises(ValueError):
            with tracer.install():
                from memflow import dynamics
                dynamics.matrix_exponential([[1.0, 2.0]])
        self.assertEqual(tracer.spans[0][4], {"error": 1})
        self.test_patched_attributes_restored()


class ScaledRepeat(unittest.TestCase):
    """An untraced repeat, timed by the host-speed-scaled clock."""

    def test_scaled_times_and_restored_timer(self):
        handler = signal.getsignal(signal.SIGALRM)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                result = worker.run_repeat("pendulum", 5, os.path.join(OUT, "scaled"),
                                           scale="tiny")
        finally:
            shutil.rmtree(OUT, ignore_errors=True)
        self.assertEqual([op for op in result["ops"] if not op[1]], [])
        e2e = result["e2e"]
        for key in ("setup_s", "wall_s", "wall_raw_s", "kernel_s"):
            self.assertTrue(math.isfinite(e2e[key]) and e2e[key] > 0.0, key)
        stages = [v for k, v in e2e.items()
                  if k.endswith("_s") and k not in
                  ("setup_s", "wall_s", "setup_raw_s", "wall_raw_s", "kernel_s")]
        self.assertEqual(len(stages), 5)
        self.assertLessEqual(sum(stages), e2e["wall_s"] * (1 + 1e-9))
        self.assertIs(signal.getsignal(signal.SIGALRM), handler)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))


class Command(unittest.TestCase):
    """The command line, as the benchmark is run."""

    def test_result_line_matches_benchmark_json(self):
        bench = _benchmark()
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = _command(["--workload", "pendulum", "--seed", "3", "--seconds", "0",
                             "--trace", str(trace), "--scale", "tiny"])
            self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(set(result["metrics"]), {m["name"] for m in bench[key]})
            for m in bench[key]:
                self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])

    def test_refuses_to_run_without_the_program(self):
        bare = os.path.join(OUT, "bare")
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("_out", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            proc = _command(["--workload", "pendulum", "--seed", "1", "--seconds", "1",
                             "--trace", "0"], cwd=bare)
        finally:
            shutil.rmtree(OUT, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("{", proc.stdout)


if __name__ == "__main__":
    unittest.main()
