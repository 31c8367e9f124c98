"""The memflow benchmark: one workload, repeated for a fixed time.

Usage::

    python3 perfbench/run.py --workload pendulum --seed 1 --seconds 30 --trace 0

Workloads: ``pendulum``, ``linear20``, ``linear2-sweep`` (see
``workloads.py``).  Every repeat runs in a fresh worker process, one at a
time, so set-up time and peak RSS are those of the workload's own process.
The first repeat of a run is a check repeat: it verifies that every
artifact loads back bitwise equal to the object in memory and is left out
of the timings.  Further repeats run until ``--seconds`` have passed.

``--trace 0`` reports the end-to-end metrics of untraced repeats.  Their
times are scaled to a reference host speed by the kernel in
``calibrate.py``, which runs between stages and on a timer, because the
shared host's speed drifts by up to about 1.8 times; the raw times are
printed too.
``--trace 1`` alternates untraced and traced repeats and reports the
per-layer metrics of the traced ones, computed from their span files, plus
the tracing overhead.  Every repeat must give the same artifact digests,
evaluation error and counts.  The last line of standard output is one JSON
object; the exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The names only: workloads.py imports numpy, which must not load here
# before the BLAS pin.
WORKLOADS = ("pendulum", "linear20", "linear2-sweep")
NAME = re.compile(r"[A-Za-z0-9_.-]+")
MIN_REPEATS = 3
# Set-up-only processes run after each untraced repeat of an end-to-end
# run, so that setup_s is the median of about three times as many samples.
SETUP_SAMPLES = 2
RUN_LIMIT_S = 170.0  # the whole command must end within 180 s
# One BLAS thread, whatever the environment says, so that runs compare.  On
# a shared 2-core host it was both faster and steadier than two: linear20
# wall time 4.16 s vs 4.79 s, spread over 5 seeds 6 % vs 14 %.
BLAS_THREADS = 1


def pin_blas_threads():
    """Pin BLAS to BLAS_THREADS threads in this process and its workers.

    Must run before anything imports numpy.  Returns (threads, nproc).
    """
    nproc = len(os.sched_getaffinity(0))
    threads = min(BLAS_THREADS, nproc)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads, nproc


def git_commit(root):
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def upper(values):
    """(label, value) of the highest percentile with ten samples beyond it,
    or of the maximum when there are too few samples for one."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return "max", ordered[-1]
    return f"p{100 * (n - 10) // n}", ordered[n - 11]


def run_worker(job, deadline):
    """Run one repeat in a fresh process; return its result or an error."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(job)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return None, "worker timed out"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"worker exited {proc.returncode}: {proc.stderr[-2000:]}"
    return json.loads(lines[-1]), ""


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("desk", "tiny"), default="desk",
                        help="tiny is for the smoke tests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "memflow", "__init__.py")):
        print(f"error: no memflow sources under {ROOT}/src", file=sys.stderr)
        return 2
    threads, nproc = pin_blas_threads()
    bench = load_benchmark()
    workdir = os.path.join(HERE, "_out", f"{args.workload}-s{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        measured = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return report(args, bench, *measured, threads, nproc)


def measure(args, workdir):
    """Run the check repeat, then timed repeats until the window is used.

    Returns (check result, timed results, set-up times of the set-up-only
    processes, per-layer metrics of the traced repeats, operations).
    """
    deadline = time.monotonic() + RUN_LIMIT_S
    check, results, setups, traced_layers, ops = None, [], [], [], []
    durations = []
    measure_start = None
    for i in itertools.count():
        traced = bool(args.trace) and i % 2 == 0 and i > 0
        job = {"workload": args.workload, "seed": args.seed, "scale": args.scale,
               "out_dir": os.path.join(workdir, f"r{i}"), "trace": traced,
               "verify": i == 0, "spans_path": os.path.join(workdir, f"r{i}.spans.json")}
        t0 = time.monotonic()
        result, error = run_worker(job, deadline)
        for _ in range(SETUP_SAMPLES if result and i > 0 and not args.trace else 0):
            extra, error = run_worker({**job, "setup_only": True}, deadline)
            if extra is None:
                result = None
                break
            setups.append(extra["e2e"]["setup_s"])
        durations.append(time.monotonic() - t0)
        longest = max(durations[1:] or durations)  # the check repeat runs longer
        if result is None:
            ops.append([f"repeat{i}", False, error])
            break
        ops += result["ops"]
        if i == 0:
            check = result
            measure_start = time.monotonic()
        else:
            results.append(result)
            if traced:
                with open(job["spans_path"], encoding="utf-8") as fh:
                    spans = json.load(fh)
                os.remove(job["spans_path"])
                traced_layers.append((layers.metrics(spans), layers.extra_metrics(spans),
                                      layers.min_self_time(spans)))
        untraced = [r for r in results if not r["traced"]]
        enough = len(untraced) >= MIN_REPEATS and (
            not args.trace or len(traced_layers) >= 2)
        now = time.monotonic()
        # Start no repeat that would end past the measuring window.
        if enough and now + longest > measure_start + args.seconds:
            break
        if now + longest > deadline:
            if not enough:
                ops.append(["repeats", False, "too few repeats before the time limit"])
            break
    return check, results, setups, traced_layers, ops


def report(args, bench, check, results, setups, traced_layers, ops, threads, nproc):
    out = []
    env = check["env"] if check else {}
    untraced = [r for r in results if not r["traced"]]
    traced = [r for r in results if r["traced"]]
    out.append(f"# memflow benchmark: workload={args.workload} seed={args.seed} "
               f"seconds={args.seconds:g} trace={args.trace} scale={args.scale}")
    out.append(f"# commit={git_commit(ROOT)} python={env.get('python', '?')} "
               f"numpy={env.get('numpy', '?')} blas={env.get('blas', '?')} "
               f"blas_threads={threads} nproc={nproc} seed={args.seed} "
               f"repeats={len(untraced)} untraced + {len(traced)} traced (+1 check) "
               f"+ {len(setups)} set-up only")

    # Determinism: every repeat with one seed gives the same artifacts,
    # evaluation error and counts.
    for r in results:
        ops.append(["digests.repeat", r["digests"] == check["digests"]
                    and r["eval_error"] == check["eval_error"],
                    "artifacts or eval_error differ between repeats"])
    layer_runs = [m for m, _, _ in traced_layers]
    extra_runs = [extra for _, extra, _ in traced_layers]
    for m in layer_runs[1:]:
        ops.append(["counts.repeat",
                    all(m[k] == layer_runs[0][k] for k in layers.EXACT),
                    "a count differs between traced repeats"])
    for _, _, min_self in traced_layers:
        ops.append(["trace.self_time_nonnegative", min_self >= 0.0, "negative self time"])

    if check:
        out.append("# sha256 " + " ".join(
            f"{f}={h[:16]}" for f, h in check["digests"].items()))
    failed = [op for op in ops if not op[1]]
    for name, _, detail in failed:
        out.append(f"# FAILED {name}: {detail.strip()}")
    metrics = {}
    if untraced:
        out.append("# end-to-end, untraced: metric unit median upper n")
        samples = {key: [r["e2e"][key] for r in untraced if key in r["e2e"]]
                   for key in untraced[0]["e2e"]}
        samples["setup_s"] += setups
        for key, values in samples.items():
            label, hi = upper(values)
            median = statistics.median(values)
            out.append(f"  {key:<18} {layers.unit_of(key):<6} {median:<12.6g} "
                       f"{label} {hi:<12.6g} n={len(values)}")
        out.append(f"  {'eval_error':<18} {'l2':<6} {check['eval_error']:.6g} "
                   "(deterministic per seed)")
        if not args.trace:
            for m in bench["end_to_end"]:
                metrics[m["name"]] = {"value": statistics.median(samples[m["name"]]),
                                      "unit": m["unit"]}
    if layer_runs and untraced:
        merged = {k: statistics.median(m[k] for m in layer_runs) for k in layer_runs[0]}
        untraced_wall = statistics.median(r["e2e"]["wall_raw_s"] for r in untraced)
        traced_wall = statistics.median(r["e2e"]["wall_raw_s"] for r in traced)
        merged["trace.overhead_pct"] = (
            100.0 * (traced_wall - untraced_wall) / untraced_wall)
        extra = {k: statistics.median(m.get(k, 0.0) for m in extra_runs)
                 for k in sorted({k for m in extra_runs for k in m})}
        out.append(f"# per-layer, traced (median of {len(layer_runs)}): "
                   f"untraced wall {untraced_wall:.4f} s, "
                   f"traced wall {traced_wall:.4f} s, "
                   f"overhead {merged['trace.overhead_pct']:.1f} %")
        out.append("  layer     self_s      share_%")
        for layer in layers.REPORT_LAYERS:
            out.append(f"  {layer:<9} {merged[f'{layer}.self_s']:<11.5f} "
                       f"{merged[f'{layer}.share_pct']:.1f}")
        in_table = {f"{layer}.{m}" for layer in layers.REPORT_LAYERS
                    for m in ("self_s", "share_pct")}
        for key, value in {**merged, **extra}.items():
            if key not in in_table:
                out.append(f"  {key:<32} {layers.unit_of(key):<8} {value:.6g}")
        for m in bench["per_layer"]:
            metrics[m["name"]] = {"value": merged[m["name"]], "unit": m["unit"]}
    attempted = max(len(ops), 1)
    correct = not failed and bool(results) and all(NAME.fullmatch(k) for k in metrics)
    print("\n".join(out))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failed),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
