"""One repeat of one workload, in a fresh process.

Usage (``run.py`` starts it; not meant to be run by hand)::

    python3 perfbench/worker.py '<json job>'

The job names the workload, seed, scale, run directory, whether to trace
and whether to verify, or asks for set-up only.  The worker prints one JSON
result line.  The clock
for ``setup_s`` starts before numpy is imported.  Untraced repeats report
``setup_s``, ``wall_s`` and the stage times scaled to the reference host
speed (see ``calibrate.py``), and ``setup_raw_s`` and ``wall_raw_s`` as
measured.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

_PROCESS_START = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def run_repeat(workload, seed, out_dir, scale="desk", trace=False, verify=False,
               spans_path=None, setup_only=False, start=None):
    """Run one repeat and return its result dict (see module docstring).

    ``trace`` records spans into ``spans_path``; ``verify`` captures the
    objects the CLI saves and checks the files against them afterwards;
    ``setup_only`` stops after set-up and reports only its time.
    """
    start = time.perf_counter() if start is None else start
    if os.path.join(ROOT, "src") not in sys.path:
        sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np

    import tracing
    import workloads

    cfg = workloads.make_config(workload, seed, out_dir, scale)
    cfg.spec(), cfg.solver(), cfg.domain()
    setup_raw_s = time.perf_counter() - start

    import calibrate

    if setup_only:
        calibrate.measure()  # warm-up: first calls into numpy and BLAS
        kernel_s = calibrate.ScaledClock().kernel_s[0]
        return {"e2e": {"setup_s": setup_raw_s * calibrate.REF_S / kernel_s,
                        "setup_raw_s": setup_raw_s}}
    shutil.rmtree(out_dir, ignore_errors=True)
    stage_s = {}
    ops = []
    tracer = tracing.Tracer() if trace else None
    captured = {}
    running = [None]
    # Traced repeats are not scaled: the kernel would run inside the spans.
    if not tracer:
        calibrate.measure()  # warm-up: first calls into numpy and BLAS
        clock = calibrate.ScaledClock()

    def stage(name, fn):
        running[0] = name
        if tracer:
            t0 = time.perf_counter()
            result = tracer.wrap(f"bench.{name}", fn)()
            stage_s[name] = time.perf_counter() - t0
        else:
            clock.mark(min_gap_s=calibrate.MARK_EVERY_S)
            first = len(clock.intervals)
            result = fn()
            clock.mark()
            stage_s[name] = clock.scaled(first)[1]
        ops.append([f"stage.{name}", True, ""])
        return result

    def body():
        return workloads.run(workload, cfg, scale, stage)

    patches = _capture_patches(captured) if verify else []
    outcome = {"eval_error": math.nan, "ops": []}
    t0 = time.perf_counter()
    try:
        with tracing.patched(patches):
            if tracer:
                with tracer.install():
                    outcome = tracer.wrap("bench.workload", body)()
            else:
                with clock.sampling():
                    outcome = body()
    except Exception:  # reported as a failed operation of this repeat
        ops.append([f"stage.{running[0]}", False, traceback.format_exc(limit=4)])
    wall_raw_s = time.perf_counter() - t0
    if tracer:
        times = {"setup_s": setup_raw_s, "wall_s": wall_raw_s, **stage_s}
    else:
        clock.mark(min_gap_s=calibrate.MARK_EVERY_S)  # the last stage has marked its end
        wall_raw_s, wall_s = clock.scaled()
        times = {"setup_s": setup_raw_s * calibrate.REF_S / clock.kernel_s[0],
                 "wall_s": wall_s, **stage_s}
    peak_rss_mb = _peak_rss_mb()

    files = sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else []
    paths = {f: os.path.join(out_dir, f) for f in files}
    ops += [list(op) for op in outcome["ops"]]
    eval_error = float(outcome["eval_error"])
    ops.append(["eval_error.finite", math.isfinite(eval_error), repr(eval_error)])
    if workloads.cli.TRAIN_LOG_FILE in paths:
        losses = _read_losses(paths[workloads.cli.TRAIN_LOG_FILE])
        ops.append(["train.losses_finite", bool(np.all(np.isfinite(losses))),
                    repr(losses[-3:])])
    if verify and all(ok for _, ok, _ in ops):
        try:
            ops += _verify(captured, paths)
        except Exception:  # an artifact that cannot be loaded back fails the check
            ops.append(["verify", False, traceback.format_exc(limit=4)])

    result = {
        "traced": bool(trace),
        "e2e": {
            "setup_s": times.pop("setup_s"),
            "wall_s": times.pop("wall_s"),
            "peak_rss_mb": peak_rss_mb,
            "artifact_mb": sum(os.path.getsize(p) for p in paths.values()) / 1e6,
            **{f"{name}_s": t for name, t in times.items()},
            "setup_raw_s": setup_raw_s,
            "wall_raw_s": wall_raw_s,
            **({} if tracer else {"kernel_s": statistics.median(clock.kernel_s)}),
        },
        "eval_error": eval_error,
        "digests": {f: _sha256(p) for f, p in paths.items()},
        "ops": ops,
        "env": _environment(np),
    }
    if tracer:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    shutil.rmtree(out_dir, ignore_errors=True)
    return result


def _peak_rss_mb():
    """High-water RSS of this process image.

    ru_maxrss would also count the parent's RSS at fork time, which exec
    carries over; VmHWM belongs to the new address space only.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _read_losses(path):
    with open(path, encoding="utf-8") as fh:
        return [float(line.split(",")[1]) for line in fh.read().splitlines()[1:]]


def _capture_patches(captured):
    """Wrappers that keep what the CLI saves and what training reports."""
    from memflow import data, rollout, train

    def keep(key, fn, arg=None):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            captured[key] = args[arg] if arg is not None else result
            return result
        return wrapper

    return [
        (data, "save_trajectories", keep("trajectories", data.save_trajectories, 0)),
        (data, "save_dataset", keep("dataset", data.save_dataset, 0)),
        (train, "save_params", keep("model", train.save_params, 0)),
        (train, "train_model", keep("train", train.train_model)),
        (rollout, "memory_sweep", keep("sweep", rollout.memory_sweep)),
    ]


def _same(a, b):
    """Bitwise equality of two arrays, dtype and shape included."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _verify(captured, paths):
    """Load every artifact back and compare it with the object in memory."""
    import numpy as np
    from memflow import cli, data, train

    ops = []
    if "trajectories" in captured:
        mem = captured["trajectories"]
        disk = data.load_trajectories(paths[cli.TRAJECTORY_FILE])
        ok = (mem.d, mem.delta, mem.n_traj) == (disk.d, disk.delta, disk.n_traj) and all(
            _same(a, b) for a, b in zip(mem.trajectories, disk.trajectories))
        ops.append(["verify.trajectories_roundtrip", ok, "loaded file differs"])
    if "dataset" in captured:
        mem = captured["dataset"]
        disk = data.load_dataset(paths[cli.DATASET_FILE])
        ok = ((mem.d, mem.n_mem) == (disk.d, disk.n_mem)
              and _same(mem.inputs, disk.inputs) and _same(mem.targets, disk.targets))
        ops.append(["verify.dataset_roundtrip", ok, "loaded file differs"])
        dataset_on_disk = disk
    if "model" in captured:
        mem = captured["model"]
        disk = train.load_model(paths[cli.MODEL_FILE])
        ok = ((mem.d, mem.n_mem, tuple(mem.hidden)) == (disk.d, disk.n_mem, disk.hidden)
              and all(_same(a, b) for a, b in zip(mem.weights, disk.weights))
              and all(_same(a, b) for a, b in zip(mem.biases, disk.biases)))
        ops.append(["verify.checkpoint_roundtrip", ok, "loaded file differs"])
        report = captured["train"][1]
        loss = train.mse_loss(disk, dataset_on_disk)
        ops.append(["verify.checkpoint_loss", loss == report.final_loss,
                    f"mse_loss {loss!r} != final_loss {report.final_loss!r}"])
    if "sweep" in captured:
        import workloads
        disk = workloads.read_sweep_csv(paths[cli.SWEEP_FILE])
        mem = [(c.n_mem, c.memory_length, c.mean_error) for c in captured["sweep"]]
        ok = len(mem) == len(disk) and all(
            m[0] == d[0] and _same(np.array(m[1:]), np.array(d[1:]))
            for m, d in zip(mem, disk))
        ops.append(["verify.sweep_roundtrip", ok,
                    "sweep.csv differs from the sweep cells"])
    return ops


def _environment(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy < 1.25 has no mode argument
        blas = {}
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def main(argv):
    job = json.loads(argv[1])
    result = run_repeat(**job, start=_PROCESS_START)
    sys.stdout.write("\n" + json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
