"""Per-layer metrics computed from one traced repeat's span file.

A span's self time is its duration minus the durations of its direct
children.  Every span of a repeat nests under the ``bench.workload`` root,
so the layers' self times add up to the traced wall time.

``metrics`` returns the per-layer metrics that BENCHMARK.json lists, which
every workload has; ``extra_metrics`` returns those that exist only on some
workloads (checkpoint and artifact I/O, the oracle, the Euler scheme, and
the self time of each CLI stage).  Both are printed; only the first set
goes into the result line.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

REPORT_LAYERS = ("dynamics", "data", "net", "train", "rollout", "cli", "bench")
ORACLE = {
    "dynamics.matrix_exponential", "dynamics.linear_mz_rhs",
    "dynamics.exact_linear_trajectory", "dynamics.exact_linear_solution",
    "dynamics.mz_memory_integral", "dynamics.mz_noise_term",
    "dynamics.oracle_for_system",
}
# Metrics that are counts or sizes: they must repeat exactly for one seed.
EXACT = {
    "dynamics.rhs_calls", "dynamics.rhs_rows", "data.windows",
    "data.written_mb", "data.dataset_resident_mb", "data.trajset_resident_mb",
    "net.forward_batch_calls", "net.backward_batch_calls", "net.forward_calls",
    "net.checkpoint_mb", "train.steps", "rollout.steps", "rollout.diverged_runs",
}
_UNITS = {"dynamics.ns_per_rhs_row": "ns", "train.self_us_per_step": "us",
          "rollout.self_us_per_step": "us", "rollout.euler_us_per_step": "us",
          "net.gemm_gflop_per_s": "GFLOP/s", "train.windows_per_s": "1/s"}
_SUFFIX_UNITS = (("_us", "us"), ("_s", "s"), ("_pct", "%"), ("_mb", "MB"))


def unit_of(name):
    """Unit of a metric, from its name; counts have the unit ``count``."""
    if name in _UNITS:
        return _UNITS[name]
    for suffix, unit in _SUFFIX_UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


class _Spans:
    def __init__(self, spans):
        self.spans = spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self.self_time = [end - start - child[i]
                          for i, (_, start, end, _, _) in enumerate(spans)]

    def of(self, *names):
        return [i for i, s in enumerate(self.spans) if s[0] in names]

    def dur(self, idx):
        return sum(self.spans[i][2] - self.spans[i][1] for i in idx)

    def self_sum(self, idx):
        return sum(self.self_time[i] for i in idx)

    def attr(self, idx, key):
        return sum((self.spans[i][4] or {}).get(key, 0) for i in idx)

    def attr_max(self, idx, key):
        return max([(self.spans[i][4] or {}).get(key, 0) for i in idx] or [0])

    def parent_name(self, i):
        parent = self.spans[i][3]
        return self.spans[parent][0] if parent >= 0 else None


def _per_call(sp, idx, prefix, out):
    us = sorted((sp.spans[i][2] - sp.spans[i][1]) * 1e6 for i in idx)
    out[f"{prefix}_us"] = statistics.median(us) if us else 0.0
    out[f"{prefix}_p99_us"] = us[min(len(us) - 1, int(0.99 * len(us)))] if us else 0.0
    out[f"{prefix}_calls"] = len(us)


def metrics(spans):
    """The per-layer metrics listed in BENCHMARK.json, as a flat dict."""
    sp = _Spans(spans)
    (root,) = sp.of("bench.workload")
    wall = sp.dur([root])
    out = {}
    by_layer = defaultdict(float)
    for i, span in enumerate(spans):
        by_layer[span[0].split(".", 1)[0]] += sp.self_time[i]
    for layer in REPORT_LAYERS:
        out[f"{layer}.self_s"] = by_layer[layer]
        out[f"{layer}.share_pct"] = 100.0 * by_layer[layer] / wall

    single = sp.of("dynamics.integrate")
    batch = sp.of("dynamics.integrate_batch")
    out["dynamics.integrate_s"] = sp.dur(single)
    out["dynamics.integrate_batch_s"] = sp.dur(batch)
    out["dynamics.rhs_calls"] = sp.attr(single + batch, "rhs_calls")
    out["dynamics.rhs_rows"] = sp.attr(single + batch, "rhs_rows")
    out["dynamics.ns_per_rhs_row"] = (
        1e9 * sp.dur(single + batch) / max(out["dynamics.rhs_rows"], 1))

    build = sp.of("data.build_dataset")
    out["data.generate_self_s"] = sp.self_sum(sp.of("data.generate_trajectories"))
    out["data.build_dataset_s"] = sp.dur(build)
    out["data.windows"] = sp.attr(build, "windows")
    out["data.written_mb"] = sp.attr(
        sp.of("data.save_dataset", "data.save_trajectories"), "bytes") / 1e6
    out["data.dataset_resident_mb"] = sp.attr_max(
        sp.of("data.build_dataset", "data.load_dataset"), "resident_bytes") / 1e6
    out["data.trajset_resident_mb"] = sp.attr_max(
        sp.of("data.generate_trajectories", "data.load_trajectories"),
        "resident_bytes") / 1e6

    # Batch calls come from training; rollout's single-row calls reach
    # forward_batch through net.forward and are counted under net.forward.
    fwd_batch = [i for i in sp.of("net.forward_batch")
                 if sp.parent_name(i) != "net.forward"]
    bwd_batch = sp.of("net.backward_batch")
    _per_call(sp, fwd_batch, "net.forward_batch", out)
    _per_call(sp, bwd_batch, "net.backward_batch", out)
    forward = sp.of("net.forward")
    out["net.forward_us"] = statistics.median(
        [(spans[i][2] - spans[i][1]) * 1e6 for i in forward] or [0.0])
    out["net.forward_calls"] = len(forward)
    out["net.checkpoint_mb"] = sp.attr_max(sp.of("net.save_params"), "bytes") / 1e6
    gemm = fwd_batch + bwd_batch
    out["net.gemm_gflop_per_s"] = sp.attr(gemm, "flops") / max(sp.dur(gemm), 1e-12) / 1e9

    train = sp.of("train.train_model")
    steps = len([i for i in bwd_batch if sp.parent_name(i) == "train.train_model"])
    out["train.steps"] = steps
    out["train.self_us_per_step"] = 1e6 * sp.self_sum(train) / max(steps, 1)
    out["train.mse_loss_s"] = sp.dur(sp.of("train.mse_loss"))
    out["train.windows_per_s"] = sp.attr(train, "windows") / max(sp.dur(train), 1e-12)

    roll = sp.of("rollout.rollout")
    out["rollout.steps"] = sp.attr(roll, "steps")
    out["rollout.self_us_per_step"] = (
        1e6 * sp.self_sum(roll) / max(out["rollout.steps"], 1))
    out["rollout.evaluate_self_s"] = sp.self_sum(sp.of("rollout.evaluate_model"))
    out["rollout.diverged_runs"] = sp.attr(roll, "diverged")
    out["trace.traced_wall_s"] = wall
    return out


def extra_metrics(spans):
    """Per-layer metrics that only some workloads exercise."""
    sp = _Spans(spans)
    oracle = [i for i in sp.of(*ORACLE) if sp.parent_name(i) not in ORACLE]
    euler = sp.of("rollout.euler_damz")
    out = {
        "dynamics.oracle_s": sp.dur(oracle),
        "data.write_s": sp.dur(sp.of("data.save_dataset", "data.save_trajectories")),
        "data.read_s": sp.dur(sp.of("data.load_dataset", "data.load_trajectories")),
        "net.checkpoint_write_s": sp.dur(sp.of("net.save_params")),
        "net.checkpoint_read_s": sp.dur(sp.of("net.load_params")),
        "rollout.euler_us_per_step": (
            1e6 * sp.dur(euler) / max(sp.attr(euler, "steps"), 1)),
    }
    for i in sp.of(*{s[0] for s in spans if s[0].startswith("cli.cmd_")}):
        key = f"cli.{spans[i][0][len('cli.cmd_'):]}.self_s"
        out[key] = out.get(key, 0.0) + sp.self_time[i]
    return out


def min_self_time(spans):
    return min(_Spans(spans).self_time)
