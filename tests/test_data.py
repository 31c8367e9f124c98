"""Tests for trajectory generation and memory-window dataset construction."""

import io
import re
import tracemalloc
import zlib

import numpy as np
import pytest

from conftest import assert_compared_by_identity, refused_seeds, windows_dataset
from memflow import data
from memflow import dynamics as dyn


def toy_trajectories(n_traj, length, d=1, delta=0.02):
    """``n_traj`` trajectories with entries 1, 2, 3, ... (per component) for
    easy reading."""
    base = np.arange(1, length + 1, dtype=float)
    return data.TrajectorySet(
        delta=delta, trajectories=np.tile(base[:, None], (n_traj, 1, d))
    )


def write_index(write_archive, path, samples, **members):
    """A dataset archive of ``members`` at ``path``, beside a trajectory file
    holding ``samples``; its CRC-32 member is theirs unless given, and a
    member given as None is left out."""
    samples = np.asarray(samples, dtype=float)
    write_archive(path.with_name(data.TRAJECTORY_FILE), delta=np.float64(0.02),
                  trajectories=samples)
    members = {"trajectories_crc32": np.int64(zlib.crc32(samples)), **members}
    return write_archive(path, **{k: v for k, v in members.items() if v is not None})


class TestSampleInitialConditions:
    def test_samples_stay_in_box(self):
        dom = dyn.Domain(np.array([-2.0, -2.0]), np.array([2.0, 2.0]))
        samples = data.sample_initial_conditions(dom, 1000, seed=1)
        assert samples.shape == (1000, 2)
        assert np.all(samples >= -2.0) and np.all(samples <= 2.0)

    def test_deterministic_under_seed(self):
        dom = dyn.Domain(np.array([0.0]), np.array([1.0]))
        a = data.sample_initial_conditions(dom, 50, seed=9)
        b = data.sample_initial_conditions(dom, 50, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_mean_close_to_center(self):
        # 6-sigma CLT bound: sigma = sqrt(1/12)/100 ~ 0.0029, so 0.02 is safe
        dom = dyn.Domain(np.array([0.0]), np.array([1.0]))
        samples = data.sample_initial_conditions(dom, 10**4, seed=3)
        assert abs(samples.mean() - 0.5) < 0.02

    @pytest.mark.parametrize("count, message", [
        (0, ">= 1, got 0"),
        # each of these used to fail inside numpy with a TypeError
        (2.5, "an integer, got 2.5"),
        (True, "an integer, got True"),
        ("3", "an integer, got '3'"),
    ])
    def test_count_validated(self, count, message):
        dom = dyn.Domain(np.array([0.0]), np.array([1.0]))
        with pytest.raises(ValueError, match=f"^count must be {message}$"):
            data.sample_initial_conditions(dom, count, seed=0)

    @refused_seeds
    def test_seed_must_be_a_count(self, seed, message):
        # generate_trajectories, evaluate_model and compare_with_homogenized
        # draw their initial conditions here
        spec = dyn.make_system("example1")
        dom = dyn.default_domain(spec)
        with pytest.raises(ValueError, match=message):
            data.sample_initial_conditions(dom, 2, seed)
        with pytest.raises(ValueError, match=message):
            data.generate_trajectories(spec, dyn.SolverConfig(0.02, 1), dom, 2, 3,
                                       seed)


def reference_build_dataset(trajs, n_mem, per_trajectory=None, seed=0):
    """A per-window loop over the trajectories that build_dataset must match
    bitwise, start positions, row order and random draws included.

    Random starts come from Floyd's algorithm written out with Python sets:
    for each step k, one scalar draw per trajectory from [0, top], with
    top = available - j0 + k, taking top when the draw is already picked.
    Steps are the outer loop, so the generator is read in the same order as
    build_dataset's one array draw per step.
    """
    trajectories = trajs.trajectories
    available = [max(t.shape[0] - n_mem - 1, 0) for t in trajectories]
    if per_trajectory is None:
        chosen = [range(a) for a in available]
    else:
        j0 = per_trajectory
        rng = np.random.default_rng(seed)
        chosen = [set() for _ in trajectories]
        for k in range(j0):
            for picks, a in zip(chosen, available):
                top = a - j0 + k
                draw = int(rng.integers(0, top + 1))
                picks.add(top if draw in picks else draw)
    inputs, targets = [], []
    for traj, starts in zip(trajectories, chosen):
        for k in sorted(starts):
            window = traj[k : k + n_mem + 2]
            inputs.append(window[n_mem::-1].reshape(-1))
            targets.append(window[n_mem + 1])
    width = trajs.d * (n_mem + 1)
    return (
        np.array(inputs) if inputs else np.empty((0, width)),
        np.array(targets) if targets else np.empty((0, trajs.d)),
    )


def random_trajectories(n_traj, length, d, seed):
    rng = np.random.default_rng(seed)
    return data.TrajectorySet(
        delta=0.02, trajectories=rng.normal(size=(n_traj, length, d))
    )


class TestGenerateTrajectories:
    @pytest.mark.parametrize("traj_len", [True, 2.0], ids=["bool", "float"])
    def test_traj_len_must_be_an_integer(self, traj_len):
        # True used to run as 1 sample per trajectory
        spec = dyn.make_system("example1")
        with pytest.raises(ValueError, match=(
                f"^traj_len must be an integer, got {traj_len!r}$")):
            data.generate_trajectories(spec, dyn.SolverConfig(0.02, 5),
                                       dyn.default_domain(spec), 2, traj_len, seed=0)

    @pytest.mark.parametrize("n_traj, message", [
        (2.0, "n_traj must be an integer, got 2.0"),
        (0, "n_traj must be >= 1, got 0"),
    ])
    def test_n_traj_named(self, n_traj, message):
        # 2.0 used to fail inside numpy with a TypeError, and 0 was named
        # "count", sample_initial_conditions' argument
        spec = dyn.make_system("example1")
        with pytest.raises(ValueError, match=f"^{message}$"):
            data.generate_trajectories(spec, dyn.SolverConfig(0.02, 5),
                                       dyn.default_domain(spec), n_traj, 3, seed=0)

    def test_domain_of_another_dimension_rejected(self):
        spec = dyn.make_system("example1")
        domain = dyn.default_domain(dyn.make_system("example3"))
        with pytest.raises(ValueError, match=(
                "^domain dimension 4 does not match system n=2$")):
            data.generate_trajectories(spec, dyn.SolverConfig(0.02, 5), domain,
                                       2, 3, seed=0)

    def test_minimal_length_trajectories(self):
        n_mem = 30
        spec = dyn.make_system("example1", alpha=2.0)
        trajs = data.generate_trajectories(
            spec, dyn.SolverConfig(0.02, 5), dyn.default_domain(spec),
            n_traj=4, traj_len=n_mem + 2, seed=0,
        )
        assert trajs.n_traj == 4
        assert trajs.trajectories.shape == (4, 32, 1)
        assert trajs.d == 1

    def test_time_span(self):
        spec = dyn.make_system("example3", epsilon=0.05)
        trajs = data.generate_trajectories(
            spec, dyn.SolverConfig(0.02, 10), dyn.default_domain(spec),
            n_traj=2, traj_len=100, seed=1,
        )
        # K samples cover (K-1)*delta = 1.98, i.e. sample k sits at t = k*0.02,
        # so 100 samples span a time lapse of 2 per trajectory
        assert trajs.trajectories.shape == (2, 100, 3)
        assert trajs.delta * 100 == pytest.approx(2.0)

    def test_constant_system(self):
        spec = dyn.SystemSpec(name="still", d=1, field=("0.0", "0.0"))
        dom = dyn.Domain(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        trajs = data.generate_trajectories(
            spec, dyn.SolverConfig(0.1, 1), dom, n_traj=3, traj_len=7, seed=2
        )
        for traj in trajs.trajectories:
            np.testing.assert_array_equal(traj, np.tile(traj[0], (7, 1)))

    def test_observed_part_matches_full_integration(self):
        spec = dyn.make_system("example2")
        cfg = dyn.SolverConfig(0.02, 4)
        dom = dyn.default_domain(spec)
        trajs = data.generate_trajectories(spec, cfg, dom, 3, 10, seed=5)
        x0s = data.sample_initial_conditions(dom, 3, seed=5)
        for i in range(3):
            full = dyn.integrate_batch(spec, cfg, x0s[i : i + 1], 9)[0]
            np.testing.assert_array_equal(trajs.trajectories[i], full[:, :1])

    def test_owns_only_the_observed_samples(self):
        spec = dyn.make_system("example4")  # n=20, d=10
        trajs = data.generate_trajectories(
            spec, dyn.SolverConfig(0.05, 2), dyn.default_domain(spec), 6, 9, seed=3
        )
        assert spec.n > spec.d
        owner = trajs.trajectories
        assert owner.shape == (6, 9, spec.d)
        assert owner.dtype == np.float64 and owner.flags.c_contiguous
        # one owned array of exactly the observed bytes; iterating it gives
        # views into it
        assert owner.base is None and owner.nbytes == 6 * 9 * spec.d * 8
        assert all(traj.base is owner for traj in owner)


    @pytest.mark.parametrize("name, n_traj", [
        ("example1", 5), ("example3", 4), ("example4", 6),
        ("example2", dyn._FLOAT_ROWS), ("example2", 40),
    ], ids=["example1", "example3", "example4", "example2-floats",
            "example2-columns"])
    @pytest.mark.parametrize("traj_len, calls", [
        (1, 1), (2, 1), (64, 1), (65, 1), (66, 2), (130, 3)])
    def test_blocks_give_the_samples_of_one_call_bitwise(
            self, monkeypatch, name, n_traj, traj_len, calls):
        # at the default cap every run here is one call; a cap of 65
        # samples of full states gives blocks of 64 samples past their first
        sample_bytes = 8 * n_traj * dyn.make_system(name).n
        assert data.BLOCK_BYTES // sample_bytes > 130
        monkeypatch.setattr(data, "BLOCK_BYTES", 65 * sample_bytes)
        counts = self.blocks_against_one_call(monkeypatch, name, n_traj, traj_len)
        # blocks of at most 64 samples, 65 samples in one call
        assert len(counts) == calls and sum(counts) == traj_len - 1
        assert max(counts) <= 64

    def test_byte_cap_splits_a_wide_batch_bitwise(self, monkeypatch):
        # 800 example4 rows take 800 * 20 * 8 = 128,000 bytes a sample, so
        # a block of at most 1 MiB of full states covers 8 samples: 7 past
        # its first, and 99 samples run in 15 calls
        counts = self.blocks_against_one_call(monkeypatch, "example4", 800, 100)
        assert data.BLOCK_BYTES == 2**20
        assert counts == [7] * 14 + [1]

    def blocks_against_one_call(self, monkeypatch, name, n_traj, traj_len):
        """The sample count of each integrate_batch call of a generation,
        once its trajectories are found bitwise equal to one call's."""
        spec = dyn.make_system(name)
        cfg, dom = dyn.SolverConfig(0.02, 3), dyn.default_domain(spec)
        x0s = data.sample_initial_conditions(dom, n_traj, seed=9)
        want = spec.observe(dyn.integrate_batch(spec, cfg, x0s, traj_len - 1))
        counts = []

        def counting(spec, config, x0s, num_samples):
            counts.append(num_samples)
            return dyn.integrate_batch(spec, config, x0s, num_samples)

        monkeypatch.setattr(data, "integrate_batch", counting)
        got = data.generate_trajectories(spec, cfg, dom, n_traj, traj_len, seed=9)
        assert got.trajectories.tobytes() == want.tobytes()
        return counts

    @pytest.mark.parametrize("lower, upper, block", [
        (0.42, 0.62, 2), (0.25, 0.35, 3)])
    @pytest.mark.parametrize("n_traj", [8, 40], ids=["floats", "columns"])
    def test_failure_past_the_first_block_named_as_one_call_names_it(
            self, monkeypatch, lower, upper, block, n_traj):
        # dx/dt = x^2 from c reaches infinity at t = 1/c: from c <= 0.62 no
        # state is non-finite before t = 1.6, sample 80 of delta 0.02, and
        # from c <= 0.35 none before sample 142
        spec = dyn.SystemSpec(name="riccati", d=1, field=("x0 * x0",))
        dom = dyn.Domain(np.array([lower]), np.array([upper]))
        cfg = dyn.SolverConfig(0.02, 2)
        x0s = data.sample_initial_conditions(dom, n_traj, seed=4)
        with pytest.raises(dyn.IntegrationError) as one:
            dyn.integrate_batch(spec, cfg, x0s, 199)
        # full states of 65 samples a block: blocks of 64 samples
        monkeypatch.setattr(data, "BLOCK_BYTES", 65 * 8 * n_traj)
        with pytest.raises(dyn.IntegrationError) as blocked:
            data.generate_trajectories(spec, cfg, dom, n_traj, 200, seed=4)
        k = one.value.sample_index
        assert (k - 1) // 64 + 1 == block
        assert one.value.trajectory_index > 0
        assert (blocked.value.sample_index, blocked.value.trajectory_index) == (
            k, one.value.trajectory_index)
        assert str(blocked.value) == str(one.value)

    @pytest.mark.parametrize("n_traj, traj_len, solver, output, block, slack", [
        (50, 3 * 64 + 1, dyn.SolverConfig(0.05, 2), 772_000, 1_048_000, 256 * 1024),
        (800, 100, dyn.SolverConfig(0.02, 3), 6_400_000, 1_024_000, 512 * 1024),
    ], ids=["blocks-of-130-samples", "blocks-of-1-mib"])
    def test_holds_the_output_and_one_block_of_full_states(
            self, n_traj, traj_len, solver, output, block, slack):
        # example4 (n=20, d=10), 160 bytes a row and sample.  A block of at
        # most 1 MiB of full states covers 1,048,576 // (160 * rows)
        # samples.  50 rows take 8,000 bytes a sample, so a block covers
        # 131: 1,048,000 bytes, and the 192 samples run in blocks of 130
        # and 62.  800 rows take 128,000, so a block covers 8 samples:
        # 1,024,000 bytes.  The slack covers the state carried between
        # blocks (a sample), the finiteness check's boolean copy of a block
        # (an eighth of it), the step matrix and Python objects: 205,720
        # and 310,544 bytes over output and block were measured.
        spec = dyn.make_system("example4")
        dom = dyn.default_domain(spec)
        data.generate_trajectories(spec, solver, dom, 2, 3, seed=3)  # lazy imports
        tracemalloc.start()
        try:
            trajs = data.generate_trajectories(spec, solver, dom, n_traj, traj_len,
                                               seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert trajs.trajectories.nbytes == output
        assert peak < output + block + slack


class TestBuildDataset:
    def test_deterministic_window_count(self):
        trajs = toy_trajectories(3, 50)
        ds = data.build_dataset(trajs, 10)
        assert ds.size == 3 * (50 - 10 - 1)

    def test_minimal_trajectory_single_window(self):
        trajs = toy_trajectories(1, 12)
        ds = data.build_dataset(trajs, 10)
        assert ds.size == 1

    def test_enumerated_windows_newest_first(self):
        trajs = toy_trajectories(1, 7)
        ds = data.build_dataset(trajs, 2)
        np.testing.assert_array_equal(
            ds.inputs,
            [[3, 2, 1], [4, 3, 2], [5, 4, 3], [6, 5, 4]],
        )
        np.testing.assert_array_equal(ds.targets, [[4], [5], [6], [7]])

    def test_random_selection_counts_and_coherence(self):
        # offset the second trajectory so windows are attributable
        values = np.stack([np.arange(1.0, 51.0), np.arange(1001.0, 1051.0)])
        trajs = data.TrajectorySet(
            delta=0.02, trajectories=np.repeat(values[:, :, None], 2, axis=2)
        )
        ds = data.build_dataset(trajs, 4, per_trajectory=7, seed=13)
        assert ds.size == 14
        # windows must be distinct within each trajectory and each must
        # de-reverse into 6 consecutive trajectory entries
        seen = {0: set(), 1: set()}
        for row_in, row_tgt in zip(ds.inputs, ds.targets):
            stack = row_in.reshape(5, 2)[::-1]
            window = np.vstack([stack, row_tgt])
            first = window[0, 0]
            seen[0 if first < 1000 else 1].add(first)
            np.testing.assert_array_equal(
                window, np.tile(np.arange(first, first + 6)[:, None], (1, 2))
            )
        assert len(seen[0]) == 7 and len(seen[1]) == 7

    def test_random_selection_reproducible(self):
        trajs = toy_trajectories(2, 30)
        a = data.build_dataset(trajs, 3, per_trajectory=5, seed=4)
        b = data.build_dataset(trajs, 3, per_trajectory=5, seed=4)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.targets, b.targets)

    def test_random_selection_overdraw_rejected(self):
        trajs = toy_trajectories(1, 12)
        with pytest.raises(ValueError, match="1 start positions"):
            data.build_dataset(trajs, 10, per_trajectory=2, seed=0)

    def test_overdraw_names_the_first_short_trajectory(self):
        trajs = toy_trajectories(4, 12)
        with pytest.raises(ValueError, match=(
                r"^requested 2 windows per trajectory but only 1 start "
                r"positions exist \(length 12, n_mem 10\)$")):
            data.build_dataset(trajs, 10, per_trajectory=2, seed=0)

    @pytest.mark.parametrize("length, n_mem, avail", [(5, 4, 0), (3, 5, 0)])
    @pytest.mark.parametrize("per_trajectory", [None, 1])
    def test_no_window_is_one_error_from_both_branches(self, length, n_mem, avail,
                                                        per_trajectory):
        trajs = toy_trajectories(3, length)
        with pytest.raises(ValueError, match=(
                rf"^requested 1 windows per trajectory but only {avail} start "
                rf"positions exist \(length {length}, n_mem {n_mem}\)$")):
            data.build_dataset(trajs, n_mem, per_trajectory=per_trajectory)

    def test_adjacent_pairs_when_no_memory(self):
        trajs = toy_trajectories(1, 9)
        ds = data.build_dataset(trajs, 0)
        assert ds.size == 8
        np.testing.assert_array_equal(ds.inputs.ravel(), np.arange(1.0, 9.0))
        np.testing.assert_array_equal(ds.targets.ravel(), np.arange(2.0, 10.0))

    def test_window_coherence_deterministic(self):
        spec = dyn.make_system("example2")
        trajs = data.generate_trajectories(
            spec, dyn.SolverConfig(0.02, 4), dyn.default_domain(spec), 2, 20, seed=8
        )
        n_mem = 6
        ds = data.build_dataset(trajs, n_mem)
        flat = {tuple(np.round(t[:, 0], 12)): t for t in trajs.trajectories}
        for row_in, row_tgt in zip(ds.inputs, ds.targets):
            window = np.concatenate([row_in.reshape(n_mem + 1, 1)[::-1], [row_tgt]])
            found = any(
                any(
                    np.array_equal(traj[k : k + n_mem + 2], window)
                    for k in range(traj.shape[0] - n_mem - 1)
                )
                for traj in trajs.trajectories
            )
            assert found, "window does not match consecutive trajectory entries"
        assert flat  # trajectories nonempty

    # strategy: build_dataset's selection keywords; {} takes every start
    # lengths: every trajectory's, one value repeated n_traj times
    @pytest.mark.parametrize("lengths, n_mem, strategy", [
        ([12] * 5, 0, {}),
        ([12] * 5, 4, {}),
        ([7] * 3, 5, {}),  # traj_len "auto": one window each
        ([12] * 4, 4, dict(per_trajectory=3, seed=5)),
        ([30] * 2, 2, dict(per_trajectory=4, seed=0)),
        ([7] * 6, 2, dict(per_trajectory=4, seed=9)),  # exactly 4 starts each
        ([300] * 6, 3, {}),
    ])
    def test_matches_per_window_loop_bitwise(self, lengths, n_mem, strategy):
        trajs = random_trajectories(len(lengths), lengths[0], d=3,
                                    seed=sum(lengths) + n_mem)
        ds = data.build_dataset(trajs, n_mem, **strategy)
        want_in, want_tgt = reference_build_dataset(trajs, n_mem, **strategy)
        for got, want in ((ds.inputs, want_in), (ds.targets, want_tgt)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("strategy", [{}, dict(per_trajectory=3, seed=2)],
                             ids=["every-start", "per-trajectory"])
    @pytest.mark.parametrize("rows", [
        np.array([11, 0, 5, 5, 7]), np.array([], dtype=np.int64),
        slice(None), slice(4, 11), slice(3, None, 5),
    ], ids=["indices", "no-indices", "all", "slice", "strided-slice"])
    def test_windows_match_per_window_loop_bitwise(self, strategy, rows):
        trajs = random_trajectories(4, 12, d=3, seed=7)
        ds = data.build_dataset(trajs, 4, **strategy)
        want_in, want_tgt = reference_build_dataset(trajs, 4, **strategy)
        for got, want in zip(ds.windows(rows), (want_in[rows], want_tgt[rows])):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_shares_the_trajectories(self):
        trajs = random_trajectories(3, 20, d=2, seed=3)
        ds = data.build_dataset(trajs, 5, per_trajectory=4, seed=1)
        assert ds.trajectories is trajs.trajectories
        assert ds.starts.dtype == np.int64 and ds.starts.shape == (3, 4)
        assert (ds.d, ds.n_mem, ds.size) == (2, 5, 12)

    def test_random_starts_uniform(self):
        # start s of a trajectory with `avail` starts is picked with
        # probability j0 / avail, and each j0-subset with 1 / C(avail, j0)
        n_traj, length, n_mem, j0, seeds = 2, 8, 1, 3, 4000
        avail = length - n_mem - 1
        trajs = toy_trajectories(n_traj, length)
        hits = np.zeros((n_traj, avail))
        subsets = {}
        for seed in range(seeds):
            ds = data.build_dataset(trajs, n_mem, per_trajectory=j0, seed=seed)
            starts = ds.inputs[:, -1].astype(int) - 1  # oldest entry, 1-based
            for i, picks in enumerate(starts.reshape(n_traj, j0)):
                assert np.all(np.diff(picks) > 0)
                hits[i][picks] += 1
            key = tuple(starts[:j0])
            subsets[key] = subsets.get(key, 0) + 1
        # 5 binomial standard deviations: a false alarm about once in 10^6
        p = j0 / avail
        bound = 5 * np.sqrt(p * (1 - p) / seeds)
        assert np.max(np.abs(hits / seeds - p)) < bound, hits
        p = 1 / 20  # C(6, 3) subsets of the first trajectory's starts
        assert len(subsets) == 20
        bound = 5 * np.sqrt(p * (1 - p) / seeds)
        assert max(abs(c / seeds - p) for c in subsets.values()) < bound

    @pytest.mark.parametrize("lengths, n_mem, j0", [
        ([7, 7, 7], 5, 1),          # traj_len "auto": one start each
        ([10, 10, 10, 10], 3, 6),   # every start taken
    ])
    def test_every_start_drawn_gives_the_deterministic_dataset(
            self, lengths, n_mem, j0):
        trajs = random_trajectories(len(lengths), lengths[0], d=2, seed=1)
        det = data.build_dataset(trajs, n_mem)
        for seed in range(5):
            ran = data.build_dataset(trajs, n_mem, per_trajectory=j0, seed=seed)
            assert ran.inputs.tobytes() == det.inputs.tobytes()
            assert ran.targets.tobytes() == det.targets.tobytes()

    @refused_seeds
    @pytest.mark.parametrize("per_trajectory", [1, None])
    def test_seed_must_be_a_count(self, seed, message, per_trajectory):
        # checked whether or not the draw uses it
        with pytest.raises(ValueError, match=message):
            data.build_dataset(toy_trajectories(1, 12), 1, per_trajectory, seed)

    def test_n_mem_that_is_not_an_integer_named(self):
        # n_mem 1.5 used to fail inside numpy with a TypeError
        with pytest.raises(ValueError, match="^n_mem must be an integer, got 1.5$"):
            data.build_dataset(toy_trajectories(1, 12), 1.5)

    def test_strategy_validation(self):
        trajs = toy_trajectories(1, 12)
        for j0, message in ((0, ">= 1, got 0"), (-3, ">= 1, got -3"),
                            (True, "an integer, got True"),
                            (2.0, "an integer, got 2.0"),
                            ("3", "an integer, got '3'")):
            with pytest.raises(ValueError, match=(
                    f"^per_trajectory must be {re.escape(message)}$")):
                data.build_dataset(trajs, 2, per_trajectory=j0)


class TestExactMapGate:
    """A least-squares fit on a linear system's dataset recovers the exact
    reduced map, with no training.

    ``lstsq(inputs, targets)`` gives L_hat; L_hat O must equal C S and both
    L_hat and the exact L of ``dynamics.exact_reduced_map`` must reproduce
    every target.  That pins build_dataset's newest-first order, its target
    offset and the observe split of generate_trajectories: getting any of
    them wrong moves these numbers to about 1e-2.  Bound 1e-13 on states
    of size at most 3.1; measured at most 8.9e-15 (L_hat O - C S, example4
    n_mem 30), 1.2e-14 (L_hat residual) and 9.8e-15 (L residual).
    """

    @pytest.mark.parametrize("name", ["example1", "example4"])
    @pytest.mark.parametrize("n_mem", [1, 5, 30])
    @pytest.mark.parametrize("strategy", [
        {},
        dict(per_trajectory=3, seed=7),
    ], ids=["deterministic", "random"])
    def test_least_squares_recovers_the_exact_map(self, name, n_mem, strategy):
        spec = dyn.make_system(name)
        solver = dyn.SolverConfig(0.02, 20)
        trajs = data.generate_trajectories(
            spec, solver, dyn.default_domain(spec), 100, n_mem + 12, seed=n_mem)
        ds = data.build_dataset(trajs, n_mem, **strategy)
        big_l, obs = dyn.exact_reduced_map(spec, solver, n_mem)
        fit = np.linalg.lstsq(ds.inputs, ds.targets, rcond=None)[0].T
        step = dyn._rk4_sample_matrix(spec.a_matrix, solver.delta, solver.substeps)
        assert np.linalg.norm(fit @ obs - step[: spec.d], 2) < 1e-13
        for m in (fit, big_l):
            assert np.abs(ds.inputs @ m.T - ds.targets).max() < 1e-13


class TestSerialization:
    def test_archives_are_the_bytes_np_savez_writes(self, tmp_path):
        # each member is written from the array's buffer, and the archive is
        # still np.savez's, byte for byte
        trajs = random_trajectories(6, 11, d=3, seed=4)
        ds = data.build_dataset(trajs, 2, per_trajectory=4, seed=4)
        data.save_trajectories(trajs, tmp_path / "trajectories.npz")
        data.save_dataset(ds, tmp_path / "dataset.npz")
        np.savez(tmp_path / "want_trajectories.npz", delta=np.float64(trajs.delta),
                 trajectories=trajs.trajectories)
        np.savez(tmp_path / "want_dataset.npz", n_mem=np.int64(ds.n_mem),
                 starts=ds.starts,
                 trajectories_crc32=np.int64(zlib.crc32(trajs.trajectories)))
        for name in ("trajectories.npz", "dataset.npz"):
            assert ((tmp_path / name).read_bytes()
                    == (tmp_path / f"want_{name}").read_bytes())

    def test_save_copies_no_array(self, tmp_path):
        # linear20's 3.2 MB of trajectories: np.savez copied them chunk by
        # chunk (3,207,720 bytes more); the save now allocates a few kB
        trajs = random_trajectories(400, 100, d=10, seed=1)
        assert trajs.trajectories.nbytes == 3_200_000
        path = tmp_path / "trajectories.npz"
        data.save_trajectories(trajs, path)  # lazy imports
        tracemalloc.start()
        try:
            data.save_trajectories(trajs, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        assert data.load_trajectories(path).trajectories.tobytes() == (
            trajs.trajectories.tobytes())

    def test_dataset_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        trajs = data.TrajectorySet(delta=0.02, trajectories=(
            rng.normal(size=(5, 9, 2)) * 10.0 ** rng.integers(-8, 8, size=(5, 9, 1))))
        ds = data.build_dataset(trajs, 3, per_trajectory=2, seed=6)
        data.save_trajectories(trajs, tmp_path / data.TRAJECTORY_FILE)
        path = tmp_path / "ds.npz"
        data.save_dataset(ds, path)
        back = data.load_dataset(path)
        assert back.d == 2 and back.n_mem == 3
        assert type(back.d) is int and type(back.n_mem) is int
        assert back.trajectories.tobytes() == ds.trajectories.tobytes()
        assert back.starts.dtype == np.int64
        np.testing.assert_array_equal(back.starts, ds.starts)
        np.testing.assert_array_equal(back.inputs, ds.inputs)
        np.testing.assert_array_equal(back.targets, ds.targets)
        # saving what was loaded writes the same bytes
        data.save_dataset(back, tmp_path / "again.npz")
        assert (tmp_path / "again.npz").read_bytes() == path.read_bytes()

    def test_dataset_file_holds_the_index_alone(self, tmp_path):
        trajs = random_trajectories(4, 10, d=3, seed=2)
        ds = data.build_dataset(trajs, 2, per_trajectory=3, seed=1)
        path = tmp_path / "ds.npz"
        data.save_dataset(ds, path)
        with np.load(path) as archive:
            assert sorted(archive.files) == ["n_mem", "starts", "trajectories_crc32"]
            assert archive["trajectories_crc32"].dtype == np.int64
            assert archive["trajectories_crc32"].ndim == 0
            assert archive["trajectories_crc32"] == zlib.crc32(trajs.trajectories)
            assert archive["starts"].tobytes() == ds.starts.tobytes()
        # the starts and three scalars: 3 x 4 x 8 bytes of starts, not the
        # 4 x 10 x 3 x 8 bytes of samples
        assert path.stat().st_size < 1000

    def test_regenerated_trajectories_rejected(self, tmp_path):
        # build-dataset, then generate again with another seed: the index
        # no longer fits the trajectories beside it
        trajs = random_trajectories(3, 8, d=1, seed=1)
        source = tmp_path / data.TRAJECTORY_FILE
        data.save_trajectories(trajs, source)
        path = tmp_path / "ds.npz"
        data.save_dataset(data.build_dataset(trajs, 2), path)
        data.save_trajectories(random_trajectories(3, 8, d=1, seed=2), source)
        with pytest.raises(ValueError) as err:
            data.load_dataset(path)
        want = zlib.crc32(trajs.trajectories)
        got = zlib.crc32(data.load_trajectories(source).trajectories)
        assert str(err.value) == (
            f"{path}: built on trajectories of CRC-32 {want:08x}, but {source} "
            f"has CRC-32 {got:08x}; build the dataset again")

    def test_missing_trajectories_rejected(self, tmp_path):
        trajs = random_trajectories(3, 8, d=1, seed=1)
        path = tmp_path / "ds.npz"
        data.save_dataset(data.build_dataset(trajs, 2), path)
        with pytest.raises(ValueError) as err:
            data.load_dataset(path)
        message = str(err.value)
        assert message.startswith(
            f"{path}: cannot read the trajectories it indexes: ")
        assert str(tmp_path / data.TRAJECTORY_FILE) in message

    def test_unreadable_trajectories_rejected(self, tmp_path, write_archive):
        trajs = random_trajectories(3, 8, d=1, seed=1)
        path = tmp_path / "ds.npz"
        data.save_dataset(data.build_dataset(trajs, 2), path)
        source = tmp_path / data.TRAJECTORY_FILE
        write_archive(source, delta=np.float64(0.02))
        with pytest.raises(ValueError) as err:
            data.load_dataset(path)
        assert str(err.value) == (
            f"{path}: cannot read the trajectories it indexes: {source}: members "
            "['delta.npy'], expected ['delta.npy', 'trajectories.npy']")

    def test_empty_dataset_round_trip(self, tmp_path, write_archive):
        # no empty dataset can be built, so none is read back: a file of no
        # windows is rejected, naming the file
        path = write_index(
            write_archive, tmp_path / "empty.npz", np.ones((2, 5, 1)),
            n_mem=np.int64(2), starts=np.empty((2, 0), dtype=np.int64),
        )
        with pytest.raises(ValueError, match=(
                r"empty\.npz: starts have shape \(2, 0\), expected \(2, count\) "
                r"with count >= 1$")):
            data.load_dataset(path)

    def test_header_row_width_mismatch_rejected(self, tmp_path, write_archive):
        # trajectories of 3 samples hold no window of n_mem + 2 = 4
        path = write_index(
            write_archive, tmp_path / "bad.npz", np.ones((1, 3, 2)),
            n_mem=np.int64(2), starts=np.zeros((1, 1), dtype=np.int64),
        )
        with pytest.raises(ValueError, match=(
                r"bad\.npz: starts lie in \[0, 0\], expected \[0, -1\] for K=3 "
                r"and n_mem=2$")):
            data.load_dataset(path)

    def test_bad_header_rejected(self, tmp_path, write_archive):
        path = write_archive(
            tmp_path / "bad.npz", d=np.int64(1), J=np.int64(0),
            inputs=np.empty((0, 1)), targets=np.empty((0, 1)),
        )
        with pytest.raises(ValueError, match=r"bad\.npz: members .*expected"):
            data.load_dataset(path)

    def test_row_count_mismatch_rejected(self, tmp_path, write_archive):
        path = write_index(
            write_archive, tmp_path / "bad.npz", np.ones((2, 3, 1)),
            n_mem=np.int64(0), starts=np.zeros((1, 1), dtype=np.int64),
        )
        with pytest.raises(ValueError, match=(
                r"bad\.npz: starts have shape \(1, 1\), expected \(2, count\)")):
            data.load_dataset(path)

    @pytest.mark.parametrize("members, match", [
        (dict(starts=np.array([[0, 2]])), r"starts lie in \[0, 2\], expected \[0, 1\]"),
        (dict(starts=np.array([[-1, 0]])), r"starts lie in \[-1, 0\], expected \[0, 1\]"),
        (dict(starts=np.array([[0.0, 1.0]])),
         "member 'starts' is float64 with 2 dims, expected int64 with 2"),
        (dict(starts=np.zeros((2, 1), dtype=np.int64)),
         r"starts have shape \(2, 1\), expected \(1, count\) with count >= 1"),
        (dict(starts=np.zeros((1, 0), dtype=np.int64)),
         r"starts have shape \(1, 0\), expected \(1, count\) with count >= 1"),
        (dict(starts=None, trajectories_crc32=None, d=np.int64(1),
              inputs=np.ones((2, 2)), targets=np.ones((2, 1))),
         r"members \['d.npy', 'inputs.npy', 'n_mem.npy', 'targets.npy'\], expected "
         r"\['n_mem.npy', 'starts.npy', 'trajectories_crc32.npy'\]"),
        # the index layout that held a second copy of the trajectories
        (dict(starts=np.zeros((1, 1), dtype=np.int64), trajectories_crc32=None,
              trajectories=np.ones((1, 5, 1))),
         r"members \['n_mem.npy', 'starts.npy', 'trajectories.npy'\], expected "
         r"\['n_mem.npy', 'starts.npy', 'trajectories_crc32.npy'\]$"),
    ], ids=["past-the-end", "negative", "float", "row-count", "no-columns",
            "old-layout", "trajectories-copy"])
    def test_malformed_index_rejected(self, tmp_path, write_archive, members, match):
        # one trajectory of 5 samples holds windows of n_mem + 2 = 4 at 0 and 1
        path = write_index(write_archive, tmp_path / "bad.npz", np.ones((1, 5, 1)),
                           **{"n_mem": np.int64(2), **members})
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {match}"):
            data.load_dataset(path)

    def test_trajectory_round_trip(self, tmp_path):
        spec = dyn.make_system("example3", epsilon=0.05)
        trajs = data.generate_trajectories(
            spec, dyn.SolverConfig(0.02, 5), dyn.default_domain(spec), 3, 8, seed=0
        )
        path = tmp_path / "exact-name"
        data.save_trajectories(trajs, path)
        assert [p.name for p in tmp_path.iterdir()] == ["exact-name"]
        back = data.load_trajectories(path)
        assert back.d == trajs.d and back.delta == trajs.delta
        assert type(back.delta) is float
        assert back.n_traj == trajs.n_traj
        assert back.trajectories.shape == (3, 8, 3)
        assert back.trajectories.tobytes() == trajs.trajectories.tobytes()
        # saving what was loaded writes the same bytes
        data.save_trajectories(back, tmp_path / "again.npz")
        assert (tmp_path / "again.npz").read_bytes() == path.read_bytes()

    def test_load_holds_the_samples_once(self, tmp_path):
        # 400 trajectories of 100 samples, d=10: 3.2 MB, as in the example4
        # benchmark; the set adopts the loaded array instead of copying it
        trajs = random_trajectories(400, 100, d=10, seed=1)
        path = tmp_path / "trajs.npz"
        data.save_trajectories(trajs, path)
        tracemalloc.start()
        try:
            back = data.load_trajectories(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert back.trajectories.shape == (400, 100, 10)
        assert back.trajectories.nbytes == 3_200_000
        assert peak < 1.5 * back.trajectories.nbytes
        assert back.trajectories.tobytes() == trajs.trajectories.tobytes()

    def test_truncated_trajectory_file_rejected(self, tmp_path):
        path = tmp_path / "bad.npz"
        good = tmp_path / "good.npz"
        data.save_trajectories(toy_trajectories(1, 3), good)
        path.write_bytes(good.read_bytes()[:-40])
        with pytest.raises(ValueError, match=r"bad\.npz: not a readable npz archive"):
            data.load_trajectories(path)

    def test_flat_layout_with_lengths_rejected(self, tmp_path, write_archive):
        # the earlier layout: the trajectories one after another in samples
        path = write_archive(
            tmp_path / "old.npz", d=np.int64(1), delta=np.float64(0.02),
            lengths=np.array([2, 1]), samples=np.array([[1.0], [2.0], [3.0]]),
        )
        with pytest.raises(ValueError) as err:
            data.load_trajectories(path)
        assert str(err.value) == (
            f"{path}: members ['d.npy', 'delta.npy', 'lengths.npy', "
            "'samples.npy'], expected ['delta.npy', 'trajectories.npy']"
        )


VALID_MEMBERS = {
    "trajectories": dict(
        delta=np.float64(0.02), trajectories=np.array([[[1.0], [2.0]], [[3.0], [4.0]]]),
    ),
    "dataset": dict(
        n_mem=np.int64(1), starts=np.zeros((2, 1), dtype=np.int64),
        trajectories_crc32=np.int64(zlib.crc32(np.ones((2, 3, 1)))),
    ),
}
# the trajectory file a dataset's index is read over, written beside it
BESIDE = {"dataset": dict(delta=np.float64(0.02), trajectories=np.ones((2, 3, 1)))}
LOADERS = {"trajectories": data.load_trajectories, "dataset": data.load_dataset}
# each file's bulk member: the trajectory file's float64 samples of 3 dims,
# so a declared shape gets a trailing 1, and the dataset's int64 starts of
# 2 dims; their cases read differently from the defaults in the
# parametrization
BULK = {"trajectories": "trajectories", "dataset": "starts"}
BULK_DESCR = {"trajectories": "<f8", "dataset": "<i8"}
SCALAR = {"trajectories": "delta", "dataset": "n_mem"}
BULK_MATCH = {
    "trajectories": {
        "dtype": "float32 with 3 dims, expected float64",
        "pickled": "is object with 3 dims",
        "oversized": r"declares shape \(1000000000, 10, 1\)",
        "negative_shape": r"declares shape \(-1, -2, 1\)",
    },
    "dataset": {"dtype": "'starts' is float32 with 2 dims, expected int64"},
}
NDIM_MATCH = {
    "trajectories": "'delta' is float64 with 1 dims, expected float64 with 0",
    "dataset": "'n_mem' is int64 with 1 dims, expected int64 with 0",
}


class TestMalformedArtifacts:
    """Every loader rejects a malformed or oversized archive with a
    ValueError naming the file, before reading any bulk member."""

    @pytest.mark.parametrize("kind", ["trajectories", "dataset"])
    def test_valid_members_load(self, tmp_path, write_archive, kind):
        if kind in BESIDE:
            write_archive(tmp_path / data.TRAJECTORY_FILE, **BESIDE[kind])
        LOADERS[kind](write_archive(tmp_path / "ok.npz", **VALID_MEMBERS[kind]))

    @pytest.mark.parametrize("kind", ["trajectories", "dataset"])
    @pytest.mark.parametrize("case, match", [
        ("not_npz", "not a readable npz archive"),
        ("missing", "members"),
        ("extra", "members"),
        ("dtype", "float32 with 2 dims, expected float64"),
        ("ndim", "'d' is int64 with 1 dims, expected int64 with 0"),
        ("pickled", "is object with 2 dims"),
        ("oversized", r"declares shape \(1000000000, 10\)"),
        ("negative_shape", r"declares shape \(-1, -2\)"),
        ("compressed", "compressed"),
        # np.load reads npy 2.0 as well; the loaders read only 1.0 headers
        ("npy_2_0", "is not in npy format 1.0"),
    ])
    def test_rejected(self, tmp_path, write_archive, declared_npy, kind, case, match):
        members = dict(VALID_MEMBERS[kind])
        bulk = BULK[kind]
        extra_dims = members[bulk].ndim - 2
        match = NDIM_MATCH[kind] if case == "ndim" else BULK_MATCH[kind].get(case, match)
        if kind in BESIDE:
            write_archive(tmp_path / data.TRAJECTORY_FILE, **BESIDE[kind])
        path = tmp_path / "bad.npz"
        if case == "not_npz":
            path.write_text("d=1 n_mem=0 J=1\n1.0 ; 2.0\n")
        elif case == "compressed":
            np.savez_compressed(path, **members)
        else:
            if case == "missing":
                del members[bulk]
            elif case == "extra":
                members["extra"] = np.zeros(1)
            elif case == "dtype":
                members[bulk] = members[bulk].astype(np.float32)
            elif case == "ndim":
                members[SCALAR[kind]] = members[SCALAR[kind]].reshape(1)
            elif case == "pickled":
                members[bulk] = members[bulk].astype(object)
            elif case == "oversized":
                members[bulk] = declared_npy(  # 74.5 GiB
                    (10**9, 10) + (1,) * extra_dims, BULK_DESCR[kind])
            elif case == "negative_shape":
                # 80 bytes, as held
                members[bulk] = declared_npy((-1, -2) + (1,) * extra_dims,
                                             BULK_DESCR[kind])
            elif case == "npy_2_0":
                buf = io.BytesIO()
                np.lib.format.write_array(buf, members[bulk], version=(2, 0))
                members[bulk] = buf.getvalue()
            write_archive(path, **members)
        with pytest.raises(ValueError, match=match) as err:
            LOADERS[kind](path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("kind", ["trajectories", "dataset"])
    def test_no_trajectories_rejected(self, tmp_path, write_archive, kind):
        empty = np.empty((0, 3, 1))
        if kind == "dataset":
            path = write_index(write_archive, tmp_path / "bad.npz", empty,
                               n_mem=np.int64(1), starts=np.empty((0, 1), np.int64))
        else:
            path = write_archive(tmp_path / "bad.npz",
                                 **dict(VALID_MEMBERS[kind], trajectories=empty))
        with pytest.raises(ValueError, match=(
                r"^.*bad\.npz: trajectories have shape \(0, 3, 1\), expected at "
                r"least one trajectory$")):
            LOADERS[kind](path)

    def test_empty_trajectory_rejected(self, tmp_path, write_archive):
        members = dict(VALID_MEMBERS["trajectories"], trajectories=np.empty((2, 0, 1)))
        path = write_archive(tmp_path / "bad.npz", **members)
        with pytest.raises(ValueError, match=(
                r"bad\.npz: trajectories have shape \(2, 0, 1\), expected "
                r"\(n_traj, K, d\) with K >= 1 and d >= 1")):
            data.load_trajectories(path)


class TestInvariants:
    @pytest.mark.parametrize("make", [
        lambda: toy_trajectories(2, 5),
        lambda: data.build_dataset(toy_trajectories(2, 5), 1),
    ], ids=["trajectory-set", "dataset"])
    def test_containers_compare_by_identity(self, make):
        # each held an array, so == raised ValueError and hash TypeError
        assert_compared_by_identity(make)

    def test_count_identity_deterministic(self):
        trajs = toy_trajectories(4, 40)
        for n_mem in (0, 3, 10):
            ds = data.build_dataset(trajs, n_mem)
            assert ds.size == 4 * (40 - n_mem - 1)

    def test_count_identity_random(self):
        trajs = toy_trajectories(3, 40)
        ds = data.build_dataset(trajs, 5, per_trajectory=4, seed=2)
        assert ds.size == 4 * 3

    def test_dataset_validation_rejects_mismatched_shapes(self):
        trajectories = np.ones((4, 5, 1))
        with pytest.raises(ValueError, match=r"^starts have shape \(3, 1\)"):
            data.MemoryWindowDataset(n_mem=2, trajectories=trajectories,
                                     starts=np.zeros((3, 1), dtype=np.int64))
        with pytest.raises(ValueError, match=r"^starts have shape \(4,\)"):
            data.MemoryWindowDataset(n_mem=2, trajectories=trajectories,
                                     starts=np.zeros(4, dtype=np.int64))
        with pytest.raises(ValueError, match="^starts must be an integer array, got bool"):
            data.MemoryWindowDataset(n_mem=2, trajectories=trajectories,
                                     starts=np.zeros((4, 1), dtype=bool))
        with pytest.raises(ValueError, match=r"^trajectories have shape \(4, 5\)"):
            data.MemoryWindowDataset(n_mem=2, trajectories=trajectories[..., 0],
                                     starts=np.zeros((4, 1), dtype=np.int64))
        with pytest.raises(ValueError, match="^trajectory 2 contains non-finite"):
            bad = trajectories.copy()
            bad[2, 4, 0] = np.inf
            data.MemoryWindowDataset(n_mem=2, trajectories=bad,
                                     starts=np.zeros((4, 1), dtype=np.int64))
        for n_mem, message in ((-1, ">= 0, got -1"), (True, "an integer, got True"),
                               (2.0, "an integer, got 2.0")):
            with pytest.raises(ValueError, match=f"^n_mem must be {message}$"):
                data.MemoryWindowDataset(n_mem=n_mem, trajectories=trajectories,
                                         starts=np.zeros((4, 1), dtype=np.int64))

    def test_dataset_of_given_windows(self):
        # the helper the loss and training tests build their datasets with
        rng = np.random.default_rng(2)
        inputs, targets = rng.normal(size=(6, 8)), rng.normal(size=(6, 2))
        ds = windows_dataset(3, inputs, targets)
        assert (ds.d, ds.n_mem, ds.size) == (2, 3, 6)
        assert ds.inputs.tobytes() == inputs.tobytes()
        assert ds.targets.tobytes() == targets.tobytes()

    def test_trajectory_set_adopts_float64_samples(self):
        samples = np.arange(12.0).reshape(2, 3, 2).copy()
        trajs = data.TrajectorySet(delta=0.1, trajectories=samples)
        assert trajs.trajectories is samples
        assert (trajs.n_traj, trajs.d) == (2, 2)
        assert [t.shape for t in trajs.trajectories] == [(3, 2), (3, 2)]
        assert all(t.base is samples for t in trajs.trajectories)
        np.testing.assert_array_equal(trajs.trajectories[1], samples[1])

    @pytest.mark.parametrize("shape", [(6, 2), (2, 0, 1), (2, 3, 0)],
                             ids=["2-D", "K=0", "d=0"])
    def test_trajectory_set_rejects_bad_shape(self, shape):
        with pytest.raises(ValueError, match=(
                rf"^trajectories have shape {re.escape(str(shape))}, expected "
                r"\(n_traj, K, d\) with K >= 1 and d >= 1$")):
            data.TrajectorySet(delta=0.1, trajectories=np.ones(shape))

    def test_trajectory_set_rejects_no_trajectories(self):
        with pytest.raises(ValueError, match=(
                r"^trajectories have shape \(0, 5, 1\), expected at least one "
                r"trajectory$")):
            data.TrajectorySet(delta=0.02, trajectories=np.zeros((0, 5, 1)))

    @pytest.mark.parametrize("delta, message", [
        (0.0, "> 0, got 0.0"),
        (np.inf, "a finite number, got inf"),
        (np.nan, "a finite number, got nan"),
        # True was accepted, and "0.1" failed with a TypeError
        (True, "a finite number, got True"),
        ("0.1", "a finite number, got '0.1'"),
    ])
    def test_trajectory_set_rejects_bad_delta(self, delta, message):
        with pytest.raises(ValueError, match=f"^delta must be {message}$"):
            data.TrajectorySet(delta=delta, trajectories=np.ones((1, 2, 1)))

    def test_trajectory_set_stores_delta_as_a_float(self):
        trajs = data.TrajectorySet(delta=np.float32(0.5), trajectories=np.ones((1, 2, 1)))
        assert trajs.delta == 0.5 and type(trajs.delta) is float

    def test_trajectory_validation(self):
        with pytest.raises(ValueError, match="trajectory 1 contains non-finite"):
            data.TrajectorySet(
                delta=0.02, trajectories=np.array([[[1.0], [2.0]], [[3.0], [np.nan]]]),
            )
