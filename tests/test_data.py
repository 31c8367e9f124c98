"""Tests for trajectory generation and memory-window dataset construction."""

import tracemalloc

import numpy as np
import pytest

from memflow import data
from memflow import dynamics as dyn


def toy_trajectories(rows_per_traj, d=1, delta=0.02):
    """Trajectory set with entries 1, 2, 3, ... (per component) for easy reading."""
    base = np.concatenate([np.arange(1, k + 1, dtype=float) for k in rows_per_traj])
    return data.TrajectorySet(
        d=d, delta=delta, samples=np.tile(base[:, None], (1, d)), lengths=rows_per_traj
    )


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

    def test_count_validated(self):
        dom = dyn.Domain(np.array([0.0]), np.array([1.0]))
        with pytest.raises(ValueError, match="count"):
            data.sample_initial_conditions(dom, 0, seed=0)


def reference_build_dataset(trajs, n_mem, strategy):
    """The per-window loop that build_dataset replaced; it must match it
    bitwise, start positions, row order and random draws included."""
    inputs, targets = [], []
    rng = np.random.default_rng(strategy.seed) if strategy.kind == "random" else None
    for traj in trajs.trajectories:
        available = traj.shape[0] - n_mem - 1
        if strategy.kind == "deterministic":
            if available < 1:
                continue
            starts = range(available)
        else:
            starts = rng.choice(available, size=strategy.per_trajectory, replace=False)
        for k in sorted(int(s) for s in starts):
            window = traj[k : k + n_mem + 2]
            inputs.append(window[n_mem::-1].reshape(-1))
            targets.append(window[n_mem + 1])
    width = trajs.d * (n_mem + 1)
    return (
        np.array(inputs) if inputs else np.empty((0, width)),
        np.array(targets) if targets else np.empty((0, trajs.d)),
    )


def random_trajectories(lengths, d, seed):
    rng = np.random.default_rng(seed)
    return data.TrajectorySet(
        d=d, delta=0.02, samples=rng.normal(size=(sum(lengths), d)), lengths=lengths
    )


class TestGenerateTrajectories:
    def test_minimal_length_trajectories(self):
        n_mem = 30
        spec = dyn.make_system("example1", alpha=2.0)
        trajs = data.generate_trajectories(
            spec, dyn.SolverConfig(0.02, 5), dyn.default_domain(spec),
            n_traj=4, traj_len=n_mem + 2, seed=0,
        )
        assert trajs.n_traj == 4
        assert trajs.lengths.tolist() == [32, 32, 32, 32]
        assert trajs.d == 1

    def test_time_span(self):
        spec = dyn.make_system("example3", epsilon=0.05)
        trajs = data.generate_trajectories(
            spec, dyn.SolverConfig(0.02, 10), dyn.default_domain(spec),
            n_traj=2, traj_len=100, seed=1,
        )
        # K samples cover (K-1)*delta = 1.98, i.e. sample k sits at t = k*0.02,
        # so 100 samples span a time lapse of 2 per trajectory
        assert trajs.lengths.tolist() == [100, 100]
        assert trajs.delta * 100 == pytest.approx(2.0)
        assert all(t.shape[1] == 3 for t in trajs.trajectories)

    def test_constant_system(self):
        spec = dyn.SystemSpec(
            name="still", n=2, d=1, params={}, rhs=lambda s: np.zeros_like(s)
        )
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
        assert trajs.samples.shape == (6 * 9, spec.d)
        assert trajs.samples.dtype == np.float64 and trajs.samples.flags.c_contiguous
        # the views keep alive one owned array of exactly the observed bytes
        owner = trajs.samples if trajs.samples.base is None else trajs.samples.base
        assert all(traj.base is owner for traj in trajs.trajectories)
        assert owner.base is None and owner.nbytes == 6 * 9 * spec.d * 8
        np.testing.assert_array_equal(
            trajs.samples, np.concatenate(trajs.trajectories)
        )


class TestBuildDataset:
    def test_deterministic_window_count(self):
        trajs = toy_trajectories([50, 50, 50])
        ds = data.build_dataset(trajs, 10, data.SelectionStrategy("deterministic"))
        assert ds.size == 3 * (50 - 10 - 1)

    def test_minimal_trajectory_single_window(self):
        trajs = toy_trajectories([12])
        ds = data.build_dataset(trajs, 10, data.SelectionStrategy("deterministic"))
        assert ds.size == 1

    def test_enumerated_windows_newest_first(self):
        trajs = toy_trajectories([7])
        ds = data.build_dataset(trajs, 2, data.SelectionStrategy("deterministic"))
        np.testing.assert_array_equal(
            ds.inputs,
            [[3, 2, 1], [4, 3, 2], [5, 4, 3], [6, 5, 4]],
        )
        np.testing.assert_array_equal(ds.targets, [[4], [5], [6], [7]])

    def test_short_trajectories_skipped_deterministic(self):
        trajs = toy_trajectories([12, 5, 20])
        ds = data.build_dataset(trajs, 10, data.SelectionStrategy("deterministic"))
        assert ds.size == 1 + 0 + 9

    def test_random_selection_counts_and_coherence(self):
        # offset the second trajectory so windows are attributable
        values = np.concatenate([np.arange(1.0, 51.0), np.arange(1001.0, 1051.0)])
        trajs = data.TrajectorySet(
            d=2, delta=0.02, samples=np.tile(values[:, None], (1, 2)), lengths=[50, 50]
        )
        strategy = data.SelectionStrategy("random", per_trajectory=7, seed=13)
        ds = data.build_dataset(trajs, 4, strategy)
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
        trajs = toy_trajectories([30, 30])
        strategy = data.SelectionStrategy("random", per_trajectory=5, seed=4)
        a = data.build_dataset(trajs, 3, strategy)
        b = data.build_dataset(trajs, 3, strategy)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.targets, b.targets)

    def test_random_selection_overdraw_rejected(self):
        trajs = toy_trajectories([12])
        strategy = data.SelectionStrategy("random", per_trajectory=2, seed=0)
        with pytest.raises(ValueError, match="1 start positions"):
            data.build_dataset(trajs, 10, strategy)

    def test_adjacent_pairs_when_no_memory(self):
        trajs = toy_trajectories([9])
        ds = data.build_dataset(trajs, 0, data.SelectionStrategy("deterministic"))
        assert ds.size == 8
        np.testing.assert_array_equal(ds.inputs.ravel(), np.arange(1.0, 9.0))
        np.testing.assert_array_equal(ds.targets.ravel(), np.arange(2.0, 10.0))

    def test_window_coherence_deterministic(self):
        spec = dyn.make_system("example2")
        trajs = data.generate_trajectories(
            spec, dyn.SolverConfig(0.02, 4), dyn.default_domain(spec), 2, 20, seed=8
        )
        n_mem = 6
        ds = data.build_dataset(trajs, n_mem, data.SelectionStrategy("deterministic"))
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

    @pytest.mark.parametrize("lengths, n_mem, strategy", [
        ([12, 5, 20, 9, 3], 0, data.SelectionStrategy("deterministic")),
        ([12, 5, 20, 9, 3], 4, data.SelectionStrategy("deterministic")),
        ([3, 2, 4], 5, data.SelectionStrategy("deterministic")),  # no window
        ([12, 8, 20, 9], 4, data.SelectionStrategy("random", per_trajectory=3, seed=5)),
        ([30, 7], 2, data.SelectionStrategy("random", per_trajectory=4, seed=0)),
    ])
    def test_matches_per_window_loop_bitwise(self, lengths, n_mem, strategy):
        trajs = random_trajectories(lengths, d=3, seed=sum(lengths) + n_mem)
        ds = data.build_dataset(trajs, n_mem, strategy)
        want_in, want_tgt = reference_build_dataset(trajs, n_mem, strategy)
        for got, want in ((ds.inputs, want_in), (ds.targets, want_tgt)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_strategy_validation(self):
        with pytest.raises(ValueError, match="kind"):
            data.SelectionStrategy("fancy")
        with pytest.raises(ValueError, match="per_trajectory"):
            data.SelectionStrategy("random")


class TestSerialization:
    def test_dataset_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        ds = data.MemoryWindowDataset(
            d=2, n_mem=3,
            inputs=rng.normal(size=(11, 8)) * 10.0 ** rng.integers(-8, 8, size=(11, 1)),
            targets=rng.normal(size=(11, 2)),
        )
        path = tmp_path / "ds.npz"
        data.save_dataset(ds, path)
        back = data.load_dataset(path)
        assert back.d == 2 and back.n_mem == 3
        np.testing.assert_array_equal(back.inputs, ds.inputs)
        np.testing.assert_array_equal(back.targets, ds.targets)

    def test_empty_dataset_round_trip(self, tmp_path):
        ds = data.MemoryWindowDataset(
            d=1, n_mem=2, inputs=np.empty((0, 3)), targets=np.empty((0, 1))
        )
        path = tmp_path / "empty.npz"
        data.save_dataset(ds, path)
        back = data.load_dataset(path)
        assert back.size == 0 and back.input_width == 3

    def test_header_row_width_mismatch_rejected(self, tmp_path, write_archive):
        path = write_archive(
            tmp_path / "bad.npz", d=np.int64(2), n_mem=np.int64(1),
            inputs=np.array([[1.0, 2.0, 3.0]]), targets=np.array([[4.0, 5.0]]),
        )
        with pytest.raises(ValueError, match=r"bad\.npz: inputs have shape \(1, 3\)"):
            data.load_dataset(path)

    def test_bad_header_rejected(self, tmp_path, write_archive):
        path = write_archive(
            tmp_path / "bad.npz", d=np.int64(1), J=np.int64(0),
            inputs=np.empty((0, 1)), targets=np.empty((0, 1)),
        )
        with pytest.raises(ValueError, match=r"bad\.npz: members .*expected"):
            data.load_dataset(path)

    def test_row_count_mismatch_rejected(self, tmp_path, write_archive):
        path = write_archive(
            tmp_path / "bad.npz", d=np.int64(1), n_mem=np.int64(0),
            inputs=np.array([[1.0], [3.0]]), targets=np.array([[2.0]]),
        )
        with pytest.raises(ValueError, match=r"bad\.npz: targets have shape \(1, 1\)"):
            data.load_dataset(path)

    def test_trajectory_round_trip(self, tmp_path):
        spec = dyn.make_system("example3", epsilon=0.05)
        trajs = data.generate_trajectories(
            spec, dyn.SolverConfig(0.02, 5), dyn.default_domain(spec), 3, 8, seed=0
        )
        path = tmp_path / "trajs.npz"
        data.save_trajectories(trajs, path)
        back = data.load_trajectories(path)
        assert back.d == trajs.d and back.delta == trajs.delta
        assert back.n_traj == trajs.n_traj
        for a, b in zip(back.trajectories, trajs.trajectories):
            np.testing.assert_array_equal(a, b)

    def test_ragged_trajectory_round_trip(self, tmp_path):
        trajs = random_trajectories([5, 1, 9], d=2, seed=4)
        path = tmp_path / "exact-name"
        data.save_trajectories(trajs, path)
        assert [p.name for p in tmp_path.iterdir()] == ["exact-name"]
        back = data.load_trajectories(path)
        assert back.lengths.tolist() == [5, 1, 9]
        assert back.samples.tobytes() == trajs.samples.tobytes()

    def test_load_holds_the_samples_once(self, tmp_path):
        # 400 trajectories of 100 samples, d=10: 3.2 MB, as in the example4
        # benchmark; the set adopts the loaded array instead of copying it
        trajs = random_trajectories([100] * 400, d=10, seed=1)
        path = tmp_path / "trajs.npz"
        data.save_trajectories(trajs, path)
        tracemalloc.start()
        try:
            back = data.load_trajectories(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert back.samples.nbytes == 3_200_000
        assert peak < 1.5 * back.samples.nbytes
        assert back.samples.tobytes() == trajs.samples.tobytes()

    def test_truncated_trajectory_file_rejected(self, tmp_path, write_archive):
        path = write_archive(
            tmp_path / "bad.npz", d=np.int64(1), delta=np.float64(0.02),
            lengths=np.array([3]), samples=np.array([[1.0], [2.0]]),
        )
        with pytest.raises(ValueError, match=r"bad\.npz: lengths .*sum to the 2 rows"):
            data.load_trajectories(path)
        good = tmp_path / "good.npz"
        data.save_trajectories(toy_trajectories([3]), good)
        path.write_bytes(good.read_bytes()[:-40])
        with pytest.raises(ValueError, match=r"bad\.npz: not a readable npz archive"):
            data.load_trajectories(path)


VALID_MEMBERS = {
    "trajectories": dict(
        d=np.int64(1), delta=np.float64(0.02), lengths=np.array([2, 1]),
        samples=np.array([[1.0], [2.0], [3.0]]),
    ),
    "dataset": dict(
        d=np.int64(1), n_mem=np.int64(1), inputs=np.ones((2, 2)),
        targets=np.ones((2, 1)),
    ),
}
LOADERS = {"trajectories": data.load_trajectories, "dataset": data.load_dataset}
BULK = {"trajectories": "samples", "dataset": "inputs"}


class TestMalformedArtifacts:
    """Every loader rejects a malformed or oversized archive with a
    ValueError naming the file, before reading any bulk member."""

    @pytest.mark.parametrize("kind", ["trajectories", "dataset"])
    def test_valid_members_load(self, tmp_path, write_archive, kind):
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
    ])
    def test_rejected(self, tmp_path, write_archive, declared_npy, kind, case, match):
        members = dict(VALID_MEMBERS[kind])
        bulk = BULK[kind]
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
                members["d"] = np.array([1])
            elif case == "pickled":
                members[bulk] = members[bulk].astype(object)
            elif case == "oversized":
                members[bulk] = declared_npy((10**9, 10))  # 74.5 GiB
            elif case == "negative_shape":
                members[bulk] = declared_npy((-1, -2))  # 80 bytes, as held
            write_archive(path, **members)
        with pytest.raises(ValueError, match=match) as err:
            LOADERS[kind](path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("lengths", [[3, -1], [4, 0], [1, 1]])
    def test_bad_lengths_rejected(self, tmp_path, write_archive, lengths):
        members = dict(VALID_MEMBERS["trajectories"], lengths=np.array(lengths))
        path = write_archive(tmp_path / "bad.npz", **members)
        with pytest.raises(ValueError, match="bad.npz: lengths") as err:
            data.load_trajectories(path)
        assert "must be >= 0 and sum to the 3 rows" in str(err.value)

    def test_empty_trajectory_rejected(self, tmp_path, write_archive):
        members = dict(VALID_MEMBERS["trajectories"], lengths=np.array([3, 0]))
        path = write_archive(tmp_path / "bad.npz", **members)
        with pytest.raises(ValueError, match="bad.npz: trajectory 1 is empty"):
            data.load_trajectories(path)


class TestInvariants:
    def test_count_identity_deterministic(self):
        lengths = [50, 40, 12, 33]
        trajs = toy_trajectories(lengths)
        for n_mem in (0, 3, 10):
            ds = data.build_dataset(
                trajs, n_mem, data.SelectionStrategy("deterministic")
            )
            assert ds.size == sum(max(k - n_mem - 1, 0) for k in lengths)

    def test_count_identity_random(self):
        trajs = toy_trajectories([50, 40, 33])
        ds = data.build_dataset(
            trajs, 5, data.SelectionStrategy("random", per_trajectory=4, seed=2)
        )
        assert ds.size == 4 * 3

    def test_dataset_validation_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError, match="inputs"):
            data.MemoryWindowDataset(
                d=1, n_mem=2, inputs=np.ones((4, 2)), targets=np.ones((4, 1))
            )
        with pytest.raises(ValueError, match="targets"):
            data.MemoryWindowDataset(
                d=1, n_mem=2, inputs=np.ones((4, 3)), targets=np.ones((3, 1))
            )

    def test_trajectory_set_adopts_float64_samples(self):
        samples = np.arange(12.0).reshape(6, 2).copy()
        trajs = data.TrajectorySet(d=2, delta=0.1, samples=samples, lengths=[4, 2])
        assert trajs.samples is samples
        assert [t.shape for t in trajs.trajectories] == [(4, 2), (2, 2)]
        assert all(t.base is samples for t in trajs.trajectories)
        np.testing.assert_array_equal(trajs.trajectories[1], samples[4:])
        with pytest.raises(ValueError, match=r"shape \(6, 2\), expected \(K, 3\)"):
            data.TrajectorySet(d=3, delta=0.1, samples=samples, lengths=[6])

    def test_trajectory_validation(self):
        with pytest.raises(ValueError, match="trajectory 1 contains non-finite"):
            data.TrajectorySet(
                d=1, delta=0.02, samples=np.array([[1.0], [2.0], [np.nan]]),
                lengths=[1, 2],
            )
