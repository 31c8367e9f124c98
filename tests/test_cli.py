"""Tests for the command line driver: configs, presets, and the pipeline glue."""

import json
import os
import re
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from conftest import assert_compared_by_value, refused_seeds, windows_dataset
from memflow import cli, data, net, rollout


def micro_config(tmp_path, **overrides):
    """A config small enough to run every subcommand in well under a second."""
    doc = dict(
        system="example1",
        params={"alpha": 2.0},
        delta=0.02,
        substeps=3,
        n_traj=50,
        traj_len="auto",
        per_trajectory=1,
        n_mem=3,
        hidden=[8],
        learning_rate=1e-3,
        batch_size=16,
        epochs=3,
        eval_horizon=0.5,
        n_eval_runs=2,
        seed=7,
        out_dir=str(tmp_path / "run"),
    )
    doc.update(overrides)
    return cli.ExperimentConfig.from_dict(doc)


# the settings the tiny chains of test_seed_determines_artifacts_bitwise share
_TINY = dict(substeps=5, hidden=[8, 8, 8], epochs=1, eval_horizon=1.0,
             n_eval_runs=2, seed=1)


def write_config(cfg, tmp_path, name="config.json"):
    path = tmp_path / name
    cli.save_config(cfg, path)
    return path


class TestConfig:
    def test_presets_round_trip(self):
        for name in cli.PRESETS:
            cfg = cli.preset_config(name)
            doc = asdict(cfg)
            again = cli.ExperimentConfig.from_dict(doc)
            assert asdict(again) == doc

    def test_presets_json_round_trip(self, tmp_path):
        for name in cli.PRESETS:
            cfg = cli.preset_config(name)
            path = write_config(cfg, tmp_path, f"{name}.json")
            assert asdict(cli.load_config(path)) == asdict(cfg)

    def test_numpy_scalars_stored_as_python_numbers(self):
        # numpy integers were refused with "n_mem must be an integer, got
        # np.int64(3)", though every library function accepts them
        cfg = cli.ExperimentConfig(system="example1", n_mem=np.int64(3),
                                   hidden=(np.int64(8),) * 3, seed=np.uint32(5),
                                   delta=np.float64(0.02), eval_horizon=np.int64(2))
        assert (cfg.n_mem, cfg.hidden, cfg.seed) == (3, (8, 8, 8), 5)
        assert (cfg.delta, cfg.eval_horizon) == (0.02, 2.0)
        for value in (cfg.n_mem, *cfg.hidden, cfg.seed):
            assert type(value) is int
        for value in (cfg.delta, cfg.eval_horizon, cfg.learning_rate):
            assert type(value) is float

    def test_config_of_numpy_scalars_round_trips(self, tmp_path):
        cfg = cli.ExperimentConfig(system="example1", n_mem=np.int64(3),
                                   delta=np.float64(0.02))
        path = write_config(cfg, tmp_path)
        assert json.loads(path.read_text())["n_mem"] == 3
        assert asdict(cli.load_config(path)) == asdict(cfg)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            cli.ExperimentConfig.from_dict({"system": "example1", "turbo": True})
        # Adam's constants are not config keys
        for key in ("adam_beta1", "adam_beta2", "adam_eps"):
            with pytest.raises(ValueError, match=f"unknown config keys: \\['{key}'\\]"):
                cli.ExperimentConfig.from_dict({"system": "example1", key: 0.9})
        # per_trajectory alone selects the windows
        with pytest.raises(ValueError,
                           match=r"unknown config keys: \['selection_kind'\]"):
            cli.ExperimentConfig.from_dict(
                {**cli.PRESETS["example1-fast"], "selection_kind": "random"})
        # initial conditions come from the system's default domain
        for key in ("domain_lower", "domain_upper"):
            with pytest.raises(ValueError, match=f"unknown config keys: \\['{key}'\\]"):
                cli.ExperimentConfig.from_dict({"system": "example1", key: [-1, -1]})

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown preset"):
            cli.preset_config("example9")

    def test_config_compares_by_value(self, tmp_path):
        assert_compared_by_value(lambda: micro_config(tmp_path))

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="JSON"):
            cli.load_config(path)

    def test_config_that_is_not_an_object_rejected(self, tmp_path, capsys):
        path = tmp_path / "array.json"
        path.write_text(json.dumps([{"system": "example1"}]))
        assert cli.main(["generate", "--config", str(path),
                         "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: config must be a JSON object\n")
        assert not (tmp_path / "run").exists()

    def test_params_key_that_is_not_a_string_rejected(self, tmp_path):
        # make_system(**params) raises TypeError on it
        with pytest.raises(ValueError, match=(
                "^params of example1: keywords must be strings$")):
            micro_config(tmp_path, params={1: 2.0})

    @pytest.mark.parametrize("key, value, match", [
        ("per_trajectory", 0, "per_trajectory"),
        ("per_trajectory", -3, "per_trajectory must be >= 1, got -3"),
        ("epochs", 0, "epochs"),
        ("n_traj", 0, "n_traj"),
        ("batch_size", 0, "batch_size"),
        ("seed", -1, "seed must be >= 0, got -1"),
        ("eval_horizon", float("inf"), "eval_horizon must be a finite number, got inf"),
        ("eval_horizon", 0.0, "eval_horizon must be > 0, got 0.0"),
        ("learning_rate", float("nan"), "learning_rate must be a finite number, got nan"),
        ("hidden", [], r"hidden must be a non-empty list, got \[\]"),
        ("hidden", [0], "hidden width must be >= 1, got 0"),
        ("per_trajectory", True, "per_trajectory must be an integer, got True"),
        ("delta", float("inf"), "delta must be a finite number, got inf"),
        ("delta", 1e-320, "eval_horizon=20 is not a finite number of steps "
         "of delta=1e-320"),
        # math.isfinite raises OverflowError on it
        ("eval_horizon", 10**400,
         f"eval_horizon must be a finite number, got {10**400}$"),
    ])
    def test_bad_values_rejected_at_load(self, tmp_path, monkeypatch, key, value, match):
        doc = {**cli.PRESETS["example1-fast"], key: value}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=match):
            cli.load_config(path)
        monkeypatch.setitem(cli.PRESETS, "bad", doc)
        with pytest.raises(ValueError, match=match):
            cli.preset_config("bad")

    @pytest.mark.parametrize("key, value", [
        ("hidden", 30),
        ("params", []),
        ("seed", None),
        ("n_traj", "abc"),
        ("n_mem", 1.5),
        ("out_dir", 3),
    ])
    def test_wrong_types_rejected_at_load(self, tmp_path, capsys, key, value):
        doc = {**asdict(micro_config(tmp_path)), key: value}
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(doc))
        message = f"{path}: {key} must be "
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            cli.load_config(path)
        assert cli.main(["generate", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")

    def test_horizon_shorter_than_seed_rejected_at_load(self, tmp_path, capsys):
        # 0.04 / 0.02 = 2 steps cannot hold the n_mem + 1 = 4 seed states
        doc = {**asdict(micro_config(tmp_path)), "eval_horizon": 0.04}
        path = tmp_path / "short.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["predict", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: eval_horizon=0.04 is 2 steps ")
        for name in ("eval_horizon", "n_mem=3", "delta=0.02"):
            assert name in err
        # the shortest horizon that covers the seed loads
        micro_config(tmp_path, eval_horizon=0.08)

    def test_horizon_of_infinitely_many_steps_rejected_at_load(self, tmp_path,
                                                               capsys):
        # 20 / 1e-320 overflows to inf steps: named, not an OverflowError
        path = tmp_path / "tiny-delta.json"
        path.write_text('{"system": "example1", "delta": 1e-320}')
        assert cli.main(["generate", "--config", str(path),
                         "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: {path}: eval_horizon=20 is not a finite number "
                       f"of steps of delta=1e-320\n")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("changes, message", [
        (dict(traj_len=6, n_mem=4, per_trajectory=2),
         "traj_len=6 leaves 1 window starts per trajectory at n_mem=4, fewer "
         "than per_trajectory=2"),
        (dict(traj_len=4, per_trajectory=None),
         "traj_len=4 leaves 0 window starts per trajectory at n_mem=3, fewer "
         "than one"),
        (dict(batch_size=51),
         "batch_size=51 exceeds the 50 windows of n_traj=50 trajectories "
         "at n_mem=3"),
    ], ids=["per-trajectory", "deterministic", "batch-size"])
    def test_dataset_the_config_cannot_build_rejected_at_load(
            self, tmp_path, capsys, changes, message):
        doc = {**asdict(micro_config(tmp_path)), **changes}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["generate", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not (tmp_path / "run").exists()

    def test_parameter_that_is_not_a_number_rejected(self, tmp_path):
        with pytest.raises(ValueError, match=r"example1 parameter 'alpha' must "
                           r"be a finite number, got \[2.0\]"):
            micro_config(tmp_path, params={"alpha": [2.0]})

    @pytest.mark.parametrize("system, params, key", [
        ("example1", {"alpha": "abc"}, "alpha"),
        ("example2", {"beta": True}, "beta"),
        ("example3", {"epsilon": None}, "epsilon"),
        ("example1", {"observe": 1.7}, "observe"),
        ("linear-generic", {"matrix": [[-1.0]], "d": "x"}, "d"),
    ])
    def test_numeric_parameters_checked_by_key(self, tmp_path, capsys, system,
                                               params, key):
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"system": system, "params": params}))
        assert cli.main(["generate", "--config", str(path),
                         "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {system} parameter '{key}' must be ")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("matrix", [
        [["-1", "0.5"], ["0", "-2"]],
        [[True, False], [False, True]],
    ], ids=["strings", "bools"])
    def test_generic_matrix_of_non_numbers_rejected(self, tmp_path, capsys, matrix):
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps(
            {"system": "linear-generic", "params": {"matrix": matrix, "d": 1}}))
        assert cli.main(["oracle-check", "--config", str(path),
                         "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: linear-generic matrix must hold numbers\n")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("key", ["domain_lower", "domain_upper"])
    def test_half_a_domain_rejected(self, tmp_path, capsys, key):
        # a config that sets either key fails at load, before any stage
        doc = {"system": "example1", key: [-1, -1]}
        path = tmp_path / "half.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["generate", "--config", str(path),
                         "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}: unknown config keys: ['{key}']\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("doc", [{}, {"n_mem": 3}], ids=["empty", "no-system"])
    def test_missing_system_named(self, tmp_path, capsys, doc):
        # a config without the one required key used to end in a TypeError
        # traceback from the dataclass constructor
        path = tmp_path / "no-system.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["generate", "--config", str(path),
                         "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: missing config keys: ['system']\n")
        assert not (tmp_path / "run").exists()

    def test_config_not_utf8_named(self, tmp_path, capsys):
        # a byte that is not UTF-8 used to give the codec's message alone
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"system": "example1", "params": {"alpha": 2.0}, '
                         b'"out_dir": "\xff"}')
        assert cli.main(["generate", "--config", str(path),
                         "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: not valid JSON: 'utf-8' codec can't decode byte "
            f"0xff in position 61: invalid start byte\n")
        assert not (tmp_path / "run").exists()

    def test_old_keys_rejected_in_one_sorted_message(self, tmp_path, capsys):
        # per_trajectory alone selects the windows and initial conditions
        # come from the system's default domain: both keys are unknown
        path = tmp_path / "old-keys.json"
        path.write_text(json.dumps(
            {"system": "example1", "selection_kind": "random",
             "per_trajectory": 1, "domain_lower": [-1.0, -1.0]}))
        assert cli.main(["generate", "--config", str(path),
                         "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: unknown config keys: ['domain_lower', "
            f"'selection_kind']\n")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("system, key, value", [
        ("example2", "alpha", float("nan")),
        ("example3", "epsilon", float("inf")),
    ])
    def test_non_finite_parameters_rejected_at_load(self, tmp_path, capsys,
                                                    system, key, value):
        # json writes and reads NaN and Infinity; they fail at load, by key
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"system": system, "params": {key: value}}))
        assert cli.main(["generate", "--config", str(path),
                         "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: {system} parameter '{key}' must be a finite "
            f"number, got {value}\n")
        assert not (tmp_path / "run").exists()

    def test_domain_is_the_systems_default(self, tmp_path):
        cfg = micro_config(tmp_path)
        want = cli.dyn.default_domain(cfg.spec())
        np.testing.assert_array_equal(cfg.domain().lower, want.lower)
        np.testing.assert_array_equal(cfg.domain().upper, want.upper)

    def test_stage_seeds_differ_by_label(self):
        assert cli.stage_seed(7, "generate") != cli.stage_seed(7, "train")
        assert cli.stage_seed(7, "generate") == cli.stage_seed(7, "generate")

    @refused_seeds
    def test_stage_seed_master_must_be_a_count(self, seed, message):
        # int() used to turn a master seed of 1.5 into 1
        with pytest.raises(ValueError, match=message):
            cli.stage_seed(seed, "generate")


class TestPipeline:
    def test_end_to_end_micro_run(self, tmp_path, capsys):
        cfg = micro_config(tmp_path)
        traj_path = cli.cmd_generate(cfg)
        assert traj_path.exists()
        ds_path = cli.cmd_build_dataset(cfg)
        assert ds_path.exists()
        model_path = cli.cmd_train(cfg)
        assert model_path.exists()
        assert (tmp_path / "run" / cli.TRAIN_LOG_FILE).exists()
        rollout_path = cli.cmd_predict(cfg, steps=10)
        header = rollout_path.read_text().splitlines()
        assert header[0] == "t,z_1,ref_1,err"
        assert len(header) == 1 + cfg.n_mem + 1 + 10
        # row k is at time k * delta, and its err is |z - ref|
        table = np.loadtxt(rollout_path, delimiter=",", skiprows=1)
        assert table[:, 0].tobytes() == (np.arange(len(table)) * cfg.delta).tobytes()
        np.testing.assert_array_equal(table[:, 3], np.abs(table[:, 1] - table[:, 2]))

    def test_predict_by_default_reaches_the_horizon(self, tmp_path, capsys):
        cfg = micro_config(tmp_path)
        for stage in (cli.cmd_generate, cli.cmd_build_dataset, cli.cmd_train):
            stage(cfg)
        table = np.loadtxt(cli.cmd_predict(cfg), delimiter=",", skiprows=1)
        # the n_mem + 1 seed states and the steps after them
        assert table.shape == (cfg.horizon_steps() + 1, 4) == (26, 4)
        assert table[-1, 0] == cfg.eval_horizon == 0.5

    def test_train_warns_when_data_starved(self, tmp_path, capsys):
        cfg = micro_config(tmp_path)
        cli.cmd_generate(cfg)
        cli.cmd_build_dataset(cfg)
        cli.cmd_train(cfg)  # J=50 << 5 * n_params
        assert "below 5x the parameter count" in capsys.readouterr().err

    @pytest.mark.parametrize("n_traj, warned", [(244, True), (245, False)])
    def test_train_warns_below_five_windows_per_parameter(
            self, tmp_path, capsys, n_traj, warned):
        # hidden [8] at d=1, n_mem=3: (4*8 + 8) + (8*1 + 1) = 49 parameters,
        # and 5 * 49 = 245 windows, one per trajectory
        cfg = micro_config(tmp_path, n_traj=n_traj, epochs=1)
        cli.cmd_generate(cfg)
        cli.cmd_build_dataset(cfg)
        capsys.readouterr()
        cli.cmd_train(cfg)
        out, err = capsys.readouterr()
        assert "trained 49-parameter model" in out
        want = (f"warning: J={n_traj} is below 5x the parameter count (49); "
                "training may be data-starved\n")
        assert err == (want if warned else "")

    @pytest.mark.parametrize("doc, stages, windows", [
        (asdict(micro_config(Path("."))),
         [["generate"], ["build-dataset"], ["train"], ["predict", "--steps", "8"]],
         50),
        ({**_TINY, "system": "example1", "params": {"alpha": 2.0}, "n_traj": 300,
          "traj_len": "auto", "per_trajectory": 1, "n_mem": 10},
         [["generate"], ["build-dataset"], ["train"], ["predict", "--steps", "20"],
          ["sweep", "--n-mem", "2,3"]],
         300),
        # per_trajectory null: every window of a fully observed system,
        # 40 trajectories x 10 starts each
        ({**_TINY, "system": "example1", "params": {"alpha": 2.0, "observe": 2},
          "n_traj": 40, "traj_len": 11, "per_trajectory": None, "n_mem": 0},
         [["generate"], ["build-dataset"], ["train"]],
         400),
        # the nonlinear systems: generate's 40 rows step on numpy columns,
        # predict's one row and compare-reduced's 12 example3 and
        # example3-reduced rows on Python floats (asserted below)
        ({**_TINY, "system": "example2", "n_traj": 40, "traj_len": 20,
          "per_trajectory": 2, "n_mem": 4},
         [["generate"], ["build-dataset"], ["train"], ["predict", "--steps", "20"]],
         80),
        ({**_TINY, "system": "example3", "params": {"epsilon": 0.02}, "n_traj": 40,
          "traj_len": 20, "per_trajectory": 2, "n_mem": 4, "eval_horizon": 0.5,
          "n_eval_runs": 12},
         [["generate"], ["build-dataset"], ["train"], ["compare-reduced"]],
         80),
    ], ids=["micro", "example1", "flowmap", "example2", "example3"])
    def test_seed_determines_artifacts_bitwise(self, tmp_path, capsys, doc, stages,
                                               windows):
        # a config plus a seed fixes every file of a run directory: the
        # chain runs twice through cli.main, into two directories
        if doc["system"] != "example1":
            assert doc["n_traj"] > cli.dyn._FLOAT_ROWS >= doc["n_eval_runs"]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        runs = [tmp_path / "a", tmp_path / "b"]
        for out in runs:
            for command, *flags in stages:
                assert cli.main([command, "--config", str(path), "--out", str(out),
                                 *flags]) == 0
            assert f"built dataset with J={windows} windows" in capsys.readouterr().out
        writes = {"generate": [cli.TRAJECTORY_FILE], "build-dataset": [cli.DATASET_FILE],
                  "train": [cli.MODEL_FILE, cli.TRAIN_LOG_FILE],
                  "predict": [cli.ROLLOUT_FILE], "sweep": [cli.SWEEP_FILE],
                  "compare-reduced": [cli.COMPARE_FILE]}
        names = sorted(name for command, *_ in stages for name in writes[command])
        for out in runs:
            assert sorted(p.name for p in out.iterdir()) == names
        for name in names:
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name

    def test_windows_held_once_train_like_windows_held_apart(self, tmp_path):
        # every window of 50 trajectories, indexed over the trajectories
        # themselves or over one trajectory of n_mem + 2 samples per window,
        # trains from one seed to the same checkpoint and loss log
        outs = {}
        for tag in ("shared", "apart"):
            cfg = micro_config(tmp_path, traj_len=12, per_trajectory=None,
                               out_dir=str(tmp_path / tag))
            cli.cmd_generate(cfg)
            cli.cmd_build_dataset(cfg)
            if tag == "apart":
                path = tmp_path / tag / cli.DATASET_FILE
                ds = data.load_dataset(path)
                apart = windows_dataset(ds.n_mem, ds.inputs, ds.targets)
                assert ds.trajectories.shape == (50, 12, 1)
                assert apart.trajectories.shape == (400, 5, 1)
                # the dataset file indexes the trajectory file beside it
                data.save_trajectories(
                    data.TrajectorySet(cfg.delta, apart.trajectories),
                    tmp_path / tag / cli.TRAJECTORY_FILE)
                data.save_dataset(apart, path)
            cli.cmd_train(cfg)
            outs[tag] = [(tmp_path / tag / name).read_bytes()
                         for name in (cli.MODEL_FILE, cli.TRAIN_LOG_FILE)]
        assert outs["shared"] == outs["apart"]

    def test_different_seed_changes_artifacts(self, tmp_path):
        outs = {}
        for seed in (1, 2):
            cfg = micro_config(tmp_path, seed=seed, out_dir=str(tmp_path / str(seed)))
            cli.cmd_generate(cfg)
            outs[seed] = (tmp_path / str(seed) / cli.TRAJECTORY_FILE).read_bytes()
        assert outs[1] != outs[2]

    def test_sweep_writes_table(self, tmp_path):
        cfg = micro_config(tmp_path, n_traj=30, epochs=2)
        path = cli.cmd_sweep(cfg, [1, 2])
        lines = path.read_text().splitlines()
        assert lines[0] == "n_mem,T_M,mean_error"
        assert len(lines) == 3
        assert lines[1].startswith("1,") and lines[2].startswith("2,")

    def test_sweep_names_diverged_runs(self, tmp_path, capsys, monkeypatch):
        es = np.zeros(3)
        monkeypatch.setattr(rollout, "evaluate_model",
                            lambda *args, **kwargs: (np.inf, [es, None, es]))
        cfg = micro_config(tmp_path, n_traj=30, epochs=2, n_eval_runs=3)
        path = cli.cmd_sweep(cfg, [1, 2])
        # the table keeps its columns; the printed line names the runs
        assert path.read_text().splitlines()[1:] == ["1,0.02,inf", "2,0.04,inf"]
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].endswith("mean_error=inf  (1 of 3 runs diverged: [1])")
        assert lines[1].endswith("mean_error=inf  (1 of 3 runs diverged: [1])")

    def test_compare_reduced_requires_example3(self, tmp_path):
        # a checkpoint that fits the example1 config: the system is what fails
        cfg = micro_config(tmp_path)
        out = tmp_path / "run"
        out.mkdir()
        net.save_params(net.init_params(1, cfg.n_mem, cfg.hidden, seed=0),
                        out / cli.MODEL_FILE)
        with pytest.raises(ValueError, match="for example3, not example1"):
            cli.cmd_compare_reduced(cfg)

    @pytest.mark.parametrize("config, message", [
        (["--preset", "example2"], "is a reference for example3, not example2"),
        ({"system": "example3", "params": {"observe": 2}},
         "predicts x1, x2 and x3, so example3 must observe those three; it "
         "observes d=2"),
    ], ids=["example2", "example3-observing-2"])
    def test_compare_reduced_refuses_before_making_the_run(self, tmp_path, capsys,
                                                           config, message):
        # the closure's system was checked only after the missing model.npz
        # of the empty run directory it had made was reported
        if isinstance(config, dict):
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))
            config = ["--config", str(path)]
        out = tmp_path / "run"
        assert cli.main(["compare-reduced", *config, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: the homogenized closure {message}\n"
        assert not out.exists()

    def test_oracle_check_passes_for_linear_system(self, tmp_path, capsys):
        cfg = micro_config(tmp_path, substeps=20)
        worst = cli.cmd_oracle_check(cfg)
        assert worst <= cli.ORACLE_TOL
        out = capsys.readouterr().out
        assert "max over 20 draws" in out and "oracle check passed" in out

    def test_oracle_check_sees_a_small_decomposition_error(self, tmp_path,
                                                           monkeypatch):
        # a fault of 1e-8 is far below the trapezoid's error, far above
        # round-off
        exact = cli.dyn.linear_mz_rhs
        monkeypatch.setattr(cli.dyn, "linear_mz_rhs",
                            lambda spec, x0, t: exact(spec, x0, t) + 1e-8)
        with pytest.raises(RuntimeError, match="oracle self-check failed"):
            cli.cmd_oracle_check(micro_config(tmp_path, substeps=20))

    @pytest.mark.parametrize("preset", ["example1-fast", "example1-slow",
                                        "example4", "flowmap-linear"])
    def test_oracle_check_passes_on_every_linear_preset(self, preset, capsys):
        assert cli.main(["oracle-check", "--preset", preset]) == 0
        assert capsys.readouterr().out.endswith("oracle check passed\n")

    def test_oracle_check_passes_on_a_non_symmetric_a22(self, tmp_path, capsys):
        # every preset's A22 is symmetric (example4) or 1x1 (example1), so
        # none of them tells exp(A22 t) from its transpose; this one does
        matrix = np.random.default_rng(5).uniform(-1.0, 1.0, (4, 4)) - 1.5 * np.eye(4)
        a22 = matrix[2:, 2:]
        assert np.abs(a22 - a22.T).max() > 0.1
        path = tmp_path / "generic.json"
        path.write_text(json.dumps({"system": "linear-generic",
                                    "params": {"matrix": matrix.tolist(), "d": 2}}))
        assert cli.main(["oracle-check", "--config", str(path)]) == 0
        assert capsys.readouterr().out.endswith("oracle check passed\n")

    def test_oracle_check_fails_on_a_nonlinear_preset(self, capsys):
        assert cli.main(["oracle-check", "--preset", "example2"]) == 1
        assert capsys.readouterr().err == (
            "error: example2 is not linear; no exact reference available\n")

    def test_oracle_check_rejects_nonlinear_system(self, tmp_path):
        cfg = micro_config(tmp_path, system="example2", params={})
        with pytest.raises(ValueError, match="not linear"):
            cli.cmd_oracle_check(cfg)

    def test_compare_reduced_writes_errors_on_the_time_grid(self, tmp_path):
        cfg = micro_config(tmp_path, system="example3", params={},
                           n_eval_runs=2)
        out = tmp_path / "run"
        out.mkdir()
        net.save_params(net.init_params(3, cfg.n_mem, cfg.hidden, seed=0),
                        out / cli.MODEL_FILE)
        path = cli.cmd_compare_reduced(cfg)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,nn_error,reduced_error"
        table = np.loadtxt(path, delimiter=",", skiprows=1)
        steps = cfg.horizon_steps()
        assert table.shape == (steps + 1, 3)
        assert table[:, 0].tobytes() == (np.arange(steps + 1) * cfg.delta).tobytes()
        # both start from the true slow state
        np.testing.assert_array_equal(table[0, 1:], 0.0)
        assert np.all(table[1:, 2] > 0.0)

    def test_compare_reduced_rejects_checkpoint_config_mismatch(self, tmp_path):
        cfg = micro_config(tmp_path, system="example3", params={})
        out = tmp_path / "run"
        out.mkdir()
        net.save_params(net.init_params(1, cfg.n_mem + 1, cfg.hidden, seed=0),
                        out / cli.MODEL_FILE)
        with pytest.raises(ValueError, match="n_mem=4.*does not match.*n_mem=3"):
            cli.cmd_compare_reduced(cfg)

    def test_dataset_config_mismatch_rejected(self, tmp_path):
        cfg = micro_config(tmp_path)
        cli.cmd_generate(cfg)
        cli.cmd_build_dataset(cfg)
        other = micro_config(tmp_path, n_mem=5)
        with pytest.raises(ValueError, match="does not match"):
            cli.cmd_train(other)


class TestMain:
    def test_import_loads_neither_argparse_nor_json(self):
        # a library user, the benchmark's workloads among them, imports the
        # module for its configs and stages; only main parses arguments and
        # only load_config and save_config read and write JSON
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-c", "import sys, memflow.cli; "
             "print(sorted({'argparse', 'json'} & set(sys.modules)))"],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True, check=True, timeout=60)
        assert run.stdout.split() == ["[]"]

    def test_requires_config_or_preset(self, capsys):
        assert cli.main(["generate"]) == 1
        assert "required" in capsys.readouterr().err

    def test_rejects_both_config_and_preset(self, tmp_path, capsys):
        cfg_path = write_config(micro_config(tmp_path), tmp_path)
        code = cli.main(
            ["generate", "--config", str(cfg_path), "--preset", "example2"]
        )
        assert code == 1

    def test_full_cli_surface(self, tmp_path, capsys):
        cfg_path = write_config(micro_config(tmp_path), tmp_path)
        base = ["--config", str(cfg_path)]
        assert cli.main(["generate", *base]) == 0
        assert cli.main(["build-dataset", *base]) == 0
        assert cli.main(["train", *base]) == 0
        assert cli.main(["predict", *base, "--steps", "5"]) == 0
        assert cli.main(["oracle-check", *base]) == 0
        assert cli.main(["sweep", *base, "--n-mem", "1,2"]) == 0
        for name in (cli.TRAJECTORY_FILE, cli.DATASET_FILE, cli.MODEL_FILE,
                     cli.ROLLOUT_FILE, cli.SWEEP_FILE):
            assert (tmp_path / "run" / name).exists(), name

    @pytest.mark.parametrize("change, got, want", [
        ({"n_mem": 4}, "n_mem=3", "n_mem=4"),
        ({"hidden": [9]}, "hidden=(8,)", "hidden=(9,)"),
    ])
    def test_predict_rejects_checkpoint_config_mismatch(
        self, tmp_path, capsys, change, got, want
    ):
        base = ["--config", str(write_config(micro_config(tmp_path), tmp_path))]
        for stage in ("generate", "build-dataset", "train"):
            assert cli.main([stage, *base]) == 0
        other = write_config(micro_config(tmp_path, **change), tmp_path, "other.json")
        capsys.readouterr()
        assert cli.main(["predict", "--config", str(other), "--steps", "5"]) == 1
        err = capsys.readouterr().err
        assert "does not match config" in err
        assert got in err and want in err
        assert err.index(got) < err.index(want)  # checkpoint first, then config

    @pytest.mark.parametrize("change, got, want", [
        ({"hidden": [9]}, "hidden=(8,)", "hidden=(9,)"),
        ({"n_mem": 4, "hidden": [9]}, "n_mem=3, hidden=(8,)", "n_mem=4, hidden=(9,)"),
    ], ids=["hidden", "n_mem-and-hidden"])
    def test_predict_names_the_checkpoint_and_each_field_that_differs(
        self, tmp_path, capsys, change, got, want
    ):
        base = ["--config", str(write_config(micro_config(tmp_path), tmp_path))]
        for stage in ("generate", "build-dataset", "train"):
            assert cli.main([stage, *base]) == 0
        other = write_config(micro_config(tmp_path, **change), tmp_path, "other.json")
        capsys.readouterr()
        assert cli.main(["predict", "--config", str(other), "--steps", "5"]) == 1
        path = tmp_path / "run" / cli.MODEL_FILE
        assert capsys.readouterr().err == (
            f"error: {path}: {got} does not match config {want}\n")

    def test_train_names_the_dataset_and_each_field_that_differs(self, tmp_path,
                                                                 capsys):
        base = ["--config", str(write_config(micro_config(tmp_path), tmp_path))]
        for stage in ("generate", "build-dataset"):
            assert cli.main([stage, *base]) == 0
        other = write_config(micro_config(tmp_path, n_mem=5), tmp_path, "other.json")
        capsys.readouterr()
        assert cli.main(["train", "--config", str(other)]) == 1
        path = tmp_path / "run" / cli.DATASET_FILE
        assert capsys.readouterr().err == (
            f"error: {path}: n_mem=3 does not match config n_mem=5\n")
        assert not (tmp_path / "run" / cli.MODEL_FILE).exists()

    def test_train_rejects_a_dataset_of_regenerated_trajectories(self, tmp_path,
                                                                capsys):
        cfg_path = write_config(micro_config(tmp_path), tmp_path)
        base = ["--config", str(cfg_path)]
        for stage in ("generate", "build-dataset"):
            assert cli.main([stage, *base]) == 0
        assert cli.main(["generate", *base, "--seed", "2"]) == 0
        capsys.readouterr()
        assert cli.main(["train", *base]) == 1
        out = tmp_path / "run"
        err = capsys.readouterr().err
        assert err.startswith(f"error: {out / cli.DATASET_FILE}: built on trajectories "
                              "of CRC-32 ")
        assert f"but {out / cli.TRAJECTORY_FILE} has CRC-32 " in err
        assert err.endswith("; build the dataset again\n")
        assert not (out / cli.MODEL_FILE).exists()

    def test_trajectory_file_named_once(self):
        assert cli.TRAJECTORY_FILE is data.TRAJECTORY_FILE

    @pytest.mark.parametrize("stage, name, members", [
        ("build-dataset", cli.TRAJECTORY_FILE,
         dict(delta=np.float64(0.02))),
        ("train", cli.DATASET_FILE,
         dict(n_mem=np.int64(3), trajectories_crc32=np.int64(0))),
    ])
    def test_oversized_artifact_fails_without_traceback(
        self, tmp_path, capsys, write_archive, declared_npy, stage, name, members
    ):
        base = ["--config", str(write_config(micro_config(tmp_path), tmp_path))]
        out = tmp_path / "run"
        out.mkdir()
        # the trajectory file's bulk member is its float64 samples, the
        # dataset's its int64 window starts
        if name == cli.TRAJECTORY_FILE:
            bulk, declared = "trajectories", declared_npy((10**9, 10, 1))
        else:
            bulk, declared = "starts", declared_npy((10**9, 10), "<i8")
        write_archive(out / name, **members, **{bulk: declared})
        assert cli.main([stage, *base]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {out / name}: member '{bulk}' declares shape")
        assert "Traceback" not in err

    def test_seed_override_flows_through(self, tmp_path):
        cfg_path = write_config(micro_config(tmp_path), tmp_path)
        outs = {}
        for seed, tag in ((3, "s3"), (4, "s4")):
            out = tmp_path / tag
            assert cli.main([
                "generate", "--config", str(cfg_path),
                "--seed", str(seed), "--out", str(out),
            ]) == 0
            outs[tag] = (out / cli.TRAJECTORY_FILE).read_bytes()
        assert outs["s3"] != outs["s4"]

    @pytest.mark.parametrize("command, flag, value, message", [
        ("predict", "--steps", "0", "--steps must be >= 1, got 0"),
        ("predict", "--steps", "-3", "--steps must be >= 1, got -3"),
        ("sweep", "--n-mem", "-1", "n_mem must be >= 0, got -1"),
        ("generate", "--seed", "-1", "seed must be >= 0, got -1"),
    ], ids=["steps-zero", "steps-negative", "n-mem-negative", "seed-negative"])
    def test_out_of_range_count_named(self, tmp_path, capsys, command, flag, value,
                                      message):
        cfg_path = write_config(micro_config(tmp_path), tmp_path)
        assert cli.main([command, "--config", str(cfg_path), flag, value]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_build_dataset_rejects_trajectories_of_another_delta(self, tmp_path,
                                                                 capsys):
        fine = write_config(micro_config(tmp_path, delta=0.02), tmp_path)
        coarse = write_config(micro_config(tmp_path, delta=0.05), tmp_path,
                              "coarse.json")
        assert cli.main(["generate", "--config", str(fine)]) == 0
        capsys.readouterr()
        assert cli.main(["build-dataset", "--config", str(coarse)]) == 1
        path = tmp_path / "run" / cli.TRAJECTORY_FILE
        assert capsys.readouterr().err == (
            f"error: {path}: delta=0.02 does not match config delta=0.05\n"
        )
        assert not (tmp_path / "run" / cli.DATASET_FILE).exists()

    def test_build_dataset_rejects_trajectories_of_another_d(self, tmp_path,
                                                             capsys):
        both = write_config(
            micro_config(tmp_path, params={"alpha": 2.0, "observe": 2}), tmp_path)
        one = write_config(micro_config(tmp_path), tmp_path, "one.json")
        assert cli.main(["generate", "--config", str(both)]) == 0
        capsys.readouterr()
        assert cli.main(["build-dataset", "--config", str(one)]) == 1
        path = tmp_path / "run" / cli.TRAJECTORY_FILE
        assert capsys.readouterr().err == (
            f"error: {path}: d=2 does not match config d=1\n"
        )
        assert not (tmp_path / "run" / cli.DATASET_FILE).exists()

    @pytest.mark.parametrize("stage, name, members, found, expected", [
        ("build-dataset", cli.TRAJECTORY_FILE,
         dict(d=np.int64(1), delta=np.float64(0.02), lengths=np.full(50, 5),
              samples=np.zeros((250, 1))),
         ["d.npy", "delta.npy", "lengths.npy", "samples.npy"],
         ["delta.npy", "trajectories.npy"]),
        ("train", cli.DATASET_FILE,
         dict(d=np.int64(1), n_mem=np.int64(3), inputs=np.zeros((50, 4)),
              targets=np.zeros((50, 1))),
         ["d.npy", "inputs.npy", "n_mem.npy", "targets.npy"],
         ["n_mem.npy", "starts.npy", "trajectories_crc32.npy"]),
        ("train", cli.DATASET_FILE,
         dict(n_mem=np.int64(3), starts=np.zeros((50, 1), dtype=np.int64),
              trajectories=np.zeros((50, 5, 1))),
         ["n_mem.npy", "starts.npy", "trajectories.npy"],
         ["n_mem.npy", "starts.npy", "trajectories_crc32.npy"]),
    ], ids=["flat-trajectories", "windows-dataset", "trajectory-copy-dataset"])
    def test_earlier_artifact_layouts_rejected_by_member_names(
            self, tmp_path, capsys, stage, name, members, found, expected):
        cfg_path = write_config(micro_config(tmp_path), tmp_path)
        path = tmp_path / "run" / name
        path.parent.mkdir()
        np.savez(path, **members)
        assert cli.main([stage, "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: members {found}, expected {expected}\n")

    def test_sweep_rejects_a_cell_before_training(self, tmp_path, capsys,
                                                  monkeypatch):
        # n_mem 2 fits the 5-step horizon; n_mem 6 needs 7 seed states
        trained = []
        monkeypatch.setattr(cli.train_mod, "train_model",
                            lambda *args: trained.append(args))
        cfg = micro_config(tmp_path, eval_horizon=0.1)
        cfg_path = write_config(cfg, tmp_path)
        assert cli.main(
            ["sweep", "--config", str(cfg_path), "--n-mem", "2,6"]) == 1
        assert capsys.readouterr().err == (
            "error: eval_horizon=0.1 is 5 steps of delta=0.02, fewer than the "
            "n_mem + 1 = 7 seed states of a rollout (n_mem=6)\n")
        assert trained == []
        assert not (tmp_path / "run" / cli.SWEEP_FILE).exists()

    def test_divergent_training_fails_without_checkpoint(self, tmp_path, capsys):
        # J = 64 = batch_size: one Adam step, then the epoch's loss overflows
        cfg = micro_config(tmp_path, n_traj=64, n_mem=4, batch_size=64, epochs=1,
                           learning_rate=1e300)
        base = ["--config", str(write_config(cfg, tmp_path))]
        for stage in ("generate", "build-dataset"):
            assert cli.main([stage, *base]) == 0
        capsys.readouterr()
        assert cli.main(["train", *base]) == 1
        assert capsys.readouterr().err.endswith(
            "error: non-finite loss after epoch 0 (step 1); reduce the learning "
            "rate\n")
        for name in (cli.MODEL_FILE, cli.TRAIN_LOG_FILE):
            assert not (tmp_path / "run" / name).exists()

    def test_infinite_learning_rate_rejected_at_load(self, tmp_path, capsys):
        doc = {**asdict(micro_config(tmp_path)), "learning_rate": float("inf")}
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(doc))  # written as Infinity
        assert cli.main(["train", "--config", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: learning_rate must be a finite number, got inf\n")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("message, line", [
        ("Unable to allocate 14.9 GiB for an array",
         "error: generate ran out of memory: Unable to allocate 14.9 GiB for "
         "an array\n"),
        ("", "error: generate ran out of memory\n"),
    ], ids=["numpy", "bare"])
    def test_out_of_memory_named_in_one_line(self, tmp_path, capsys, monkeypatch,
                                             message, line):
        def out_of_memory(cfg):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "cmd_generate", out_of_memory)
        cfg_path = write_config(micro_config(tmp_path), tmp_path)
        assert cli.main(["generate", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == line

    @pytest.mark.parametrize("text, message", [
        ("3,two", "--n-mem expects comma-separated integers, got '3,two'"),
        (",", "--n-mem list is empty"),
        (" , ", "--n-mem list is empty"),
    ], ids=["not-integers", "comma", "spaced-comma"])
    def test_bad_n_mem_list(self, tmp_path, capsys, text, message):
        cfg_path = write_config(micro_config(tmp_path), tmp_path)
        assert cli.main(["sweep", "--config", str(cfg_path), "--n-mem", text]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "run" / cli.SWEEP_FILE).exists()

    def test_descending_n_mem_list_rejected_before_training(self, tmp_path, capsys,
                                                            monkeypatch):
        trained = []
        monkeypatch.setattr(cli.train_mod, "train_model",
                            lambda *args: trained.append(args))
        cfg_path = write_config(micro_config(tmp_path), tmp_path)
        assert cli.main(["sweep", "--config", str(cfg_path), "--n-mem", "3,2"]) == 1
        assert capsys.readouterr().err == "error: n_mem_list must be strictly ascending\n"
        assert trained == []
        assert not (tmp_path / "run" / cli.SWEEP_FILE).exists()
