"""Tests for the command line driver: configs, presets, and the pipeline glue."""

import json
import re

import numpy as np
import pytest

from memflow import cli, net


def micro_config(tmp_path, **overrides):
    """A config small enough to run every subcommand in well under a second."""
    doc = dict(
        system="example1",
        params={"alpha": 2.0},
        delta=0.02,
        substeps=3,
        n_traj=50,
        traj_len="auto",
        selection_kind="random",
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


def write_config(cfg, tmp_path, name="config.json"):
    path = tmp_path / name
    cli.save_config(cfg, path)
    return path


class TestConfig:
    def test_presets_round_trip(self):
        for name in cli.PRESETS:
            cfg = cli.preset_config(name)
            doc = cfg.to_dict()
            again = cli.ExperimentConfig.from_dict(doc)
            assert again.to_dict() == doc

    def test_presets_json_round_trip(self, tmp_path):
        for name in cli.PRESETS:
            cfg = cli.preset_config(name)
            path = write_config(cfg, tmp_path, f"{name}.json")
            assert cli.load_config(path).to_dict() == cfg.to_dict()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            cli.ExperimentConfig.from_dict({"system": "example1", "turbo": True})
        # Adam's constants are not config keys
        for key in ("adam_beta1", "adam_beta2", "adam_eps"):
            with pytest.raises(ValueError, match=f"unknown config keys: \\['{key}'\\]"):
                cli.ExperimentConfig.from_dict({"system": "example1", key: 0.9})

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown preset"):
            cli.preset_config("example9")

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="JSON"):
            cli.load_config(path)

    @pytest.mark.parametrize("key, value, match", [
        ("selection_kind", "sometimes", "kind"),
        ("per_trajectory", 0, "per_trajectory"),
        ("epochs", 0, "epochs"),
        ("n_traj", 0, "n_traj"),
        ("batch_size", 0, "batch_size"),
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
    ])
    def test_wrong_types_rejected_at_load(self, tmp_path, capsys, key, value):
        doc = {**micro_config(tmp_path).to_dict(), key: value}
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(doc))
        message = f"{path}: {key} must be "
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            cli.load_config(path)
        assert cli.main(["generate", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")

    def test_parameter_that_is_not_a_number_rejected(self, tmp_path):
        with pytest.raises(ValueError, match=r"example1 parameter 'alpha' must "
                           r"be a number, got \[2.0\]"):
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

    def test_explicit_domain_reaches_the_config(self, tmp_path):
        cfg = micro_config(tmp_path, domain_lower=[-1.0, -0.5],
                           domain_upper=[0.5, 1.0])
        domain = cfg.domain()
        np.testing.assert_array_equal(domain.lower, [-1.0, -0.5])
        np.testing.assert_array_equal(domain.upper, [0.5, 1.0])

    @pytest.mark.parametrize("key", ["domain_lower", "domain_upper"])
    def test_half_a_domain_rejected(self, tmp_path, capsys, key):
        doc = {"system": "example1", key: [-1, -1]}
        path = tmp_path / "half.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["generate", "--config", str(path),
                         "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "domain_lower and domain_upper" in err
        assert not (tmp_path / "run").exists()

    def test_domain_of_the_wrong_dimension_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="3 entries; example1 has n=2"):
            micro_config(tmp_path, domain_lower=[-1, -1, -1], domain_upper=[1, 1, 1])

    def test_stage_seeds_differ_by_label(self):
        assert cli.stage_seed(7, "generate") != cli.stage_seed(7, "train")
        assert cli.stage_seed(7, "generate") == cli.stage_seed(7, "generate")


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

    def test_train_warns_when_data_starved(self, tmp_path, capsys):
        cfg = micro_config(tmp_path)
        cli.cmd_generate(cfg)
        cli.cmd_build_dataset(cfg)
        cli.cmd_train(cfg)  # J=50 << 5 * n_params
        assert "below 5x the parameter count" in capsys.readouterr().err

    def test_seed_determines_artifacts_bitwise(self, tmp_path):
        artifacts = {}
        for tag in ("a", "b"):
            cfg = micro_config(tmp_path, out_dir=str(tmp_path / tag))
            cli.cmd_generate(cfg)
            cli.cmd_build_dataset(cfg)
            cli.cmd_train(cfg)
            cli.cmd_predict(cfg, steps=8)
            artifacts[tag] = {
                name: (tmp_path / tag / name).read_bytes()
                for name in (
                    cli.TRAJECTORY_FILE, cli.DATASET_FILE, cli.MODEL_FILE,
                    cli.TRAIN_LOG_FILE, cli.ROLLOUT_FILE,
                )
            }
        assert artifacts["a"] == artifacts["b"]

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

    def test_compare_reduced_requires_example3(self, tmp_path):
        # a checkpoint that fits the example1 config: the system is what fails
        cfg = micro_config(tmp_path)
        out = tmp_path / "run"
        out.mkdir()
        net.save_params(net.init_params(1, cfg.n_mem, cfg.hidden, seed=0),
                        out / cli.MODEL_FILE)
        with pytest.raises(ValueError, match="for example3, not example1"):
            cli.cmd_compare_reduced(cfg)

    def test_oracle_check_passes_for_linear_system(self, tmp_path, capsys):
        cfg = micro_config(tmp_path, substeps=20)
        worst = cli.cmd_oracle_check(cfg, n_checks=5)
        assert worst <= 1e-4
        assert "oracle check passed" in capsys.readouterr().out

    def test_oracle_check_rejects_nonlinear_system(self, tmp_path):
        cfg = micro_config(tmp_path, system="example2", params={})
        with pytest.raises(ValueError, match="not linear"):
            cli.cmd_oracle_check(cfg)

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

    @pytest.mark.parametrize("stage, name, members", [
        ("build-dataset", cli.TRAJECTORY_FILE,
         dict(d=np.int64(1), delta=np.float64(0.02), lengths=np.array([1]))),
        ("train", cli.DATASET_FILE,
         dict(d=np.int64(1), n_mem=np.int64(3), targets=np.zeros((1, 1)))),
    ])
    def test_oversized_artifact_fails_without_traceback(
        self, tmp_path, capsys, write_archive, declared_npy, stage, name, members
    ):
        base = ["--config", str(write_config(micro_config(tmp_path), tmp_path))]
        out = tmp_path / "run"
        out.mkdir()
        bulk = "samples" if name == cli.TRAJECTORY_FILE else "inputs"
        write_archive(out / name, **members, **{bulk: declared_npy((10**9, 10))})
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
        ("sweep", "--n-mem", "-1",
         "n_mem_list must not hold a negative n_mem, got [-1]"),
    ], ids=["steps-zero", "steps-negative", "n-mem-negative"])
    def test_out_of_range_count_named(self, tmp_path, capsys, command, flag, value,
                                      message):
        cfg_path = write_config(micro_config(tmp_path), tmp_path)
        assert cli.main([command, "--config", str(cfg_path), flag, value]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_bad_n_mem_list(self, tmp_path, capsys):
        cfg_path = write_config(micro_config(tmp_path), tmp_path)
        assert cli.main(
            ["sweep", "--config", str(cfg_path), "--n-mem", "3,two"]
        ) == 1
