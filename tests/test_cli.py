import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dcic
from conftest import write_dataset_csv
from dcic import cli
from dcic.cli import main
from dcic.data import Dataset, symmetric_noise
from dcic.harness import SCENARIOS
from dcic.rng import as_generator


def _sweep_args(out, extra=()):
    return ["tars", "--sweep", "beta", "--reps", "1", "--sizes", "60",
            "--rhos", "0.2", "--betas", "1.4", "--seed", "0",
            "--out", out, *extra]


def _run_module(*argv):
    """``python -m dcic.cli *argv`` in a child interpreter. It sees no
    pytest pythonpath setting, so it is given the directory holding the
    package this test imported."""
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(dcic.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "dcic.cli", *argv],
                          capture_output=True, text=True, env=env)


def _write_domain_csvs(tmp_path, m=150, seed=0):
    rng = as_generator(seed)
    labels = rng.integers(1, 3, size=m)
    x = rng.standard_normal((m, 2)) + np.where(labels == 1, -2.0, 2.0)[:, None]
    src = str(tmp_path / "source.csv")
    tgt = str(tmp_path / "target.csv")
    write_dataset_csv(Dataset(x, labels, 2), src)
    write_dataset_csv(Dataset(rng.standard_normal((m, 2)) + 1.0), tgt)
    qp = str(tmp_path / "q.json")
    with open(qp, "w") as fh:
        fh.write(symmetric_noise(2, 0.2).to_json())
    return src, tgt, qp


class TestArgHandling:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["tars", "--bogus", "1"])
        assert exc.value.code == 2

    def test_missing_config_file_returns_2(self, tmp_path, capsys):
        rc = main(_sweep_args(str(tmp_path / "o.csv"),
                              ["--config", str(tmp_path / "nope.json")]))
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_config_returns_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        rc = main(_sweep_args(str(tmp_path / "o.csv"),
                              ["--config", str(bad)]))
        assert rc == 2
        assert "JSON object" in capsys.readouterr().err

    def test_module_entry_point(self):
        proc = _run_module("--help")
        assert proc.returncode == 0
        assert "tars" in proc.stdout and "estimate-q" in proc.stdout

    # refused before any work: some of these were truncated (fit ran
    # d' = 1), others passed the config and failed every repetition as a
    # record (exit 1)
    @pytest.mark.parametrize("command, key, value", [
        ("getars", "d_prime", 1.5), ("getars", "sample_sizes", [60.5]),
        ("tars", "repetitions", 1.0), ("tars", "repetitions", True),
        ("fit", "d_prime", 1.5), ("fit", "max_outer_iters", 2.5),
        ("fit", "seed", 0.5), ("estimate-q", "seed", 1.5),
        ("train", "epochs", True)],
        ids=["getars-d_prime", "getars-sample_sizes", "tars-repetitions-float",
             "tars-repetitions-bool", "fit-d_prime", "fit-max_outer_iters",
             "fit-seed", "estimate-q-seed", "train-epochs-bool"])
    def test_non_integer_config_field_returns_2(self, tmp_path, capsys,
                                                command, key, value):
        src, tgt, qp = _write_domain_csvs(tmp_path, m=40)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        out = str(tmp_path / "out")
        inputs = {"tars": _sweep_args(out)[1:], "getars": _sweep_args(out)[3:],
                  "fit": ["--source", src, "--target", tgt, "--q", qp,
                          "--out", out],
                  "estimate-q": ["--features", src, "--out", out],
                  "train": ["--features", src, "--q", qp, "--out", out]}[command]
        rc = main([command, *inputs, "--config", str(cfg)])
        assert rc == 2
        err = capsys.readouterr().err
        assert key in err and "must be an integer" in err
        assert not os.path.exists(out)

    # refused before any work: JSON's true and false would have run as
    # beta = 1, rho = 0 and an identity Q for the corrected arm
    @pytest.mark.parametrize("command, key, value", [
        ("getars", "beta_grid", [True]), ("tars", "rho_grid", [False]),
        ("getars", "q_override", [[True, False], [False, True]]),
        ("train", "learning_rate", "0.1"), ("train", "l2_coeff", False),
        ("train", "alpha", [True, False])],
        ids=["getars-beta_grid", "tars-rho_grid", "getars-q_override",
             "train-learning_rate", "train-l2_coeff", "train-alpha"])
    def test_non_numeric_config_field_returns_2(self, tmp_path, capsys,
                                                command, key, value):
        src, tgt, qp = _write_domain_csvs(tmp_path, m=40)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        out = str(tmp_path / "out")
        inputs = {"tars": _sweep_args(out)[1:], "getars": _sweep_args(out)[3:],
                  "train": ["--features", src, "--q", qp, "--out", out]}[command]
        rc = main([command, *inputs, "--config", str(cfg)])
        assert rc == 2
        err = capsys.readouterr().err
        assert key in err and "must be a number" in err
        assert not os.path.exists(out)

    # refused before any work, naming the field: the string was read one
    # character at a time, as sizes 6 and 0
    def test_string_grid_config_field_returns_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sample_sizes": "60"}))
        out = str(tmp_path / "o.csv")
        rc = main(_sweep_args(out) + ["--config", str(cfg)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "sample_sizes must be a nonempty list, got '60'" in err
        assert not os.path.exists(out)

    # refused before the sweep: open() takes an int as a file descriptor
    # to write the CSV into and close
    def test_non_string_out_returns_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out": 999}))
        rc = main(_sweep_args(str(tmp_path / "o.csv"))[:-2]
                  + ["--config", str(cfg)])
        assert rc == 2
        assert "out must be a path string, got 999" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "o.csv")

    # the subcommand names the scenario: a file's scenario would have run
    # another sweep under it
    def test_scenario_config_key_returns_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "getars_accuracy"}))
        out = str(tmp_path / "o.csv")
        rc = main(_sweep_args(out) + ["--config", str(cfg)])
        assert rc == 2
        assert "unknown config key(s) scenario" in capsys.readouterr().err
        assert not os.path.exists(out)

    # refused before any work, so that a long sweep or fit cannot end on
    # an output path it cannot open
    @pytest.mark.parametrize("command", ["tars", "tars-config", "getars",
                                         "fit", "train", "estimate-q"])
    def test_missing_out_directory_returns_2_before_work(
            self, tmp_path, capsys, monkeypatch, command):
        def never(*args, **kwargs):
            raise AssertionError("work ran before --out was checked")

        for name in ("run_experiment", "fit", "train", "estimate_q_mlp"):
            monkeypatch.setattr(cli, name, never)
        src, tgt, qp = _write_domain_csvs(tmp_path, m=40)
        out = str(tmp_path / "missing" / "x")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out": out}))
        argv = {"tars": _sweep_args(out),
                "tars-config": _sweep_args(out)[:-2] + ["--config", str(cfg)],
                "getars": ["getars", *_sweep_args(out)[3:]],
                "fit": ["fit", "--source", src, "--target", tgt, "--q", qp,
                        "--out", out],
                "train": ["train", "--features", src, "--q", qp,
                          "--out", out],
                "estimate-q": ["estimate-q", "--features", src,
                               "--out", out]}[command]
        assert main(argv) == 2
        assert f"output {out!r}" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "missing")


class TestSweepCommands:
    def test_tars_writes_csv_and_sidecar(self, tmp_path, capsys):
        out = str(tmp_path / "beta.csv")
        rc = main(_sweep_args(out))
        assert rc == 0
        captured = capsys.readouterr()
        assert "2 records" in captured.out and "(0 failed)" in captured.out
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert {r["method"] for r in rows} == {"dcic", "cic"}
        with open(out + ".json") as fh:
            sidecar = json.load(fh)
        assert sidecar["config"]["scenario"] == "tars_beta_sweep"

    def test_sweep_choices_map_to_scenarios(self, tmp_path):
        out = str(tmp_path / "rho.csv")
        rc = main(["tars", "--sweep", "rho", "--reps", "1", "--sizes", "60",
                   "--rhos", "0.1", "--betas", "1.4", "--seed", "0",
                   "--out", out])
        assert rc == 0
        with open(out + ".json") as fh:
            assert json.load(fh)["config"]["scenario"] == "tars_rho_sweep"

    def test_failed_cells_set_exit_code_1(self, tmp_path, capsys,
                                          failing_rep_data):
        out = str(tmp_path / "fail.csv")
        rc = main(["tars", "--reps", "1", "--sizes", "60", "--rhos", "0.2",
                   "--betas", "1.4", "--seed", "0", "--out", out])
        assert rc == 1
        captured = capsys.readouterr()
        assert "(2 failed)" in captured.out
        assert "failed:" in captured.err

    def test_getars_runs(self, tmp_path, capsys):
        out = str(tmp_path / "acc.csv")
        rc = main(["getars", "--reps", "1", "--sizes", "100", "--rhos", "0.2",
                   "--betas", "1.4", "--seed", "0", "--out", out])
        assert rc == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert all(0.0 <= float(r["accuracy"]) <= 1.0 for r in rows)

    def test_config_file_overrides_flags_except_seed(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "repetitions": 1, "sample_sizes": [50], "rho_grid": [0.1],
            "beta_grid": [1.0], "seed": 3}))
        out = str(tmp_path / "o.csv")
        rc = main(["tars", "--config", str(cfg), "--reps", "5",
                   "--seed", "7", "--out", out])
        assert rc == 0
        with open(out + ".json") as fh:
            echo = json.load(fh)["config"]
        assert echo["repetitions"] == 1  # file beats the flag
        assert echo["seed"] == 7         # --seed beats the file
        with open(out) as fh:
            assert len(list(csv.DictReader(fh))) == 2

    def test_config_file_seed_applies_without_flag(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "repetitions": 1, "sample_sizes": [50], "rho_grid": [0.1],
            "beta_grid": [1.0], "seed": 5}))
        out = str(tmp_path / "o.csv")
        assert main(["tars", "--config", str(cfg), "--out", out]) == 0
        with open(out + ".json") as fh:
            assert json.load(fh)["config"]["seed"] == 5

    def test_getars_d_prime_above_input_dim_returns_2(self, tmp_path, capsys):
        out = str(tmp_path / "acc.csv")
        rc = main(["getars", "--reps", "1", "--sizes", "60", "--rhos", "0.2",
                   "--betas", "1.4", "--d-prime", "3", "--out", out])
        assert rc == 2
        assert "d_prime" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_tars_takes_no_d_prime_flag(self, tmp_path):
        out = str(tmp_path / "o.csv")
        with pytest.raises(SystemExit) as exc:
            main(_sweep_args(out, ["--d-prime", "1"]))
        assert exc.value.code == 2
        assert not os.path.exists(out)

    # each would be recorded in the sidecar but not run: prior recovery
    # pins W = I, and an override replaces the estimated flip rates
    @pytest.mark.parametrize("key_values, match", [
        ({"d_prime": 1}, "tars_beta_sweep fits at d_prime = 2"),
        ({"q_source": "estimated", "q_override": [[0.8, 0.2], [0.2, 0.8]]},
         "q_source 'estimated' with a q_override")],
        ids=["tars-d_prime", "estimated-with-override"])
    def test_field_that_cannot_take_effect_returns_2(self, tmp_path, capsys,
                                                      key_values, match):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(key_values))
        out = str(tmp_path / "o.csv")
        assert main(_sweep_args(out, ["--config", str(cfg)])) == 2
        assert match in capsys.readouterr().err
        assert not os.path.exists(out)

    # grids and d' left unset are recorded as they ran, not as null
    @pytest.mark.parametrize("command, scenario, d_prime", [
        (["tars", "--sweep", "beta"], "tars_beta_sweep", 2),
        (["getars"], "getars_accuracy", 1)], ids=["tars", "getars"])
    def test_sidecar_config_holds_the_resolved_sweep(self, tmp_path, command,
                                                     scenario, d_prime):
        out = str(tmp_path / "s.csv")
        assert main([*command, "--reps", "1", "--sizes", "60", "--rhos",
                     "0.2", "--out", out]) == 0
        with open(out + ".json") as fh:
            config = json.load(fh)["config"]
        assert config == {"scenario": scenario, "repetitions": 1,
                          "sample_sizes": [60], "rho_grid": [0.2],
                          "beta_grid": list(SCENARIOS[scenario][2]),
                          "q_source": "true", "q_override": None,
                          "d_prime": d_prime, "seed": 0}

    @pytest.mark.parametrize("size", ["0", "-5"])
    def test_tars_size_below_one_returns_2(self, tmp_path, capsys, size):
        out = str(tmp_path / "size.csv")
        rc = main(["tars", "--sweep", "size", "--reps", "1", "--sizes",
                   f"60,{size}", "--rhos", "0.2", "--betas", "1.4",
                   "--out", out])
        assert rc == 2
        assert f"sample_sizes entry {size}: need n >= 1" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("flag, value, field", [
        ("--betas", "2.5", "beta_grid"), ("--rhos", "0.5", "rho_grid")])
    def test_tars_invalid_grid_point_returns_2(self, tmp_path, capsys,
                                               flag, value, field):
        out = str(tmp_path / "bad.csv")
        args = _sweep_args(out)
        args[args.index(flag) + 1] = value
        assert main(args) == 2
        assert f"{field} entry {value}" in capsys.readouterr().err
        assert not os.path.exists(out)


class TestSingleShotCommands:
    def test_fit_outputs_result_json(self, tmp_path):
        # --d-prime at the input dim pins W = I and ends after one round
        src, tgt, qp = _write_domain_csvs(tmp_path)
        out = str(tmp_path / "fit.json")
        rc = main(["fit", "--source", src, "--target", tgt, "--q", qp,
                   "--d-prime", "2", "--out", out])
        assert rc == 0
        with open(out) as fh:
            blob = json.load(fh)
        assert len(blob["alpha"]) == 2
        assert abs(sum(blob["alpha"]) - 1.0) <= 1e-9
        assert blob["config"] == {"d_prime": 2, "max_outer_iters": 12,
                                  "seed": 0}
        assert blob["w"] == np.eye(2).tolist()
        assert blob["stop_reason"] == "converged" and blob["converged"]

    def test_fit_prints_to_stdout_without_out(self, tmp_path, capsys):
        src, tgt, qp = _write_domain_csvs(tmp_path, m=80)
        rc = main(["fit", "--source", src, "--target", tgt, "--q", qp,
                   "--d-prime", "2"])
        assert rc == 0
        blob = json.loads(capsys.readouterr().out)
        assert "objective_trace" in blob

    def test_fit_three_classes(self, tmp_path):
        # c = 3 takes the support-enumeration QP inside every outer round
        rng = as_generator(3)
        centres = np.array([[-2.0, 0.0], [2.0, 0.0], [0.0, 3.0]])
        labels = np.repeat([1, 2, 3], 40)
        src, tgt = str(tmp_path / "source.csv"), str(tmp_path / "target.csv")
        write_dataset_csv(Dataset(centres[labels - 1]
                                  + rng.standard_normal((120, 2)),
                                  labels, 3), src)
        tgt_labels = np.repeat([1, 2, 3], [60, 30, 30])
        write_dataset_csv(Dataset(centres[tgt_labels - 1]
                                  + rng.standard_normal((120, 2))), tgt)
        qp = str(tmp_path / "q.json")
        with open(qp, "w") as fh:
            fh.write(symmetric_noise(3, 0.2).to_json())
        out = str(tmp_path / "fit.json")
        rc = main(["fit", "--source", src, "--target", tgt, "--q", qp,
                   "--out", out])
        assert rc == 0
        with open(out) as fh:
            blob = json.load(fh)
        alpha = np.asarray(blob["alpha"])
        assert blob["config"]["d_prime"] == 1
        assert np.asarray(blob["w"]).shape == (2, 1)
        assert alpha.shape == (3,)
        assert alpha.min() >= 0.0
        assert abs(alpha.sum() - 1.0) <= 1e-12

    def test_train_outputs_model_json(self, tmp_path):
        src, _, qp = _write_domain_csvs(tmp_path)
        out = str(tmp_path / "model.json")
        rc = main(["train", "--features", src, "--q", qp,
                   "--alpha", "0.6,0.4", "--seed", "1", "--out", out])
        assert rc == 0
        with open(out) as fh:
            blob = json.load(fh)
        assert np.asarray(blob["hidden_w"]).shape[0] == 2
        assert len(blob["out_b"]) == 2

    def test_train_config_file_sets_epochs(self, tmp_path):
        src, _, qp = _write_domain_csvs(tmp_path, m=80)
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"epochs": 2, "hidden_units": 4}))
        out = str(tmp_path / "model.json")
        rc = main(["train", "--features", src, "--q", qp,
                   "--config", str(cfg), "--out", out])
        assert rc == 0
        with open(out) as fh:
            blob = json.load(fh)
        assert np.asarray(blob["hidden_w"]).shape == (2, 4)

    def test_estimate_q_recovers_dominant_diagonal(self, tmp_path):
        rng = as_generator(5)
        m = 400
        labels = rng.integers(1, 3, size=m)
        x = rng.standard_normal((m, 2)) + np.where(
            labels == 1, -2.0, 2.0)[:, None]
        flip = rng.uniform(size=m) < 0.2
        noisy = np.where(flip, 3 - labels, labels)
        src = str(tmp_path / "noisy.csv")
        write_dataset_csv(Dataset(x, noisy, 2), src)
        out = str(tmp_path / "qhat.json")
        rc = main(["estimate-q", "--features", src, "--seed", "0",
                   "--out", out])
        assert rc == 0
        with open(out) as fh:
            blob = json.load(fh)
        q = np.asarray(blob["rows"])
        assert q.shape == (2, 2)
        assert q[0, 0] > q[0, 1] and q[1, 1] > q[1, 0]

    def test_train_vertex_alpha_identity_q(self, tmp_path):
        # gamma of a vertex prior under an identity Q has a zero entry
        # unless alpha is floored first
        src, _, qp = _write_domain_csvs(tmp_path, m=60)
        with open(qp, "w") as fh:
            fh.write(symmetric_noise(2, 0.0).to_json())
        out = str(tmp_path / "model.json")
        rc = main(["train", "--features", src, "--q", qp, "--alpha", "1,0",
                   "--seed", "1", "--out", out])
        assert rc == 0
        assert os.path.exists(out)

    @pytest.mark.parametrize("command", ["fit", "train", "estimate-q"])
    def test_unlabeled_csv_returns_2(self, tmp_path, capsys, command):
        src, tgt, qp = _write_domain_csvs(tmp_path, m=40)
        inputs = {"fit": ["--source", tgt, "--target", src, "--q", qp],
                  "train": ["--features", tgt, "--q", qp],
                  "estimate-q": ["--features", tgt]}[command]
        out = str(tmp_path / "out")
        assert main([command, *inputs, "--out", out]) == 2
        err = capsys.readouterr().err
        assert f"{tgt}: no 'label' column; the dataset must carry labels" in err
        assert not os.path.exists(out)

    def test_train_config_numeric_alpha_returns_2(self, tmp_path, capsys):
        src, _, qp = _write_domain_csvs(tmp_path, m=60)
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"alpha": 0.7}))
        out = str(tmp_path / "model.json")
        rc = main(["train", "--features", src, "--q", qp,
                   "--config", str(cfg), "--out", out])
        assert rc == 2
        assert "alpha" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_estimate_q_config_file_seed_applies_without_flag(self, tmp_path):
        src, _, _ = _write_domain_csvs(tmp_path, m=200)
        cfg = tmp_path / "est.json"
        cfg.write_text(json.dumps({"seed": 5}))
        outs = {}
        for name, extra in (("file", ["--config", str(cfg)]),
                            ("flag5", ["--seed", "5"]),
                            ("flag0", ["--seed", "0"])):
            outs[name] = str(tmp_path / f"{name}.json")
            rc = main(["estimate-q", "--features", src, *extra,
                       "--out", outs[name]])
            assert rc == 0
        text = {k: Path(v).read_text() for k, v in outs.items()}
        assert text["file"] == text["flag5"]
        assert text["file"] != text["flag0"]

    @pytest.mark.parametrize("command, key", [
        ("tars", "repetitionz"), ("getars", "rho_grd"), ("fit", "max_outer_iter"),
        ("train", "epochz"), ("estimate-q", "percentil")])
    def test_misspelled_config_key_returns_2(self, tmp_path, capsys, command, key):
        src, tgt, qp = _write_domain_csvs(tmp_path, m=40)
        cfg = tmp_path / "typo.json"
        cfg.write_text(json.dumps({key: 1}))
        out = str(tmp_path / "out")
        inputs = {"tars": [], "getars": [],
                  "fit": ["--source", src, "--target", tgt, "--q", qp],
                  "train": ["--features", src, "--q", qp],
                  "estimate-q": ["--features", src]}[command]
        rc = main([command, *inputs, "--config", str(cfg), "--out", out])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and key in err
        assert not os.path.exists(out)

    def test_train_short_csv_row_returns_2(self, tmp_path, capsys):
        src, _, qp = _write_domain_csvs(tmp_path, m=40)
        with open(src, "a") as fh:
            fh.write("0.3,0.4\n")
        out = str(tmp_path / "model.json")
        rc = main(["train", "--features", src, "--q", qp, "--out", out])
        assert rc == 2
        assert "line 42" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("key", ["c", "rows"])
    def test_flip_rate_json_missing_key_returns_2(self, tmp_path, capsys, key):
        src, tgt, qp = _write_domain_csvs(tmp_path, m=40)
        with open(qp) as fh:
            obj = json.load(fh)
        del obj[key]
        with open(qp, "w") as fh:
            json.dump(obj, fh)
        out = str(tmp_path / "fit.json")
        rc = main(["fit", "--source", src, "--target", tgt, "--q", qp,
                   "--out", out])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{qp}: missing key(s) {key}" in err
        assert not os.path.exists(out)

    def test_flip_rate_json_bad_rows_returns_2(self, tmp_path, capsys):
        src, tgt, qp = _write_domain_csvs(tmp_path, m=40)
        with open(qp, "w") as fh:
            json.dump({"c": 2, "rows": [[0.9, 0.2], [0.2, 0.8]]}, fh)
        out = str(tmp_path / "fit.json")
        rc = main(["fit", "--source", src, "--target", tgt, "--q", qp,
                   "--out", out])
        assert rc == 2
        assert f"{qp}: rows must sum to 1" in capsys.readouterr().err
        assert not os.path.exists(out)

    # the retired fit knobs: --mode (d' = d pins W) and the W-step count
    # and objective tolerance, now fixed constants of the fit
    @pytest.mark.parametrize("key, value", [
        ("mode", "dcic"), ("w_cg_iters", 5), ("objective_tol", 1e-9)],
        ids=["mode", "w_cg_iters", "objective_tol"])
    def test_retired_fit_config_key_returns_2(self, tmp_path, capsys, key,
                                              value):
        src, tgt, qp = _write_domain_csvs(tmp_path, m=40)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        out = str(tmp_path / "fit.json")
        rc = main(["fit", "--source", src, "--target", tgt, "--q", qp,
                   "--config", str(cfg), "--out", out])
        assert rc == 2
        assert f"unknown config key(s) {key}" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_fit_mode_flag_exits_2(self, tmp_path):
        src, tgt, qp = _write_domain_csvs(tmp_path, m=40)
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--source", src, "--target", tgt, "--q", qp,
                  "--mode", "dcic"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command, flag", [
        ("fit", "--source"), ("fit", "--target"), ("fit", "--q"),
        ("train", "--features"), ("train", "--q"),
        ("estimate-q", "--features")])
    def test_missing_required_input_returns_2(self, tmp_path, capsys,
                                              command, flag):
        src, tgt, qp = _write_domain_csvs(tmp_path, m=40)
        given = {"fit": {"--source": src, "--target": tgt, "--q": qp},
                 "train": {"--features": src, "--q": qp},
                 "estimate-q": {"--features": src}}[command]
        out = str(tmp_path / "out")
        args = [v for f, path in given.items() if f != flag for v in (f, path)]
        assert main([command, *args, "--out", out]) == 2
        err = capsys.readouterr().err
        assert f"missing {flag} (config key '{flag[2:]}')" in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("value", [True, "97", None],
                             ids=["bool", "string", "null"])
    def test_estimate_q_non_numeric_percentile_returns_2(self, tmp_path,
                                                         capsys, value):
        src, _, _ = _write_domain_csvs(tmp_path, m=40)
        cfg = tmp_path / "est.json"
        cfg.write_text(json.dumps({"percentile": value}))
        out = str(tmp_path / "q_hat.json")
        rc = main(["estimate-q", "--features", src, "--config", str(cfg),
                   "--out", out])
        assert rc == 2
        assert "percentile must be a number" in capsys.readouterr().err
        assert not os.path.exists(out)

    # a header-only target once ran the kernel pass on zero rows: numpy
    # warned "Mean of empty slice", then the QP refused a non-finite A
    @pytest.mark.parametrize("header", ["f1,f2", "f1,f2,label"])
    def test_fit_header_only_target_returns_2(self, tmp_path, header):
        src, _, qp = _write_domain_csvs(tmp_path, m=40)
        empty = tmp_path / "empty.csv"
        empty.write_text(header + "\n")
        out = str(tmp_path / "fit.json")
        proc = _run_module("fit", "--source", src, "--target", str(empty),
                           "--q", qp, "--out", out)
        assert proc.returncode == 2
        assert f"error: {empty}: no data rows" in proc.stderr
        assert "Warning" not in proc.stderr
        assert not os.path.exists(out)

    def test_train_bad_alpha_flag_names_it(self, tmp_path, capsys):
        src, _, qp = _write_domain_csvs(tmp_path, m=40)
        out = str(tmp_path / "model.json")
        rc = main(["train", "--features", src, "--q", qp,
                   "--alpha", "0.7,abc", "--out", out])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--alpha" in err and "'abc'" in err
        assert not os.path.exists(out)

    # an alpha that parses but is not a prior over Q's classes names the
    # flag, as a parse error does, and prints its sum as a plain float
    @pytest.mark.parametrize("flag, config, what", [
        ("0.5,0.3,0.2", None, "3 entries for the flip-rate matrix's 2 classes"),
        (None, [0.5, 0.3, 0.2],
         "3 entries for the flip-rate matrix's 2 classes"),
        ("0.7,0.4", None, "prior must sum to 1 within 1e-09, got 1.1"),
        ("1.2,-0.2", None, "prior entries must be finite and non-negative"),
    ], ids=["flag-three-classes", "config-three-classes", "sum", "negative"])
    def test_train_bad_alpha_value_names_the_flag(self, tmp_path, capsys,
                                                  flag, config, what):
        src, _, qp = _write_domain_csvs(tmp_path, m=40)
        out = str(tmp_path / "model.json")
        args = ["train", "--features", src, "--q", qp, "--out", out]
        if flag is not None:
            args += ["--alpha", flag]
        else:
            cfg = tmp_path / "train.json"
            cfg.write_text(json.dumps({"alpha": config}))
            args += ["--config", str(cfg)]
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: --alpha: {what}\n"
        assert not os.path.exists(out)

    # a feature that parses but is not finite names the file it came from
    def test_fit_non_finite_target_feature_names_the_file(self, tmp_path,
                                                          capsys):
        src, _, qp = _write_domain_csvs(tmp_path, m=40)
        bad = tmp_path / "nan_target.csv"
        bad.write_text("f1,f2\n0.1,0.2\nnan,0.4\n")
        out = str(tmp_path / "fit.json")
        assert main(["fit", "--source", src, "--target", str(bad), "--q", qp,
                     "--out", out]) == 2
        err = capsys.readouterr().err
        assert f"error: {bad}: features contain non-finite entries" in err
        assert not os.path.exists(out)

    def test_fit_missing_input_returns_2(self, tmp_path, capsys):
        rc = main(["fit", "--source", str(tmp_path / "none.csv"),
                   "--target", str(tmp_path / "none2.csv"),
                   "--q", str(tmp_path / "q.json")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    # labels all 1 read as one class against a 2-class Q: the error names
    # both counts
    def test_fit_class_count_mismatch_names_both_counts(self, tmp_path,
                                                        capsys):
        _, tgt, qp = _write_domain_csvs(tmp_path, m=40)
        src = str(tmp_path / "one_class.csv")
        x = as_generator(1).standard_normal((40, 2))
        write_dataset_csv(Dataset(x, np.ones(40, dtype=int)), src)
        assert main(["fit", "--source", src, "--target", tgt, "--q", qp,
                     "--d-prime", "2"]) == 2
        assert ("error: source class count 1 (largest label 1) does not "
                "match the flip-rate matrix's 2 classes"
                in capsys.readouterr().err)

    # one source row 1e8 away once lifted the bandwidth's rounding floor
    # above every near pair's squared distance, so the fit exited 2 with
    # "median pairwise distance is zero"
    def test_fit_with_one_far_source_row(self, tmp_path, capsys):
        _, tgt, qp = _write_domain_csvs(tmp_path, m=90)
        rng = as_generator(2)
        x = rng.standard_normal((91, 2))
        x[0, 0] = 1e8
        labels = rng.integers(1, 3, size=91)
        labels[:2] = [1, 2]
        src = str(tmp_path / "far_row.csv")
        write_dataset_csv(Dataset(x, labels, 2), src)
        assert main(["fit", "--source", src, "--target", tgt, "--q", qp,
                     "--d-prime", "2"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert np.isfinite(blob["sigma"]) and blob["sigma"] > 0
