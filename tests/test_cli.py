import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import dcic
from dcic.cli import main
from dcic.data import Dataset, symmetric_noise, write_dataset_csv
from dcic.rng import as_generator


def _sweep_args(out, extra=()):
    return ["tars", "--sweep", "beta", "--reps", "1", "--sizes", "60",
            "--rhos", "0.2", "--betas", "1.4", "--seed", "0",
            "--out", out, *extra]


def _write_domain_csvs(tmp_path, m=150, seed=0):
    rng = as_generator(seed)
    labels = rng.integers(1, 3, size=m)
    x = rng.standard_normal((m, 2)) + np.where(labels == 1, -2.0, 2.0)[:, None]
    src = str(tmp_path / "source.csv")
    tgt = str(tmp_path / "target.csv")
    write_dataset_csv(Dataset(x, labels, "noisy", 2), src)
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
        # the child interpreter sees no pytest pythonpath setting; give it
        # the directory holding the package this test imported
        pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(dcic.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (pkg_root, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-m", "dcic.cli", "--help"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "tars" in proc.stdout and "estimate-q" in proc.stdout


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

    def test_failed_cells_set_exit_code_1(self, tmp_path, capsys):
        out = str(tmp_path / "fail.csv")
        rc = main(["tars", "--reps", "1", "--sizes", "60", "--rhos", "0.2",
                   "--betas", "2.2", "--seed", "0", "--out", out])
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


class TestSingleShotCommands:
    def test_fit_outputs_result_json(self, tmp_path):
        src, tgt, qp = _write_domain_csvs(tmp_path)
        out = str(tmp_path / "fit.json")
        rc = main(["fit", "--source", src, "--target", tgt, "--q", qp,
                   "--mode", "tars_fixed_w", "--out", out])
        assert rc == 0
        with open(out) as fh:
            blob = json.load(fh)
        assert len(blob["alpha"]) == 2
        assert abs(sum(blob["alpha"]) - 1.0) <= 1e-9
        assert blob["config"]["mode"] == "tars_fixed_w"

    def test_fit_prints_to_stdout_without_out(self, tmp_path, capsys):
        src, tgt, qp = _write_domain_csvs(tmp_path, m=80)
        rc = main(["fit", "--source", src, "--target", tgt, "--q", qp,
                   "--mode", "tars_fixed_w"])
        assert rc == 0
        blob = json.loads(capsys.readouterr().out)
        assert "objective_trace" in blob

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
        write_dataset_csv(Dataset(x, noisy, "noisy", 2), src)
        out = str(tmp_path / "qhat.json")
        rc = main(["estimate-q", "--features", src, "--seed", "0",
                   "--out", out])
        assert rc == 0
        with open(out) as fh:
            blob = json.load(fh)
        q = np.asarray(blob["rows"])
        assert q.shape == (2, 2)
        assert q[0, 0] > q[0, 1] and q[1, 1] > q[1, 0]

    def test_fit_missing_input_returns_2(self, tmp_path, capsys):
        rc = main(["fit", "--source", str(tmp_path / "none.csv"),
                   "--target", str(tmp_path / "none2.csv"),
                   "--q", str(tmp_path / "q.json")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
