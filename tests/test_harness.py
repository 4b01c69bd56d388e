import csv
import functools
import json
import math
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from dcic import harness, linear
from dcic.data import symmetric_noise
from dcic.harness import (CSV_COLUMNS, DIM, SCENARIOS, ExperimentConfig,
                          _rep_data, emit_results, estimate_q_mlp,
                          run_experiment)
from dcic.rng import as_generator, child_generator, child_seed
from dcic.synth import apply_location_scale, sample_location_scale


def _tiny_tars(**kw):
    base = dict(scenario="tars_beta_sweep", repetitions=2, sample_sizes=(60,),
                rho_grid=(0.2,), beta_grid=(1.4,), seed=0)
    base.update(kw)
    return ExperimentConfig(**base)


def _records_equal_except_time(a, b):
    da, db = asdict(a), asdict(b)
    da.pop("wall_time_s"), db.pop("wall_time_s")
    return da == db


class TestConfig:
    def test_scenario_defaults(self):
        sizes, rhos, betas = SCENARIOS["tars_beta_sweep"]
        assert sizes == (500,) and rhos == (0.4,)
        assert betas == (0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8)
        sizes, rhos, betas = SCENARIOS["tars_rho_sweep"]
        assert rhos == (0.0, 0.1, 0.2, 0.3, 0.4) and betas == (1.4,)
        sizes, _, _ = SCENARIOS["tars_size_sweep"]
        assert sizes == (200, 500, 1000, 2000)
        _, rhos, betas = SCENARIOS["getars_accuracy"]
        assert rhos == (0.0, 0.1, 0.2, 0.3, 0.4) and betas == (1.4, 1.6, 1.8)
        # a config left unset holds the table's grids and its d'
        for scenario, grids in SCENARIOS.items():
            cfg = ExperimentConfig(scenario=scenario)
            assert (cfg.sample_sizes, cfg.rho_grid, cfg.beta_grid) == grids
            assert cfg.d_prime == (1 if scenario == "getars_accuracy" else DIM)

    def test_grid_overrides(self):
        cfg = _tiny_tars(sample_sizes=(100, 200), beta_grid=None)
        assert cfg.sample_sizes == (100, 200)
        assert cfg.rho_grid == (0.2,)
        assert cfg.beta_grid == SCENARIOS["tars_beta_sweep"][2]

    # prior recovery pins W = I: a tars d' other than DIM would be recorded
    # but never run
    @pytest.mark.parametrize("scenario", ["tars_beta_sweep", "tars_rho_sweep",
                                          "tars_size_sweep"])
    def test_tars_refuses_any_d_prime_but_the_input_dim(self, scenario):
        for d_prime in (0, 1, DIM + 1):
            with pytest.raises(ValueError, match=f"{scenario} fits at "
                                                 f"d_prime = {DIM}"):
                _tiny_tars(scenario=scenario, d_prime=d_prime)
        assert _tiny_tars(scenario=scenario, d_prime=DIM).d_prime == DIM

    # the override would run, and no flip rates be estimated
    def test_estimated_beside_override_refused(self):
        with pytest.raises(ValueError, match="q_source 'estimated' with a "
                                             "q_override"):
            _tiny_tars(q_source="estimated",
                       q_override=[[0.8, 0.2], [0.2, 0.8]])

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(scenario="bogus")
        with pytest.raises(ValueError):
            _tiny_tars(repetitions=0)
        with pytest.raises(ValueError):
            _tiny_tars(rho_grid=())
        with pytest.raises(ValueError):
            _tiny_tars(q_source="guessed")
        with pytest.raises(ValueError):
            _tiny_tars(q_override=((0.5, 0.5), (0.5, 0.5)))  # singular
        with pytest.raises(ValueError):
            _tiny_tars(d_prime=0)
        # wider than the data: every accuracy record would fail at fit time
        with pytest.raises(ValueError, match="d_prime"):
            _tiny_tars(scenario="getars_accuracy", d_prime=DIM + 1)

    # each would otherwise fail every repetition of its cell as a record
    @pytest.mark.parametrize("field, value, match", [
        ("rho_grid", (0.2, -0.1), "rho_grid entry -0.1"),
        ("rho_grid", (0.5,), "rho_grid entry 0.5"),     # singular Q
        ("beta_grid", (1.4, 2.5), "beta_grid entry 2.5"),
        ("beta_grid", (-0.2,), "beta_grid entry -0.2"),
    ], ids=["rho-negative", "rho-half", "beta-2.5", "beta-negative"])
    def test_grid_points_validated(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            _tiny_tars(**{field: value})

    @pytest.mark.parametrize("field, value, match", [
        ("d_prime", 1.5, "d_prime must be"),
        ("repetitions", 2.0, "repetitions must be"),
        ("repetitions", True, "repetitions must be"),
        ("seed", 0.5, "seed must be"),
        ("sample_sizes", (60, 60.5), "sample_sizes entry must be"),
        ("sample_sizes", (False,), "sample_sizes entry must be"),
    ], ids=["d_prime", "repetitions-float", "repetitions-bool", "seed",
            "sample_sizes-float", "sample_sizes-bool"])
    def test_integer_fields_reject_non_integers(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            _tiny_tars(**{field: value})

    def test_integer_fields_stored_as_int(self):
        cfg = _tiny_tars(sample_sizes=[np.int64(60)], repetitions=np.int32(2))
        assert cfg.sample_sizes == (60,) and type(cfg.sample_sizes[0]) is int
        assert type(cfg.repetitions) is int

    @pytest.mark.parametrize("field, value, match", [
        ("rho_grid", (0.2, True), "rho_grid entry must be"),
        ("rho_grid", (float("inf"),), "rho_grid entry must be"),
        ("beta_grid", ("1.4",), "beta_grid entry must be"),
        ("q_override", [[True, False], [False, True]],
         "q_override entry must be"),
    ], ids=["rho_grid-bool", "rho_grid-inf", "beta_grid-string",
            "q_override-bool"])
    def test_real_entries_reject_non_numbers(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            _tiny_tars(**{field: value})

    # each would otherwise fail with a message that names no field, or run
    # a string grid one character at a time
    @pytest.mark.parametrize("field, value, match", [
        ("rho_grid", 0.2, "rho_grid must be a nonempty list, got 0.2"),
        ("sample_sizes", "60", "sample_sizes must be a nonempty list, "
                               "got '60'"),
        ("q_override", 5, "q_override must be a list of rows"),
        ("q_override", [[0.8, 0.2], [0.3]],
         "q_override must be a list of rows"),
        ("q_override", [[0.5, 0.5]],
         r"q_override must be a list of rows making a 2 x 2 matrix, "
         r"got \[\[0\.5, 0\.5\]\]"),
        ("q_override", [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]],
         "q_override must be a list of rows making a 2 x 2 matrix"),
    ], ids=["rho_grid-number", "sample_sizes-string", "q_override-number",
            "q_override-ragged", "q_override-one-row", "q_override-3x3"])
    def test_misshapen_fields_named(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            _tiny_tars(**{field: value})

    def test_q_override_normalized_to_tuples(self):
        cfg = _tiny_tars(q_override=[[0.8, 0.2], [0.3, 0.7]])
        assert cfg.q_override == ((0.8, 0.2), (0.3, 0.7))


class TestRunTars:
    def test_record_structure(self):
        records = run_experiment(_tiny_tars())
        assert len(records) == 4  # 2 reps x 2 methods
        assert {r.method for r in records} == {"dcic", "cic"}
        for r in records:
            assert r.error is None
            assert r.accuracy is None
            assert math.isfinite(r.beta_error)
            assert r.seed == child_seed(0, 0, 0, 0, r.rep)
            assert np.asarray(r.w).shape == (2, 2)
            assert len(r.objective_trace) >= 2
            assert r.stop_reason in ("converged", "max_iters", "stalled",
                                     "stationary")

    def test_deterministic_except_wall_time(self):
        a = run_experiment(_tiny_tars())
        b = run_experiment(_tiny_tars())
        assert all(_records_equal_except_time(x, y) for x, y in zip(a, b))

    def test_metrics_recomputable_from_record(self):
        # beta_error and alpha_error must follow from the stored vectors
        for r in run_experiment(_tiny_tars()):
            beta_est = np.asarray(r.alpha) / np.asarray(r.ratio_prior)
            beta_star = np.asarray(r.beta_star)
            want_b = np.linalg.norm(beta_est - beta_star) / np.linalg.norm(beta_star)
            want_a = np.abs(np.asarray(r.alpha) - np.asarray(r.target_prior)).sum()
            assert r.beta_error == pytest.approx(want_b, abs=1e-12)
            assert r.alpha_error == pytest.approx(want_a, abs=1e-12)

    def test_infeasible_cell_tags_both_arms(self, failing_rep_data):
        # a repetition whose data cannot be generated must fail loudly in
        # the records of both arms, not crash or disappear
        records = run_experiment(_tiny_tars(repetitions=1))
        assert len(records) == 2
        for r in records:
            assert r.error is not None
            assert math.isnan(r.beta_error) and math.isnan(r.alpha_error)

    def test_run_experiment_dispatch(self):
        records = run_experiment(_tiny_tars(repetitions=1))
        assert len(records) == 2
        assert records[0].scenario == "tars_beta_sweep"


class TestRunGetars:
    def _cfg(self, **kw):
        base = dict(scenario="getars_accuracy", repetitions=1,
                    sample_sizes=(120,), rho_grid=(0.2,), beta_grid=(1.4,),
                    seed=0)
        base.update(kw)
        return ExperimentConfig(**base)

    def test_record_structure(self):
        records = run_experiment(self._cfg())
        assert len(records) == 2
        for r in records:
            assert r.error is None
            assert 0.0 <= r.accuracy <= 1.0
            assert math.isfinite(r.beta_error)
            assert np.asarray(r.w).shape == (2, 1)
            trace = np.asarray(r.objective_trace)
            assert np.all(np.diff(trace) <= 1e-10)

    def test_noise_free_arms_coincide(self):
        # at rho = 0 the true flip rates are the identity, so both arms run
        # the same computation and must produce identical numbers
        records = run_experiment(self._cfg(rho_grid=(0.0,), sample_sizes=(150,)))
        by_method = {r.method: r for r in records}
        assert by_method["dcic"].accuracy == by_method["cic"].accuracy
        assert by_method["dcic"].alpha == by_method["cic"].alpha

    def test_deterministic_except_wall_time(self):
        a = run_experiment(self._cfg())
        b = run_experiment(self._cfg())
        assert all(_records_equal_except_time(x, y) for x, y in zip(a, b))


class TestRepData:
    def test_scenarios_share_the_documented_streams(self):
        # one seed and grid: the prior-recovery and accuracy scenarios draw
        # the same noisy source and clean target from streams 0-3, and the
        # accuracy target is that target moved by stream 4's location-scale
        grid = dict(repetitions=1, sample_sizes=(60,), rho_grid=(0.2,),
                    beta_grid=(1.4,), seed=0)
        seed = child_seed(0, 0, 0, 0, 0)
        noisy_t, target_t, prior_t, q_t, noisy_prior_t = _rep_data(
            ExperimentConfig(scenario="tars_beta_sweep", **grid), 60, 0.2, 1.4, seed)
        noisy_g, target_g, prior_g, q_g, noisy_prior_g = _rep_data(
            ExperimentConfig(scenario="getars_accuracy", **grid), 60, 0.2, 1.4, seed)
        assert np.array_equal(noisy_t.features, noisy_g.features)
        assert np.array_equal(noisy_t.labels, noisy_g.labels)
        assert np.array_equal(prior_t.p, prior_g.p)
        assert np.array_equal(q_t.q, q_g.q)
        assert np.array_equal(noisy_prior_t.p, noisy_prior_g.p)
        shift = sample_location_scale(2, 2, child_generator(seed, 4))
        moved = apply_location_scale(target_t, shift)
        assert np.array_equal(moved.features, target_g.features)
        assert np.array_equal(moved.labels, target_g.labels)
        assert not np.array_equal(target_t.features, target_g.features)


class TestEstimatedFlipRates:
    def test_recovers_q_on_separable_data(self):
        rng = as_generator(3)
        m = 2000
        labels = rng.integers(1, 3, size=m)
        x = rng.standard_normal((m, 2)) + np.where(
            labels == 1, -2.0, 2.0)[:, None]
        q_true = symmetric_noise(2, 0.3)
        flip = rng.uniform(size=m) < 0.3
        noisy = np.where(flip, 3 - labels, labels)
        q_hat = estimate_q_mlp(x, noisy, 2, seed=0)
        assert np.abs(q_hat.q - q_true.q).max() <= 0.1

    def test_estimated_source_pipeline(self):
        # end to end with per-repetition estimation: the baseline arm never
        # depends on the estimate, and the whole run stays deterministic
        cfg = _tiny_tars(repetitions=1, sample_sizes=(300,),
                         q_source="estimated")
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert len(a) == 2
        assert all(_records_equal_except_time(x, y) for x, y in zip(a, b))
        cic = [r for r in a if r.method == "cic"][0]
        assert cic.error is None

    def test_failed_estimate_tags_only_the_corrected_arm(self, monkeypatch):
        # the noise-ignorant arm never reads the estimate, so a failing
        # estimator must leave its record intact
        def fail(*args, **kwargs):
            raise RuntimeError("injected estimation failure")
        monkeypatch.setattr(harness, "estimate_q_mlp", fail)
        records = run_experiment(_tiny_tars(repetitions=1,
                                            q_source="estimated"))
        by_method = {r.method: r for r in records}
        assert by_method["dcic"].error == "injected estimation failure"
        assert by_method["cic"].error is None
        assert math.isfinite(by_method["cic"].beta_error)

    def test_q_override_bypasses_truth(self):
        # identical data; the corrected arm sees the override, and feeding
        # the true matrix as an override matches the true-source run
        base = _tiny_tars(repetitions=1)
        truth = run_experiment(base)
        rho_rows = tuple(tuple(row) for row in symmetric_noise(2, 0.2).q)
        override = run_experiment(_tiny_tars(repetitions=1, q_override=rho_rows))
        for x, y in zip(truth, override):
            assert _records_equal_except_time(x, y)


class TestEmitResults:
    def test_header_only_when_empty(self, tmp_path):
        path = str(tmp_path / "empty.csv")
        emit_results([], path, _tiny_tars())
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows == [list(CSV_COLUMNS)]

    def test_csv_roundtrip_and_sidecar(self, tmp_path):
        cfg = _tiny_tars(repetitions=1)
        records = run_experiment(cfg)
        path = str(tmp_path / "out.csv")
        emit_results(records, path, cfg)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(records)
        for row, rec in zip(rows, records):
            assert row["scenario"] == rec.scenario
            assert int(row["rep"]) == rec.rep
            assert float(row["beta_error"]) == rec.beta_error
            assert row["accuracy"] == ""  # prior-recovery runs score none
        with open(path + ".json") as fh:
            sidecar = json.load(fh)
        assert sidecar["config"]["scenario"] == "tars_beta_sweep"
        assert set(sidecar["location_scale_law"]) == {
            "shift_range", "scale_low", "scale_high"}
        assert len(sidecar["records"]) == len(records)
        assert sidecar["records"][0]["alpha"] == records[0].alpha
        assert [r["stop_reason"] for r in sidecar["records"]] == [
            r.stop_reason for r in records]
        # the CSV keeps its columns: stop_reason is a sidecar field only
        assert "stop_reason" not in rows[0]

    def test_repeated_runs_byte_identical_outside_wall_time(self, tmp_path):
        cfg = _tiny_tars(repetitions=1)
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        emit_results(run_experiment(cfg), p1, cfg)
        emit_results(run_experiment(cfg), p2, cfg)
        strip = lambda p: ["," .join(line.split(",")[:-1])
                           for line in Path(p).read_text().splitlines()]
        assert strip(p1) == strip(p2)

    # the sidecar's config is the sweep that ran, so it runs it again
    def test_sidecar_config_reruns_the_sweep(self, tmp_path):
        cfg = _tiny_tars(repetitions=1, rho_grid=None,
                         q_override=[[0.8, 0.2], [0.3, 0.7]])
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        emit_results(run_experiment(cfg), p1, cfg)
        with open(p1 + ".json") as fh:
            rerun = ExperimentConfig(**json.load(fh)["config"])
        assert rerun == cfg
        emit_results(run_experiment(rerun), p2, rerun)
        assert _strip_wall_time(p1) == _strip_wall_time(p2)

    def test_oserror_mentions_path(self, tmp_path):
        bad = str(tmp_path / "no_such_dir" / "out.csv")
        with pytest.raises(OSError, match="no_such_dir"):
            emit_results([], bad, _tiny_tars())

    def test_failed_records_serializable(self, tmp_path, failing_rep_data):
        cfg = _tiny_tars(repetitions=1)
        records = run_experiment(cfg)
        path = str(tmp_path / "fail.csv")
        emit_results(records, path, cfg)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert all(row["beta_error"] == "nan" for row in rows)
        with open(path + ".json") as fh:
            sidecar = json.load(fh)
        assert all(r["error"] for r in sidecar["records"])

    def test_failed_record_sidecar_is_strict_json(self, tmp_path, failing_rep_data):
        # RFC 8259 has no NaN: the sidecar writes null, the CSV keeps nan
        cfg = _tiny_tars(repetitions=1)
        records = run_experiment(cfg)
        path = str(tmp_path / "fail.csv")
        emit_results(records, path, cfg)

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        with open(path + ".json") as fh:
            sidecar = json.loads(fh.read(), parse_constant=reject)
        for r in sidecar["records"]:
            assert r["beta_error"] is None and r["alpha_error"] is None
            assert r["error"]


def _getars_tiny():
    return ExperimentConfig(scenario="getars_accuracy", repetitions=2,
                            sample_sizes=(120,), rho_grid=(0.2, 0.4),
                            beta_grid=(1.4,), seed=3)


def _estimated_tars():
    return _tiny_tars(repetitions=2, sample_sizes=(200,), q_source="estimated")


def _strip_wall_time(path):
    with open(path) as fh:
        csv_lines = [line.rsplit(",", 1)[0] for line in fh.read().splitlines()]
    with open(path + ".json") as fh:
        sidecar = json.load(fh)
    for r in sidecar["records"]:
        r.pop("wall_time_s")
    return csv_lines, sidecar


def _pid(*args, **kwargs):
    raise RuntimeError(str(os.getpid()))


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestWorkerProcesses:
    """Sweeps with ``harness._WORKERS`` at 2, as on a 2-CPU host with BLAS
    on one thread, run their arms in forked workers."""

    @pytest.fixture
    def two_workers(self, monkeypatch):
        monkeypatch.setattr(harness, "_WORKERS", 2)

    @pytest.mark.parametrize("env, cpus, want", [
        ({"OPENBLAS_NUM_THREADS": "1"}, 4, 2),
        ({"OPENBLAS_NUM_THREADS": "1"}, 1, 1),
        ({"OMP_NUM_THREADS": "1"}, 2, 2),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2, 1),
        # OpenBLAS skips a value that is not a positive integer
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 2, 2),
        ({"OPENBLAS_NUM_THREADS": "auto", "OMP_NUM_THREADS": "2"}, 2, 1),
        ({}, 2, 1),
    ])
    def test_pool_only_beside_a_one_thread_blas(self, monkeypatch, env,
                                                cpus, want):
        for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        monkeypatch.setattr(harness.os, "sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)
        assert harness._worker_count() == want

    @pytest.mark.parametrize("make_config", [_getars_tiny, _estimated_tars],
                             ids=["getars", "tars-estimated"])
    def test_same_records_csv_and_sidecar_as_serial(self, make_config,
                                                    monkeypatch, tmp_path):
        cfg = make_config()
        monkeypatch.setattr(harness, "_WORKERS", 1)
        serial = run_experiment(cfg)
        monkeypatch.setattr(harness, "_WORKERS", 2)
        forked = run_experiment(cfg)
        assert len(forked) == len(serial) > 2
        assert all(_records_equal_except_time(x, y)
                   for x, y in zip(serial, forked))
        assert all(r.error is None for r in forked)
        p1, p2 = str(tmp_path / "serial.csv"), str(tmp_path / "forked.csv")
        emit_results(serial, p1, config=cfg)
        emit_results(forked, p2, config=cfg)
        assert _strip_wall_time(p1) == _strip_wall_time(p2)

    def test_failed_data_tags_both_arms(self, two_workers, failing_rep_data):
        records = run_experiment(_tiny_tars(repetitions=2))
        assert [r.method for r in records] == ["dcic", "cic"] * 2
        for r in records:
            assert r.error == "injected data-generation failure"
            assert math.isnan(r.beta_error)

    def test_no_process_or_thread_outlives_the_sweep(self, two_workers):
        run_experiment(_tiny_tars(repetitions=1))
        _assert_no_child_left()
        assert threading.active_count() == 1

    def test_snake_split_gives_each_worker_both_arms(self, two_workers,
                                                     monkeypatch):
        # tasks[w::2] would hand every dcic arm to worker 0
        monkeypatch.setattr(harness, "_run_arm",
                            lambda task: (os.getpid(), task[-1]))
        got = run_experiment(_tiny_tars(repetitions=4))
        assert [method for _, method in got] == ["dcic", "cic"] * 4
        pids = {pid for pid, _ in got}
        assert len(pids) == 2 and os.getpid() not in pids
        counts = Counter(got)
        for pid in pids:
            assert counts[pid, "dcic"] == counts[pid, "cic"] == 2

    @pytest.mark.parametrize("dying, how, match", [
        ("cic", "exit", "exited with status 3"),
        ("dcic", "exit", "exited with status 3"),
        ("cic", "signal", f"was killed by signal {int(signal.SIGKILL)}"),
    ])
    def test_dying_worker_raises_and_leaves_no_child(self, two_workers,
                                                     monkeypatch, dying, how,
                                                     match):
        # a dying dcic worker is read first, so its sleeping sibling is
        # killed; a dying cic worker is read after its sibling finished
        nap = 0.2 if dying == "cic" else 30.0

        def arm(task):
            if task[-1] == dying:
                if how == "exit":
                    os._exit(3)
                os.kill(os.getpid(), signal.SIGKILL)
            time.sleep(nap)
            return task[-1]

        monkeypatch.setattr(harness, "_run_arm", arm)
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match=rf"sweep worker \d .* {match}"):
            run_experiment(_tiny_tars(repetitions=1))
        assert time.perf_counter() - start < 20.0
        _assert_no_child_left()

    def test_cut_short_payload_raises(self, two_workers, monkeypatch):
        class Truncating:
            HIGHEST_PROTOCOL = pickle.HIGHEST_PROTOCOL
            UnpicklingError = pickle.UnpicklingError
            loads = staticmethod(pickle.loads)

            @staticmethod
            def dump(obj, fh, protocol):
                fh.write(pickle.dumps(obj, protocol)[:-1])

        monkeypatch.setattr(harness, "pickle", Truncating)
        with pytest.raises(RuntimeError, match=r"sweep worker 0 .*cut-short"):
            run_experiment(_tiny_tars(repetitions=1))
        _assert_no_child_left()

    def test_interrupt_kills_the_workers(self, two_workers, monkeypatch):
        def interrupt(signum, frame):
            raise KeyboardInterrupt

        monkeypatch.setattr(harness, "_run_arm", lambda task: time.sleep(30))
        previous = signal.signal(signal.SIGALRM, interrupt)
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.3)
            start = time.perf_counter()
            with pytest.raises(KeyboardInterrupt):
                run_experiment(_tiny_tars(repetitions=1))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert time.perf_counter() - start < 20.0
        _assert_no_child_left()

    def test_parent_imports_no_multiprocessing(self):
        code = ("import os, sys\n"
                "from dcic import harness\n"
                "harness._WORKERS = 2\n"
                "def fit(*args, **kwargs):\n"
                "    raise RuntimeError(str(os.getpid()))\n"
                "harness.fit = fit\n"
                "cfg = harness.ExperimentConfig('tars_beta_sweep', 1, (60,),"
                " (0.2,), (1.4,))\n"
                "records = harness.run_experiment(cfg)\n"
                "assert {r.error for r in records} - {str(os.getpid())}\n"
                "print(sorted(m for m in ('multiprocessing',"
                " 'concurrent.futures') if m in sys.modules))\n")
        src = str(Path(harness.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"

    def test_worker_passes_run_inline(self, two_workers, monkeypatch):
        # each task runs in a child process
        monkeypatch.setattr(harness, "fit", _pid)
        records = run_experiment(_tiny_tars(repetitions=2))
        assert len(records) == 4
        assert all(int(r.error) != os.getpid() for r in records)

    def test_running_thread_keeps_the_sweep_in_process(self, two_workers,
                                                       monkeypatch):
        monkeypatch.setattr(harness, "fit", _pid)
        stop = threading.Event()
        other = threading.Thread(target=stop.wait, args=(30,))
        other.start()
        try:
            records = run_experiment(_tiny_tars(repetitions=1))
        finally:
            stop.set()
            other.join(timeout=30)
        assert not other.is_alive()
        assert {r.error for r in records} == {str(os.getpid())}

    def test_wrapped_fit_keeps_the_sweep_in_process(self, two_workers,
                                                    monkeypatch):
        # a traced fit records its spans in this process's tracer only
        wrapped = functools.wraps(linear.fit)(
            lambda *args, **kwargs: _pid(*args, **kwargs))
        monkeypatch.setattr(harness, "fit", wrapped)
        records = run_experiment(_tiny_tars(repetitions=1))
        assert {r.error for r in records} == {str(os.getpid())}
