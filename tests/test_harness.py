import csv
import functools
import json
import math
import multiprocessing
import os
import threading
from dataclasses import asdict

import numpy as np
import pytest

from dcic import harness, linear
from dcic.data import symmetric_noise
from dcic.harness import (CSV_COLUMNS, DIM, ExperimentConfig, _rep_data,
                          emit_results, estimate_q_mlp, resolved_grids,
                          run_experiment, scenario_defaults)
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
        sizes, rhos, betas = scenario_defaults("tars_beta_sweep")
        assert sizes == (500,) and rhos == (0.4,)
        assert betas == (0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8)
        sizes, rhos, betas = scenario_defaults("tars_rho_sweep")
        assert rhos == (0.0, 0.1, 0.2, 0.3, 0.4) and betas == (1.4,)
        sizes, _, _ = scenario_defaults("tars_size_sweep")
        assert sizes == (200, 500, 1000, 2000)
        _, rhos, betas = scenario_defaults("getars_accuracy")
        assert rhos == (0.0, 0.1, 0.2, 0.3, 0.4) and betas == (1.4, 1.6, 1.8)

    def test_grid_overrides(self):
        cfg = _tiny_tars(sample_sizes=(100, 200), beta_grid=None)
        sizes, rhos, betas = resolved_grids(cfg)
        assert sizes == (100, 200)
        assert rhos == (0.2,)
        assert betas == scenario_defaults("tars_beta_sweep")[2]

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
    ], ids=["rho_grid-number", "sample_sizes-string", "q_override-number",
            "q_override-ragged"])
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
                           for line in open(p).read().splitlines()]
        assert strip(p1) == strip(p2)

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


def _pid_and_workers(*args, **kwargs):
    raise RuntimeError(f"{os.getpid()} {linear._WORKERS}")


class TestWorkerProcesses:
    """Sweeps with ``linear._WORKERS`` at 2, as on a 2-CPU host with BLAS on
    one thread, run their arms in forked workers."""

    @pytest.fixture
    def two_workers(self, monkeypatch):
        monkeypatch.setattr(linear, "_WORKERS", 2)

    @pytest.mark.parametrize("make_config", [_getars_tiny, _estimated_tars],
                             ids=["getars", "tars-estimated"])
    def test_same_records_csv_and_sidecar_as_serial(self, make_config,
                                                    monkeypatch, tmp_path):
        cfg = make_config()
        monkeypatch.setattr(linear, "_WORKERS", 1)
        serial = run_experiment(cfg)
        monkeypatch.setattr(linear, "_WORKERS", 2)
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
        # the pool's manager and queue threads are joined on shutdown too,
        # so the next sweep may fork again
        run_experiment(_tiny_tars(repetitions=1))
        assert multiprocessing.active_children() == []
        assert threading.active_count() == 1

    def test_worker_passes_run_inline(self, two_workers, monkeypatch):
        # each task runs in a child process that sees one pass worker
        monkeypatch.setattr(harness, "fit", _pid_and_workers)
        records = run_experiment(_tiny_tars(repetitions=2))
        assert len(records) == 4
        for r in records:
            pid, workers = r.error.split()
            assert int(pid) != os.getpid()
            assert workers == "1"
        assert linear._WORKERS == 2

    def test_running_thread_keeps_the_sweep_in_process(self, two_workers,
                                                       monkeypatch):
        monkeypatch.setattr(harness, "fit", _pid_and_workers)
        stop = threading.Event()
        other = threading.Thread(target=stop.wait, args=(30,))
        other.start()
        try:
            records = run_experiment(_tiny_tars(repetitions=1))
        finally:
            stop.set()
            other.join(timeout=30)
        assert not other.is_alive()
        assert {r.error for r in records} == {f"{os.getpid()} 2"}

    def test_wrapped_fit_keeps_the_sweep_in_process(self, two_workers,
                                                    monkeypatch):
        # a traced fit records its spans in this process's tracer only
        wrapped = functools.wraps(linear.fit)(
            lambda *args, **kwargs: _pid_and_workers(*args, **kwargs))
        monkeypatch.setattr(harness, "fit", wrapped)
        records = run_experiment(_tiny_tars(repetitions=1))
        assert {r.error for r in records} == {f"{os.getpid()} 2"}
