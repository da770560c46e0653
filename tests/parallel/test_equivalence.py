"""Parallel execution must be bitwise-identical to the serial protocol."""

import os
import signal
import time

import numpy as np
import pytest

from repro.core import RTGCN, TrainConfig
from repro.eval import grid_search, run_experiment, run_named_experiment
from repro.parallel import fork_available, run_experiments_parallel
from repro.store import ExperimentStore, query_runs

pytestmark = pytest.mark.skipif(not fork_available(),
                                reason="needs the fork start method")


def quick_config(**overrides):
    defaults = dict(window=6, epochs=1, max_train_days=8, seed=0)
    defaults.update(overrides)
    return TrainConfig(**defaults)


def factory(dataset):
    return lambda gen: RTGCN(dataset.relations, strategy="uniform",
                             relational_filters=4, rng=gen)


class TestBitwiseEquality:
    def test_dense_parallel_equals_serial(self, nasdaq_mini):
        cfg = quick_config(graph_mode="dense")
        serial = run_experiment("eq-dense", factory(nasdaq_mini),
                                nasdaq_mini, cfg, n_runs=3, workers=1)
        par = run_experiment("eq-dense", factory(nasdaq_mini),
                             nasdaq_mini, cfg, n_runs=3, workers=2)
        assert par.runs == serial.runs          # bitwise: dict of floats
        assert par.train_seconds and par.test_seconds

    def test_sparse_parallel_equals_serial(self, nasdaq_mini):
        cfg = quick_config(graph_mode="sparse")
        serial = run_experiment("eq-sparse", factory(nasdaq_mini),
                                nasdaq_mini, cfg, n_runs=3, workers=1)
        par = run_experiment("eq-sparse", factory(nasdaq_mini),
                             nasdaq_mini, cfg, n_runs=3, workers=2)
        assert par.runs == serial.runs

    def test_named_experiment_parallel_equals_serial(self, nasdaq_mini):
        cfg = quick_config()
        serial = run_named_experiment("Rank_LSTM", nasdaq_mini, cfg,
                                      n_runs=3, workers=1)
        par = run_named_experiment("Rank_LSTM", nasdaq_mini, cfg,
                                   n_runs=3, workers=2)
        assert par.runs == serial.runs

    def test_parallel_attaches_schema_v1_telemetry(self, nasdaq_mini):
        from repro.obs import validate_report
        cfg = quick_config()
        par = run_named_experiment("Rank_LSTM", nasdaq_mini, cfg,
                                   n_runs=2, workers=2)
        serial = run_named_experiment("Rank_LSTM", nasdaq_mini, cfg,
                                      n_runs=2, workers=1)
        assert serial.telemetry is None
        validate_report(par.telemetry)
        assert par.telemetry["metrics"]["workers"] == 2
        assert par.telemetry["metrics"]["tasks_completed"] == 2

    def test_grid_search_parallel_equals_serial(self, nasdaq_mini):
        cfg = quick_config()

        def grid_factory(gen, config):
            return RTGCN(nasdaq_mini.relations, strategy="uniform",
                         relational_filters=4, rng=gen)

        grid = {"window": [5, 6], "alpha": [0.1, 0.2]}
        serial = grid_search(grid_factory, nasdaq_mini, grid,
                             base_config=cfg, validation_days=5,
                             workers=1)
        par = grid_search(grid_factory, nasdaq_mini, grid,
                          base_config=cfg, validation_days=5, workers=2)
        assert [p.params for p in par.points] == \
               [p.params for p in serial.points]
        assert [p.score for p in par.points] == \
               [p.score for p in serial.points]


class TestFaultInjection:
    def test_killed_worker_mid_run_still_bitwise_equal(self, nasdaq_mini,
                                                       tmp_path):
        """A SIGKILL-style death mid-run must not change the aggregate."""
        cfg = quick_config()
        serial = run_experiment("eq-crash", factory(nasdaq_mini),
                                nasdaq_mini, cfg, n_runs=3, workers=1)

        marker = tmp_path / "crashed-once"

        def crashing_factory(gen):
            # Die the hard way (no exception, no cleanup) on the first
            # attempt only; the marker survives the respawned worker.
            if not marker.exists():
                marker.write_text("x")
                os._exit(9)
            return factory(nasdaq_mini)(gen)

        with pytest.warns(RuntimeWarning, match="retrying"):
            par = run_experiment("eq-crash", crashing_factory,
                                 nasdaq_mini, cfg, n_runs=3, workers=2)
        assert marker.exists()                  # the crash really fired
        assert par.runs == serial.runs
        assert par.telemetry["metrics"]["crashes"] == 1

    def test_killed_sweep_resumes_at_run_k(self, csi_mini, tmp_path):
        """SIGKILL a store-backed 2-worker experiment after its first
        stored run: the store stays intact, and the re-invocation
        executes only the missing runs, bitwise-equal to serial."""
        cfg = quick_config()
        db = tmp_path / "exp.sqlite"
        serial = run_experiment("eq-resume", factory(csi_mini), csi_mini,
                                cfg, n_runs=6, workers=1)

        pid = os.fork()
        if pid == 0:                    # the parent that gets killed
            try:
                run_experiment("eq-resume", factory(csi_mini), csi_mini,
                               cfg, n_runs=6, workers=2, store=db)
            finally:
                os._exit(0)

        def stored_runs() -> int:
            if not db.exists():
                return 0
            with ExperimentStore(db) as store:
                return store.execute("SELECT COUNT(DISTINCT run_id) AS n"
                                     " FROM metrics")[0]["n"]

        deadline = time.monotonic() + 300.0
        while stored_runs() < 1 and time.monotonic() < deadline:
            time.sleep(0.02)
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        survivors = stored_runs()
        assert 1 <= survivors < 6
        with ExperimentStore(db) as store:
            assert store.execute("PRAGMA integrity_check")[0][0] == "ok"

        # Fork means in-memory counters don't propagate back, so count
        # executions through marker files instead.
        executed = tmp_path / "executed"
        executed.mkdir()

        def counting_factory(gen):
            state = gen.bit_generator.state["state"]["state"]
            (executed / f"run-{state:x}").write_text("x")
            return factory(csi_mini)(gen)

        resumed = run_experiment("eq-resume", counting_factory, csi_mini,
                                 cfg, n_runs=6, workers=2, store=db)
        assert len(list(executed.iterdir())) == 6 - survivors
        assert resumed.runs == serial.runs


class TestSweep:
    def test_sweep_matches_named_experiments(self, nasdaq_mini, csi_mini):
        cfg = quick_config()
        sweep = run_experiments_parallel(
            ["Rank_LSTM", "LSTM"], ["nasdaq-mini", "csi-mini"],
            config=cfg, n_runs=2, base_seed=0, workers=2, dataset_seed=7)
        assert set(sweep.results) == {
            ("Rank_LSTM", "nasdaq-mini"), ("Rank_LSTM", "csi-mini"),
            ("LSTM", "nasdaq-mini"), ("LSTM", "csi-mini")}
        for market, dataset in (("nasdaq-mini", nasdaq_mini),
                                ("csi-mini", csi_mini)):
            for model in ("Rank_LSTM", "LSTM"):
                expected = run_named_experiment(model, dataset, cfg,
                                                n_runs=2, workers=1)
                assert sweep.results[(model, market)].runs == expected.runs

    def test_sweep_serial_fallback_matches(self, nasdaq_mini):
        cfg = quick_config()
        par = run_experiments_parallel(["Rank_LSTM"], ["nasdaq-mini"],
                                       config=cfg, n_runs=2, workers=2,
                                       dataset_seed=7)
        ser = run_experiments_parallel(["Rank_LSTM"], ["nasdaq-mini"],
                                       config=cfg, n_runs=2, workers=1,
                                       dataset_seed=7)
        key = ("Rank_LSTM", "nasdaq-mini")
        assert par.results[key].runs == ser.results[key].runs
        assert ser.telemetry is None and par.telemetry is not None

    def test_sweep_journals_and_resumes(self, tmp_path):
        """A sweep whose store holds some of its runs — what a killed
        sweep leaves behind — executes only the rest."""
        cfg = quick_config()
        key = ("Rank_LSTM", "nasdaq-mini")
        full = run_experiments_parallel(
            ["Rank_LSTM"], ["nasdaq-mini"], config=cfg, n_runs=3,
            workers=2, dataset_seed=7, store=tmp_path / "full.sqlite")
        stored = query_runs(ExperimentStore(tmp_path / "full.sqlite"))
        partial = ExperimentStore(tmp_path / "partial.sqlite")
        run = next(run for run in stored if run.run_index == 1)
        partial.record_run(run.experiment, run.fingerprint, 1, run.metrics)

        resumed = run_experiments_parallel(
            ["Rank_LSTM"], ["nasdaq-mini"], config=cfg, n_runs=3,
            workers=2, dataset_seed=7, store=partial)
        assert (resumed.executed, resumed.restored) == (2, 1)
        assert resumed.results[key].runs == full.results[key].runs
        assert len(query_runs(partial)) == 3

    def test_classifier_mrr_is_nan_in_sweep(self):
        cfg = quick_config()
        sweep = run_experiments_parallel(["ARIMA"], ["nasdaq-mini"],
                                         config=cfg, n_runs=2, workers=2,
                                         dataset_seed=7)
        runs = sweep.results[("ARIMA", "nasdaq-mini")].runs
        assert all(np.isnan(run["MRR"]) for run in runs)
        assert all(np.isfinite(run["IRR-5"]) for run in runs)

    def test_sweep_validates_inputs(self):
        with pytest.raises(ValueError, match="non-empty"):
            run_experiments_parallel([], ["nasdaq-mini"])
        with pytest.raises(ValueError, match="n_runs"):
            run_experiments_parallel(["LSTM"], ["nasdaq-mini"], n_runs=0)
