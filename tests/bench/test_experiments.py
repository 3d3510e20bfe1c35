"""Smoke + shape tests for all experiment drivers at tiny scale.

These run every table/figure regenerator on a minute profile and check
the structural properties the paper's shapes rely on (columns present,
rows per combination, sane values).  The real shape checks at paper
scale are recorded in EXPERIMENTS.md via ``python -m benchmarks.paper``.
"""

import pytest

from benchmarks.paper.experiments import (
    EXPERIMENTS,
    ablation_batch_scale,
    ablation_overlay,
    ablation_storage,
    ablation_scheduler,
    ablation_steiner,
    figure1,
    figure8,
    figure9,
    figure10,
    figure11,
    range_query,
    run_experiment,
    table4,
    table5,
)
from benchmarks.paper.harness import main, profile_kwargs, run_all
from repro.bench.workloads import WorkloadSpec

TINY = WorkloadSpec(dataset="LJ", num_snapshots=4, batch_size=20,
                    edge_scale=0.05, seed=2)


class TestFigure1:
    def test_shape(self):
        result = figure1(
            dataset="LJ", batch_sizes=(20, 40), algorithms=("BFS",),
            edge_scale=0.05, repeats=1,
        )
        assert result.name == "figure1"
        assert len(result.rows) == 2
        for row in result.rows:
            record = dict(zip(result.headers, row))
            assert record["incr_add_s"] >= 0
            assert record["incr_del_s"] >= 0
            assert record["mut_del_s"] > 0


class TestTable4:
    def test_shape(self):
        result = table4(datasets=("LJ",), algorithms=("BFS", "SSSP"), spec=TINY)
        assert len(result.rows) == 2
        for row in result.rows:
            record = dict(zip(result.headers, row))
            assert record["kickstarter_s"] > 0
            assert record["dh_speedup"] > 0
            assert record["ws_speedup"] > 0

    def test_column_accessor(self):
        result = table4(datasets=("LJ",), algorithms=("BFS",), spec=TINY)
        assert result.column("graph") == ["LJ"]

    def test_render_and_markdown(self):
        result = table4(datasets=("LJ",), algorithms=("BFS",), spec=TINY)
        text = result.render()
        assert "Table 4" in text
        md = result.to_markdown()
        assert md.startswith("### Table 4")
        assert "| graph |" in md


class TestScalability:
    def test_figure8_shape(self):
        result = figure8(
            dataset="LJ", algorithms=("BFS",), snapshot_counts=(2, 4), spec=TINY
        )
        assert len(result.rows) == 2
        assert result.column("snapshots") == [2, 4]

    def test_figure9_shape(self):
        result = figure9(
            dataset="LJ", algorithms=("BFS",), sweep=((20, 4), (40, 2)), spec=TINY
        )
        assert len(result.rows) == 2
        assert result.column("batch") == [20, 40]

    def test_figure10_shape(self):
        result = figure10(
            dataset="LJ", algorithms=("BFS",), ratios=((15, 5), (5, 15)), spec=TINY
        )
        assert len(result.rows) == 2
        for row in result.rows:
            record = dict(zip(result.headers, row))
            assert record["dh_speedup"] > 0


class TestTable5:
    def test_shape(self):
        result = table5(datasets=("LJ",), algorithms=("BFS",), spec=TINY)
        record = dict(zip(result.headers, result.rows[0]))
        assert record["longest_hop_s"] > 0
        assert record["speedup"] > 0


class TestFigure11:
    def test_shape(self):
        result = figure11(dataset="LJ", algorithms=("BFS",), spec=TINY)
        assert len(result.rows) == 2  # KS and CG rows
        ks = dict(zip(result.headers, result.rows[0]))
        cg = dict(zip(result.headers, result.rows[1]))
        assert ks["system"] == "KS"
        assert cg["system"] == "CG"
        # CommonGraph eliminates mutation and incremental deletion.
        assert cg["incr_del_s"] == 0.0
        assert cg["mut_add_s"] == 0.0
        assert cg["mut_del_s"] == 0.0
        assert ks["mut_del_s"] > 0.0


class TestAblations:
    def test_steiner(self):
        result = ablation_steiner(num_snapshots=4, batch_size=20, edge_scale=0.05)
        strategies = result.column("strategy")
        assert "direct-hop" in strategies
        costs = dict(zip(strategies, result.column("cost_additions")))
        assert costs["greedy + bypass"] <= costs["direct-hop"]
        assert costs["exact + bypass"] <= costs["greedy + bypass"]
        assert costs["greedy (no bypass)"] == costs["greedy + bypass"]
        assert costs["halving (fanout 2)"] <= costs["split-4 (the default)"]
        assert all(ms > 0 for ms in result.column("walk_ms"))

    def test_overlay(self):
        result = ablation_overlay(spec=TINY)
        assert len(result.rows) == 2

    def test_scheduler(self):
        result = ablation_scheduler(spec=TINY)
        assert result.column("mode") == ["sync", "async", "auto"]

    def test_storage(self):
        result = ablation_storage(datasets=("LJ",), spec=TINY)
        record = dict(zip(result.headers, result.rows[0]))
        naive = record["per-snapshot CSRs"]
        direct = record["common+surpluses"]
        shared = record["common+schedule batches"]
        assert shared <= direct <= naive
        # With 4 snapshots the naive storage is ~4x a snapshot's edges.
        assert naive > 3 * direct

    def test_batch_scale(self):
        result = ablation_batch_scale(
            dataset="LJ", batch_sizes=(10, 20), spec=TINY
        )
        assert result.column("batch") == [10, 20]
        for row in result.rows:
            record = dict(zip(result.headers, row))
            assert record["ws_additions"] <= record["dh_additions"]


class TestRangeQuery:
    def test_window_root_streams_fewer_additions(self):
        result = range_query(window=2, spec=TINY)
        window, from_common = result.column("additions")
        assert result.column("root") == ["window ICG(2, 3)", "global Gc"]
        assert 0 < window <= from_common


class TestRegistry:
    def test_all_experiments_registered(self):
        assert set(EXPERIMENTS) == {
            "figure1", "table4", "figure8", "figure9", "figure10",
            "table5", "figure11", "ablation_steiner", "ablation_overlay",
            "ablation_scheduler", "ablation_batch_scale",
            "ablation_storage", "range_query",
        }

    def test_run_experiment_dispatch(self):
        result = run_experiment(
            "table4", datasets=("LJ",), algorithms=("BFS",), spec=TINY
        )
        assert result.name == "table4"

    def test_run_experiment_unknown(self):
        with pytest.raises(KeyError):
            run_experiment("figure99")

    def test_profile_kwargs_cover_all(self):
        for profile in ("paper", "ci"):
            for name in EXPERIMENTS:
                kwargs = profile_kwargs(profile, name)
                assert isinstance(kwargs, dict)


class TestHarness:
    def test_run_all_ci(self, capsys):
        results = run_all(["ablation_steiner"], profile="ci")
        assert len(results) == 1
        out = capsys.readouterr().out
        assert "Ablation" in out
        assert "completed in" in out

    def test_cli_writes_markdown(self, tmp_path, capsys):
        out = tmp_path / "report.md"
        code = main(["ablation_steiner", "--profile", "ci", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert "# CommonGraph reproduction" in text
        assert "Ablation" in text

    def test_cli_rejects_unknown(self):
        with pytest.raises(SystemExit):
            main(["figure99"])
