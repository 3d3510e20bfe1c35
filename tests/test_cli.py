"""End-to-end tests of the ``python -m repro`` command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.evolving.store import SnapshotStore


@pytest.fixture
def store_dir(tmp_path):
    path = tmp_path / "store"
    code = main([
        "generate", str(path), "--scale", "8", "--edges", "1500",
        "--snapshots", "5", "--batch-size", "40", "--seed", "3",
    ])
    assert code == 0
    return path


class TestGenerate:
    def test_creates_store(self, store_dir):
        store = SnapshotStore(store_dir)
        assert store.num_snapshots == 5
        assert store.num_vertices == 256

    def test_named_dataset(self, tmp_path, capsys):
        path = tmp_path / "lj"
        code = main([
            "generate", str(path), "--dataset", "LJ", "--edge-scale", "0.02",
            "--snapshots", "3", "--batch-size", "10",
        ])
        assert code == 0
        assert SnapshotStore(path).name == "LJ"


class TestInfo:
    def test_prints_summary(self, store_dir, capsys):
        assert main(["info", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "snapshots" in out
        assert "common graph edges" in out
        assert "direct-hop additions" in out


class TestEvaluate:
    def test_full_range(self, store_dir, capsys):
        code = main([
            "evaluate", str(store_dir), "--algorithm", "BFS", "--source", "0",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "BFS from 0 on versions 0..4" in out
        assert "additions streamed" in out

    def test_version_window_and_out(self, store_dir, tmp_path, capsys):
        out_path = tmp_path / "values.npz"
        code = main([
            "evaluate", str(store_dir), "--algorithm", "SSSP",
            "--first", "1", "--last", "3", "--strategy", "direct-hop",
            "--out", str(out_path),
        ])
        assert code == 0
        with np.load(out_path) as data:
            assert set(data.files) == {"version_1", "version_2", "version_3"}
            assert data["version_1"].shape == (256,)

    def test_strategies_agree_via_cli(self, store_dir, tmp_path):
        outs = []
        # Every name core/steiner.py resolves is a CLI choice, not only
        # the two evaluator names.
        for strategy in ("direct-hop", "work-sharing", "greedy"):
            out_path = tmp_path / f"{strategy}.npz"
            assert main([
                "evaluate", str(store_dir), "--algorithm", "SSWP",
                "--strategy", strategy, "--out", str(out_path),
            ]) == 0
            with np.load(out_path) as data:
                outs.append({k: data[k] for k in data.files})
        for other in outs[1:]:
            assert outs[0].keys() == other.keys()
            for key in outs[0]:
                assert np.array_equal(outs[0][key], other[key])

    def test_unknown_strategy_is_refused(self, store_dir):
        with pytest.raises(SystemExit):
            main(["evaluate", str(store_dir), "--strategy", "steiner"])


class TestInfoDetailed:
    def test_structural_summary(self, store_dir, capsys):
        assert main(["info", str(store_dir), "--detailed"]) == 0
        out = capsys.readouterr().out
        assert "base snapshot structure" in out
        assert "weak components" in out
        assert "degree histogram" in out


class TestTrend:
    def test_builtin_metrics(self, store_dir, capsys):
        code = main([
            "trend", str(store_dir), "--algorithm", "BFS",
            "--metrics", "reach", "mean",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "BFS trends" in out
        assert "reach" in out and "mean" in out

    def test_greedy_schedule(self, store_dir, capsys):
        assert main([
            "trend", str(store_dir), "--metrics", "reach",
            "--strategy", "greedy",
        ]) == 0
        assert "reach" in capsys.readouterr().out

    def test_vertex_metric_and_chart(self, store_dir, capsys):
        code = main([
            "trend", str(store_dir), "--metrics", "vertex:3", "--chart",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "vertex_3" in out
        assert "* vertex_3" in out  # chart legend

    def test_unknown_metric_errors(self, store_dir, capsys):
        code = main(["trend", str(store_dir), "--metrics", "entropy"])
        assert code == 2
        assert "unknown metric" in capsys.readouterr().err

    def test_window(self, store_dir, capsys):
        code = main([
            "trend", str(store_dir), "--first", "1", "--last", "3",
            "--metrics", "reach",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "\n1 " in out and "\n3 " in out
        assert "\n0 " not in out


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize("command", [
    ["ping"], ["info"], ["obs", "dump"], ["temporal", "point"],
])
@pytest.mark.parametrize("address", [
    "127.0.0.1", "host:abc", "127.0.0.1:70000",
])
def test_malformed_connect_is_a_usage_error(command, address, capsys):
    # Before any socket is opened: exit 2 with a usage message, not a
    # ValueError traceback from int(port).
    with pytest.raises(SystemExit) as exited:
        main([*command, "--connect", address])
    assert exited.value.code == 2
    assert "expected HOST:PORT" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, value", [
    ("serve", "--result-cache", "0"),
    ("serve", "--max-concurrent", "0"),
    ("serve", "--queue-limit", "-1"),
    ("serve", "--retries", "-1"),
    ("serve", "--breaker-threshold", "0"),
    ("serve", "--window", "0"),
    ("serve", "--livetip-max-updates", "0"),
    ("serve", "--request-timeout", "0"),
    ("serve", "--request-timeout", "-1"),
    ("serve", "--request-timeout", "nan"),
    ("route", "--window", "0"),
    ("route", "--breaker-threshold", "0"),
    ("route", "--request-timeout", "0"),
    ("serve", "--queue-timeout", "-1"),
    ("serve", "--queue-timeout", "nan"),
    ("serve", "--breaker-reset", "-1"),
    ("serve", "--breaker-reset", "nan"),
    ("serve", "--drain-timeout", "-1"),
    ("serve", "--drain-timeout", "nan"),
    ("route", "--breaker-reset", "-1"),
    ("route", "--breaker-reset", "nan"),
    ("route", "--probe-interval", "0"),
    ("route", "--probe-interval", "-1"),
    ("route", "--probe-interval", "nan"),
    ("serve", "--queue-timeout", "inf"),
    ("serve", "--breaker-reset", "inf"),
    ("serve", "--drain-timeout", "inf"),
    ("serve", "--request-timeout", "inf"),
    ("route", "--request-timeout", "inf"),
    ("route", "--breaker-reset", "inf"),
    ("route", "--probe-interval", "inf"),
    ("route", "--replicas", "0"),
    ("ping", "--timeout", "nan"),
    ("ping", "--timeout", "-1"),
    ("ping", "--timeout", "inf"),
    ("query", "--timeout", "0"),
    ("ingest", "--timeout", "nan"),
    ("update", "--timeout", "-1"),
    ("shutdown", "--timeout", "nan"),
    ("temporal point", "--timeout", "nan"),
    ("temporal timeline", "--timeout", "-1"),
    ("obs dump", "--timeout", "nan"),
])
def test_out_of_range_service_flags_are_usage_errors(tmp_path, command,
                                                      flag, value, capsys):
    # Refused while parsing: no store is opened, no service starts, no
    # socket is given a timeout it refuses.
    argv = ([command, str(tmp_path / "missing")]
            if command in ("serve", "route") else command.split())
    with pytest.raises(SystemExit) as exited:
        main([*argv, flag, value])
    assert exited.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: expected" in err
    assert "Traceback" not in err


class TestInfoJson:
    def test_machine_readable_summary(self, store_dir, capsys):
        import json

        assert main(["info", str(store_dir), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["num_snapshots"] == 5
        assert payload["num_vertices"] == 256
        assert payload["common_edges"] > 0
        assert 0.0 <= payload["common_share_of_base"] <= 1.0
        assert payload["direct_hop_additions"] >= 0
        assert payload["storage_edges"] <= payload["snapshot_storage_edges"]

    def test_requires_store_or_connect(self, capsys):
        assert main(["info"]) == 2
        assert "required" in capsys.readouterr().err
