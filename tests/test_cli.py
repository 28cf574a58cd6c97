import os

import pytest

from edgeknow.cli import main

BASE = [
    "run",
    "--nodes", "12",
    "--predicting", "6",
    "--contexts", "3",
    "--contexts-per-table", "2",
    "--combinations", "2",
    "--trained-per-node", "2",
    "--observations", "200",
    "--cycles", "2",
]


def run_cli(args):
    return main([str(a) for a in args])


def export_small_workload(path):
    """Write a workload CSV that fits BASE."""
    from edgeknow.engine import SimConfig, export_workload_csv, generate_workload

    config = SimConfig(
        node_count=12, predicting_var_count=6, context_var_count=3,
        contexts_per_table=2, combinations_pool=2,
        vars_trained_per_node=2, observations_per_var=200,
    )
    export_workload_csv(generate_workload(config, seed=0), path)
    return path


class TestRun:
    def test_single_trial_outputs(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli(BASE + ["--seed", "0", "--out", out]) == 0
        run_csv = out / "run_seed0_abs.csv"
        assert run_csv.exists()
        lines = run_csv.read_text().splitlines()
        assert len(lines) == 3  # header plus one row per cycle
        assert lines[0].startswith("cycle,strategy,node_count")
        summary = (out / "summary.csv").read_text().splitlines()
        assert len(summary) == 2
        assert summary[1].startswith("run_seed0_abs,")

    def test_sweep_and_seeds(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            BASE + ["--seed", "0,1", "--sweep", "k=1,2", "--out", out]
        )
        assert code == 0
        names = sorted(p.name for p in out.glob("run_*.csv"))
        assert names == [
            "run_k1_seed0_abs.csv",
            "run_k1_seed1_abs.csv",
            "run_k2_seed0_abs.csv",
            "run_k2_seed1_abs.csv",
        ]
        summary = (out / "summary.csv").read_text().splitlines()
        assert len(summary) == 5

    def test_both_strategies_paired(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli(BASE + ["--seed", "3", "--strategy", "both", "--out", out]) == 0
        assert (out / "run_seed3_abs.csv").exists()
        assert (out / "run_seed3_rw.csv").exists()

    def test_reproducible_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli(BASE + ["--seed", "7", "--out", a])
        run_cli(BASE + ["--seed", "7", "--out", b])
        assert (a / "run_seed7_abs.csv").read_bytes() == (
            b / "run_seed7_abs.csv"
        ).read_bytes()

    def test_seed_env_fallback(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        monkeypatch.setenv("EDGEKNOW_SEED", "9")
        run_cli(BASE + ["--out", out])
        assert (out / "run_seed9_abs.csv").exists()

    def test_bad_sweep_spec(self, tmp_path):
        assert run_cli(BASE + ["--sweep", "bogus=1", "--out", tmp_path]) == 2

    def test_bad_config_value(self, tmp_path):
        assert run_cli(["run", "--nodes", "0", "--out", tmp_path]) == 2

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "trial.cfg"
        cfg.write_text(
            "nodes = 12\npredicting = 6\ncontexts = 3\n"
            "contexts_per_table = 2\ncombinations = 2\n"
            "trained_per_node = 2\nobservations = 200\ncycles = 5\n"
        )
        out = tmp_path / "out"
        assert run_cli(
            ["run", "--config", cfg, "--cycles", "2", "--seed", "0", "--out", out]
        ) == 0
        lines = (out / "run_seed0_abs.csv").read_text().splitlines()
        assert len(lines) == 3  # the flag wins over the file

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "trial.cfg"
        for text in ("wat = 1\n", "nodes 12\n"):
            cfg.write_text(text)
            assert run_cli(["run", "--config", cfg, "--out", tmp_path]) == 2

    def test_workload_csv_input(self, tmp_path):
        wl_path = export_small_workload(tmp_path / "workload.csv")
        out = tmp_path / "out"
        code = run_cli(
            BASE + ["--seed", "0", "--workload-csv", wl_path, "--out", out]
        )
        assert code == 0
        assert (out / "run_seed0_abs.csv").exists()

    @pytest.mark.parametrize(
        "sweep, code", [("k=1,2", 0), ("nodes=12,16", 2), ("predicting=2", 2)]
    )
    def test_workload_csv_with_sweep(self, tmp_path, capsys, sweep, code):
        wl_path = export_small_workload(tmp_path / "workload.csv")
        out = tmp_path / "out"
        args = BASE + ["--workload-csv", wl_path, "--sweep", sweep, "--out", out]
        assert run_cli(args) == code
        if code == 2:
            assert "bad workload" in capsys.readouterr().err
            assert not list(out.glob("run_*.csv"))  # rejected before any job

    @pytest.mark.parametrize(
        "row",
        [
            "0,1,2,c0=9",  # context state beyond cardinality 4
            "0,1,2,c7=1",  # context variable beyond the 3 configured
            "12,1,2,c0=1",  # node id beyond --nodes 12
            "0,1,2,c-1=0",  # negative context variable
            "0,-1,2,c0=0",  # negative predicting variable
        ],
    )
    def test_bad_workload_row_exits_2_with_line(self, tmp_path, capsys, row):
        wl_path = tmp_path / "workload.csv"
        wl_path.write_text(f"node_id,predicting_var,outcome\n0,1,2,c0=1\n{row}\n")
        code = run_cli(BASE + ["--workload-csv", wl_path, "--out", tmp_path / "out"])
        assert code == 2
        assert "line 3" in capsys.readouterr().err


class TestTopology:
    def test_outputs(self, tmp_path, capsys):
        out = tmp_path / "topo"
        code = run_cli(
            ["topology", "--nodes", "30", "--m0", "3", "--m", "2",
             "--predicting", "10", "--trained-per-node", "2",
             "--seed", "1", "--out", out]
        )
        assert code == 0
        edges = (out / "edges.txt").read_text().splitlines()
        assert len(edges) >= 30  # clique plus >= m per arrival, minus caps
        for line in edges:
            u, v = line.split()
            assert int(u) < int(v)
        hist = (out / "degree_histogram.csv").read_text().splitlines()
        assert hist[0] == "degree,count"
        total = sum(int(line.split(",")[1]) for line in hist[1:])
        assert total == 30
        printed = capsys.readouterr().out
        assert "max_degree=" in printed
        assert "loglog_survival_slope=" in printed

    def test_edge_limit_respected(self, tmp_path, capsys):
        out = tmp_path / "topo"
        run_cli(
            ["topology", "--nodes", "60", "--edge-limit", "6",
             "--predicting", "10", "--trained-per-node", "2",
             "--seed", "0", "--out", out]
        )
        degree = {}
        for line in (out / "edges.txt").read_text().splitlines():
            u, v = map(int, line.split())
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        assert max(degree.values()) <= 6
        assert "loglog_survival_slope" not in capsys.readouterr().out
