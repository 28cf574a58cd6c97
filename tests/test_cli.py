from unittest import mock

import pytest

from edgeknow import cli, engine
from edgeknow.cli import main
from edgeknow.engine import SimConfig, setup_trial

from conftest import draw_workload, export_workload_csv

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
    config = SimConfig(
        node_count=12, predicting_var_count=6, context_var_count=3,
        contexts_per_table=2, combinations_pool=2,
        vars_trained_per_node=2, observations_per_var=200,
    )
    export_workload_csv(draw_workload(config, seed=0), config, path)
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

    def test_bad_sweep_spec(self, tmp_path, capsys):
        assert run_cli(BASE + ["--sweep", "bogus=1", "--out", tmp_path]) == 2
        # --m is a run flag, but not a sweepable one
        assert run_cli(BASE + ["--sweep", "m=2,3", "--out", tmp_path]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == (
            "bad sweep expression 'm=2,3': sweepable keys are nodes, predicting, "
            "contexts, contexts_per_table, combinations, trained_per_node, "
            "observations, k, hops, cycles, edge_limit"
        )

    def test_seed_is_not_a_sweep_parameter(self, tmp_path, capsys):
        # swept seeds would replace --seed's in every run, under --seed's names
        out = tmp_path / "out"
        args = BASE + ["--seed", "0,5", "--sweep", "seed=1,2", "--out", out]
        assert run_cli(args) == 2
        err = capsys.readouterr().err
        assert "seeds come from --seed" in err and len(err.splitlines()) == 1
        assert not out.exists()

    def test_bad_config_value(self, tmp_path, capsys):
        assert run_cli(["run", "--nodes", "0", "--out", tmp_path]) == 2
        assert "node_count must be >= 1" in capsys.readouterr().err
        cfg = tmp_path / "trial.cfg"
        cfg.write_text("cycles = 2\nnodes=abc\n")
        assert run_cli(["run", "--config", cfg, "--out", tmp_path]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}:2: nodes: invalid literal for int()" in err
        assert len(err.splitlines()) == 1

    def test_rejected_config_value_names_its_line(self, tmp_path, capsys):
        cfg = tmp_path / "trial.cfg"
        cfg.write_text("cycles = 2\nnodes = 0\n")
        out = tmp_path / "out"
        assert run_cli(["run", "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err == f"bad config: {cfg}:2: nodes: node_count must be >= 1\n"
        # the value a flag overrides is not the one rejected
        cfg.write_text("cycles = 2\nnodes = 12\n")
        assert run_cli(["run", "--config", cfg, "--nodes", "0", "--out", out]) == 2
        assert capsys.readouterr().err == "bad config: node_count must be >= 1\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--nodes", "2", "--cycles", "1"], "node_count must be 1 or >= m0=4"),
            (["--nodes", "8", "--edge-limit", "1"], "edge_limit must be >= m0-1=3"),
            (["--nodes", "8", "--sweep", "k=1,0"], "k_sets must be >= 1"),
            (
                ["--nodes", "8", "--sweep", "contexts_per_table=1,9"],
                "contexts_per_table exceeds context_var_count",
            ),
        ],
    )
    def test_bad_overlay_config_exits_2(self, tmp_path, capsys, flags, message):
        out = tmp_path / "out"
        assert run_cli(["run", *flags, "--out", out]) == 2
        assert message in capsys.readouterr().err
        assert not list(out.glob("run_*.csv"))

    @pytest.mark.parametrize(
        "flags, env, message",
        [
            (["--seed", "abc"], None, "expected comma-separated integers, got 'abc'"),
            ([], "zz", "expected comma-separated integers, got 'zz'"),
            (["--sweep", "k=1,x"], None, "got '1,x'"),
            (["--hops", "-3"], None, "hop_budget must be >= 0"),
            (["--cycles", "-1"], None, "cycles must be >= 0"),
            (["--threads", "0"], None, "--threads must be >= 1, got 0"),
            (["--seed", "-1"], None, "negative seed -1"),
            ([], "-3", "negative seed -3"),
            (["--seed", "0,2,0"], None, "repeated value 0 in '0,2,0'"),
            (["--sweep", "k=1,1"], None, "repeated value 1 in '1,1'"),
            (["--seed", "0,,"], None, "expected comma-separated integers, got '0,,'"),
            (["--sweep", "k=1,,2,"], None, "got '1,,2,'"),
        ],
        ids=[
            "seed", "env-seed", "sweep", "hops", "cycles", "threads",
            "negative-seed", "negative-env-seed", "repeated-seed", "repeated-sweep",
            "empty-seed-item", "empty-sweep-item",
        ],
    )
    def test_bad_number_exits_2(
        self, tmp_path, capsys, monkeypatch, flags, env, message
    ):
        if env is not None:
            monkeypatch.setenv("EDGEKNOW_SEED", env)
        out = tmp_path / "out"
        flags = ["--nodes", "8", "--cycles", "1", *flags, "--out", out]
        assert run_cli(["run", *flags]) == 2
        err = capsys.readouterr().err
        assert message in err and len(err.splitlines()) == 1
        assert not out.exists()

    def test_single_node_runs(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli(BASE + ["--nodes", "1", "--seed", "0", "--out", out]) == 0
        assert (out / "run_seed0_abs.csv").exists()

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

    def test_config_file_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EDGEKNOW_SEED", "9")
        cfg = tmp_path / "trial.cfg"
        cfg.write_text("seed = 5\n")
        out = tmp_path / "out"
        assert run_cli(BASE + ["--config", cfg, "--out", out]) == 0
        assert [p.name for p in out.glob("run_*.csv")] == ["run_seed5_abs.csv"]
        out = tmp_path / "flag"
        assert run_cli(BASE + ["--config", cfg, "--seed", "2", "--out", out]) == 0
        assert [p.name for p in out.glob("run_*.csv")] == ["run_seed2_abs.csv"]

    def test_negative_config_file_seed_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "trial.cfg"
        cfg.write_text("nodes = 8\nseed = -2\n")
        out = tmp_path / "out"
        assert run_cli(["run", "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err == f"bad config: {cfg}:2: seed: negative seed -2\n"
        assert not out.exists()

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "trial.cfg"
        for text, message in (
            ("# trial\nwat = 1\n", "2: wat: unknown config key"),
            ("nodes 12\n", "1: nodes 12: expected key=value"),
            ("seed = 1,x\n", "1: seed: expected comma-separated integers"),
            (
                "nodes = 8\n# again\nnodes = 9\n",
                "3: nodes: repeated key (first at line 1)",
            ),
        ):
            cfg.write_text(text)
            assert run_cli(["run", "--config", cfg, "--out", tmp_path]) == 2
            err = capsys.readouterr().err
            assert f"{cfg}:{message}" in err and len(err.splitlines()) == 1

    def test_config_file_pseudocount(self, tmp_path, capsys):
        # the one config key without a flag
        cfg = tmp_path / "trial.cfg"
        cfg.write_text("pseudocount = 0.25\n")
        with mock.patch.object(cli, "run_trial", wraps=cli.run_trial) as ran:
            assert run_cli(BASE + ["--config", cfg, "--out", tmp_path / "out"]) == 0
        assert ran.call_args.args[0].pseudocount == 0.25
        for value, message in (
            ("0", "must be in (0, inf), got 0.0"),
            ("nan", "must be in (0, inf), got nan"),
            ("x", "could not convert string to float: 'x'"),
        ):
            cfg.write_text(f"cycles = 1\npseudocount = {value}\n")
            assert run_cli(["run", "--config", cfg, "--out", tmp_path / "bad"]) == 2
            err = capsys.readouterr().err
            assert err == f"bad config: {cfg}:2: pseudocount: {message}\n"
        assert not (tmp_path / "bad").exists()

    def test_curves_header_only_at_zero_cycles(self, tmp_path):
        out = tmp_path / "out"
        args = BASE + ["--cycles", "0", "--strategy", "both", "--out", out]
        assert run_cli(args) == 0
        assert (out / "curves.csv").read_text() == (
            "sweep_value,strategy,cycle,accuracy,accuracy_std\n"
        )

    def test_curves_one_row_per_value_strategy_cycle(self, tmp_path, monkeypatch):
        trials = {}

        def run_trial(config, workload):
            key = config.k_sets, config.strategy.value, config.seed
            trials[key] = engine.run_trial(config, workload)
            return trials[key]

        monkeypatch.setattr(cli, "run_trial", run_trial)
        out = tmp_path / "out"
        args = ["--strategy", "both", "--sweep", "k=1,2", "--seed", "0,1"]
        assert run_cli(BASE + args + ["--out", out]) == 0
        # seed means of the unrounded rows, not of the run CSVs' figures
        expected = ["sweep_value,strategy,cycle,accuracy,accuracy_std"]
        for k in (1, 2):
            for strategy in ("abs", "rw"):
                for cycle in (1, 2):
                    a, b = (trials[k, strategy, s].rows[cycle - 1] for s in (0, 1))
                    acc = (a.accuracy + b.accuracy) / 2
                    std = (a.accuracy_std + b.accuracy_std) / 2
                    expected.append(f"{k},{strategy},{cycle},{acc:.6f},{std:.6f}")
        assert (out / "curves.csv").read_text().splitlines() == expected

    def test_pool_never_exceeds_the_runs(self, tmp_path, monkeypatch):
        # a stand-in pool that runs the jobs in this process
        pool = mock.MagicMock()
        pool.return_value.__enter__.return_value.map = map
        monkeypatch.setattr(cli, "ProcessPoolExecutor", pool)
        out = tmp_path / "out"
        args = BASE + ["--strategy", "both", "--threads", "64", "--out", out]
        assert run_cli(args) == 0
        assert len(list(out.glob("run_*.csv"))) == 2
        assert run_cli(BASE + ["--threads", "64", "--out", out]) == 0
        # one run goes serially
        assert pool.call_args_list == [mock.call(max_workers=2)]

    def test_workload_csv_input(self, tmp_path):
        wl_path = export_small_workload(tmp_path / "workload.csv")
        out = tmp_path / "out"
        code = run_cli(
            BASE + ["--seed", "0", "--workload-csv", wl_path, "--out", out]
        )
        assert code == 0
        assert (out / "run_seed0_abs.csv").exists()

    @pytest.mark.parametrize(
        "sweep, code",
        [("k=1,2", 0), ("nodes=12,16", 0), ("nodes=8,12", 2), ("predicting=2", 2)],
    )
    def test_workload_csv_with_sweep(self, tmp_path, capsys, sweep, code):
        wl_path = export_small_workload(tmp_path / "workload.csv")
        out = tmp_path / "out"
        args = BASE + ["--workload-csv", wl_path, "--sweep", sweep, "--out", out]
        assert run_cli(args) == code
        if code == 2:
            err = capsys.readouterr().err
            # the first swept value's run is the one the CSV does not fit
            value = sweep.partition("=")[2].split(",")[0]
            assert f"bad workload for run_{sweep.partition('=')[0]}{value}_" in err
            assert "line" in err and len(err.splitlines()) == 1
            assert not list(out.glob("run_*.csv"))  # rejected before any job

    @pytest.mark.parametrize(
        "sweep, row, code",
        [
            ("predicting=8,10", "0,7,2,c0=1", 0),
            ("nodes=8,12", "7,5,2,c0=1", 0),
            ("predicting=6,8", "0,7,2,c0=1", 2),
        ],
        ids=["more-predicting", "more-nodes", "row-outside-a-run"],
    )
    def test_workload_csv_is_read_per_swept_range(
        self, tmp_path, capsys, sweep, row, code
    ):
        # each run reads the CSV against its own variable and node ranges
        wl_path = tmp_path / "w.csv"
        wl_path.write_text(f"{row}\n")
        out = tmp_path / "out"
        args = [
            "run", "--nodes", "8", "--predicting", "6", "--contexts", "3",
            "--contexts-per-table", "1", "--cycles", "1", "--sweep", sweep,
            "--workload-csv", wl_path, "--out", out,
        ]
        assert run_cli(args) == code
        if code == 0:
            assert len(list(out.glob("run_*.csv"))) == 2
        else:
            err = capsys.readouterr().err
            assert "bad workload for run_predicting6_seed0_abs" in err
            assert "line 1" in err and "unknown variable predicting_var 7" in err

    @pytest.mark.parametrize(
        "row",
        [
            "0,1,2,c0=9",  # context state beyond cardinality 4
            "0,1,2,c7=1",  # context variable beyond the 3 configured
            "0,6,2,c0=1",  # predicting variable beyond the 6 configured
            "12,1,2,c0=1",  # node id beyond --nodes 12
            "0,1,2,c-1=0",  # negative context variable
            "0,-1,2,c0=0",  # negative predicting variable
            "0,1,3,c1=0",  # node 0, variable 1 bound c0 on line 2
            "0,1,2,c0=1,c0=2",  # c0 bound twice
        ],
    )
    def test_bad_workload_row_exits_2_with_line(self, tmp_path, capsys, row):
        wl_path = tmp_path / "workload.csv"
        wl_path.write_text(f"node_id,predicting_var,outcome\n0,1,2,c0=1\n{row}\n")
        code = run_cli(BASE + ["--workload-csv", wl_path, "--out", tmp_path / "out"])
        assert code == 2
        err = capsys.readouterr().err
        assert "line 3" in err and len(err.splitlines()) == 1

    def test_header_only_workload_exits_2(self, tmp_path, capsys):
        wl_path = tmp_path / "workload.csv"
        wl_path.write_text("node_id,predicting_var,outcome\n")
        code = run_cli(BASE + ["--workload-csv", wl_path, "--out", tmp_path / "out"])
        assert code == 2
        err = capsys.readouterr().err
        assert "no observation rows" in err and len(err.splitlines()) == 1


    @pytest.mark.parametrize("flag", ["--config", "--workload-csv"])
    def test_missing_input_file_exits_2(self, tmp_path, capsys, flag):
        # a file that is missing, or that is not UTF-8, is named
        undecodable = tmp_path / "bytes"
        undecodable.write_bytes(b"\xff\xfe")
        for path in (tmp_path / "nope", undecodable):
            code = run_cli(BASE + [flag, path, "--out", tmp_path / "out"])
            assert code == 2
            err = capsys.readouterr().err
            assert str(path) in err and len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    def test_config_file_with_byte_order_mark(self, tmp_path):
        # spreadsheet tools often save UTF-8 text with one; it is no key
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_text("cycles = 1\nseed = 2\n", encoding="utf-8")
        marked.write_text("\ufeffcycles = 1\nseed = 2\n", encoding="utf-8")
        for cfg in (plain, marked):
            assert run_cli(BASE + ["--config", cfg, "--out", tmp_path / cfg.stem]) == 0
        name = "run_seed2_abs.csv"
        want = (tmp_path / "plain" / name).read_bytes()
        assert (tmp_path / "marked" / name).read_bytes() == want

    def test_workload_csv_with_byte_order_mark(self, tmp_path):
        plain = export_small_workload(tmp_path / "plain.csv")
        marked = tmp_path / "marked.csv"
        marked.write_bytes("\ufeff".encode() + plain.read_bytes())
        assert plain.read_text().startswith("node_id,")
        for wl_path in (plain, marked):
            out = tmp_path / wl_path.stem
            assert run_cli(BASE + ["--workload-csv", wl_path, "--out", out]) == 0
        name = "run_seed0_abs.csv"
        want = (tmp_path / "plain" / name).read_bytes()
        assert (tmp_path / "marked" / name).read_bytes() == want


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

    def test_edges_are_the_trial_overlay(self, tmp_path):
        # the overlay `setup_trial` grows for the config the command builds:
        # the same workload and overlay streams, spawned from the seed
        out = tmp_path / "topo"
        with mock.patch.object(
            cli, "generate_workload", wraps=cli.generate_workload
        ) as drawn:
            code = run_cli(
                ["topology", "--nodes", "40", "--m0", "3", "--m", "2",
                 "--edge-limit", "6", "--predicting", "10",
                 "--trained-per-node", "2", "--seed", "3", "--out", out]
            )
        assert code == 0
        config = drawn.call_args.args[0]
        assert (config.node_count, config.edge_limit, config.seed) == (40, 6, 3)
        setup_trial(config).overlay.write_edge_list(tmp_path / "trial.txt")
        assert (out / "edges.txt").read_bytes() == (tmp_path / "trial.txt").read_bytes()

    def test_bad_attachment_exits_2(self, tmp_path, capsys):
        out = tmp_path / "topo"
        assert run_cli(["topology", "--nodes", "10", "--m", "0", "--out", out]) == 2
        assert "need 1 <= m < m0" in capsys.readouterr().err
        assert not out.exists()

    def test_too_few_nodes_exits_2(self, tmp_path, capsys):
        out = tmp_path / "topo"
        args = ["topology", "--nodes", "1", "--edge-limit", "5", "--out", out]
        assert run_cli(args) == 2
        err = capsys.readouterr().err
        assert err == "bad config: need at least m0=4 nodes, got 1\n"
        assert not out.exists()

    def test_negative_edge_limit_exits_2(self, tmp_path, capsys):
        out = tmp_path / "topo"
        args = ["topology", "--nodes", "10", "--edge-limit", "-3", "--out", out]
        assert run_cli(args) == 2
        err = capsys.readouterr().err
        assert err == "bad config: edge_limit must be >= 0 (0 = unlimited), got -3\n"
        assert not out.exists()

    def test_seed_clique_alone_prints_no_slope(self, tmp_path, capsys):
        # four nodes are only the m0=4 seed clique: every degree is 3, and a
        # line through one point has no slope
        out = tmp_path / "topo"
        assert run_cli(["topology", "--nodes", "4", "--out", out]) == 0
        printed = capsys.readouterr().out
        assert "max_degree=3" in printed
        assert "loglog_survival_slope" not in printed

    def test_bad_seed_exits_2(self, tmp_path, capsys):
        out = tmp_path / "topo"
        assert run_cli(["topology", "--nodes", "10", "--seed", "x", "--out", out]) == 2
        assert "expected comma-separated integers, got 'x'" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        out = tmp_path / "topo"
        assert run_cli(["topology", "--nodes", "10", "--seed", "-1", "--out", out]) == 2
        assert capsys.readouterr().err == "bad config: negative seed -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag, env", [(["--seed", "1,2"], None), ([], "1,2")])
    def test_seed_list_exits_2(self, tmp_path, capsys, monkeypatch, flag, env):
        # one edge list is one seed's: a list would silently write the first
        if env is not None:
            monkeypatch.setenv("EDGEKNOW_SEED", env)
        out = tmp_path / "topo"
        assert run_cli(["topology", "--nodes", "10", *flag, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err == "bad config: one edge list takes one seed, got 2\n"
        assert not out.exists()

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
        printed = capsys.readouterr().out
        assert "loglog_survival_slope" not in printed
        at_limit = sum(d == 6 for d in degree.values())
        assert f"nodes_at_limit={at_limit}\n" in printed

    def test_uncapped_overlay_prints_no_limit_count(self, tmp_path, capsys):
        # a four-node clique: every degree is 3, and there is no cap to reach
        out = tmp_path / "topo"
        assert run_cli(["topology", "--nodes", "4", "--out", out]) == 0
        assert "nodes_at_limit" not in capsys.readouterr().out


@pytest.mark.parametrize("command", ["run", "topology"])
def test_out_not_a_directory_exits_2(tmp_path, capsys, command):
    args = BASE[1:] if command == "run" else ["--nodes", "8"]
    blocker = tmp_path / "file"
    blocker.write_text("")
    for out in (blocker, blocker / "out"):
        assert run_cli([command, *args, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("bad --out: ") and len(err.splitlines()) == 1
        assert str(out) in err
    assert blocker.read_text() == ""

