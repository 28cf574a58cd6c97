import math

import numpy as np
import pytest

from edgeknow.engine import (
    CycleMetrics,
    HIT_TOLERANCE_BITS,
    OracleViolation,
    SimConfig,
    Strategy,
    TrainedAssignment,
    TrialMetrics,
    Workload,
    accuracy,
    export_workload_csv,
    generate_workload,
    ingest_csv,
    oracle_best,
    route_query,
    run_trial,
    setup_trial,
    train_pgms,
)
from edgeknow.pgm import DiscretePgm, Schema, conditional_entropy
from edgeknow.routing import NodeState, Query

from conftest import bf_chain_rule


def small_config(**overrides):
    defaults = dict(
        node_count=12,
        predicting_var_count=6,
        context_var_count=3,
        contexts_per_table=2,
        combinations_pool=2,
        vars_trained_per_node=2,
        observations_per_var=300,
        cycles=3,
        seed=0,
    )
    defaults.update(overrides)
    return SimConfig(**defaults)


class TestWorkload:
    def test_entry_counts_and_ranges(self):
        config = small_config()
        wl = generate_workload(config, seed=1)
        assert len(wl.entries) == config.node_count * config.vars_trained_per_node
        for entry in wl.entries:
            assert len(entry.outcomes) == config.observations_per_var
            assert entry.outcomes.min() >= 0
            assert entry.outcomes.max() < config.predicting_cardinality
            assert len(entry.contexts) == config.contexts_per_table
            n_assign = config.context_cardinality**config.contexts_per_table
            assert entry.ctx_flat_idx.max() < n_assign

    def test_combination_pool_respected(self):
        config = small_config(combinations_pool=1)
        wl = generate_workload(config, seed=2)
        assert len({e.contexts for e in wl.entries}) == 1

    def test_deterministic_per_seed(self):
        config = small_config()
        a = generate_workload(config, seed=3)
        b = generate_workload(config, seed=3)
        for ea, eb in zip(a.entries, b.entries):
            assert np.array_equal(ea.outcomes, eb.outcomes)
            assert np.array_equal(ea.ctx_flat_idx, eb.ctx_flat_idx)

    def test_gaussian_outcomes_concentrate(self):
        # stddev of one state width: most mass within 2 states of the mean
        config = small_config(observations_per_var=2000, combinations_pool=1)
        wl = generate_workload(config, seed=4)
        entry = wl.entries[0]
        per_assignment = {}
        for flat, out in zip(entry.ctx_flat_idx, entry.outcomes):
            per_assignment.setdefault(int(flat), []).append(int(out))
        for outs in per_assignment.values():
            if len(outs) < 30:
                continue
            spread = np.std(outs)
            assert spread < 2.5


class TestTrainedModels:
    def test_training_reproduces_counts(self):
        config = small_config()
        wl = generate_workload(config, seed=5)
        pgms = train_pgms(wl, config.pseudocount)
        entry = wl.entries[0]
        table = pgms[entry.node_id].tables[entry.var]
        assert table.counts.sum() == pytest.approx(
            config.pseudocount * table.counts.size + len(entry.outcomes)
        )

    def test_deterministic_stream_gives_low_conditional_entropy(self):
        schema = Schema((4,), (2,))
        wl = Workload(schema=schema, node_count=1)
        flat = np.tile([0, 1], 400)
        outcomes = np.where(flat == 0, 1, 3)  # outcome fixed by the context
        wl.entries.append(
            TrainedAssignment(0, 0, (0,), flat, outcomes)
        )
        pgm = train_pgms(wl, pseudocount=0.01)[0]
        h = conditional_entropy(pgm.tables[0], [0])
        assert h < 0.2


class TestCsvRoundTrip:
    def test_round_trip_preserves_tables(self, tmp_path):
        config = small_config(observations_per_var=50)
        wl = generate_workload(config, seed=6)
        path = tmp_path / "workload.csv"
        export_workload_csv(wl, path)
        back = ingest_csv(path, config.schema())
        a = train_pgms(wl)
        b = train_pgms(back)
        assert back.node_count == wl.node_count
        for pa, pb in zip(a, b):
            assert pa.trained_vars == pb.trained_vars
            for var in pa.trained_vars:
                assert np.array_equal(pa.tables[var].counts, pb.tables[var].counts)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("node_id,predicting_var,outcome\n0,1,2,c0=1\n0,oops,1\n")
        with pytest.raises(ValueError, match="line 3"):
            ingest_csv(path, small_config().schema())

    def test_bad_context_field(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1,2,x0=1\n")
        with pytest.raises(ValueError, match="line 1"):
            ingest_csv(path, small_config().schema())

    def test_outcome_out_of_range(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1,99\n")
        with pytest.raises(ValueError, match="line 1"):
            ingest_csv(path, small_config().schema())

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        wl = ingest_csv(path, small_config().schema())
        assert wl.entries == [] and wl.node_count == 0

    def test_single_row(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("3,2,1,c0=0,c2=3\n")
        wl = ingest_csv(path, small_config().schema())
        assert wl.node_count == 4
        entry = wl.entries[0]
        assert entry.node_id == 3
        assert entry.var == 2
        assert entry.contexts == (0, 2)
        assert list(entry.outcomes) == [1]


class TestAccuracy:
    def test_exact_hit(self):
        hit, regret = accuracy(1.5, 1.5)
        assert hit and regret == pytest.approx(0.0)

    def test_within_tolerance(self):
        hit, _ = accuracy(1.5 + HIT_TOLERANCE_BITS / 2, 1.5)
        assert hit

    def test_miss_with_regret(self):
        hit, regret = accuracy(2.0, 1.0)
        assert not hit
        assert regret == pytest.approx(1.0)

    def test_beating_oracle_raises(self):
        with pytest.raises(OracleViolation):
            accuracy(0.5, 1.0)

    def test_regret_guard_near_zero_optimal(self):
        hit, regret = accuracy(0.5, 0.0)
        assert not hit and math.isfinite(regret)


class TestOracle:
    def test_min_over_nodes_and_uniform_fallback(self):
        schema = Schema((4,), (2,))
        trained = DiscretePgm(schema, pseudocount=0.01)
        for _ in range(200):
            trained.observe(0, {0: 0}, 2)
        nodes = [
            NodeState(0, DiscretePgm(schema)),
            NodeState(1, trained),
        ]
        q = Query(0, {0: 1}, 3, 0)
        best = oracle_best(q, nodes, pred_card=4)
        want = conditional_entropy(trained.tables[0], [0])
        assert best == pytest.approx(want)

    def test_all_untrained_is_uniform(self):
        schema = Schema((8,), (2,))
        nodes = [NodeState(i, DiscretePgm(schema)) for i in range(3)]
        q = Query(0, {}, 3, 0)
        assert oracle_best(q, nodes, pred_card=8) == pytest.approx(3.0)

    def test_matches_independent_enumeration(self):
        config = small_config(node_count=10)
        trial = setup_trial(config)
        q = Query(trial.nodes[0].local_sets()[0].predicting, {}, 3, 0)
        # independent re-derivation with the brute-force chain rule
        best = math.log2(config.predicting_cardinality)
        for state in trial.nodes:
            table = state.pgm.tables.get(q.target)
            if table is None or state.pgm.observation_count.get(q.target, 0) == 0:
                continue
            best = min(best, bf_chain_rule(table.probabilities(), []))
        got = oracle_best(q, trial.nodes, config.predicting_cardinality)
        assert got == pytest.approx(best, abs=1e-9)


class TestTrialSetup:
    def test_node_and_model_wiring(self):
        config = small_config()
        trial = setup_trial(config)
        assert len(trial.nodes) == config.node_count
        for state in trial.nodes:
            assert sorted(trial.overlay.neighbors(state.node_id)) == state.neighbors
            assert set(state.routing_models) == set(state.neighbors)
            for nb, model in state.routing_models.items():
                assert model.neighbor == nb and model.k == config.k_sets

    def test_trained_combos_cover_workload(self):
        config = small_config()
        trial = setup_trial(config)
        assert trial.trained_combos
        for var, combos in trial.trained_combos.items():
            assert combos == sorted(set(combos))
            for combo in combos:
                assert len(combo) == config.contexts_per_table

    def test_workload_node_count_must_match(self):
        workload = generate_workload(small_config(node_count=8), seed=0)
        with pytest.raises(ValueError, match="8 nodes"):
            setup_trial(small_config(), workload)
        workload = generate_workload(small_config(predicting_var_count=4), seed=0)
        with pytest.raises(ValueError, match="schema"):
            setup_trial(small_config(), workload)

    def test_single_node_network(self):
        config = small_config(node_count=1, attachment=None or SimConfig().attachment)
        metrics = run_trial(config)
        # with only one node, the issuer is always the global optimum
        for row in metrics.rows:
            assert row.accuracy == 1.0
            assert row.oracle_violations == 0


class TestRouteQuery:
    def test_visited_is_walk_and_budget_spent(self):
        config = small_config(hop_budget=4)
        trial = setup_trial(config)
        q = Query(
            target=list(trial.trained_combos)[0],
            ctx={},
            hops_remaining=4,
            issuer=0,
        )
        done = route_query(trial, q, Strategy.ABS)
        assert done.hops_remaining == 0
        assert len(done.visited) == 5  # issuer plus one node per hop
        assert done.visited[0] == 0
        for a, b in zip(done.visited, done.visited[1:]):
            assert b in trial.nodes[a].neighbors

    def test_random_walk_also_respects_topology(self):
        config = small_config(hop_budget=6)
        trial = setup_trial(config)
        q = Query(list(trial.trained_combos)[0], {}, 6, issuer=3)
        done = route_query(trial, q, Strategy.RANDOM_WALK)
        assert len(done.visited) == 7
        for a, b in zip(done.visited, done.visited[1:]):
            assert b in trial.nodes[a].neighbors


class TestRunTrial:
    def test_metrics_shape(self):
        config = small_config(cycles=4)
        metrics = run_trial(config)
        assert len(metrics.rows) == 4
        for i, row in enumerate(metrics.rows, start=1):
            assert row.cycle == i
            assert row.issued == config.node_count
            assert 0.0 <= row.accuracy <= 1.0
            assert row.hits == round(row.accuracy * row.issued)
            assert row.oracle_violations == 0

    def test_bit_identical_reruns(self):
        config = small_config(cycles=3)
        a = run_trial(config)
        b = run_trial(config)
        assert a.rows == b.rows

    def test_seed_changes_results(self):
        a = run_trial(small_config(cycles=3, seed=0))
        b = run_trial(small_config(cycles=3, seed=1))
        assert a.rows != b.rows

    def test_zero_cycles(self):
        metrics = run_trial(small_config(cycles=0))
        assert metrics.rows == []
        assert metrics.converged_accuracy() == 0.0

    def test_strategies_share_workload(self):
        # paired runs: same seed must produce the same trained combos
        a = setup_trial(small_config(strategy=Strategy.ABS))
        b = setup_trial(small_config(strategy=Strategy.RANDOM_WALK))
        assert a.trained_combos == b.trained_combos
        assert a.overlay.edges() == b.overlay.edges()

    def test_accuracy_improves_with_propagation(self):
        # strong per-table signal so entropy rankings are crisp; the tight
        # hop budget makes cycle 1 miss until the routing models spread
        config = small_config(
            node_count=64,
            predicting_var_count=20,
            vars_trained_per_node=1,
            observations_per_var=5000,
            hop_budget=4,
            cycles=8,
        )
        metrics = run_trial(config)
        assert metrics.rows[0].accuracy < 0.9
        assert metrics.converged_accuracy(last=3) > metrics.rows[0].accuracy
        assert metrics.rows[-1].accuracy == 1.0

    def test_advertisement_traffic_decays(self):
        config = small_config(cycles=8)
        metrics = run_trial(config)
        assert metrics.rows[-1].adv_sets_sent < metrics.rows[0].adv_sets_sent

    def test_csv_output(self, tmp_path):
        config = small_config(cycles=2)
        metrics = run_trial(config)
        path = tmp_path / "metrics.csv"
        metrics.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == TrialMetrics.CSV_COLUMNS
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "1"
        assert first[1] == "abs"
        assert first[2] == str(config.node_count)


class TestConfigValidation:
    def test_contexts_per_table_bound(self):
        with pytest.raises(ValueError):
            SimConfig(context_var_count=2, contexts_per_table=3)

    def test_positive_fields(self):
        with pytest.raises(ValueError):
            SimConfig(node_count=0)

    def test_default_hop_budget(self):
        assert SimConfig(node_count=256).resolved_hops() == 16
        assert SimConfig(node_count=256, hop_budget=3).resolved_hops() == 3

    def test_default_policy_tracks_cardinality(self):
        policy = SimConfig(predicting_cardinality=8).resolved_policy()
        assert policy.quality_threshold == pytest.approx(2.4)
