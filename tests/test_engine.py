import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeknow.engine import (
    CycleMetrics,
    HIT_TOLERANCE_BITS,
    OracleViolation,
    SimConfig,
    Strategy,
    TrainedAssignment,
    TrialMetrics,
    Workload,
    _cached_oracle,
    check_workload,
    _make_query,
    accuracy,
    generate_workload,
    ingest_csv,
    oracle_best,
    route_query,
    run_cycle,
    run_trial,
    setup_trial,
    train_pgms,
)
from edgeknow.pgm import JointTable, Schema, cell_counts
from edgeknow.routing import AdvertisementPolicy, NodeState, Query, RoutingModel
from edgeknow.topology import AttachmentParams

from conftest import (
    bf_chain_rule,
    bf_conditional_entropy,
    bf_generate_workload,
    bf_observe,
    bf_propagate,
    export_workload_csv,
    well_formed,
)


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
        n_assign = config.context_cardinality**config.contexts_per_table
        for entry in wl.entries:
            assert entry.counts.shape == (config.predicting_cardinality, n_assign)
            assert entry.counts.dtype == np.int64
            assert entry.counts.min() >= 0
            assert entry.counts.sum() == config.observations_per_var
            assert len(entry.contexts) == config.contexts_per_table

    def test_combination_pool_respected(self):
        config = small_config(combinations_pool=1)
        wl = generate_workload(config, seed=2)
        assert len({e.contexts for e in wl.entries}) == 1

    def test_deterministic_per_seed(self):
        config = small_config()
        a = generate_workload(config, seed=3)
        b = generate_workload(config, seed=3)
        assert len(a.entries) == len(b.entries)
        for ea, eb in zip(a.entries, b.entries):
            assert (ea.node_id, ea.var, ea.contexts) == (
                eb.node_id, eb.var, eb.contexts
            )
            assert np.array_equal(ea.counts, eb.counts)

    def test_gaussian_outcomes_concentrate(self):
        # stddev of one state width: most mass within 2 states of the mean
        config = small_config(observations_per_var=2000, combinations_pool=1)
        wl = generate_workload(config, seed=4)
        entry = wl.entries[0]
        states = np.arange(config.predicting_cardinality)
        for column in entry.counts.T:
            n = column.sum()
            if n < 30:
                continue
            mean = (states * column).sum() / n
            spread = math.sqrt((column * (states - mean) ** 2).sum() / n)
            assert spread < 2.5

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_counts_match_the_stream_reference(self, data):
        context_var_count = data.draw(st.integers(1, 4))
        # a two-node seed clique lets every node count from 1 up be a config
        config = small_config(
            attachment=AttachmentParams(m0=2, m=1),
            node_count=data.draw(st.integers(1, 12)),
            predicting_var_count=data.draw(st.integers(1, 6)),
            context_var_count=context_var_count,
            contexts_per_table=data.draw(st.integers(1, context_var_count)),
            combinations_pool=data.draw(st.integers(1, 4)),
            vars_trained_per_node=data.draw(st.integers(1, 6)),
            observations_per_var=data.draw(st.integers(1, 300)),
            predicting_cardinality=data.draw(st.integers(2, 5)),
            context_cardinality=data.draw(st.integers(2, 5)),
        )
        seed = data.draw(st.integers(0, 2**32 - 1))
        wl = generate_workload(config, seed)
        ref = bf_generate_workload(config, seed)
        assert len(wl.entries) == len(ref)
        shape = [config.predicting_cardinality]
        want = [{} for _ in range(config.node_count)]
        for entry, (node_id, var, contexts, flat_idx, outcomes) in zip(wl.entries, ref):
            assert (entry.node_id, entry.var, entry.contexts) == (node_id, var, contexts)
            n_cells = entry.counts.size
            cells = np.bincount(
                outcomes * entry.counts.shape[1] + flat_idx, minlength=n_cells
            )
            assert np.array_equal(entry.counts.ravel(), cells)
            cards = [config.context_cardinality] * len(contexts)
            tensor = np.full(shape + cards, config.pseudocount)
            for flat, outcome in zip(flat_idx, outcomes):
                states = np.unravel_index(flat, cards)
                ctx = {c: int(s) for c, s in zip(contexts, states)}
                bf_observe(tensor, ctx, int(outcome))
            want[node_id][var] = (contexts, tensor)
        got = train_pgms(wl, config.pseudocount)
        for tables, ref_tables in zip(got, want):
            assert tables.keys() == ref_tables.keys()
            for var, table in tables.items():
                assert table.predicting == var
                assert table.contexts == ref_tables[var][0]
                assert np.array_equal(table.counts, ref_tables[var][1])


class TestTrainedModels:
    def test_training_reproduces_counts(self):
        config = small_config()
        wl = generate_workload(config, seed=5)
        tables = train_pgms(wl, config.pseudocount)
        entry = wl.entries[0]
        table = tables[entry.node_id][entry.var]
        assert table.counts.sum() == pytest.approx(
            config.pseudocount * table.counts.size + config.observations_per_var
        )
        assert np.array_equal(
            table.counts.reshape(entry.counts.shape),
            config.pseudocount + entry.counts,
        )

    def test_deterministic_stream_gives_low_conditional_entropy(self):
        schema = Schema((4,), (2,))
        wl = Workload(schema=schema, node_count=1)
        flat = np.tile([0, 1], 400)
        outcomes = np.where(flat == 0, 1, 3)  # outcome fixed by the context
        wl.entries.append(
            TrainedAssignment(0, 0, (0,), cell_counts(4, 2, flat, outcomes))
        )
        tables = train_pgms(wl, pseudocount=0.01)[0]
        h = NodeState(0, tables).local_answer(0, frozenset({0}))
        assert h < 0.2

    def test_entry_without_observations_trains_nothing(self):
        # so no table is ever built without mass, and an untrained
        # variable has no local answer
        wl = Workload(schema=Schema((2, 2), (2,)), node_count=2)
        wl.entries += [
            TrainedAssignment(0, 0, (0,), np.zeros((2, 2), dtype=np.int64)),
            TrainedAssignment(0, 1, (), np.array([[0], [1]])),
            TrainedAssignment(1, 0, (), np.zeros((2, 1), dtype=np.int64)),
        ]
        tables = train_pgms(wl, pseudocount=0.5)
        assert [sorted(t) for t in tables] == [[1], []]
        assert NodeState(0, tables[0]).local_answer(0, frozenset()) is None


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
        assert len(back.entries) == len(wl.entries)
        for ea, eb in zip(wl.entries, back.entries):
            assert (ea.node_id, ea.var, ea.contexts) == (
                eb.node_id, eb.var, eb.contexts
            )
            assert np.array_equal(ea.counts, eb.counts)
        for ta, tb in zip(a, b):
            assert ta.keys() == tb.keys()
            for var in ta:
                assert np.array_equal(ta[var].counts, tb[var].counts)

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
        for text in ("", "node_id,predicting_var,outcome\n"):
            path.write_text(text)
            with pytest.raises(ValueError, match="no observation rows"):
                ingest_csv(path, small_config().schema())

    def test_single_row(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("3,2,1,c0=0,c2=3\n")
        wl = ingest_csv(path, small_config().schema())
        assert wl.node_count == 4
        entry = wl.entries[0]
        assert entry.node_id == 3
        assert entry.var == 2
        assert entry.contexts == (0, 2)
        # outcome 1 of 8, context states (0, 3) of 4 x 4 assignments
        want = np.zeros((8, 16), dtype=np.int64)
        want[1, 3] = 1
        assert np.array_equal(entry.counts, want)


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
        counts = 0.01 + cell_counts(4, 2, [0] * 200, [2] * 200)
        trained = JointTable(0, (0,), counts)
        nodes = [NodeState(0, {}), NodeState(1, {0: trained})]
        q = Query(0, {0: 1}, 3, 0)
        best = oracle_best(q, nodes, pred_card=4)
        want = bf_conditional_entropy(trained, [0])
        assert best == pytest.approx(want)

    def test_all_untrained_is_uniform(self):
        nodes = [NodeState(i, {}) for i in range(3)]
        q = Query(0, {}, 3, 0)
        assert oracle_best(q, nodes, pred_card=8) == pytest.approx(3.0)

    def test_matches_independent_enumeration(self):
        config = small_config(node_count=10)
        trial = setup_trial(config)
        card = config.predicting_cardinality
        for target, combos in trial.trained_combos.items():
            for combo in [()] + combos:
                q = Query(target, {c: 0 for c in combo}, 3, 0)
                # independent re-derivation with the brute-force chain rule
                best = math.log2(card)
                for state in trial.nodes:
                    table = state.tables.get(target)
                    if table is None:
                        continue
                    axes = [table.axis_of(c) for c in combo if c in table.contexts]
                    best = min(best, bf_chain_rule(table.probabilities(), axes))
                got = oracle_best(q, trial.nodes, card)
                assert got == pytest.approx(best, abs=1e-9)
                # scanning only the target's trainers finds the same minimum
                assert _cached_oracle(trial, q) == got


class TestTrialSetup:
    def test_node_and_model_wiring(self):
        config = small_config()
        trial = setup_trial(config)
        assert len(trial.nodes) == config.node_count
        for state in trial.nodes:
            assert sorted(trial.overlay.neighbors(state.node_id)) == state.neighbors
            assert set(state.routing_models) == set(state.neighbors)
            # every neighbor holds the node's one published model
            assert state.published.entries == {}
            # the first build covers the trained variables
            assert state.unsent == {}
            assert state.changed_vars == set(state.tables)
            for nb in state.neighbors:
                assert trial.nodes[nb].routing_models[state.node_id] is state.published
        assert len({id(state.published) for state in trial.nodes}) == len(trial.nodes)

    def test_trainers_are_the_nodes_that_trained_each_variable(self):
        trial = setup_trial(small_config())
        want: dict[int, list[int]] = {}
        for state in trial.nodes:
            for var in state.tables:
                if state.local_answer(var, frozenset()) is not None:
                    want.setdefault(var, []).append(state.node_id)
        assert trial.trainers == want
        assert set(trial.trainers) == set(trial.trained_combos)

    def test_entries_without_observations_are_not_targets(self):
        config = small_config()
        workload = workload_with_entry(config, counts=np.zeros((8, 16), int))
        trial = setup_trial(config, workload)
        assert trial.trained_combos == {0: [(0,)]}
        assert trial.trainers == {0: [0]}

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


def workload_with_entry(config, **fields):
    """A valid workload for `config` with one more entry: node 0's
    predicting variable 1 over contexts (0, 1), overridden by `fields`."""
    workload = Workload(config.schema(), config.node_count)
    workload.entries.append(
        TrainedAssignment(0, 0, (0,), np.ones((8, 4), dtype=np.int64))
    )
    entry = dict(node_id=0, var=1, contexts=(0, 1), counts=np.ones((8, 16), int))
    entry.update(fields)
    workload.entries.append(TrainedAssignment(**entry))
    return workload


def one_cell(value):
    """Valid counts for `workload_with_entry`'s entry, as floats, with one
    cell set to `value`."""
    counts = np.ones((8, 16))
    counts[3, 5] = value
    return counts


class TestCheckWorkload:
    def test_accepts_a_valid_workload(self):
        config = small_config()
        check_workload(config, workload_with_entry(config))
        check_workload(config, generate_workload(config, seed=0))

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(node_id=-1), "node outside 12 nodes"),
            (dict(node_id=12), "node outside 12 nodes"),
            (dict(var=0, contexts=(0,), counts=np.ones((8, 4), int)), "listed twice"),
            (dict(contexts=(1, 0)), "not strictly ascending"),
            (dict(contexts=(0, 0)), "not strictly ascending"),
            (dict(contexts=[0, 1]), r"contexts \[0, 1\] not a tuple"),
            (dict(contexts=(-1, 0)), "unknown variable -1"),
            (dict(contexts=(0, 3)), "unknown variable 3"),
            (dict(var=6), "unknown variable 6"),
            (dict(counts=np.ones(128, int)), "shaped"),
            (dict(counts=np.ones((8, 4), int)), "shaped"),
            (dict(counts=np.ones((16, 8), int)), "shaped"),
            (dict(counts=np.arange(128).reshape(8, 16) - 1), "negative counts"),
            (dict(counts=one_cell(np.nan)), "dtype float64, not integers"),
            (dict(counts=one_cell(np.inf)), "dtype float64, not integers"),
            (dict(counts=one_cell(0.5)), "dtype float64, not integers"),
            (dict(counts=np.ones((8, 16), int).tolist()), "counts a list, not an array"),
        ],
        ids=[
            "negative-node", "node-beyond-count", "duplicate-node-var",
            "unsorted-contexts", "repeated-context", "list-contexts",
            "negative-context", "unknown-context", "unknown-var", "flat-counts",
            "too-few-assignments", "transposed-counts", "negative-counts",
            "nan-count", "inf-count", "fractional-count", "list-counts",
        ],
    )
    def test_rejects_bad_entry(self, fields, message):
        config = small_config()
        with pytest.raises(ValueError, match=message):
            setup_trial(config, workload_with_entry(config, **fields))

    @pytest.mark.parametrize(
        "entries",
        [[], [TrainedAssignment(0, 0, (0,), np.zeros((8, 4), dtype=np.int64))]],
        ids=["no-entries", "all-zero-counts"],
    )
    def test_rejects_a_workload_without_observations(self, entries):
        # queries target trained variables, so there must be one
        config = small_config()
        workload = Workload(config.schema(), config.node_count, entries)
        with pytest.raises(ValueError, match="^workload holds no observation$"):
            run_trial(config, workload)


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

    @pytest.mark.parametrize("strategy", list(Strategy))
    @pytest.mark.parametrize(
        "overrides",
        [{}, dict(hop_budget=0), dict(hop_budget=1), dict(node_count=1),
         dict(node_count=4, hop_budget=9)],
        ids=["default", "budget0", "budget1", "one-node", "budget-exceeds-nodes"],
    )
    def test_every_hop_is_spent_on_a_forward(self, strategy, overrides):
        config = small_config(strategy=strategy, **overrides)
        trial = setup_trial(config)
        for cycle in range(1, config.cycles + 1):
            run_cycle(trial, cycle)
        hops = config.resolved_hops()
        for state in trial.nodes:
            done = route_query(trial, _make_query(trial, state.node_id), strategy)
            # an issuer without neighbors answers alone and spends nothing
            spent = hops if state.neighbors else 0
            assert done.hops_remaining == hops - spent
            assert len(done.visited) == 1 + spent


def achieved_and_optimal(trial, strategy):
    """Route one fresh query per node; yield each query's achieved quality
    (the uniform prior when no node answered) and its oracle optimum."""
    uniform = math.log2(trial.config.predicting_cardinality)
    for issuer in range(trial.config.node_count):
        done = route_query(trial, _make_query(trial, issuer), strategy)
        achieved = done.quality if math.isfinite(done.quality) else uniform
        yield achieved, _cached_oracle(trial, done)


class TestOracleBound:
    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_no_query_beats_the_oracle(self, data):
        config = small_config(
            node_count=data.draw(st.just(1) | st.integers(4, 24)),
            context_var_count=4,
            contexts_per_table=data.draw(st.integers(1, 3)),
            combinations_pool=data.draw(st.integers(1, 4)),
            k_sets=data.draw(st.integers(1, 3)),
            hop_budget=data.draw(st.integers(0, 6)),
            strategy=data.draw(st.sampled_from(Strategy)),
            cycles=data.draw(st.integers(1, 3)),
            observations_per_var=data.draw(st.integers(20, 300)),
            seed=data.draw(st.integers(0, 2**16)),
        )
        trial = setup_trial(config)
        for cycle in range(1, config.cycles + 1):
            assert run_cycle(trial, cycle).oracle_violations == 0
        for achieved, optimal in achieved_and_optimal(trial, config.strategy):
            assert achieved >= optimal - HIT_TOLERANCE_BITS

    @pytest.mark.xfail(
        strict=True,
        reason="a node's local entropy set holds the joint entropy over all "
        "of its table's context axes, and answer_entropy subtracts only the "
        "bound ones, so a query that binds only part of a node's contexts can "
        "be answered above log2(predicting_cardinality)",
    )
    def test_no_answer_worse_than_the_uniform_prior(self):
        for strategy in Strategy:
            config = small_config(combinations_pool=3, strategy=strategy)
            uniform = math.log2(config.predicting_cardinality)
            trial = setup_trial(config)
            for cycle in range(1, config.cycles + 1):
                run_cycle(trial, cycle)
            for achieved, _ in achieved_and_optimal(trial, strategy):
                assert achieved <= uniform


class TestSharedModels:
    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_shared_models_equal_private_copies(self, data):
        config = small_config(
            node_count=data.draw(st.just(1) | st.integers(4, 24)),
            context_var_count=4,
            contexts_per_table=data.draw(st.integers(1, 3)),
            combinations_pool=data.draw(st.integers(1, 4)),
            k_sets=data.draw(st.integers(1, 3)),
            cycles=data.draw(st.integers(1, 4)),
            observations_per_var=data.draw(st.integers(20, 300)),
            seed=data.draw(st.integers(0, 2**16)),
        )
        trial = setup_trial(config)
        ref = setup_trial(config)
        for state in ref.nodes:
            state.routing_models = {nb: RoutingModel() for nb in state.neighbors}
        ref_sent: dict = {}
        ref_built: dict = {}
        for cycle in range(1, config.cycles + 1):
            sent = run_cycle(trial, cycle).adv_sets_sent
            delta_sets, snapshot_sets = bf_propagate(ref, ref_sent, ref_built)
            assert sent == delta_sets <= snapshot_sets
            for state in trial.nodes:
                for nb in state.neighbors:
                    private = ref.nodes[nb].routing_models[state.node_id]
                    assert private == state.published
                    assert private is not state.published
            for a, b in zip(trial.nodes, ref.nodes):
                # the deltas integrated so far add up to the last full
                # advertisement sent
                last_sent = ref_sent.get(a.node_id, {})
                assert a.published.entries == last_sent
                # the unsent lists are the last full build's lists that
                # differ from the last full advertisement sent
                assert a.unsent == {
                    var: sets for var, sets in ref_built[a.node_id].items()
                    if sets != last_sent.get(var)
                }
                assert well_formed(a.unsent, config.k_sets)
                assert a.changed_vars == b.changed_vars


class TestUnsent:
    def test_a_list_within_the_threshold_waits_for_the_next_send(self):
        """A two-node line: node 1 trains variables 0 and 1 over context 0,
        node 0 trains nothing. With one set per list, change threshold 0.1
        and no hop inflation, node 1's lists are its local sets, and node
        0's echoes tie with them. Node 1 is retrained by replacing a table:
        a rebuilt list within the threshold of the published one stays
        unsent, the next send carries it, and a rebuild back to the
        published value discards it."""
        config = SimConfig(
            node_count=2,
            predicting_var_count=2,
            context_var_count=1,
            contexts_per_table=1,
            predicting_cardinality=2,
            context_cardinality=2,
            k_sets=1,
            attachment=AttachmentParams(m0=2, m=1),
        )
        workload = Workload(config.schema(), config.node_count)
        for var in (0, 1):
            workload.entries.append(
                TrainedAssignment(1, var, (0,), np.array([[8, 0], [0, 8]]))
            )
        trial = setup_trial(config, workload)
        policy = AdvertisementPolicy(
            change_threshold=0.1, quality_threshold=100.0, hop_inflation=0.0
        )
        config.resolved_policy = lambda: policy
        node = trial.nodes[1]
        assert node.neighbors == [0]
        cycles = itertools.count(1)

        def propagate():
            return run_cycle(trial, next(cycles)).adv_sets_sent

        def retrain(var, diagonal):
            # pseudocount 1 plus `diagonal` - 1 observations of outcome s
            # under context state s, for s = 0 and 1
            counts = np.array([[diagonal, 1.0], [1.0, diagonal]])
            node.tables[var] = JointTable(var, (0,), counts)
            node._local_sets = None
            node.changed_vars.add(var)
            trial.oracle_cache.clear()
            return node.local_sets()[var]

        # node 1 sends both lists, node 0 echoes them, node 1 keeps its own
        assert [propagate() for _ in range(3)] == [2, 2, 0]
        published = node.published.entries
        old = published[0][0]
        assert old == retrain(0, 9.0)
        assert propagate() == 0
        # a slightly sharper model of variable 0 waits
        s0 = retrain(0, 10.0)
        assert 0 < old.joint - s0.joint < 0.1
        assert propagate() == 0
        assert node.unsent == {0: [s0]}
        assert published[0] == [old]
        # a much sharper one of variable 1 is sent, and variable 0's list
        # goes with it: two lists of one set each, to one neighbor
        s1 = retrain(1, 20.0)
        assert published[1][0].joint - s1.joint > 0.1
        assert propagate() == 2
        assert node.unsent == {}
        assert published == {0: [s0], 1: [s1]}
        assert trial.nodes[0].routing_models[1].entries is published
        assert [propagate() for _ in range(2)] == [2, 0]
        # a list within the threshold, then one equal to the published list
        assert 0 < s0.joint - retrain(0, 11.0).joint < 0.1
        assert propagate() == 0
        assert set(node.unsent) == {0}
        assert retrain(0, 10.0) == s0
        assert propagate() == 0
        assert node.unsent == {}
        assert published == {0: [s0], 1: [s1]}


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

    @pytest.mark.parametrize(
        "name",
        [
            "node_count",
            "predicting_var_count",
            "context_var_count",
            "contexts_per_table",
            "combinations_pool",
            "vars_trained_per_node",
            "observations_per_var",
            "k_sets",
        ],
    )
    def test_positive_fields(self, name):
        with pytest.raises(ValueError, match=f"{name} must be >= 1"):
            SimConfig(**{name: 0})

    @pytest.mark.parametrize("pseudocount", [0.0, -1.0, math.nan, math.inf])
    def test_pseudocount_positive_and_finite(self, pseudocount):
        with pytest.raises(ValueError, match="pseudocount"):
            SimConfig(pseudocount=pseudocount)

    def test_overlay_fits_seed_clique(self):
        SimConfig(node_count=1)
        SimConfig(node_count=4, edge_limit=3)
        for bad in (dict(node_count=2), dict(node_count=3), dict(edge_limit=2)):
            with pytest.raises(ValueError):
                SimConfig(**bad)
        small = AttachmentParams(m0=2, m=1)
        SimConfig(node_count=2, edge_limit=1, attachment=small)

    def test_budget_and_cycles_not_negative(self):
        SimConfig(hop_budget=0, cycles=0)
        for bad in (dict(hop_budget=-3), dict(cycles=-1)):
            with pytest.raises(ValueError, match="must be >= 0"):
                SimConfig(**bad)

    def test_default_hop_budget(self):
        assert SimConfig(node_count=256).resolved_hops() == 16
        assert SimConfig(node_count=256, hop_budget=3).resolved_hops() == 3

    def test_default_policy_tracks_cardinality(self):
        policy = SimConfig(predicting_cardinality=8).resolved_policy()
        assert policy.quality_threshold == pytest.approx(2.4)
