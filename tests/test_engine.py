import itertools
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeknow import engine
from edgeknow.engine import (
    HIT_TOLERANCE_BITS,
    InvalidField,
    SimConfig,
    Strategy,
    TrainedAssignment,
    TrialMetrics,
    check_workload,
    accuracy,
    draw_queries,
    generate_workload,
    ingest_csv,
    oracle_best,
    route_query,
    run_cycle,
    run_trial,
    setup_trial,
    take_over,
    train_pgms,
)
from edgeknow.pgm import BATCH_CELLS, cell_counts
from edgeknow.routing import AdvertisementPolicy, RoutingModel, answer_entropy
from edgeknow.topology import AttachmentParams, Overlay

from conftest import (
    bf_conditional_entropy,
    bf_generate_workload,
    bf_observe,
    bf_propagate,
    bf_summary,
    draw_workload,
    export_workload_csv,
    library_answer,
    model_of,
    published_rows,
    set_up,
    smoothed_tensor,
    summarise,
    trained_rows,
    view,
    views,
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
        wl = draw_workload(config, seed=1)
        assert len(wl) == config.node_count * config.vars_trained_per_node
        n_assign = config.context_cardinality**config.contexts_per_table
        for entry in wl:
            assert entry.counts.shape == (config.predicting_cardinality, n_assign)
            assert entry.counts.dtype == np.int64
            assert entry.counts.min() >= 0
            assert entry.counts.sum() == config.observations_per_var
            assert len(entry.contexts) == config.contexts_per_table

    def test_entries_come_in_table_batches(self):
        # 8 x 8**3 cells per entry: 16 entries per batch of BATCH_CELLS
        config = small_config(contexts_per_table=3, context_cardinality=8)
        cells = 8 * 8**3
        sizes = [len(batch) for batch in generate_workload(config, seed=1)]
        assert BATCH_CELLS // cells == 16
        assert sizes == [16, 8]

    def test_combination_pool_respected(self):
        config = small_config(combinations_pool=1)
        wl = draw_workload(config, seed=2)
        assert len({e.contexts for e in wl}) == 1

    def test_deterministic_per_seed(self):
        config = small_config()
        a = draw_workload(config, seed=3)
        b = draw_workload(config, seed=3)
        assert len(a) == len(b)
        for ea, eb in zip(a, b):
            assert (ea.node_id, ea.var, ea.contexts) == (
                eb.node_id, eb.var, eb.contexts
            )
            assert np.array_equal(ea.counts, eb.counts)

    def test_gaussian_outcomes_concentrate(self):
        # stddev of one state width: most mass within 2 states of the mean
        config = small_config(observations_per_var=2000, combinations_pool=1)
        wl = draw_workload(config, seed=4)
        entry = wl[0]
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
        config = small_config(
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
        wl = draw_workload(config, seed)
        ref = bf_generate_workload(config, seed)
        assert len(wl) == len(ref)
        shape = [config.predicting_cardinality]
        want = [{} for _ in range(config.node_count)]
        for entry, (node_id, var, contexts, flat_idx, outcomes) in zip(wl, ref):
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
        got = trained_rows(wl, config)
        for sets, ref_tensors in zip(got, want):
            assert sets.keys() == ref_tensors.keys()
            for var, s in sets.items():
                contexts, tensor = ref_tensors[var]
                joint, marginals = bf_summary(tensor, contexts)
                got, hs = view(s)
                assert got == pytest.approx(joint, abs=1e-12)
                assert list(hs) == list(marginals)
                assert hs == pytest.approx(marginals, abs=1e-12)


class TestTrainedModels:
    def test_training_reproduces_counts(self):
        config = small_config()
        wl = draw_workload(config, seed=5)
        trained = trained_rows(wl, config)
        for entry in wl:
            got, hs = view(trained[entry.node_id][entry.var])
            tensor = smoothed_tensor(entry, config)
            joint, marginals = bf_summary(tensor, entry.contexts)
            assert got == pytest.approx(joint, abs=1e-12)
            assert hs == pytest.approx(marginals, abs=1e-12)

    def test_deterministic_stream_gives_low_conditional_entropy(self):
        config = small_config(
            node_count=1, predicting_cardinality=4, context_cardinality=2,
            pseudocount=0.01,
        )
        flat = np.tile([0, 1], 400)
        outcomes = np.where(flat == 0, 1, 3)  # outcome fixed by the context
        wl = [TrainedAssignment(0, 0, (0,), cell_counts(4, 2, flat, outcomes))]
        sets = trained_rows(wl, config)[0]
        h = library_answer(sets[0], frozenset({0}))
        assert h < 0.2

    def test_entry_without_observations_trains_nothing(self):
        # so no table is ever built without mass, and an untrained
        # variable has no local answer
        config = small_config(
            node_count=2, predicting_cardinality=2, context_cardinality=2,
            pseudocount=0.5,
        )
        wl = [
            TrainedAssignment(0, 0, (0,), np.zeros((2, 2), dtype=np.int64)),
            TrainedAssignment(0, 1, (), np.array([[0], [1]])),
            TrainedAssignment(1, 0, (), np.zeros((2, 1), dtype=np.int64)),
        ]
        sets = train_pgms([wl], config)
        assert (sets.nodes.tolist(), sets.variables.tolist()) == ([0], [1])
        overlay = Overlay(2, config.edge_limit)
        overlay.add_edge(0, 1)
        model = RoutingModel(sets, overlay, 2, 1)
        assert answer_entropy(model, 0, frozenset()).tolist() == [math.inf] * 2


class TestCsvRoundTrip:
    def test_round_trip_preserves_tables(self, tmp_path):
        config = small_config(observations_per_var=50)
        wl = draw_workload(config, seed=6)
        path = tmp_path / "workload.csv"
        export_workload_csv(wl, config, path)
        back = ingest_csv(path, config)
        a = trained_rows(wl, config)
        b = trained_rows(back, config)
        assert len(back) == len(wl)
        for ea, eb in zip(wl, back):
            assert (ea.node_id, ea.var, ea.contexts) == (
                eb.node_id, eb.var, eb.contexts
            )
            assert np.array_equal(ea.counts, eb.counts)
        assert a == b

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("node_id,predicting_var,outcome\n0,1,2,c0=1\n0,oops,1\n")
        with pytest.raises(ValueError, match="line 3"):
            ingest_csv(path, small_config())

    def test_bad_context_field(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1,2,x0=1\n")
        with pytest.raises(ValueError, match="line 1"):
            ingest_csv(path, small_config())

    def test_outcome_out_of_range(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1,99\n")
        with pytest.raises(ValueError, match="line 1"):
            ingest_csv(path, small_config())

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        for text in ("", "node_id,predicting_var,outcome\n"):
            path.write_text(text)
            with pytest.raises(ValueError, match="no observation rows"):
                ingest_csv(path, small_config())

    def test_single_row(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("3,2,1,c0=0,c2=3\n")
        wl = ingest_csv(path, small_config())
        assert len(wl) == 1
        entry = wl[0]
        assert entry.node_id == 3
        assert entry.var == 2
        assert entry.contexts == (0, 2)
        # outcome 1 of 8, context states (0, 3) of 4 x 4 assignments
        want = np.zeros((8, 16), dtype=np.int64)
        want[1, 3] = 1
        assert np.array_equal(entry.counts, want)


def accuracy_of(achieved, optimal):
    """`accuracy` of one query: its hit, regret and violation."""
    hit, regret, violation = accuracy(np.array([achieved]), np.array([optimal]))
    return bool(hit[0]), float(regret[0]), bool(violation[0])


class TestAccuracy:
    def test_exact_hit(self):
        hit, regret, _ = accuracy_of(1.5, 1.5)
        assert hit and regret == pytest.approx(0.0)

    def test_within_tolerance(self):
        hit, _, _ = accuracy_of(1.5 + HIT_TOLERANCE_BITS / 2, 1.5)
        assert hit

    def test_miss_with_regret(self):
        hit, regret, violation = accuracy_of(2.0, 1.0)
        assert not hit and not violation
        assert regret == pytest.approx(1.0)

    def test_beating_oracle_is_a_violation(self):
        # a miss with no regret, counted
        assert accuracy_of(0.5, 1.0) == (False, 0.0, True)
        assert not accuracy_of(1.0 - HIT_TOLERANCE_BITS / 2, 1.0)[2]

    def test_regret_guard_near_zero_optimal(self):
        hit, regret, _ = accuracy_of(0.5, 0.0)
        assert not hit and math.isfinite(regret)

    def test_mean_regret_sums_in_issuer_order(self, monkeypatch):
        # np.sum adds these pairwise (and builtin sum, from Python 3.12,
        # compensates), which gives other bits than adding in issuer order
        config = small_config(cycles=1)
        trial = setup_trial(config)
        regret = np.array([1.0] + [1e-16] * (config.node_count - 1))
        assert float(np.sum(regret)) != 1.0

        def regrets(achieved, optimal):
            none = np.zeros(len(achieved), bool)
            return none, regret, none

        monkeypatch.setattr(engine, "accuracy", regrets)
        assert run_cycle(trial, 1).mean_regret == 1.0 / config.node_count


class TestOracle:
    def test_min_over_nodes_and_uniform_fallback(self):
        counts = cell_counts(4, 2, [0] * 200, [2] * 200)
        entry = TrainedAssignment(1, 0, (0,), counts)
        trained = {0: summarise([entry], 1, 2, 0.01)[0]}
        model = model_of([{}, trained], [[], []], 1, 1, 1)
        keys, index = [(0, frozenset({0}))], np.zeros(1, dtype=np.intp)
        best = oracle_best(model, keys, index, pred_card=4)[0]
        want = bf_conditional_entropy(0.01 + counts, (0,), [0])
        assert best == pytest.approx(want)

    def test_all_untrained_is_uniform(self):
        model = model_of([{}] * 3, [[]] * 3, 1, 1, 1)
        keys, index = [(0, frozenset())], np.zeros(1, dtype=np.intp)
        assert oracle_best(model, keys, index, pred_card=8)[0] == pytest.approx(3.0)

    def test_matches_independent_enumeration(self):
        config = small_config(node_count=10)
        workload = draw_workload(config, seed=8)
        trial = setup_trial(config, workload)
        card = config.predicting_cardinality
        for target, combos in trial.trained_combos.items():
            for combo in [frozenset()] + combos:
                # independent re-derivation with the brute-force chain rule
                # over each trainer's workload entry
                best = math.log2(card)
                for entry in workload:
                    if entry.var != target:
                        continue
                    given = [c for c in combo if c in entry.contexts]
                    tensor = smoothed_tensor(entry, config)
                    best = min(
                        best, bf_conditional_entropy(tensor, entry.contexts, given)
                    )
                index = np.zeros(1, dtype=np.intp)
                got = oracle_best(trial.model, [(target, combo)], index, card)[0]
                assert got == pytest.approx(best, abs=1e-9)

    def test_answers_are_finite_exactly_where_trained(self):
        # so the minimum over all nodes is the minimum over the trainers
        config = small_config()
        trial, _, local_sets = set_up(config)
        for target in range(config.predicting_var_count):
            answers = trial.model.answers(target, frozenset({0}))
            # and the pad node answers nothing
            trained = [target in sets for sets in local_sets] + [False]
            assert np.isfinite(answers).tolist() == trained


class TestTrialSetup:
    def test_node_and_model_wiring(self):
        config = small_config()
        trial, _, local_sets = set_up(config)
        # the model reads the overlay's own matrix, no copy of it
        assert trial.model.overlay is trial.overlay
        assert len(trial.overlay.degree) == config.node_count
        for node in range(config.node_count):
            neighbors = trial.model.neighbors_of(np.array([node]))[0]
            assert neighbors.tolist() == trial.overlay.neighbors(node).tolist()
            # the first build covers the trained variables
            changed = trial.model.changed[:, node]
            assert set(np.flatnonzero(changed)) == set(local_sets[node])
        assert not trial.model.pending(np.arange(config.node_count)).any()
        assert published_rows(trial.model, []) == [{}] * config.node_count

    def test_uncapped_matrix_is_as_wide_as_the_widest_row(self):
        # a limit far past any width the matrix could be allocated at: the
        # width follows the degrees, not the limit
        config = small_config(node_count=16, edge_limit=10**9, cycles=2)
        trial = setup_trial(config)
        for cycle in (1, 2):
            assert run_cycle(trial, cycle).oracle_violations == 0
        overlay = trial.overlay
        assert overlay.rows.shape == (17, max(1, overlay.degree.max()))

    def test_entries_without_observations_are_not_targets(self):
        config = small_config()
        workload = workload_with_entry(config, counts=np.zeros((8, 16), int))
        trial = setup_trial(config, workload)
        assert trial.trained_combos == {0: [frozenset({0})]}
        # and no node answers for them
        trained = np.isfinite(trial.model.answers(0, frozenset()))
        assert np.flatnonzero(trained).tolist() == [0]
        assert (trial.model.answers(1, frozenset()) == math.inf).all()

    def test_trained_combos_cover_workload(self):
        config = small_config()
        trial = setup_trial(config)
        assert trial.trained_combos
        for var, combos in trial.trained_combos.items():
            tuples = [tuple(sorted(combo)) for combo in combos]
            assert tuples == sorted(set(tuples))
            for combo in combos:
                assert len(combo) == config.contexts_per_table

    def test_setup_never_holds_every_entrys_counts(self):
        # set-up summarises the workload a batch at a time: above what the
        # trial keeps, it holds far less than every entry's int64 counts
        config = SimConfig(node_count=512, cycles=0)
        assignments = config.context_cardinality**config.contexts_per_table
        cells = config.predicting_cardinality * assignments
        counts = 8 * cells * config.node_count * config.vars_trained_per_node
        tracemalloc.start()
        try:
            trial = setup_trial(config)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert trial.model.changed.any()
        assert peak - kept < counts / 4

    def test_workload_node_count_must_match(self):
        # node ids are checked against the config's node count
        workload = draw_workload(small_config(), seed=0)
        with pytest.raises(ValueError, match="node outside 8 nodes"):
            setup_trial(small_config(node_count=8), workload)
        workload = draw_workload(small_config(context_cardinality=3), seed=0)
        with pytest.raises(ValueError, match="shaped"):
            setup_trial(small_config(), workload)

    def test_single_node_network(self):
        config = small_config(node_count=1)
        metrics = run_trial(config)
        # with only one node, the issuer is always the global optimum
        for row in metrics.rows:
            assert row.accuracy == 1.0
            assert row.oracle_violations == 0


def workload_with_entry(config, **fields):
    """A valid workload for `config` with one more entry: node 0's
    predicting variable 1 over contexts (0, 1), overridden by `fields`."""
    entry = dict(node_id=0, var=1, contexts=(0, 1), counts=np.ones((8, 16), int))
    entry.update(fields)
    return [
        TrainedAssignment(0, 0, (0,), np.ones((8, 4), dtype=np.int64)),
        TrainedAssignment(**entry),
    ]


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
        check_workload(config, draw_workload(config, seed=0))

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
        with pytest.raises(ValueError, match="^workload holds no observation$"):
            run_trial(small_config(), entries)


class TestDrawQueries:
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_a_target_then_a_combination_per_issuer(self, strategy):
        """A cycle makes two scalar draws per issuer from the query stream,
        a target and then one of its trained combinations, and no other;
        keys come first drawn first, and equal evidence sets, across
        targets too, are one object."""
        config = small_config(cycles=2, strategy=strategy)
        trial = setup_trial(config)
        s_query = np.random.SeedSequence(config.seed).spawn(4)[2]
        fresh = np.random.default_rng(s_query)
        targets = list(trial.trained_combos)

        def drawn():
            keys = []
            for _ in range(config.node_count):
                target = targets[fresh.integers(len(targets))]
                combos = trial.trained_combos[target]
                keys.append((target, combos[fresh.integers(len(combos))]))
            return keys

        run_cycle(trial, 1)
        drawn()
        assert trial.query_rng.bit_generator.state == fresh.bit_generator.state
        keys, index = draw_queries(trial)
        want = drawn()
        assert trial.query_rng.bit_generator.state == fresh.bit_generator.state
        assert index.dtype == np.intp
        assert [keys[i] for i in index] == want
        assert keys == list(dict.fromkeys(want))
        # some key repeats, and some evidence set serves two targets
        assert len(keys) < len(index)
        assert len({bound for _, bound in keys}) < len(keys)
        assert len({id(bound) for _, bound in keys}) == len({b for _, b in keys})


def routed(trial, keys, index, strategy):
    """Per query, query i node i's with key `keys[index[i]]`, routed
    together: its path, its pads dropped, the node whose answer it took
    (None when no node answered) and that answer."""
    n = trial.config.node_count
    paths = route_query(trial, keys, index, strategy)
    step, quality = take_over(trial.model, keys, index, paths)
    for path, at, answer in zip(paths, step, quality):
        answered_by = int(path[at]) if math.isfinite(answer) else None
        yield path[path < n].tolist(), answered_by, float(answer)


class TestRouteQuery:
    def test_visited_is_walk_and_budget_spent(self):
        config = small_config(hop_budget=4)
        trial = setup_trial(config)
        keys = [(next(iter(trial.trained_combos)), frozenset())]
        index = np.zeros(config.node_count, dtype=np.intp)
        paths = [path for path, _, _ in routed(trial, keys, index, Strategy.ABS)]
        for path in paths:
            assert len(path) == 5  # issuer plus one node per hop
            for a, b in zip(path, path[1:]):
                assert b in trial.overlay.neighbors(a)
        assert [path[0] for path in paths] == list(range(config.node_count))

    def test_random_walk_also_respects_topology(self):
        config = small_config(hop_budget=6)
        trial = setup_trial(config)
        keys = [(next(iter(trial.trained_combos)), frozenset())]
        index = np.zeros(4, dtype=np.intp)
        *_, (path, _, _) = routed(trial, keys, index, Strategy.RANDOM_WALK)
        assert len(path) == 7 and path[0] == 3
        for a, b in zip(path, path[1:]):
            assert b in trial.overlay.neighbors(a)

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_earlier_of_equal_answers_answers(self, strategy):
        # node 0 trained variable 1 alone; every other node trained variable
        # 0 on the same counts, so they all give the same answer
        config = small_config(hop_budget=4, strategy=strategy)
        counts = np.arange(32).reshape(8, 4) % 5
        workload = [TrainedAssignment(0, 1, (0,), counts)]
        for node in range(1, config.node_count):
            workload.append(TrainedAssignment(node, 0, (0,), counts))
        trial = setup_trial(config, workload)
        keys, index = [(0, frozenset({0}))], np.zeros(1, dtype=np.intp)
        (path, answered_by, quality), = routed(trial, keys, index, strategy)
        assert len(set(path[1:])) > 1
        answers = trial.model.answers(0, frozenset({0}))
        assert len({answers[node] for node in path[1:]}) == 1
        assert answered_by == path[1]
        assert quality == answers[path[1]]

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_path_without_a_trainer_leaves_the_query_unanswered(self, strategy):
        # 12 nodes train 2 of 40 variables each, so some variable is untrained
        config = small_config(predicting_var_count=40, hop_budget=3, strategy=strategy)
        trial, _, local_sets = set_up(config)
        untrained = next(
            v for v in range(config.predicting_var_count)
            if not any(v in sets for sets in local_sets)
        )
        keys, index = [(untrained, frozenset())], np.zeros(1, dtype=np.intp)
        (path, answered_by, quality), = routed(trial, keys, index, strategy)
        assert len(path) == 4
        assert answered_by is None
        assert quality == math.inf

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
        for (path, _, _), degree in zip(
            routed(trial, *draw_queries(trial), strategy), trial.overlay.degree
        ):
            # an issuer without neighbors answers alone and spends nothing
            assert len(path) == 1 + (hops if degree else 0)

    def test_blocks_route_as_one(self, monkeypatch):
        # queries are independent, so any block size gives the same paths
        config = small_config(cycles=2)
        trial = setup_trial(config)
        run_cycle(trial, 1)
        keys, index = draw_queries(trial)
        whole = route_query(trial, keys, index, Strategy.ABS)
        monkeypatch.setattr(engine, "ISSUER_BLOCK", 5)
        assert np.array_equal(route_query(trial, keys, index, Strategy.ABS), whole)


def achieved_and_optimal(trial, strategy):
    """Route one fresh query per node; yield each query's achieved quality
    (the uniform prior when no node answered) and its oracle optimum."""
    card = trial.config.predicting_cardinality
    uniform = math.log2(card)
    keys, index = draw_queries(trial)
    optimal = oracle_best(trial.model, keys, index, card)
    for (_, _, quality), best in zip(routed(trial, keys, index, strategy), optimal):
        yield (quality if math.isfinite(quality) else uniform), best


class TestOracleBound:
    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_no_query_beats_the_oracle(self, data):
        config = small_config(
            node_count=data.draw(st.integers(1, 24)),
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
        config = small_config(combinations_pool=3)
        uniform = math.log2(config.predicting_cardinality)
        # every trained node's answer to every key a query can draw, so the
        # check does not rest on which nodes the routes visit
        keyed = setup_trial(config)
        for target, combos in keyed.trained_combos.items():
            for bound in combos:
                answers = keyed.model.answers(target, bound)
                assert (answers[np.isfinite(answers)] <= uniform).all()
        for strategy in Strategy:
            config = replace(config, strategy=strategy)
            trial = setup_trial(config)
            for cycle in range(1, config.cycles + 1):
                run_cycle(trial, cycle)
            for achieved, _ in achieved_and_optimal(trial, strategy):
                assert achieved <= uniform


class TestVariableBlocks:
    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_blocks_fill_with_whole_variables(self, data):
        """Over drawn (variables x columns) masks, offers of 1 to 20 per
        column and budgets (`engine.OFFER_BLOCK`) of 1 to 60 offers: the
        blocks hold the mask's pairs in row-major order, each holds whole
        variables, offers at most the budget unless it holds one variable,
        and could not take the next block's first variable."""
        variables, columns = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
        mask = np.array(
            data.draw(st.lists(st.booleans(), min_size=variables * columns,
                               max_size=variables * columns))
        ).reshape(variables, columns)
        offers = np.array(
            data.draw(st.lists(st.integers(1, 20), min_size=columns, max_size=columns))
        )
        budget = data.draw(st.integers(1, 60))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "OFFER_BLOCK", budget)
            blocks = list(engine.variable_blocks(mask, offers))
        var, cols = np.nonzero(mask)
        assert np.array_equal(np.concatenate([b[0] for b in blocks] + [var[:0]]), var)
        assert np.array_equal(np.concatenate([b[1] for b in blocks] + [cols[:0]]), cols)
        spent = [offers[b[1]].sum() for b in blocks]
        for i, (block_var, _) in enumerate(blocks):
            assert len(block_var)
            assert i == 0 or blocks[i - 1][0][-1] != block_var[0]
            if len(set(block_var.tolist())) > 1:
                assert spent[i] <= budget
            if i + 1 < len(blocks):
                following = offers[mask[blocks[i + 1][0][0]]].sum()
                assert spent[i] + following > budget


def retrain(model, local_sets, node, var, joint):
    """Give `node` the local joint `joint` of `var`, in the model and in the
    reference's rows `local_sets`, with the gate score set-up would take of
    it, and make the node rebuild `var`."""
    _, contexts, entropies = local_sets[node][var]
    local_sets[node][var] = (joint, contexts, entropies)
    model.local_joints[var, node] = joint
    origins = model.local_origins[var, node : node + 1]
    bound = frozenset(dict.fromkeys(contexts))
    gate = model.subtract(np.array([joint]), origins, bound)[0]
    model.gates[var, node] = max(gate, 0.0)
    model.changed[var, node] = True


class TestSharedModels:
    def check_cycles(self, data, retraining):
        """Over drawn trials, change thresholds and phase-1 blocks of 1 to
        40 offers (`engine.OFFER_BLOCK`, so that phase 1 spans several
        blocks), the shared model after each cycle against `bf_propagate`'s
        private copies: the sets sent, each node's published lists, its
        unsent ones and the variables it must rebuild. With `retraining`,
        1 to 4 drawn trained (node, variable) pairs are retrained between
        every two of at least 3 cycles (`retrain`), each to its set-up joint
        plus 0, -0.5, 0.5 or 3 times the change threshold, so lists move
        within and past the threshold and back to values already
        published."""
        config = small_config(
            node_count=data.draw(st.integers(4 if retraining else 1, 24)),
            context_var_count=4,
            contexts_per_table=data.draw(st.integers(1, 3)),
            combinations_pool=data.draw(st.integers(1, 4)),
            k_sets=data.draw(st.integers(1, 3)),
            cycles=data.draw(st.integers(3, 6) if retraining else st.integers(1, 4)),
            observations_per_var=data.draw(st.integers(20, 300)),
            seed=data.draw(st.integers(0, 2**16)),
        )
        # the engine and the reference read the policy from the config
        policy = replace(
            config.resolved_policy(),
            change_threshold=data.draw(st.sampled_from((0.005, 0.05, 0.5))),
        )
        config.resolved_policy = lambda: policy
        trial = setup_trial(config)
        ref, _, local_sets = set_up(config)
        trained = [(node, var) for node, sets in enumerate(local_sets) for var in sets]
        retrained = []
        if retraining:
            retrained = data.draw(
                st.lists(st.sampled_from(trained), min_size=1, max_size=4, unique=True)
            )
        setup_joints = {pair: local_sets[pair[0]][pair[1]][0] for pair in retrained}
        private = {
            node: {nb: {} for nb in ref.overlay.neighbors(node).tolist()}
            for node in range(config.node_count)
        }
        ref_sent: dict = {}
        ref_built: dict = {}
        ref_changed: dict = {}
        model = trial.model
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "OFFER_BLOCK", data.draw(st.integers(1, 40)))
            for cycle in range(1, config.cycles + 1):
                sent = run_cycle(trial, cycle).adv_sets_sent
                delta_sets, snapshot_sets = bf_propagate(
                    ref, local_sets, private, ref_sent, ref_built, ref_changed
                )
                assert sent == delta_sets <= snapshot_sets
                published = [
                    views(lists) for lists in published_rows(model, local_sets)
                ]
                for node in range(config.node_count):
                    for nb in trial.overlay.neighbors(node).tolist():
                        assert private[nb][node] == published[node]
                for node in range(config.node_count):
                    # the deltas integrated so far add up to the last full
                    # advertisement sent
                    last_sent = ref_sent.get(node, {})
                    assert published[node] == last_sent
                    # the unsent lists are the last full build's lists that
                    # differ from the last full advertisement sent
                    unsent = views(published_rows(model, local_sets, True)[node])
                    assert unsent == {
                        var: sets for var, sets in ref_built[node].items()
                        if sets != last_sent.get(var)
                    }
                    assert well_formed(unsent, config.k_sets)
                    changed = set(np.flatnonzero(model.changed[:, node]))
                    assert changed == ref_changed[node]
                for node, var in retrained:
                    factor = data.draw(st.sampled_from((0.0, -0.5, 0.5, 3.0)))
                    joint = setup_joints[node, var] + factor * policy.change_threshold
                    retrain(model, local_sets, node, var, joint)

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_shared_models_equal_private_copies(self, data):
        self.check_cycles(data, retraining=False)

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_retrained_models_equal_private_copies(self, data):
        self.check_cycles(data, retraining=True)


class TwoNodeLine:
    """A two-node line: node 1 trains variables 0 and 1 over context 0,
    node 0 trains nothing. With one set per list, change threshold 0.1 and
    no hop inflation, node 1's lists are its local sets, and node 0's
    echoes tie with them."""

    def __init__(self):
        config = SimConfig(
            node_count=2,
            predicting_var_count=2,
            context_var_count=1,
            contexts_per_table=1,
            predicting_cardinality=2,
            context_cardinality=2,
            k_sets=1,
        )
        workload = [
            TrainedAssignment(1, var, (0,), np.array([[8, 0], [0, 8]]))
            for var in (0, 1)
        ]
        self.trial = setup_trial(config, workload)
        policy = AdvertisementPolicy(
            change_threshold=0.1, quality_threshold=100.0, hop_inflation=0.0
        )
        config.resolved_policy = lambda: policy
        assert self.trial.overlay.neighbors(1).tolist() == [0]
        self.model = self.trial.model
        self.local_sets = trained_rows(workload, config)
        self.cycles = itertools.count(1)

    def propagate(self):
        return run_cycle(self.trial, next(self.cycles)).adv_sets_sent

    def joints(self, unsent=False):
        """Node 1's published (or unsent) joints, per variable."""
        lists = published_rows(self.model, self.local_sets, unsent)[1]
        return {var: [s[0] for s in sets] for var, sets in lists.items()}

    def retrain(self, var, diagonal):
        """The joint of pseudocount 1 plus `diagonal` - 1 observations of
        outcome s under context state s, for s = 0 and 1, as node 1's local
        joint of `var`, which node 1 must rebuild."""
        counts = np.array([[diagonal - 1, 0], [0, diagonal - 1]])
        entry = TrainedAssignment(1, var, (0,), counts)
        joint = summarise([entry], 1, 2, 1.0)[0][0]
        self.model.local_joints[var, 1] = joint
        self.model.changed[var, 1] = True
        return joint


class TestUnsent:
    def test_a_list_within_the_threshold_waits_for_the_next_send(self):
        """On the two-node line (`TwoNodeLine`), node 1 is retrained by
        replacing a local joint: a rebuilt list within the threshold of the
        published one stays unsent, the next send carries it, and a rebuild
        back to the published value discards it."""
        line = TwoNodeLine()
        propagate, joints, retrain = line.propagate, line.joints, line.retrain
        # node 1 sends both lists, node 0 echoes them, node 1 keeps its own
        assert [propagate() for _ in range(3)] == [2, 2, 0]
        (old,) = joints()[0]
        assert old == retrain(0, 9)
        assert propagate() == 0
        # a slightly sharper model of variable 0 waits
        s0 = retrain(0, 10)
        assert 0 < old - s0 < 0.1
        assert propagate() == 0
        assert joints(unsent=True) == {0: [s0]}
        assert joints()[0] == [old]
        # a much sharper one of variable 1 is sent, and variable 0's list
        # goes with it: two lists of one set each, to one neighbor
        s1 = retrain(1, 20)
        assert joints()[1][0] - s1 > 0.1
        assert propagate() == 2
        assert joints(unsent=True) == {}
        assert joints() == {0: [s0], 1: [s1]}
        assert [propagate() for _ in range(2)] == [2, 0]
        # a list within the threshold, then one equal to the published list
        assert 0 < s0 - retrain(0, 11) < 0.1
        assert propagate() == 0
        assert set(joints(unsent=True)) == {0}
        assert retrain(0, 10) == s0
        assert propagate() == 0
        assert joints(unsent=True) == {}
        assert joints() == {0: [s0], 1: [s1]}

    def test_a_send_from_an_early_block_waits_for_the_later_builds(
        self, monkeypatch
    ):
        """Phase-1 blocks of one variable each (`engine.OFFER_BLOCK`) on the
        two-node line: node 1 sends variable 0's list from the first block
        while it holds an unsent list of variable 1, which a later block of
        the same cycle rebuilds back to its published value. Sends are
        integrated after the last build, so the send carries variable 0's
        list alone, and the unsent list of variable 1 is discarded, never
        sent."""
        monkeypatch.setattr(engine, "OFFER_BLOCK", 1)
        line = TwoNodeLine()
        propagate, joints, retrain = line.propagate, line.joints, line.retrain
        assert [propagate() for _ in range(3)] == [2, 2, 0]
        (old0,), (old1,) = joints().values()
        # a slightly sharper model of variable 1 waits
        s1 = retrain(1, 10)
        assert 0 < old1 - s1 < 0.1
        assert propagate() == 0
        assert joints(unsent=True) == {1: [s1]}
        # in one cycle, a much sharper model of variable 0, and variable 1
        # back to its published joint
        s0 = retrain(0, 20)
        assert old0 - s0 > 0.1
        assert retrain(1, 9) == old1
        assert propagate() == 1
        assert joints(unsent=True) == {}
        assert joints() == {0: [s0], 1: [old1]}
        # node 0 echoes variable 0 alone, and node 1 keeps its own
        assert [propagate() for _ in range(2)] == [1, 0]


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

    def test_underflowing_pseudocount_gives_finite_entropies(self):
        # a pseudocount of 5e-324 over some 300 observations underflows to
        # a probability of 0 in every unobserved cell, which must add 0 bits
        config = small_config(pseudocount=5e-324)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            metrics = run_trial(config)
            _, _, local_sets = set_up(config)
        assert len(metrics.rows) == config.cycles
        assert metrics.oracle_violations == 0
        values = [
            h
            for sets in local_sets
            for joint, hs in map(view, sets.values())
            for h in (joint, *hs.values())
        ]
        assert values and all(math.isfinite(h) and h >= 0 for h in values)

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

    @pytest.mark.parametrize("name", ["predicting_cardinality", "context_cardinality"])
    def test_cardinality_at_least_two(self, name):
        with pytest.raises(InvalidField, match=f"^{name} must be >= 2$") as info:
            SimConfig(**{name: 1})
        assert info.value.name == name

    @pytest.mark.parametrize("pseudocount", [0.0, -1.0, math.nan, math.inf])
    def test_pseudocount_positive_and_finite(self, pseudocount):
        with pytest.raises(ValueError, match="pseudocount"):
            SimConfig(pseudocount=pseudocount)

    def test_overlay_fits_seed_clique(self):
        # the seed clique spans min(node_count, m0) nodes, so every node count
        # from 1 up is a config, and the edge limit must fit that clique
        for n in (1, 2, 3, 4, 5):
            clique = min(n, 4)
            SimConfig(node_count=n, edge_limit=clique - 1)
            with pytest.raises(
                InvalidField,
                match=rf"^edge_limit must be >= min\(node_count, m0\)-1={clique - 1}$",
            ):
                SimConfig(node_count=n, edge_limit=clique - 2)
        small = AttachmentParams(m0=2, m=1)
        SimConfig(node_count=2, edge_limit=1, attachment=small)

    def test_budget_and_cycles_not_negative(self):
        SimConfig(hop_budget=0, cycles=0)
        for bad in (dict(hop_budget=-3), dict(cycles=-1)):
            with pytest.raises(ValueError, match="must be >= 0"):
                SimConfig(**bad)

    def test_seed_not_negative(self):
        SimConfig(seed=0)
        with pytest.raises(InvalidField, match="^seed must be >= 0$"):
            SimConfig(node_count=8, seed=-1, cycles=1)

    def test_strategy_is_a_member(self):
        with pytest.raises(InvalidField, match="^strategy 'rw' is not a Strategy$"):
            SimConfig(strategy="rw")

    def test_default_hop_budget(self):
        assert SimConfig(node_count=256).resolved_hops() == 16
        assert SimConfig(node_count=256, hop_budget=3).resolved_hops() == 3

    def test_default_policy_tracks_cardinality(self):
        policy = SimConfig(predicting_cardinality=8).resolved_policy()
        assert policy.quality_threshold == pytest.approx(2.4)
        # runs take the other fields from the policy's defaults
        assert (policy.change_threshold, policy.hop_inflation) == (0.005, 0.001)
