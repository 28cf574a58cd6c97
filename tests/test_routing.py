import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeknow.engine import TrainedAssignment, Workload, train_pgms
from edgeknow.pgm import JointTable, Schema
from edgeknow.routing import (
    AdvertisementPolicy,
    EntropySet,
    NodeState,
    Query,
    RoutingModel,
    answer_entropy,
    build_advertisement,
    integrate_advertisement,
    local_entropy_sets,
    process_query,
    random_walk_step,
    should_advertise,
)

from conftest import (
    bf_answer_entropy,
    bf_best_score,
    bf_build_advertisement,
    bf_next_hop,
    bf_should_advertise,
    well_formed,
)


def make_set(var_idx, joint, ctx_entropies=None):
    return EntropySet(
        predicting=var_idx,
        joint=joint,
        context_entropies=dict(ctx_entropies or {}),
    )


def full_build(local, models, policy, k):
    """An advertisement built from nothing: every variable that the local
    sets or the models hold."""
    models = list(models)
    every = set(local).union(*(model.entries for model in models))
    return build_advertisement(local, models, policy, k, every)


ZERO_EPS = AdvertisementPolicy(hop_inflation=0.0)
# quality gate disabled: aggregation tests want combinations kept verbatim
NO_GATE = AdvertisementPolicy(hop_inflation=0.0, quality_threshold=100.0)


class TestEntropySetScore:
    def test_both_contexts_bound(self):
        s = make_set(0, 0.8, {1: 0.2, 2: 0.3})
        assert s.score({1, 2}) == pytest.approx(0.3)

    def test_one_context_bound(self):
        s = make_set(0, 0.8, {1: 0.2, 2: 0.3})
        assert s.score({1}) == pytest.approx(0.6)

    def test_unknown_bound_vars_ignored(self):
        s = make_set(0, 0.8, {1: 0.2})
        assert s.score({5, 6}) == pytest.approx(0.8)

    def test_reduced_set_scores_joint(self):
        s = make_set(0, 0.8)
        assert not s.context_entropies
        assert s.score({1, 2}) == pytest.approx(0.8)

    def test_clamped_at_zero(self):
        s = make_set(0, 0.4, {1: 0.3, 2: 0.3})
        assert s.score({1, 2}) == 0.0

    def test_inflation_accumulates(self):
        s = make_set(0, 1.0, {1: 0.5}).inflated(0.01).inflated(0.01)
        assert s.joint == pytest.approx(1.02)
        assert s.context_entropies == {1: 0.5}


class TestBuildAdvertisement:
    def test_local_only(self):
        local = {0: make_set(0, 1.0, {0: 0.4}), 1: make_set(1, 2.0, {1: 0.7})}
        adv = full_build(local, [], ZERO_EPS, k=2)
        assert set(adv) == {0, 1}
        assert adv[0][0].joint == pytest.approx(1.0)

    def test_line_aggregation_with_inflation(self):
        # neighbor advertises a better set; it is re-offered one hop inflated
        eps = 0.01
        policy = AdvertisementPolicy(hop_inflation=eps)
        neighbor_model = RoutingModel()
        neighbor_model.entries[0] = [make_set(0, 0.5, {0: 0.2})]
        local = {0: make_set(0, 1.0, {0: 0.4})}
        sets = full_build(local, [neighbor_model], policy, k=2)[0]
        assert len(sets) == 1  # same combination, minimum wins
        assert sets[0].joint == pytest.approx(0.5 + eps)

    def test_distinct_combinations_coexist(self):
        local = {0: make_set(0, 1.0, {0: 0.4})}
        model = RoutingModel()
        model.entries[0] = [make_set(0, 0.5, {1: 0.2})]
        adv = full_build(local, [model], ZERO_EPS, k=2)
        assert len(adv[0]) == 2
        assert {s.combination for s in adv[0]} == {
            frozenset({0}),
            frozenset({1}),
        }

    def test_k_truncation_keeps_lowest_joints(self):
        # one local and four neighbor-learned sets over distinct combinations
        local = {0: EntropySet(0, 3.0, {0: 0.1})}
        joints = (1.0, 2.0, 4.0, 5.0)
        learned = [EntropySet(0, j, {i: 0.1}) for i, j in enumerate(joints, 1)]
        adv = full_build(local, [RoutingModel({0: learned})], NO_GATE, k=2)
        assert [s.joint for s in adv[0]] == [1.0, 2.0]

    def test_quality_gate_reduces_poor_local_sets(self):
        policy = AdvertisementPolicy(quality_threshold=0.5, hop_inflation=0.0)
        good = make_set(0, 1.0, {0: 0.8})   # evidence-free conditional 0.2
        poor = make_set(1, 2.0, {0: 0.8})   # evidence-free conditional 1.2
        adv = full_build({0: good, 1: poor}, [], policy, k=2)
        assert adv[0][0].context_entropies
        assert not adv[1][0].context_entropies
        assert adv[1][0].joint == pytest.approx(2.0)

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 2),
                st.floats(0.1, 8.0),
                st.sets(st.integers(0, 3), max_size=3),
            ),
            max_size=20,
        ),
        st.integers(1, 4),
    )
    @settings(max_examples=100)
    def test_truncation_matches_brute_force(self, raw, k):
        # a variable's first set is the local one, the rest neighbor-learned
        local, neighbor = {}, RoutingModel()
        for v, j, combo in raw:
            s = EntropySet(v, j, {c: 0.05 for c in combo})
            if v in local:
                neighbor.entries.setdefault(v, []).append(s)
            else:
                local[v] = s
        adv = full_build(local, [neighbor], NO_GATE, k=k)
        for var in {v for v, _, _ in raw}:
            # brute force: min joint per distinct combination, k lowest kept
            best = {}
            for v, j, combo in raw:
                if v != var:
                    continue
                key = frozenset(c for c in combo)
                best[key] = min(best.get(key, math.inf), j)
            want = sorted(best.values())[:k]
            got = [s.joint for s in adv[var]]
            assert got == pytest.approx(want)
            assert len({s.combination for s in adv[var]}) == len(got)


class TestIntegrate:
    def test_replaces_and_retains(self):
        model = RoutingModel()
        model.entries[0] = [make_set(0, 5.0)]
        model.entries[1] = [make_set(1, 4.0)]
        integrate_advertisement(model, {0: [make_set(0, 1.0)]})
        assert model.entries[0][0].joint == pytest.approx(1.0)
        assert model.entries[1][0].joint == pytest.approx(4.0)

    def test_best_score_reads_integrated_list(self):
        model = RoutingModel()
        model.entries[0] = [make_set(0, 5.0)]
        assert model.best_score(0, frozenset()) == pytest.approx(5.0)
        integrate_advertisement(model, {0: [make_set(0, 1.0)]})
        assert model.best_score(0, frozenset()) == pytest.approx(1.0)


def evidence(keys):
    """A query's evidence variable set, built as `process_query` builds it:
    from the keys of its context assignment, in the drawn insertion order."""
    return frozenset({c: 0 for c in keys})


def bounds():
    """Evidence sets over context ids 0-15 whose dict was filled in sorted
    or in reverse sorted order. Small frozensets iterate in hash-slot order,
    ids 8-15 sharing slots with 0-7, and colliding ids (0 and 8, say) take
    the slot in insertion order, so many examples iterate unsorted."""
    keys = st.lists(st.integers(0, 15), max_size=6, unique=True)
    return st.tuples(keys, st.booleans()).map(
        lambda t: evidence(sorted(t[0], reverse=t[1]))
    )


class TestBestScore:
    def test_subtracts_in_evidence_order(self):
        # {1, 8} iterates 8 first, and (1.0 - 0.2) - 0.1 != (1.0 - 0.1) - 0.2
        bound = evidence([1, 8])
        assert list(bound) == [8, 1]
        model = RoutingModel({0: [make_set(0, 1.0, {1: 0.1, 8: 0.2})]})
        assert model.best_score(0, bound) == (1.0 - 0.2) - 0.1 != 0.7

    @given(st.data())
    @settings(max_examples=300)
    def test_matches_reference(self, data):
        """Exactly the minimum of the clamped set scores, for lists of up to
        12 sets, absent targets and joints low enough to go negative. Set
        contexts are drawn mostly from the evidence, in any insertion order,
        and short decimals often: their differences round differently in
        different subtraction orders."""
        keys = data.draw(st.lists(st.integers(0, 15), max_size=6, unique=True))
        bound = evidence(sorted(keys, reverse=data.draw(st.booleans())))
        ids = st.integers(0, 15)
        if keys:
            ids = st.one_of(st.sampled_from(keys), st.sampled_from(keys), ids)

        def bits(lo, hi, decimals):
            return st.one_of(st.sampled_from(decimals), st.floats(lo, hi))

        entropies = st.lists(
            st.tuples(ids, bits(0.0, 1.5, (0.1, 0.2, 0.3, 0.7, 1.1))), max_size=4
        ).map(dict)
        sets = st.lists(
            st.builds(
                EntropySet, st.just(0), bits(0.0, 3.0, (0.9, 1.0, 2.0, 3.0)), entropies
            ),
            max_size=12,
        )
        model = RoutingModel(data.draw(st.dictionaries(st.integers(0, 2), sets)))
        for target in range(4):
            want = bf_best_score(model, target, bound)
            assert model.best_score(target, bound) == want
        # one set at a time, so that no lower score hides a wrong one
        for s in itertools.chain.from_iterable(model.entries.values()):
            alone = RoutingModel({0: [s]})
            assert alone.best_score(0, bound) == bf_best_score(alone, 0, bound)


class TestShouldAdvertise:
    policy = AdvertisementPolicy(change_threshold=0.1)

    def first(self):
        return {0: [make_set(0, 1.0)]}

    def test_first_time(self):
        assert should_advertise({}, self.first(), self.policy)

    def test_new_key(self):
        other = {1: [make_set(1, 1.0)]}
        assert should_advertise(self.first(), other, self.policy)

    def test_small_change_suppressed(self):
        other = {0: [make_set(0, 1.05)]}
        assert not should_advertise(self.first(), other, self.policy)

    def test_large_change_sent(self):
        other = {0: [make_set(0, 1.5)]}
        assert should_advertise(self.first(), other, self.policy)


def model_entries(var, max_size=2, min_size=0):
    """Up to `max_size` sets for `var` over distinct combinations of contexts
    0 and 1 (the empty one is the reduced form), in ascending joint order as
    `build_advertisement` makes them; joints and context entropies come from
    few values, so scores, inflated joints and combinations collide often."""
    raw = st.lists(
        st.tuples(
            st.frozensets(st.sampled_from((0, 1))),
            st.sampled_from((1.0, 1.5, 2.0)),
            st.sampled_from((0.5, 1.0)),
        ),
        min_size=min_size,
        max_size=max_size,
        unique_by=lambda t: t[0],
    )
    return raw.map(
        lambda sets: [
            make_set(var, joint, {c: h for c in combo})
            for combo, joint, h in sorted(sets, key=lambda t: t[1])
        ]
    )


class TestIncrementalBuild:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_full_rebuild(self, data):
        """Random integrations into one node's routing models, each round
        followed by an incremental build of the changed variables, staged as
        the engine stages them: merged into the earlier lists, they equal
        the from-scratch reference, winner order included, and are well
        formed; integration reports exactly the variables whose lists
        changed by value; the send decision over the rebuilt lists that
        differ from those sent agrees with the full comparison, and a send
        of the unsent lists makes the sent model the full advertisement."""
        k = data.draw(st.integers(1, 3), label="k")
        policy = AdvertisementPolicy(
            change_threshold=data.draw(st.sampled_from((0.0, 0.3, 0.6))),
            quality_threshold=data.draw(st.sampled_from((0.6, 100.0))),
            hop_inflation=data.draw(st.sampled_from((0.0, 0.5))),
        )
        local = {}
        for var in range(3):
            sets = data.draw(model_entries(var, max_size=1))
            if sets:
                local[var] = sets[0]
        neighbors = data.draw(
            st.lists(st.integers(1, 9), min_size=1, max_size=4, unique=True)
        )
        models = {nb: RoutingModel() for nb in neighbors}
        sent, built, unsent = RoutingModel(), {}, {}
        # the first build covers the trained variables
        changed = set(local)
        for _ in range(data.draw(st.integers(1, 8), label="rounds")):
            for _ in range(data.draw(st.integers(0, 3))):
                model = models[data.draw(st.sampled_from(neighbors))]
                adv = {}
                for var in data.draw(st.sets(st.integers(0, 3))):
                    held = model.entries.get(var)
                    if held is not None and data.draw(st.booleans()):
                        adv[var] = held  # re-sent: the same list object
                    else:
                        adv[var] = data.draw(model_entries(var, k, 1))
                before = dict(model.entries)
                got = integrate_advertisement(model, adv)
                assert got == {
                    var for var, sets in adv.items() if before.get(var) != sets
                }
                changed |= got
            rebuilt = build_advertisement(local, models.values(), policy, k, changed)
            assert set(rebuilt) == changed
            built.update(rebuilt)
            assert built == bf_build_advertisement(local, models.values(), policy, k)
            assert well_formed(built, k)
            for var, sets in list(rebuilt.items()):
                if sets == sent.entries.get(var):
                    del rebuilt[var]
                    unsent.pop(var, None)
            unsent.update(rebuilt)
            assert unsent == {
                var: sets for var, sets in built.items()
                if sets != sent.entries.get(var)
            }
            send = should_advertise(sent.entries, rebuilt, policy)
            assert send == bf_should_advertise(sent.entries, built, policy)
            if send:
                assert integrate_advertisement(sent, unsent) == set(unsent)
                assert sent.entries == built
                unsent = {}
            changed = set()


def trained_node(node_id, neighbors=(), target_state=0, observations=60):
    """Node whose predicting variable 0 is near-deterministic on target_state
    given context 0."""
    counts = np.ones((2, 2))
    counts[target_state] += observations
    tables = {0: JointTable(0, (0,), counts)}
    return NodeState(node_id=node_id, tables=tables, neighbors=list(neighbors))


def blank_node(node_id, neighbors=()):
    return NodeState(node_id=node_id, tables={}, neighbors=list(neighbors))


class TestProcessQuery:
    def test_zero_budget_returns_at_issuer(self):
        node = trained_node(0)
        q = Query(0, {}, hops_remaining=0, issuer=0)
        assert process_query(node, q) is None
        assert q.visited == [0]
        assert q.answered_by == 0

    def test_local_improvement_only_when_strictly_better(self):
        node = trained_node(0)
        q = Query(0, {}, hops_remaining=0, issuer=0, quality=0.0)
        assert process_query(node, q) is None
        assert q.answered_by is None
        assert q.quality == 0.0

    def test_forwards_to_lowest_scoring_neighbor(self):
        node = blank_node(0, neighbors=[1, 2])
        node.routing_models[1] = RoutingModel({0: [make_set(0, 3.0)]})
        node.routing_models[2] = RoutingModel({0: [make_set(0, 1.0)]})
        q = Query(0, {}, hops_remaining=2, issuer=0)
        assert process_query(node, q) == 2

    def test_tie_breaks_to_lowest_node_id(self):
        node = blank_node(0, neighbors=[5, 3])
        for nb in (5, 3):
            node.routing_models[nb] = RoutingModel({0: [make_set(0, 1.0)]})
        assert process_query(node, Query(0, {}, 2, 0)) == 3

    def test_visited_neighbors_avoided(self):
        node = blank_node(1, neighbors=[0, 2])
        node.routing_models[0] = RoutingModel({0: [make_set(0, 0.1)]})
        node.routing_models[2] = RoutingModel({0: [make_set(0, 9.0)]})
        q = Query(0, {}, hops_remaining=3, issuer=0, visited=[0])
        assert process_query(node, q) == 2
        assert q.hops_remaining == 2  # the forward spends one hop

    def test_all_visited_falls_back_to_any_neighbor(self):
        node = blank_node(1, neighbors=[0])
        node.routing_models[0] = RoutingModel({0: [make_set(0, 0.1)]})
        q = Query(0, {}, hops_remaining=3, issuer=0, visited=[0, 1])
        assert process_query(node, q) == 0

    def test_hop_accounting_along_a_line(self):
        a = trained_node(0, neighbors=[1], target_state=0)
        b = trained_node(1, neighbors=[0, 2], target_state=1, observations=5)
        c = blank_node(2, neighbors=[1])
        for node, nbs in ((a, [1]), (b, [0, 2]), (c, [1])):
            for nb in nbs:
                node.routing_models[nb] = RoutingModel()
        b.routing_models[2].entries[0] = [make_set(0, 0.01)]
        b.routing_models[0].entries[0] = [make_set(0, 5.0)]
        q = Query(0, {}, hops_remaining=2, issuer=0)
        assert process_query(a, q) == 1
        assert process_query(b, q) == 2
        assert process_query(c, q) is None
        assert q.visited == [0, 1, 2]
        assert q.hops_remaining == 0

    def test_order_recomputed_after_models_change(self):
        node = blank_node(0, neighbors=[1, 2])
        node.routing_models[1] = RoutingModel(
            {0: [make_set(0, 1.0)], 1: [make_set(1, 1.0)]}
        )
        node.routing_models[2] = RoutingModel(
            {0: [make_set(0, 3.0)], 1: [make_set(1, 3.0)]}
        )
        assert process_query(node, Query(0, {}, 2, 0)) == 1
        assert process_query(node, Query(1, {}, 2, 0)) == 1
        kept = node.forwarding_order(1, frozenset())
        # an equal list changes nothing: no rebuild, no order dropped
        node.models_changed(
            integrate_advertisement(node.routing_models[2], {0: [make_set(0, 3.0)]})
        )
        assert not node.changed_vars
        changed = integrate_advertisement(
            node.routing_models[2], {0: [make_set(0, 0.5)], 1: [make_set(1, 3.0)]}
        )
        assert changed == {0}
        node.models_changed(changed)
        assert node.changed_vars == {0}
        assert process_query(node, Query(0, {}, 2, 0)) == 2
        # the order for the unchanged target survives, as the same object
        assert node.forwarding_order(1, frozenset()) is kept

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_next_hop(self, data):
        neighbors = data.draw(
            st.lists(st.integers(0, 30), min_size=1, max_size=12, unique=True)
        )
        node = blank_node(99, neighbors=neighbors)
        for nb in neighbors:
            entries = {var: data.draw(model_entries(var)) for var in (0, 1)}
            node.routing_models[nb] = RoutingModel(
                {var: sets for var, sets in entries.items() if sets}
            )
        # repeated queries on one node reuse its cached forwarding orders
        for _ in range(data.draw(st.integers(1, 6))):
            target = data.draw(st.sampled_from((0, 1)))
            bound = data.draw(st.frozensets(st.sampled_from((0, 1, 2))))
            if data.draw(st.booleans()):
                visited = list(neighbors)
            else:
                visited = data.draw(st.lists(st.sampled_from(neighbors), unique=True))
            query = Query(target, {c: 0 for c in bound}, 1, 99, visited=visited)
            assert process_query(node, query) == bf_next_hop(node, query)


class TestRandomWalk:
    def test_uniform_over_unvisited(self):
        node = blank_node(0, neighbors=[1, 2, 3])
        counts = {1: 0, 2: 0, 3: 0}
        rng = np.random.default_rng(0)
        for _ in range(600):
            q = Query(0, {}, 4, 0, visited=[])
            counts[random_walk_step(node, q, rng)] += 1
        for n in counts.values():
            assert 130 < n < 270

    def test_prefers_unvisited(self):
        node = blank_node(1, neighbors=[0, 2])
        rng = np.random.default_rng(1)
        for _ in range(20):
            q = Query(0, {}, 4, 0, visited=[0])
            assert random_walk_step(node, q, rng) == 2

    def test_budget_spent_returns(self):
        node = blank_node(1, neighbors=[0])
        q = Query(0, {}, hops_remaining=0, issuer=0, visited=[0])
        assert random_walk_step(node, q, np.random.default_rng(2)) is None
        assert q.visited == [0, 1]


class TestLocalSets:
    def test_one_set_per_trained_var(self):
        tables = {
            2: JointTable(2, (1,), np.ones((2, 2))),
            0: JointTable(0, (0,), np.ones((2, 2))),
        }
        sets = local_entropy_sets(tables)
        assert list(sets) == [0, 2]
        assert [s.predicting for s in sets.values()] == [0, 2]
        assert sets[0].combination == frozenset({0})

    def test_answer_entropy_untrained_is_none(self):
        assert answer_entropy(local_entropy_sets({}), 0, frozenset()) is None

    def test_answer_entropy_ignores_foreign_evidence(self):
        sets = local_entropy_sets(trained_node(0).tables)
        with_foreign = answer_entropy(sets, 0, frozenset({1}))
        without = answer_entropy(sets, 0, frozenset())
        assert with_foreign == pytest.approx(without)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_answer_entropy_matches_table_reference(self, data):
        """The local sets' answer is exactly the trained table's clamped
        chain-rule value, None included: for random count tables over 1 to 3
        of 16 contexts, all-zero counts, and a target with no entry."""
        schema = Schema((2, 3, 2), (2, 3) * 8)
        pseudocount = data.draw(st.floats(0.01, 1.0))
        workload = Workload(schema, node_count=1)
        for target in (0, 1):
            contexts = data.draw(
                st.lists(st.integers(0, 15), min_size=1, max_size=3, unique=True)
            )
            contexts = tuple(sorted(contexts))
            n_out = schema.predicting_cardinality(target)
            size = n_out * math.prod(schema.context_cardinality(c) for c in contexts)
            counts = data.draw(
                st.lists(st.integers(0, 9), min_size=size, max_size=size)
            )
            workload.entries.append(
                TrainedAssignment(0, target, contexts, np.reshape(counts, (n_out, -1)))
            )
        sets = local_entropy_sets(train_pgms(workload, pseudocount)[0])
        bound = data.draw(bounds())
        for target in (0, 1, 2):
            entry = workload.entries[target] if target < 2 else None
            want = bf_answer_entropy(entry, schema, pseudocount, bound)
            assert answer_entropy(sets, target, bound) == want


def advertise_until_stable(nodes, policy, k, max_rounds=60):
    """Drive the gossip loop by hand, with full builds and comparisons,
    until no node wants to send."""
    last_sent = {}
    for _ in range(max_rounds):
        sent = 0
        for node in nodes.values():
            adv = full_build(node.local_sets(), node.routing_models.values(), policy, k)
            if bf_should_advertise(last_sent.get(node.node_id, {}), adv, policy):
                last_sent[node.node_id] = adv
                sent += 1
                for nb in node.neighbors:
                    integrate_advertisement(nodes[nb].routing_models[node.node_id], adv)
        if sent == 0:
            return
    raise AssertionError("advertisement loop did not converge")


def build_network(n_nodes, edges, joints):
    """Nodes with synthetic local sets: node i advertises predicting variable 0
    at the given joint entropy (None for untrained)."""
    nodes = {}
    for i in range(n_nodes):
        node = blank_node(i)
        if joints[i] is not None:
            node._local_sets = {0: make_set(0, joints[i], {0: 0.1})}
        else:
            node._local_sets = {}
        nodes[i] = node
    for a, b in edges:
        nodes[a].neighbors.append(b)
        nodes[b].neighbors.append(a)
        nodes[a].routing_models[b] = RoutingModel()
        nodes[b].routing_models[a] = RoutingModel()
    return nodes


class TestPropagation:
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_tree_models_reflect_best_reachable_joint(self, data):
        n = data.draw(st.integers(2, 16))
        parents = [data.draw(st.integers(0, i - 1)) for i in range(1, n)]
        edges = [(i + 1, p) for i, p in enumerate(parents)]
        joints = [
            data.draw(
                st.one_of(st.none(), st.floats(0.5, 6.0, allow_nan=False))
            )
            for _ in range(n)
        ]
        eps = 0.01
        policy = AdvertisementPolicy(
            change_threshold=0.0, hop_inflation=eps, quality_threshold=100.0
        )
        nodes = build_network(n, edges, joints)
        advertise_until_stable(nodes, policy, k=2)

        # brute-force expectation: advertisements echo back to their source,
        # so the value held for neighbor b is min over all nodes u of
        # joint(u) + eps * dist(b, u), with b's own set arriving uninflated
        adj = {i: set() for i in range(n)}
        for a, b in edges:
            adj[a].add(b)
            adj[b].add(a)

        def best_through(root):
            frontier = [(root, 0)]
            seen = {root}
            best = math.inf if joints[root] is None else joints[root]
            while frontier:
                cur, d = frontier.pop(0)
                for nxt in adj[cur]:
                    if nxt in seen:
                        continue
                    seen.add(nxt)
                    if joints[nxt] is not None:
                        best = min(best, joints[nxt] + (d + 1) * eps)
                    frontier.append((nxt, d + 1))
            return best

        for i in range(n):
            for nb in nodes[i].neighbors:
                model = nodes[i].routing_models[nb]
                got = min(
                    (s.joint for s in model.entries.get(0, [])),
                    default=math.inf,
                )
                assert got == pytest.approx(best_through(nb), abs=1e-9)

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_loops_converge_with_inflation(self, data):
        n = data.draw(st.integers(3, 20))
        # random connected graph: spanning tree plus chords
        edges = {(i, data.draw(st.integers(0, i - 1))) for i in range(1, n)}
        extra = data.draw(st.integers(0, n))
        for _ in range(extra):
            a = data.draw(st.integers(0, n - 1))
            b = data.draw(st.integers(0, n - 1))
            if a != b:
                edges.add((max(a, b), min(a, b)))
        joints = [data.draw(st.floats(0.5, 6.0)) for _ in range(n)]
        policy = AdvertisementPolicy(
            change_threshold=0.0, hop_inflation=0.05, quality_threshold=100.0
        )
        nodes = build_network(n, list(edges), joints)
        advertise_until_stable(nodes, policy, k=2, max_rounds=200)
        # inflation guarantees no advertised value ever dips below the best
        # genuine local value, no matter how many times a loop re-offers it
        floor = min(joints)
        for node in nodes.values():
            for model in node.routing_models.values():
                for s in model.entries.get(0, []):
                    assert s.joint >= floor - 1e-9
