import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeknow.pgm import DiscretePgm, Schema
from edgeknow.routing import (
    Advertisement,
    AdvertisementPolicy,
    EntropySet,
    Forward,
    MalformedAdvertisement,
    NodeState,
    Query,
    Return,
    RoutingModel,
    WrongNeighbor,
    answer_entropy,
    build_advertisement,
    integrate_advertisement,
    local_entropy_sets,
    process_query,
    random_walk_step,
    should_advertise,
)


def make_set(var_idx, joint, ctx_entropies=None):
    return EntropySet(
        predicting=var_idx,
        joint=joint,
        context_entropies=dict(ctx_entropies or {}),
    )


def empty_pgm():
    return DiscretePgm(Schema((2, 2, 2), (2, 2)))


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
        assert s.reduced
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
        local = [make_set(0, 1.0, {0: 0.4}), make_set(1, 2.0, {1: 0.7})]
        adv = build_advertisement(empty_pgm(), [], ZERO_EPS, k=2, local_sets=local)
        assert set(adv.entries) == {0, 1}
        assert adv.entries[0][0].joint == pytest.approx(1.0)

    def test_line_aggregation_with_inflation(self):
        # neighbor advertises a better set; it is re-offered one hop inflated
        eps = 0.01
        policy = AdvertisementPolicy(hop_inflation=eps)
        neighbor_model = RoutingModel(neighbor=2, k=2)
        neighbor_model.entries[0] = [make_set(0, 0.5, {0: 0.2})]
        local = [make_set(0, 1.0, {0: 0.4})]
        adv = build_advertisement(
            empty_pgm(), [neighbor_model], policy, k=2, local_sets=local
        )
        sets = adv.entries[0]
        assert len(sets) == 1  # same combination, minimum wins
        assert sets[0].joint == pytest.approx(0.5 + eps)

    def test_distinct_combinations_coexist(self):
        local = [make_set(0, 1.0, {0: 0.4})]
        model = RoutingModel(neighbor=1, k=2)
        model.entries[0] = [make_set(0, 0.5, {1: 0.2})]
        adv = build_advertisement(empty_pgm(), [model], ZERO_EPS, k=2, local_sets=local)
        assert len(adv.entries[0]) == 2
        assert {s.combination for s in adv.entries[0]} == {
            frozenset({0}),
            frozenset({1}),
        }

    def test_k_truncation_keeps_lowest_joints(self):
        local = [
            EntropySet(0, 1.0 + i, {i: 0.1}) for i in range(5)
        ]
        adv = build_advertisement(empty_pgm(), [], NO_GATE, k=2, local_sets=local)
        assert [s.joint for s in adv.entries[0]] == [1.0, 2.0]

    def test_quality_gate_reduces_poor_local_sets(self):
        policy = AdvertisementPolicy(quality_threshold=0.5, hop_inflation=0.0)
        good = make_set(0, 1.0, {0: 0.8})   # evidence-free conditional 0.2
        poor = make_set(1, 2.0, {0: 0.8})   # evidence-free conditional 1.2
        adv = build_advertisement(
            empty_pgm(), [], policy, k=2, local_sets=[good, poor]
        )
        assert not adv.entries[0][0].reduced
        assert adv.entries[1][0].reduced
        assert adv.entries[1][0].joint == pytest.approx(2.0)

    def test_rejects_k_below_one(self):
        with pytest.raises(ValueError):
            build_advertisement(empty_pgm(), [], ZERO_EPS, k=0, local_sets=[])

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
        local = [
            EntropySet(v, j, {c: 0.05 for c in combo})
            for v, j, combo in raw
        ]
        adv = build_advertisement(empty_pgm(), [], NO_GATE, k=k, local_sets=local)
        for var in {v for v, _, _ in raw}:
            # brute force: min joint per distinct combination, k lowest kept
            best = {}
            for v, j, combo in raw:
                if v != var:
                    continue
                key = frozenset(c for c in combo)
                best[key] = min(best.get(key, math.inf), j)
            want = sorted(best.values())[:k]
            got = [s.joint for s in adv.entries[var]]
            assert got == pytest.approx(want)
            assert len({s.combination for s in adv.entries[var]}) == len(got)


class TestIntegrate:
    def test_replaces_and_retains(self):
        model = RoutingModel(neighbor=3, k=2)
        model.entries[0] = [make_set(0, 5.0)]
        model.entries[1] = [make_set(1, 4.0)]
        adv = Advertisement(origin=3, entries={0: [make_set(0, 1.0)]})
        integrate_advertisement(model, adv)
        assert model.entries[0][0].joint == pytest.approx(1.0)
        assert model.entries[1][0].joint == pytest.approx(4.0)

    def test_wrong_origin(self):
        model = RoutingModel(neighbor=3, k=2)
        with pytest.raises(WrongNeighbor):
            integrate_advertisement(model, Advertisement(origin=4))

    def test_duplicate_combination_rejected(self):
        model = RoutingModel(neighbor=3, k=4)
        adv = Advertisement(
            origin=3, entries={0: [make_set(0, 1.0), make_set(0, 2.0)]}
        )
        with pytest.raises(MalformedAdvertisement):
            integrate_advertisement(model, adv)

    @given(st.integers(1, 4), st.integers(0, 10))
    def test_oversized_entry_rejected(self, k, extra):
        sets = [
            EntropySet(0, float(i), {i: 0.1})
            for i in range(k + 1 + extra)
        ]
        model = RoutingModel(neighbor=0, k=k)
        with pytest.raises(MalformedAdvertisement):
            integrate_advertisement(model, Advertisement(0, {0: sets}))

    def test_score_cache_invalidated(self):
        model = RoutingModel(neighbor=0, k=2)
        model.entries[0] = [make_set(0, 5.0)]
        assert model.best_score(0, frozenset()) == pytest.approx(5.0)
        integrate_advertisement(
            model, Advertisement(0, {0: [make_set(0, 1.0)]})
        )
        assert model.best_score(0, frozenset()) == pytest.approx(1.0)


class TestShouldAdvertise:
    policy = AdvertisementPolicy(change_threshold=0.1)

    def first(self):
        return Advertisement(0, {0: [make_set(0, 1.0)]})

    def test_first_time(self):
        assert should_advertise(None, self.first(), self.policy)

    def test_new_key(self):
        other = Advertisement(0, {1: [make_set(1, 1.0)]})
        assert should_advertise(self.first(), other, self.policy)

    def test_small_change_suppressed(self):
        other = Advertisement(0, {0: [make_set(0, 1.05)]})
        assert not should_advertise(self.first(), other, self.policy)

    def test_large_change_sent(self):
        other = Advertisement(0, {0: [make_set(0, 1.5)]})
        assert should_advertise(self.first(), other, self.policy)


def trained_node(node_id, neighbors=(), target_state=0, observations=60):
    """Node whose predicting variable 0 is near-deterministic on target_state
    given context 0."""
    pgm = DiscretePgm(Schema((2, 2, 2), (2, 2)))
    for c in range(2):
        for _ in range(observations):
            pgm.observe(0, {0: c}, target_state)
    return NodeState(node_id=node_id, pgm=pgm, neighbors=list(neighbors))


def blank_node(node_id, neighbors=()):
    return NodeState(node_id=node_id, pgm=empty_pgm(), neighbors=list(neighbors))


class TestProcessQuery:
    def test_zero_budget_returns_at_issuer(self):
        node = trained_node(0)
        q = Query(0, {}, hops_remaining=0, issuer=0)
        out = process_query(node, q, first_hop=True)
        assert isinstance(out, Return)
        assert out.query.visited == [0]
        assert out.query.result is not None

    def test_local_improvement_only_when_strictly_better(self):
        node = trained_node(0)
        q = Query(0, {}, hops_remaining=0, issuer=0, quality=0.0)
        out = process_query(node, q, first_hop=True)
        assert out.query.result is None
        assert out.query.quality == 0.0

    def test_forwards_to_lowest_scoring_neighbor(self):
        node = blank_node(0, neighbors=[1, 2])
        node.routing_models[1] = RoutingModel(1, 2, {0: [make_set(0, 3.0)]})
        node.routing_models[2] = RoutingModel(2, 2, {0: [make_set(0, 1.0)]})
        q = Query(0, {}, hops_remaining=2, issuer=0)
        out = process_query(node, q, first_hop=True)
        assert isinstance(out, Forward)
        assert out.to == 2

    def test_tie_breaks_to_lowest_node_id(self):
        node = blank_node(0, neighbors=[5, 3])
        for nb in (5, 3):
            node.routing_models[nb] = RoutingModel(nb, 2, {0: [make_set(0, 1.0)]})
        out = process_query(node, Query(0, {}, 2, 0), first_hop=True)
        assert out.to == 3

    def test_visited_neighbors_avoided(self):
        node = blank_node(1, neighbors=[0, 2])
        node.routing_models[0] = RoutingModel(0, 2, {0: [make_set(0, 0.1)]})
        node.routing_models[2] = RoutingModel(2, 2, {0: [make_set(0, 9.0)]})
        q = Query(0, {}, hops_remaining=3, issuer=0, visited=[0])
        out = process_query(node, q)
        assert out.to == 2

    def test_all_visited_falls_back_to_any_neighbor(self):
        node = blank_node(1, neighbors=[0])
        node.routing_models[0] = RoutingModel(0, 2, {0: [make_set(0, 0.1)]})
        q = Query(0, {}, hops_remaining=3, issuer=0, visited=[0, 1])
        out = process_query(node, q)
        assert isinstance(out, Forward) and out.to == 0

    def test_hop_accounting_along_a_line(self):
        a = trained_node(0, neighbors=[1], target_state=0)
        b = trained_node(1, neighbors=[0, 2], target_state=1, observations=5)
        c = blank_node(2, neighbors=[1])
        for node, nbs in ((a, [1]), (b, [0, 2]), (c, [1])):
            for nb in nbs:
                node.routing_models[nb] = RoutingModel(nb, 2)
        b.routing_models[2].entries[0] = [make_set(0, 0.01)]
        b.routing_models[0].entries[0] = [make_set(0, 5.0)]
        q = Query(0, {}, hops_remaining=2, issuer=0)
        out = process_query(a, q, first_hop=True)
        assert isinstance(out, Forward) and out.to == 1
        out = process_query(b, out.query)
        assert isinstance(out, Forward) and out.to == 2
        out = process_query(c, out.query)
        assert isinstance(out, Return)
        assert out.query.visited == [0, 1, 2]
        assert out.query.hops_remaining == 0


class TestRandomWalk:
    def test_uniform_over_unvisited(self):
        node = blank_node(0, neighbors=[1, 2, 3])
        counts = {1: 0, 2: 0, 3: 0}
        rng = np.random.default_rng(0)
        for _ in range(600):
            q = Query(0, {}, 4, 0, visited=[])
            out = random_walk_step(node, q, rng, first_hop=True)
            counts[out.to] += 1
        for n in counts.values():
            assert 130 < n < 270

    def test_prefers_unvisited(self):
        node = blank_node(1, neighbors=[0, 2])
        rng = np.random.default_rng(1)
        for _ in range(20):
            q = Query(0, {}, 4, 0, visited=[0])
            assert random_walk_step(node, q, rng).to == 2

    def test_budget_spent_returns(self):
        node = blank_node(1, neighbors=[0])
        q = Query(0, {}, hops_remaining=1, issuer=0, visited=[0])
        out = random_walk_step(node, q, np.random.default_rng(2))
        assert isinstance(out, Return)


class TestLocalSets:
    def test_one_set_per_trained_var(self):
        pgm = DiscretePgm(Schema((2, 2, 2), (2, 2)))
        pgm.observe(0, {0: 0}, 0)
        pgm.observe(2, {1: 1}, 1)
        sets = local_entropy_sets(pgm)
        assert [s.predicting for s in sets] == [0, 2]
        assert sets[0].combination == frozenset({0})

    def test_answer_entropy_untrained_is_none(self):
        assert answer_entropy(empty_pgm(), 0, frozenset()) is None

    def test_answer_entropy_ignores_foreign_evidence(self):
        node = trained_node(0)
        with_foreign = answer_entropy(node.pgm, 0, frozenset({1}))
        without = answer_entropy(node.pgm, 0, frozenset())
        assert with_foreign == pytest.approx(without)


def advertise_until_stable(nodes, policy, k, max_rounds=60):
    """Drive the gossip loop by hand until no node wants to send."""
    for _ in range(max_rounds):
        sent = 0
        for node in nodes.values():
            adv = build_advertisement(
                node.pgm,
                node.routing_models.values(),
                policy,
                k,
                local_sets=node.local_sets(),
            )
            adv.origin = node.node_id
            if should_advertise(node.last_advertisement, adv, policy):
                node.last_advertisement = adv
                sent += 1
                for nb in node.neighbors:
                    integrate_advertisement(nodes[nb].routing_models[node.node_id], adv)
        if sent == 0:
            return
    raise AssertionError("advertisement loop did not converge")


def build_network(n_nodes, edges, joints, k=2, rng=None):
    """Nodes with synthetic local sets: node i advertises predicting variable 0
    at the given joint entropy (None for untrained)."""
    nodes = {}
    for i in range(n_nodes):
        node = blank_node(i)
        if joints[i] is not None:
            node._local_sets = [make_set(0, joints[i], {0: 0.1})]
        else:
            node._local_sets = []
        nodes[i] = node
    for a, b in edges:
        nodes[a].neighbors.append(b)
        nodes[b].neighbors.append(a)
        nodes[a].routing_models[b] = RoutingModel(b, k)
        nodes[b].routing_models[a] = RoutingModel(a, k)
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
