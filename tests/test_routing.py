import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeknow.engine import (
    SimConfig,
    Strategy,
    TrainedAssignment,
    Workload,
    route_query,
    run_cycle,
    take_over,
)
from edgeknow.routing import (
    AdvertisementPolicy,
    answer_entropy,
    build_advertisement,
    integrate_advertisement,
    process_query,
    should_advertise,
)

from conftest import (
    ROW_WIDTH,
    bf_answer_entropy,
    bf_best_score,
    bf_build_advertisement,
    bf_gate_score,
    bf_next_hop,
    bf_score,
    bf_should_advertise,
    library_answer,
    model_of,
    published_rows,
    row,
    set_up,
    summarise,
    trained_rows,
    view,
    views,
    well_formed,
)

# the variables tests publish and build; a network's extra rows lie beyond
VARIABLES = 4


class Net:
    """A routing model over nodes with the given local sets and ascending
    neighbor lists (none by default), whose entropy table also holds the
    rows `extra`, as node 0's local sets of variables past `VARIABLES`.
    Lists are rows `(joint, contexts, entropies)` of the table, and are
    published by sending them through `integrate_advertisement`."""

    def __init__(self, local_sets, neighbors=None, k=2, extra=(), width=ROW_WIDTH):
        self.local_sets = [dict(sets) for sets in local_sets]
        self.local_sets[0].update({VARIABLES + i: s for i, s in enumerate(extra)})
        if neighbors is None:
            neighbors = [[] for _ in local_sets]
        self.model = model_of(
            self.local_sets, neighbors, VARIABLES + len(extra), k, width
        )
        self.row_of = {0: ((), (0.0,) * width)}
        for node, sets in enumerate(self.local_sets):
            for var, (_, contexts, entropies) in sets.items():
                self.row_of[int(self.model.local_origins[var, node])] = (
                    contexts, entropies
                )
        self.origin = {r: origin for origin, r in self.row_of.items()}

    def arrays(self, sets):
        """A list of rows as a (1 x K) array of joints and one of origins."""
        k = self.model.joints.shape[2]
        joints = np.full((1, k), math.inf)
        origins = np.zeros((1, k), dtype=np.int32)
        for slot, (joint, contexts, entropies) in enumerate(sets):
            joints[0, slot] = joint
            origins[0, slot] = self.origin[contexts, entropies]
        return joints, origins

    def rows(self, joints, origins):
        """The rows of one node's arrays."""
        return [
            (float(joint), *self.row_of[int(origin)])
            for joint, origin in zip(joints, origins)
            if joint < math.inf
        ]

    def stage(self, node, var, sets):
        """Stage a list of rows as `node`'s unsent list of `var`."""
        joints, origins = self.arrays(sets)
        self.model.unsent_joints[var, node] = joints[0]
        self.model.unsent_origins[var, node] = origins[0]

    def publish(self, node, lists):
        """Send `lists`, per variable a list of rows, as `node`'s."""
        for var, sets in lists.items():
            self.stage(node, var, sets)
            integrate_advertisement(self.model, var, np.array([node]))

    def lists(self, node):
        """`node`'s published lists."""
        return published_rows(self.model, self.local_sets)[node]

    def build(self, node, variables, policy):
        """The lists `node` would advertise for `variables`."""
        built = {}
        for var in sorted(variables):
            joints, origins = build_advertisement(
                self.model, var, np.array([node]), policy
            )
            built[var] = self.rows(joints[0], origins[0])
        return built


def full_build(local, neighbor_lists, policy, k):
    """An advertisement built from nothing by a node with local sets
    `local`, for every variable that they or the neighbors' lists hold.
    A neighbor's lists longer than K are published by consecutive
    neighbors, K sets each, so the offers keep their order."""
    chunks = []
    for lists in neighbor_lists:
        longest = max(map(len, lists.values()), default=0)
        for start in range(0, max(longest, 1), k):
            chunks.append(
                {var: sets[start : start + k] for var, sets in lists.items()}
            )
    extra = [s for lists in chunks for sets in lists.values() for s in sets]
    m = len(chunks)
    net = Net(
        [local] + [{}] * m, [list(range(1, m + 1))] + [[0]] * m, k, extra
    )
    for nb, lists in enumerate(chunks, 1):
        net.publish(nb, lists)
    return net.build(0, set(local).union(*neighbor_lists), policy)


def published_net(published, node_count=None, k=2, neighbors=None):
    """A network of nodes, unlinked unless `neighbors` lists each node's,
    that published `published` (per node, per variable, a list of rows);
    `node_count` defaults to one past the highest node."""
    if node_count is None:
        node_count = len(neighbors) if neighbors else max(published) + 1
    extra = [s for lists in published.values() for sets in lists.values() for s in sets]
    net = Net([{}] * node_count, neighbors, k=k, extra=extra)
    for node, lists in published.items():
        net.publish(node, lists)
    return net


ZERO_EPS = AdvertisementPolicy(hop_inflation=0.0)
# quality gate disabled: aggregation tests want combinations kept verbatim
NO_GATE = AdvertisementPolicy(hop_inflation=0.0, quality_threshold=100.0)


def scores(s, bound):
    """A set's score for evidence on `bound` through both library read
    paths, a node's own answer and a routing model's best score, which
    must agree."""
    answer = library_answer(s, bound)
    assert published_net({0: {0: [s]}}).model.best_score(0, bound)[0] == answer
    return answer


class TestEntropySetScore:
    def test_both_contexts_bound(self):
        s = row(0.8, {1: 0.2, 2: 0.3})
        assert scores(s, frozenset({1, 2})) == pytest.approx(0.3)

    def test_one_context_bound(self):
        s = row(0.8, {1: 0.2, 2: 0.3})
        assert scores(s, frozenset({1})) == pytest.approx(0.6)

    def test_unknown_bound_vars_ignored(self):
        s = row(0.8, {1: 0.2})
        assert scores(s, frozenset({5, 6})) == 0.8

    def test_reduced_set_scores_joint(self):
        s = row(0.8)
        assert view(s) == (0.8, {})
        assert scores(s, frozenset({1, 2})) == 0.8

    def test_clamped_at_zero(self):
        s = row(0.4, {1: 0.3, 2: 0.3})
        assert scores(s, frozenset({1, 2})) == 0.0

    def test_inflation_accumulates(self):
        # re-advertised over two hops: the joint is inflated twice, and the
        # copies keep the source's contexts and entropies
        policy = AdvertisementPolicy(hop_inflation=0.01)
        source = s = row(1.0, {1: 0.5})
        for _ in range(2):
            (s,) = full_build({}, [{0: [s]}], policy, k=1)[0]
        assert s[0] == pytest.approx(1.02)
        assert s[1:] == source[1:]


class TestBuildAdvertisement:
    def test_local_only(self):
        local = {0: row(1.0, {0: 0.4}), 1: row(2.0, {1: 0.7})}
        adv = full_build(local, [], ZERO_EPS, k=2)
        assert set(adv) == {0, 1}
        assert adv[0][0][0] == pytest.approx(1.0)

    def test_line_aggregation_with_inflation(self):
        # neighbor advertises a better set; it is re-offered one hop inflated
        eps = 0.01
        policy = AdvertisementPolicy(hop_inflation=eps)
        neighbor = {0: [row(0.5, {0: 0.2})]}
        local = {0: row(1.0, {0: 0.4})}
        sets = full_build(local, [neighbor], policy, k=2)[0]
        assert len(sets) == 1  # same combination, minimum wins
        assert sets[0][0] == pytest.approx(0.5 + eps)

    def test_distinct_combinations_coexist(self):
        local = {0: row(1.0, {0: 0.4})}
        neighbor = {0: [row(0.5, {1: 0.2})]}
        adv = full_build(local, [neighbor], ZERO_EPS, k=2)
        assert len(adv[0]) == 2
        assert {s[1] for s in adv[0]} == {(0,), (1,)}

    def test_k_truncation_keeps_lowest_joints(self):
        # one local and four neighbor-learned sets over distinct combinations
        local = {0: row(3.0, {0: 0.1})}
        joints = (1.0, 2.0, 4.0, 5.0)
        learned = [row(j, {i: 0.1}) for i, j in enumerate(joints, 1)]
        adv = full_build(local, [{0: learned}], NO_GATE, k=2)
        assert [s[0] for s in adv[0]] == [1.0, 2.0]

    def test_quality_gate_reduces_poor_sets(self):
        policy = AdvertisementPolicy(quality_threshold=0.5, hop_inflation=0.0)
        good = row(1.0, {0: 0.8})   # evidence-free conditional 0.2
        poor = row(2.0, {0: 0.8})   # evidence-free conditional 1.2
        adv = full_build({0: good, 1: poor}, [], policy, k=2)
        assert view(adv[0][0]) == (1.0, {0: 0.8})
        assert view(adv[1][0]) == (2.0, {})

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
        local, neighbor = {}, {}
        for v, j, combo in raw:
            s = row(j, {c: 0.05 for c in combo})
            if v in local:
                neighbor.setdefault(v, []).append(s)
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
            got = [s[0] for s in adv[var]]
            assert got == pytest.approx(want)
            assert len({s[1] for s in adv[var]}) == len(got)


class TestIntegrate:
    def test_replaces_and_retains(self):
        net = Net([{}, {}], [[1], [0]])
        net.publish(0, {0: [row(5.0)], 1: [row(4.0)]})
        net.model.changed[:] = False
        net.publish(0, {0: [row(1.0)]})
        assert net.lists(0) == {0: [row(1.0)], 1: [row(4.0)]}
        # the neighbor must rebuild the variable sent, and only that one
        assert np.flatnonzero(net.model.changed[:, 1]).tolist() == [0]
        assert not net.model.pending(np.arange(2)).any()

    def test_best_score_reads_integrated_list(self):
        net = published_net({0: {0: [row(5.0)]}, 1: {0: [row(2.0)]}})
        model = net.model
        assert list(model.best_score(0, frozenset())) == [5.0, 2.0]
        kept = model.ranks(0, frozenset())
        # node 1 ranks first; the pad node 2 ranks 2n
        assert list(kept) == [1, 0, 4]
        # the ranks are kept until a list of their target is integrated
        net.publish(1, {1: [row(3.0)]})
        assert model.ranks(0, frozenset()) is kept
        net.publish(0, {0: [row(1.0)]})
        assert list(model.best_score(0, frozenset())) == [1.0, 2.0]
        assert list(model.ranks(0, frozenset())) == [0, 1, 4]

    def test_answers_survive_integrations(self):
        # local sets are fixed at set-up, so a key's answers are kept for
        # the model's life
        net = Net([{0: row(2.0, {1: 0.5})}, {}], [[1], [0]])
        answers = net.model.answers(0, frozenset({1}))
        # and inf for the pad node
        assert list(answers) == [1.5, math.inf, math.inf]
        net.publish(0, {0: [row(1.0)]})
        net.publish(1, {0: [row(0.5)]})
        assert net.model.answers(0, frozenset({1})) is answers
        assert list(answers) == [1.5, math.inf, math.inf]


def symmetric(lists):
    """Per node, ascending, the nodes its list names and those whose lists
    name it: the overlay that links each listed pair."""
    linked = [set(nbs) for nbs in lists]
    for node, nbs in enumerate(lists):
        for nb in nbs:
            linked[nb].add(node)
    return [sorted(nbs) for nbs in linked]


class TestNeighborsOf:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_concatenated_lists(self, data):
        """The neighbors of any sequence of nodes, repeats and any order
        included, are their ascending neighbor lists concatenated, with each
        node's count: over random lists plus an isolated node and a node at
        the maximum degree, linked to every node but the isolated one."""
        node_count = data.draw(st.integers(0, 12))
        # node n is isolated; node n + 1 is linked to every node before n
        links = symmetric([
            data.draw(st.lists(
                st.integers(0, node_count - 1).filter(lambda n, i=i: n != i),
                unique=True,
            )) + [node_count + 1]
            for i in range(node_count)
        ] + [[], []])
        model = model_of([{}] * len(links), links, 1, 1, ROW_WIDTH)
        assert model.overlay.degree.max() == node_count
        nodes = data.draw(st.lists(st.integers(0, len(links) - 1)))
        got, counts = model.neighbors_of(np.array(nodes, dtype=np.intp))
        assert got.tolist() == [nb for node in nodes for nb in links[node]]
        assert counts.tolist() == [len(links[node]) for node in nodes]


def evidence(keys):
    """An evidence variable set built from `keys` in their order, as set-up
    builds a query's from its ascending combination tuple."""
    return frozenset(keys)


def bounds():
    """Evidence sets over context ids 0-15 whose dict was filled in sorted
    or in reverse sorted order. Small frozensets iterate in hash-slot order,
    ids 8-15 sharing slots with 0-7, and colliding ids (0 and 8, say) take
    the slot in insertion order, so many examples iterate unsorted."""
    keys = st.lists(st.integers(0, 15), max_size=6, unique=True)
    return st.tuples(keys, st.booleans()).map(
        lambda t: evidence(sorted(t[0], reverse=t[1]))
    )


def bits(lo, hi, decimals):
    """Floats in [lo, hi], often one of `decimals`."""
    return st.one_of(st.sampled_from(decimals), st.floats(lo, hi))


def scored_rows(keys):
    """Rows over up to 4 of the 16 contexts, drawn mostly from `keys`, with
    joints low enough for scores to go negative and short decimals often:
    their differences round differently in different subtraction orders."""
    ids = st.integers(0, 15)
    if keys:
        ids = st.one_of(st.sampled_from(keys), st.sampled_from(keys), ids)
    entropies = st.lists(
        st.tuples(ids, bits(0.0, 1.5, (0.1, 0.2, 0.3, 0.7, 1.1))), max_size=4
    ).map(dict)
    return st.builds(row, bits(0.0, 3.0, (0.9, 1.0, 2.0, 3.0)), entropies)


class TestBestScore:
    def test_subtracts_in_evidence_order(self):
        # {1, 8} iterates 8 first, and (1.0 - 0.2) - 0.1 != (1.0 - 0.1) - 0.2
        bound = evidence([1, 8])
        assert list(bound) == [8, 1]
        model = published_net({0: {0: [row(1.0, {1: 0.1, 8: 0.2})]}}).model
        assert model.best_score(0, bound)[0] == (1.0 - 0.2) - 0.1 != 0.7

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
        sets = st.lists(scored_rows(keys), max_size=12)
        lists = data.draw(st.dictionaries(st.integers(0, 2), sets))
        model = published_net({0: lists}, k=12).model
        for target in range(VARIABLES):
            want = bf_best_score(views(lists), target, bound)
            assert model.best_score(target, bound)[0] == want
        # one set at a time, so that no lower score hides a wrong one; a
        # node's answer and the quality gate score a set as a model does
        for s in itertools.chain.from_iterable(lists.values()):
            assert scores(s, bound) == bf_score(view(s), bound)
            assert_gate_score(s, bf_gate_score(view(s)))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_every_node_matches_reference_after_integrations(self, data):
        """Rounds of random integrations into a model of up to 12 nodes,
        each followed by scores for every node and key, which must be
        exactly the reference over that node's lists: for a target no node
        published, empty lists, lists of 0 to 5 rows (so most are shorter
        than the longest), reduced rows, and evidence over contexts 0-15
        filled in either order. Equal evidence sets share one vector, so
        each set is scored in the order it was first drawn in."""
        keys = data.draw(st.lists(st.integers(0, 15), max_size=6, unique=True))
        rows = data.draw(st.lists(scored_rows(keys), min_size=1, max_size=8))
        node_count = data.draw(st.integers(1, 12))
        net = Net([{}] * node_count, k=5, extra=rows)
        model = net.model
        picks = st.tuples(
            bits(0.0, 3.0, (0.9, 1.0, 2.0, 3.0)), st.sampled_from(rows + [row(0.0)])
        )
        orders = {}
        for _ in range(data.draw(st.integers(1, 4))):
            for _ in range(data.draw(st.integers(0, 4))):
                node = data.draw(st.integers(0, node_count - 1))
                var = data.draw(st.integers(0, 2))
                sets = data.draw(st.lists(picks, max_size=5))
                net.publish(node, {var: [(joint, *s[1:]) for joint, s in sets]})
            published = [views(net.lists(node)) for node in range(node_count)]
            for _ in range(2):
                subset = data.draw(
                    st.just(keys) | st.lists(st.sampled_from(keys or [0]), unique=True)
                )
                bound = evidence(sorted(subset, reverse=data.draw(st.booleans())))
                bound = orders.setdefault(bound, bound)
                for target in range(VARIABLES):
                    scores = model.best_score(target, bound)
                    for node, lists in enumerate(published):
                        assert scores[node] == bf_best_score(lists, target, bound)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_every_node_matches_reference_after_propagation(self, data):
        """After each cycle of a trial over 16 contexts, and after random
        integrations, every node's score in a key's vector is exactly the
        reference over that node's published lists: for a target no node
        published, empty lists, lists shorter than the longest, reduced sets
        (sparse tables fail the quality gate) and evidence on contexts 8-15,
        which often iterates unsorted. Evidence is filled in ascending order,
        as queries fill it: equal evidence sets share one vector."""
        config = SimConfig(
            node_count=data.draw(st.integers(4, 12)),
            predicting_var_count=3,
            context_var_count=ROW_WIDTH,
            contexts_per_table=data.draw(st.integers(1, 4)),
            combinations_pool=data.draw(st.integers(1, 20)),
            vars_trained_per_node=data.draw(st.integers(1, 2)),
            observations_per_var=data.draw(st.integers(10, 200)),
            k_sets=data.draw(st.integers(1, 6)),
            seed=data.draw(st.integers(0, 2**16)),
        )
        trial, _, local_sets = set_up(config)
        model = trial.model
        # a trained combination, as queries bind, with or without other ids
        combos = [c for cs in trial.trained_combos.values() for c in cs]
        keys = st.tuples(
            st.sampled_from(combos), st.lists(st.integers(0, 15), max_size=3)
        ).map(lambda t: set(t[0]).union(t[1]))

        def check():
            published = [views(lists) for lists in published_rows(model, local_sets)]
            for _ in range(3):
                bound = evidence(sorted(data.draw(keys)))
                for target in range(config.predicting_var_count):
                    scores = model.best_score(target, bound)
                    assert len(scores) == config.node_count
                    for node, lists in enumerate(published):
                        assert scores[node] == bf_best_score(lists, target, bound)

        for cycle in range(1, data.draw(st.integers(1, 3)) + 1):
            run_cycle(trial, cycle)
            check()
        # lists of local sets at other joints, reduced ones (None) among them
        local = [(node, var) for node, sets in enumerate(local_sets) for var in sets]
        picks = st.tuples(st.floats(0.0, 8.0), st.sampled_from(local + [None]))
        for _ in range(data.draw(st.integers(1, 6))):
            node = data.draw(st.integers(0, config.node_count - 1))
            var = data.draw(st.integers(0, config.predicting_var_count - 1))
            sets = data.draw(st.lists(picks, max_size=config.k_sets))
            model.unsent_joints[var, node] = math.inf
            model.unsent_origins[var, node] = 0
            for slot, (joint, source) in enumerate(sets):
                model.unsent_joints[var, node, slot] = joint
                if source is not None:
                    model.unsent_origins[var, node, slot] = model.local_origins[
                        source[1], source[0]
                    ]
            integrate_advertisement(model, var, np.array([node]))
        check()


def gate_keeps(s, threshold) -> bool:
    """Whether the quality gate advertises local set `s` whole at
    `threshold`, that is whether its evidence-free score is at most that."""
    policy = AdvertisementPolicy(quality_threshold=threshold)
    net = Net([{0: s}], k=1, width=len(s[2]))
    return net.build(0, [0], policy)[0] == [s]


def assert_gate_score(s, want):
    """The library's gate score of `s` is exactly `want`: the gate keeps the
    set at `want` and, unless its reduced form is the set itself, reduces
    it at the next float below."""
    assert gate_keeps(s, want)
    if s[1]:
        assert not gate_keeps(s, math.nextafter(want, -math.inf))


class TestShouldAdvertise:
    policy = AdvertisementPolicy(change_threshold=0.1)

    def first(self):
        return {0: [row(1.0)]}

    def senders(self, previous, current):
        """The nodes `should_advertise` sends for, over each variable of
        `current` in turn, staged as node 0's unsent list, when node 0
        published `previous`."""
        net = published_net({0: previous})
        sent = []
        for var, sets in current.items():
            net.stage(0, var, sets)
            sent.append(should_advertise(net.model, var, np.array([0]), self.policy))
        return sent

    def test_first_time(self):
        assert self.senders({}, self.first()) == [[0]]

    def test_new_key(self):
        other = {1: [row(1.0)]}
        assert self.senders(self.first(), other) == [[0]]

    def test_small_change_suppressed(self):
        other = {0: [row(1.05)]}
        assert self.senders(self.first(), other) == [[]]

    def test_large_change_sent(self):
        other = {0: [row(1.5)]}
        assert self.senders(self.first(), other) == [[0]]

    def test_list_equal_to_published_not_sent(self):
        # a reduced row and an inf pad in the K=2 slots, staged as published
        assert self.senders(self.first(), self.first()) == [[]]
        # and the first time, an empty list staged as none published
        assert self.senders({}, {0: []}) == [[]]


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
            row(joint, {c: h for c in combo})
            for combo, joint, h in sorted(sets, key=lambda t: t[1])
        ]
    )


# every row `model_entries` draws, as its (contexts, entropies) goes
ENTRY_ROWS = [
    row(1.0, {c: h for c in combo})
    for combo in ((), (0,), (1,), (0, 1))
    for h in (0.5, 1.0)
]


class TestIncrementalBuild:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_full_rebuild(self, data):
        """Random sends by one node's neighbors, each round followed by an
        incremental build of the variables the node must rebuild, every
        rebuilt list staged as the engine stages it, equal ones included:
        merged into the earlier lists, they equal the from-scratch
        reference, winner order included, and are well formed; a send makes
        its receivers rebuild exactly the variables sent; the pending lists
        are those built that differ from those sent, the send decision over
        the staged lists agrees with the full comparison, and a send of the
        pending lists makes the node's published lists the full
        advertisement."""
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
        # node 0 builds; its published lists are what it sent
        links = [sorted(neighbors)]
        links += [[0] if n in neighbors else [] for n in range(1, 10)]
        net = Net([local] + [{}] * 9, links, k, ENTRY_ROWS)
        model = net.model
        local_views = {var: view(s) for var, s in local.items()}
        sent, built = {}, {}
        node = np.array([0])
        # the first build covers the trained variables
        assert set(np.flatnonzero(model.changed[:VARIABLES, 0])) == set(local)
        for _ in range(data.draw(st.integers(1, 8), label="rounds")):
            for _ in range(data.draw(st.integers(0, 3))):
                sender = data.draw(st.sampled_from(neighbors))
                held = net.lists(sender)
                adv = {}
                for var in data.draw(st.sets(st.integers(0, 3))):
                    if var in held and data.draw(st.booleans()):
                        adv[var] = held[var]  # re-sent by value
                    else:
                        adv[var] = data.draw(model_entries(var, k, 1))
                before = set(np.flatnonzero(model.changed[:VARIABLES, 0]))
                net.publish(sender, adv)
                after = set(np.flatnonzero(model.changed[:VARIABLES, 0]))
                assert after == before | set(adv)
            changed = np.flatnonzero(model.changed[:VARIABLES, 0]).tolist()
            model.changed[:, 0] = False
            rebuilt = net.build(0, changed, policy)
            for var, sets in rebuilt.items():
                net.stage(0, var, sets)
            built.update(rebuilt)
            assert views(built) == bf_build_advertisement(
                local_views,
                [views(net.lists(nb)) for nb in sorted(neighbors)],
                policy,
                k,
            )
            assert well_formed(views(built), k)
            unsent = {
                var: sets for var, sets in built.items() if sets != sent.get(var)
            }
            pending = np.flatnonzero(model.pending(node)[:, 0])
            assert set(pending) == set(unsent)
            send = any(
                should_advertise(model, var, node, policy) for var in rebuilt
            )
            assert send == bf_should_advertise(views(sent), views(built), policy)
            if send:
                for var in pending:
                    integrate_advertisement(model, var, node)
                sent.update(unsent)
                assert net.lists(0) == sent == built
                assert not model.pending(node).any()


def trained_set(target_state=0, observations=60):
    """A local set of predicting variable 0 that is near-deterministic on
    target_state given context 0."""
    counts = np.zeros((2, 2), dtype=np.int64)
    counts[target_state] = observations
    entry = TrainedAssignment(0, 0, (0,), counts)
    return summarise([entry], ROW_WIDTH, 2, 1.0)[0]


# the keys of queries for variable 0 with no evidence, as `draw_queries`
# returns them, and the index of one such query
UNBOUND, ONE = [(0, frozenset())], np.zeros(1, dtype=np.intp)


def keyed(asked):
    """The distinct keys of the (target, evidence) pairs `asked`, first seen
    first, and each pair's index among them, as `draw_queries` returns
    them."""
    keys: dict = {}
    index = [keys.setdefault(key, len(keys)) for key in asked]
    return list(keys), np.array(index, dtype=np.intp)


def step(model, nodes, keys, index, visited=None):
    """The next nodes of the queries with keys `keys[index[i]]` from one
    `process_query` call: query i at `nodes[i]`, having been at the nodes
    `visited[i]` (none by default), keyed by the forwarding ranks of
    `keys`, as `route_query` keys `abs` queries."""
    ranks = np.stack([model.ranks(target, bound) for target, bound in keys])
    mask = np.zeros((len(index), len(model.overlay.degree) + 1), dtype=bool)
    for row, nodes_visited in zip(mask, visited or [()] * len(index)):
        row[list(nodes_visited)] = True
    rows = model.overlay.rows[nodes]
    return process_query(rows, mask, ranks[index[:, None], rows]).tolist()


def walk(model, keys, index, hops, strategy=Strategy.ABS, rng=None):
    """The paths of the queries with keys `keys[index[i]]`, query i node
    i's, that `route_query` gives over `hops` with the walk stream `rng`,
    from a trial that holds just `model`."""
    config = SimpleNamespace(
        node_count=len(model.overlay.degree), resolved_hops=lambda: hops
    )
    trial = SimpleNamespace(
        config=config, overlay=model.overlay, model=model, walk_rng=rng
    )
    return route_query(trial, keys, index, strategy)


def reference_hop(net, node, key, visited):
    """`bf_next_hop` at `node` of a query with `key`, over the lists its
    neighbors published."""
    neighbors = net.model.overlay.neighbors(node).tolist()
    published = {nb: views(net.lists(nb)) for nb in neighbors}
    return bf_next_hop(neighbors, published, *key, visited)


class TestProcessQuery:
    def test_zero_budget_returns_at_issuer(self):
        model = Net([{0: trained_set()}]).model
        paths = walk(model, UNBOUND, ONE, 0)
        assert paths.tolist() == [[0]]
        step_, quality = take_over(model, UNBOUND, ONE, paths)
        assert step_.tolist() == [0]
        assert quality[0] == model.answers(0, frozenset())[0] < math.inf

    def test_node_without_neighbors_moves_to_the_pad(self):
        # an issuer without neighbors answers alone: its path is padded with
        # node n, which answers nothing
        model = Net([{0: trained_set()}, {}], [[], []]).model
        paths = walk(model, UNBOUND, ONE, 3)
        assert paths.tolist() == [[0, 2, 2, 2]]
        assert take_over(model, UNBOUND, ONE, paths)[0].tolist() == [0]

    def test_local_improvement_only_when_strictly_better(self):
        # nodes 0 and 2 answer alike, node 1 better
        net = Net([{0: trained_set(1, 5)}, {0: trained_set(0)}, {0: trained_set(1, 5)}])
        model = net.model
        answers = model.answers(0, frozenset())
        assert answers[0] == answers[2] > answers[1]
        paths = np.array([[2, 0, 2], [0, 2, 1], [0, 3, 3]])
        step_, quality = take_over(model, UNBOUND, ONE.repeat(3), paths)
        assert step_.tolist() == [0, 2, 0]
        assert quality.tolist() == [answers[2], answers[1], answers[0]]

    def test_unanswered_path_takes_inf(self):
        model = Net([{}, {}, {0: trained_set()}], [[1], [0], []]).model
        step_, quality = take_over(model, UNBOUND, ONE, np.array([[0, 1, 0]]))
        assert step_.tolist() == [0] and quality.tolist() == [math.inf]

    def test_forwards_to_lowest_scoring_neighbor(self):
        net = published_net(
            {1: {0: [row(3.0)]}, 2: {0: [row(1.0)]}}, neighbors=[[1, 2], [0], [0]]
        )
        assert step(net.model, [0], UNBOUND, ONE) == [2]

    def test_tie_breaks_to_lowest_node_id(self):
        links = [[3, 5], [], [], [0], [], [0]]
        net = published_net({nb: {0: [row(1.0)]} for nb in (5, 3)}, neighbors=links)
        assert step(net.model, [0], UNBOUND, ONE) == [3]

    def test_visited_neighbors_avoided(self):
        net = published_net(
            {0: {0: [row(0.1)]}, 2: {0: [row(9.0)]}}, neighbors=[[1], [0, 2], [1]]
        )
        assert step(net.model, [1], UNBOUND, ONE, [[0]]) == [2]
        assert step(net.model, [1], UNBOUND, ONE) == [0]

    def test_all_visited_falls_back_to_any_neighbor(self):
        net = published_net(
            {0: {0: [row(0.1)]}, 2: {0: [row(9.0)]}}, neighbors=[[1], [0, 2], [1]]
        )
        assert step(net.model, [1], UNBOUND, ONE, [[0, 1, 2]]) == [0]

    def test_hop_accounting_along_a_line(self):
        # nodes 0 and 1 trained variable 0; what nodes 0 and 2 published,
        # as node 1 reads it
        net = Net(
            [{0: trained_set(0)}, {0: trained_set(1, observations=5)}, {}],
            [[1], [0, 2], [1]],
        )
        net.publish(0, {0: [row(5.0)]})
        net.publish(2, {0: [row(0.01)]})
        paths = walk(net.model, UNBOUND, ONE, 2)
        # one node per hop, every hop spent on a forward
        assert paths.tolist() == [[0, 1, 2]]
        assert take_over(net.model, UNBOUND, ONE, paths)[0].tolist() == [0]

    def test_order_recomputed_after_models_change(self):
        net = published_net({
            1: {0: [row(1.0)], 1: [row(1.0)]},
            2: {0: [row(3.0)], 1: [row(3.0)]},
        }, neighbors=[[1, 2], [0], [0]])
        model = net.model
        keys, index = [(0, frozenset()), (1, frozenset())], np.arange(2)
        assert step(model, [0, 0], keys, index) == [1, 1]
        ranks = [model.ranks(t, frozenset()) for t in (0, 1)]
        net.publish(2, {0: [row(0.5)]})
        assert step(model, [0, 0], keys, index) == [2, 1]
        assert model.ranks(0, frozenset()) is not ranks[0]
        # the ranks of the target not sent survive, as the same object
        assert model.ranks(1, frozenset()) is ranks[1]

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_next_hop(self, data):
        """Many queries in one call, at nodes of mixed degree (so rows are
        padded), over distinct keys, each having visited a random set of
        nodes or every neighbor of its node."""
        node_count = data.draw(st.integers(2, 30))
        # node 0 has neighbors, others may have none
        links = symmetric([
            data.draw(st.lists(
                st.integers(0, node_count - 1).filter(lambda n, i=i: n != i),
                min_size=i == 0, max_size=12, unique=True,
            ))
            for i in range(node_count)
        ])
        published = {}
        for node in range(node_count):
            entries = {var: data.draw(model_entries(var)) for var in (0, 1)}
            published[node] = {var: sets for var, sets in entries.items() if sets}
        net = published_net(published, node_count=node_count, neighbors=links)
        linked = [node for node in range(node_count) if links[node]]
        nodes, asked, visited = [], [], []
        for _ in range(data.draw(st.integers(1, 8))):
            node = data.draw(st.sampled_from(linked))
            target = data.draw(st.sampled_from((0, 1)))
            bound = data.draw(st.frozensets(st.sampled_from((0, 1, 2))))
            if data.draw(st.booleans()):
                seen = links[node]
            else:
                seen = data.draw(st.lists(st.integers(0, node_count - 1), unique=True))
            nodes.append(node)
            asked.append((target, bound))
            visited.append(seen)
        got = step(net.model, nodes, *keyed(asked), visited)
        want = [
            reference_hop(net, node, key, seen)
            for node, key, seen in zip(nodes, asked, visited)
        ]
        assert got == want

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_next_hops_follow_integrations(self, data):
        """Integrations interleaved with batches of queries at random nodes
        of a model of up to 12 nodes: every next hop is the reference's over
        the lists as they stand. Integrations land at neighbors and
        non-neighbors of the queried nodes, repeat a list by value or send 0
        to K sets, and target 2 is never published. Each round ends with a
        list change, at a neighbor of a queried node, of a target whose
        ranks that batch cached, and the query is asked again."""
        node_count = data.draw(st.integers(2, 12))
        rows = data.draw(st.lists(scored_rows([0, 1, 2]), min_size=1, max_size=6))
        links = symmetric([
            data.draw(st.lists(
                st.integers(0, node_count - 1).filter(lambda n, i=i: n != i),
                min_size=1, unique=True,
            ))
            for i in range(node_count)
        ])
        net = Net([{}] * node_count, links, k=3, extra=rows)
        picks = st.tuples(
            bits(0.0, 3.0, (0.9, 1.0, 2.0, 3.0)), st.sampled_from(rows + [row(0.0)])
        )

        def sets(size):
            return [(joint, *s[1:]) for joint, s in data.draw(
                st.lists(picks, min_size=size, max_size=size)
            )]

        def ask(asked):
            nodes = [node for node, _, _ in asked]
            pairs = [(target, bound) for _, target, bound in asked]
            visited = [
                data.draw(st.lists(st.sampled_from(links[node]), unique=True))
                for node in nodes
            ]
            want = [
                reference_hop(net, node, key, seen)
                for node, key, seen in zip(nodes, pairs, visited)
            ]
            assert step(net.model, nodes, *keyed(pairs), visited) == want

        for _ in range(data.draw(st.integers(1, 4))):
            for _ in range(data.draw(st.integers(0, 4))):
                node = data.draw(st.integers(0, node_count - 1))
                var = data.draw(st.integers(0, 1))
                held = net.lists(node).get(var)
                if held is not None and data.draw(st.booleans()):
                    net.publish(node, {var: held})
                else:
                    net.publish(node, {var: sets(data.draw(st.integers(0, 3)))})
            asked = [
                (data.draw(st.integers(0, node_count - 1)),
                 data.draw(st.integers(0, 2)),
                 data.draw(st.frozensets(st.integers(0, 2))))
                for _ in range(data.draw(st.integers(1, 4)))
            ]
            ask(asked)
            published = [key for key in asked if key[1] != 2]
            if published:
                node, target, bound = data.draw(st.sampled_from(published))
                nb = data.draw(st.sampled_from(links[node]))
                # a set below every held joint, so the list differs by value
                joints = [s[0] for s in net.lists(nb).get(target, ())]
                _, contexts, entropies = sets(1)[0]
                lower = [(min(joints, default=1.0) - 1.0, contexts, entropies)]
                net.publish(nb, {target: lower})
                ask([(node, target, bound)])


# node 0 linked to nodes 1-3, node 4 to none
STAR = [[1, 2, 3], [0], [0], [0], []]
# 3000 walks: a count of a draw of probability 1/3 (1/2) has a standard
# deviation of about 26 (27), so 150 is over five of them
WALKS, SPREAD = 3000, 150


@pytest.fixture(scope="class")
def star_walks():
    """The `rw` paths of `WALKS` routings, seven hops each, of one query per
    node of `STAR`, stacked (walks x queries x hops+1): query 0 goes from
    the hub to a leaf and back, until it saw every leaf by hop 5."""
    model = Net([{}] * len(STAR), STAR).model
    rng = np.random.default_rng(0)
    index = ONE.repeat(len(STAR))
    return np.stack([
        walk(model, UNBOUND, index, 7, Strategy.RANDOM_WALK, rng)
        for _ in range(WALKS)
    ])


class TestRandomWalk:
    def test_uniform_over_unvisited(self, star_walks):
        hub = star_walks[:, 0]
        # the first hop, from node 0 with every leaf unvisited
        counts = np.bincount(hub[:, 1], minlength=4)
        assert counts[0] == 0
        assert (abs(counts[1:] - WALKS / 3) < SPREAD).all()
        # the second leaf, with the first visited: the lower of the other two
        # as often as the higher
        lower = hub[:, 3] == np.where(hub[:, 1] == 1, 2, 1)
        assert abs(lower.sum() - WALKS / 2) < SPREAD

    def test_prefers_unvisited(self, star_walks):
        hub = star_walks[:, 0]
        # back to the hub from each leaf, its one (visited) neighbor
        assert (hub[:, 0::2] == 0).all()
        # and no leaf twice while one is unvisited
        assert (np.sort(hub[:, 1:6:2], axis=1) == [1, 2, 3]).all()

    def test_uniform_over_all_once_all_visited(self, star_walks):
        counts = np.bincount(star_walks[:, 0, 7], minlength=4)
        assert counts[0] == 0
        assert (abs(counts[1:] - WALKS / 3) < SPREAD).all()

    def test_node_without_neighbors_moves_to_the_pad(self, star_walks):
        # node 4 has no neighbors, so its query goes to the pad node 5 and
        # stays there
        assert (star_walks[:, 4, 0] == 4).all()
        assert (star_walks[:, 4, 1:] == 5).all()

    def test_budget_spent_returns(self):
        model = Net([{}] * len(STAR), STAR).model
        rng = np.random.default_rng(2)
        state = rng.bit_generator.state
        index = ONE.repeat(len(STAR))
        paths = walk(model, UNBOUND, index, 0, Strategy.RANDOM_WALK, rng)
        assert paths.tolist() == [[node] for node in range(len(STAR))]
        # no hop spent, so no draw made
        assert rng.bit_generator.state == state


class TestLocalSets:
    def test_one_set_per_trained_var(self):
        config = SimConfig(
            node_count=1, predicting_var_count=3, context_var_count=2,
            contexts_per_table=1, predicting_cardinality=2, context_cardinality=2,
        )
        ones = np.ones((2, 2), dtype=np.int64)
        workload = Workload(node_count=1)
        workload.entries += [
            TrainedAssignment(0, 2, (1,), ones),
            TrainedAssignment(0, 0, (0,), ones),
        ]
        sets = trained_rows(workload, config)[0]
        assert list(sets) == [2, 0]
        assert sets[0][1] == (0,)
        assert sets[2][1] == (1,)

    def test_answer_entropy_untrained_is_inf(self):
        assert summarise([], ROW_WIDTH, 2, 1.0) == []
        model = Net([{}, {0: trained_set()}]).model
        untrained, trained = answer_entropy(model, 0, frozenset())
        assert untrained == math.inf and 0 <= trained < math.inf
        assert (answer_entropy(model, 1, frozenset()) == math.inf).all()

    def test_answer_entropy_ignores_foreign_evidence(self):
        with_foreign = library_answer(trained_set(), frozenset({1}))
        without = library_answer(trained_set(), frozenset())
        assert with_foreign == pytest.approx(without)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_answer_entropy_matches_table_reference(self, data):
        """The local sets' answer is the trained table's clamped chain-rule
        value, inf where there is none: for random count tables over 1 to 3
        of 16 contexts, all-zero counts, and a target with no entry."""
        config = SimConfig(
            node_count=1,
            predicting_var_count=3,
            context_var_count=16,
            predicting_cardinality=data.draw(st.integers(2, 3)),
            context_cardinality=data.draw(st.integers(2, 3)),
            pseudocount=data.draw(st.floats(0.01, 1.0)),
        )
        workload = Workload(node_count=1)
        for target in (0, 1):
            contexts = data.draw(
                st.lists(st.integers(0, 15), min_size=1, max_size=3, unique=True)
            )
            contexts = tuple(sorted(contexts))
            n_out = config.predicting_cardinality
            size = n_out * config.context_cardinality ** len(contexts)
            counts = data.draw(
                st.lists(st.integers(0, 9), min_size=size, max_size=size)
            )
            workload.entries.append(
                TrainedAssignment(0, target, contexts, np.reshape(counts, (n_out, -1)))
            )
        sets = trained_rows(workload, config)[0]
        model = model_of([sets], [[]], 3, 1, 16)
        bound = data.draw(bounds())
        for target in (0, 1, 2):
            entry = workload.entries[target] if target < 2 else None
            want = bf_answer_entropy(entry, config, bound)
            got = answer_entropy(model, target, bound)[0]
            if want is None:
                assert got == math.inf
            else:
                assert got == pytest.approx(want, abs=1e-12)
                # and exactly the dict reference's value for the same set
                assert got == bf_score(view(sets[target]), bound)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_quality_gate_matches_reference(self, data):
        """The gate scores a trained set exactly as the dict reference does,
        subtracting its marginals in the iteration order of the frozenset of
        its ascending contexts, for tables over 1 to 6 of 40 contexts: with
        five or more, ids that share a hash slot can iterate in another
        order when the frozenset is filled differently."""
        contexts = data.draw(
            st.lists(st.integers(0, 39), min_size=1, max_size=6, unique=True)
        )
        contexts = tuple(sorted(contexts))
        size = 2 * 2 ** len(contexts)
        counts = data.draw(st.lists(st.integers(0, 9), min_size=size, max_size=size))
        entry = TrainedAssignment(0, 0, contexts, np.reshape(counts, (2, -1)))
        pseudocount = data.draw(st.floats(0.01, 1.0))
        (s,) = summarise([entry], 40, 2, pseudocount)
        assert_gate_score(s, bf_gate_score(view(s)))


def advertise_until_stable(net, policy, max_rounds=60):
    """Drive the gossip loop by hand, node by node, with full builds of
    variable 0 and full comparisons, until no node wants to send."""
    last_sent = {}
    nodes = range(net.model.joints.shape[1])
    for _ in range(max_rounds):
        sent = 0
        for node in nodes:
            adv = net.build(node, [0], policy)
            previous = views(last_sent.get(node, {}))
            if bf_should_advertise(previous, views(adv), policy):
                last_sent[node] = adv
                sent += 1
                net.publish(node, adv)
        if sent == 0:
            return
    raise AssertionError("advertisement loop did not converge")


def build_network(n_nodes, edges, joints, k=2):
    """A network whose node i holds predicting variable 0 at the given joint
    entropy (None for untrained)."""
    neighbors = [[] for _ in range(n_nodes)]
    for a, b in edges:
        neighbors[a].append(b)
        neighbors[b].append(a)
    local = [{} if j is None else {0: row(j, {0: 0.1})} for j in joints]
    return Net(local, [sorted(nbs) for nbs in neighbors], k)


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
        net = build_network(n, edges, joints)
        advertise_until_stable(net, policy)

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
            for nb in adj[i]:
                got = min(
                    (s[0] for s in net.lists(nb).get(0, [])),
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
        net = build_network(n, list(edges), joints)
        advertise_until_stable(net, policy, max_rounds=200)
        # inflation guarantees no advertised value ever dips below the best
        # genuine local value, no matter how many times a loop re-offers it
        floor = min(joints)
        for node in range(n):
            for s in net.lists(node).get(0, []):
                assert s[0] >= floor - 1e-9
