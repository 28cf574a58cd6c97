import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgeknow.topology import (
    AttachmentParams,
    NoAttachmentTarget,
    Overlay,
    attachment_probabilities,
    degree_histogram,
    generate,
    overlap_coefficients,
    survival_slope,
)

from conftest import bf_generate


def overlay_from_edges(n, edges, limit=100):
    ov = Overlay(n, limit)
    for u, v in edges:
        ov.add_edge(u, v)
    return ov


def assert_valid(ov):
    """Every row of the matrix holds its node's neighbors ascending, then
    only the pad node n; the pad row holds only pad; and every edge is in
    both of its ends' rows."""
    n = len(ov.degree)
    assert ov.rows.shape[0] == n + 1 and ov.rows.dtype == np.int32
    for u in range(n + 1):
        row = ov.rows[u].tolist()
        d = ov.degree[u] if u < n else 0
        assert row[:d] == sorted(set(row[:d])) and row[d:] == [n] * (len(row) - d)
        assert all(0 <= v < n and v != u and u in ov.neighbors(v) for v in row[:d])


def overlaps(arriving, existing):
    """Overlap coefficients of `arriving` with each trained set in
    `existing`, indexed by variable as overlay growth indexes them."""
    trainers = {}
    for node, ids in enumerate(existing):
        for v in ids:
            trainers.setdefault(v, []).append(node)
    sizes = np.array([len(ids) for ids in existing], dtype=np.int64)
    return overlap_coefficients(trainers, sizes, arriving)


def similarity(a, b):
    return overlaps(b, [a])[0]


class TestSimilarity:
    def test_overlap_coefficient(self):
        a = {0, 1, 2}
        b = {1, 2, 3, 4}
        assert similarity(a, b) == pytest.approx(2 / 3)

    def test_identical_sets(self):
        a = {0, 1}
        assert similarity(a, {0, 1}) == 1.0

    def test_subset_is_full_overlap(self):
        assert similarity({0}, {0, 1, 2}) == 1.0

    def test_disjoint(self):
        assert similarity({0}, {1}) == 0.0

    def test_empty_model(self):
        assert similarity(set(), {0}) == 0.0
        assert similarity({0}, set()) == 0.0

    def test_symmetry(self):
        a, b = {0, 1, 5}, {1, 7}
        assert similarity(a, b) == similarity(b, a)

    def test_untrained_and_unseen_variables(self):
        assert overlaps({5, 9}, [{0}, {5}, set()]) == pytest.approx([0.0, 1.0, 0.0])
        assert overlaps(set(), [set(), set()]) == pytest.approx([0.0, 0.0])
        assert overlaps({0}, []).shape == (0,)

    def test_one_count_per_earlier_node(self):
        existing = [{0, 1, 2}, set(), {3}]
        assert overlaps({1, 2, 3, 4}, existing) == pytest.approx(
            [2 / 3, 0.0, 1.0]
        )


class TestAttachmentProbabilities:
    def test_degree_weighted_with_equal_similarity(self):
        sims = overlaps({0}, [{0}] * 3)
        probs = attachment_probabilities(np.array([4, 2, 2]), sims, 100)
        assert probs == pytest.approx([0.5, 0.25, 0.25])

    def test_saturated_node_excluded(self):
        ov = overlay_from_edges(3, [(0, 1), (0, 2)], limit=2)
        degrees = ov.degree
        sims = overlaps({0}, [{0}] * 3)
        probs = attachment_probabilities(degrees, sims, ov.edge_limit)
        assert probs[0] == 0.0
        assert probs.sum() == pytest.approx(1.0)

    def test_similarity_scales_weights(self):
        sims = overlaps({0}, [{0}, {1}])
        probs = attachment_probabilities(np.array([1, 1]), sims, 100)
        assert probs == pytest.approx([1.0, 0.0])

    def test_floor_rescues_dissimilar_nodes(self):
        sims = overlaps({0}, [{0}, {1}])
        probs = attachment_probabilities(
            np.array([1, 1]), sims, 100, similarity_floor=0.1
        )
        assert probs[1] > 0
        assert probs[0] > probs[1]

    def test_all_saturated_raises(self):
        sims = overlaps({0}, [{0}] * 2)
        with pytest.raises(NoAttachmentTarget):
            attachment_probabilities(np.array([1, 1]), sims, 1)


class TestGenerate:
    def params(self, m0=4, m=3, floor=0.05):
        return AttachmentParams(m0=m0, m=m, similarity_floor=floor)

    def test_seed_clique(self):
        trained = [{0} for _ in range(3)]
        ov = generate(self.params(m0=3, m=1), trained, edge_limit=10, seed=0)
        assert ov.edges() == [(0, 1), (0, 2), (1, 2)]

    def test_arrivals_get_up_to_m_edges(self):
        trained = [{0} for _ in range(30)]
        ov = generate(self.params(), trained, edge_limit=100, seed=1)
        for node in range(4, 30):
            assert 1 <= ov.degree[node] - 0 and ov.degree[node] >= 3

    def test_deterministic_per_seed(self):
        trained = [{i % 4} for i in range(40)]
        a = generate(self.params(), trained, edge_limit=100, seed=5)
        b = generate(self.params(), trained, edge_limit=100, seed=5)
        c = generate(self.params(), trained, edge_limit=100, seed=6)
        assert a.edges() == b.edges()
        assert a.edges() != c.edges()

    def test_degree_cap_is_hard(self):
        trained = [{0} for _ in range(120)]
        ov = generate(self.params(), trained, edge_limit=8, seed=2)
        assert ov.degree.max() <= 8

    def test_connected(self):
        trained = [{i % 6} for i in range(80)]
        ov = generate(self.params(floor=0.01), trained, edge_limit=100, seed=3)
        seen = {0}
        frontier = [0]
        while frontier:
            cur = frontier.pop()
            for nb in ov.neighbors(cur):
                if nb not in seen:
                    seen.add(nb)
                    frontier.append(nb)
        assert seen == set(range(len(ov.degree)))

    def test_too_few_nodes(self):
        with pytest.raises(ValueError):
            generate(self.params(), [{0}] * 2, edge_limit=10, seed=0)

    def test_similar_nodes_cluster(self):
        # two model groups with no overlap; with a tiny floor, same-group
        # edges should dominate relative to a floor that flattens similarity
        def group_fraction(floor):
            fracs = []
            for seed in range(20):
                trained = [{0, 1} if i % 2 == 0 else {6, 7} for i in range(60)]
                ov = generate(
                    AttachmentParams(m0=4, m=2, similarity_floor=floor),
                    trained, edge_limit=100, seed=seed,
                )
                same = sum((u % 2) == (v % 2) for u, v in ov.edges())
                fracs.append(same / len(ov.edges()))
            return np.mean(fracs)

        clustered = group_fraction(0.01)
        flat = group_fraction(0.999)
        assert clustered > flat + 0.2

    def test_repair_counter_zero_when_connected(self):
        trained = [{0} for _ in range(20)]
        ov = generate(self.params(), trained, edge_limit=100, seed=0)
        assert ov.repair_edges == 0


@st.composite
def growth_cases(draw):
    """Small overlays: m0, m, floor, edge limit, seed and the trained sets
    (possibly empty) of every node over up to 12 predicting variables."""
    m0 = draw(st.integers(2, 5))
    m = draw(st.integers(1, m0 - 1))
    floor = draw(st.sampled_from([0.0, 0.05]) | st.floats(0.0, 0.99))
    edge_limit = draw(st.integers(m0 - 1, 8))
    var_count = draw(st.integers(1, 12))
    trained = draw(
        st.lists(
            st.sets(st.integers(0, var_count - 1), max_size=var_count),
            min_size=m0,
            max_size=60,
        )
    )
    seed = draw(st.integers(0, 2**32 - 1))
    return m0, m, floor, edge_limit, trained, seed


def grow_both(m0, m, floor, edge_limit, trained, seed):
    params = AttachmentParams(m0=m0, m=m, similarity_floor=floor)
    return (
        generate(params, trained, edge_limit, seed),
        bf_generate(params, trained, edge_limit, seed),
    )


# Disjoint trained sets with no floor leave arrivals with zero weight
# (saturation warnings) and stray components to repair.
SATURATING = (4, 2, 0.0, 6, [{0}] * 4 + [{1}, {0}, {2}, set()] * 6, 0)


class TestReferenceEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(growth_cases())
    @example(SATURATING)
    def test_matches_per_pair_reference(self, case):
        fast, ref = grow_both(*case)
        assert fast.edges() == ref.edges()
        assert fast.degree.tolist() == ref.degree.tolist()
        assert_valid(fast)
        assert fast.rows.shape[1] == max(1, fast.degree.max())
        assert fast.saturation_warnings == ref.saturation_warnings
        assert fast.repair_edges == ref.repair_edges

    def test_reference_case_saturates_and_repairs(self):
        fast, _ = grow_both(*SATURATING)
        assert fast.saturation_warnings > 0
        assert fast.repair_edges > 0


class TestOverlayInvariants:
    def test_rejects_self_loop(self):
        ov = overlay_from_edges(2, [])
        with pytest.raises(ValueError):
            ov.add_edge(0, 0)

    def test_rejects_duplicate(self):
        ov = overlay_from_edges(2, [(0, 1)])
        with pytest.raises(ValueError):
            ov.add_edge(1, 0)

    def test_rejects_over_limit(self):
        ov = overlay_from_edges(3, [(0, 1)], limit=1)
        with pytest.raises(ValueError):
            ov.add_edge(0, 2)

    def test_adjacency_symmetric(self):
        trained = [{i % 3} for i in range(25)]
        ov = generate(AttachmentParams(), trained, edge_limit=100, seed=4)
        for u in range(len(ov.degree)):
            for v in ov.neighbors(u):
                assert u in ov.neighbors(v)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 19), st.integers(0, 19)), max_size=120))
    def test_hand_built_rows_stay_ascending(self, pairs):
        """Edges added by hand in any order, each valid one kept and each
        rejected one leaving the matrix as it was, keep every row ascending;
        a full row doubles the width, from 1 to the next power of two."""
        ov, edges = Overlay(20, edge_limit=12), set()
        for u, v in pairs:
            before = ov.rows.copy(), ov.degree.copy()
            try:
                ov.add_edge(u, v)
                edges.add((min(u, v), max(u, v)))
            except ValueError:
                assert (ov.rows == before[0]).all() and (ov.degree == before[1]).all()
        assert_valid(ov)
        assert ov.edges() == sorted(edges)
        most = int(ov.degree.max())
        assert ov.rows.shape[1] == (1 if most <= 1 else 2 ** (most - 1).bit_length())


class TestHistogramAndSlope:
    def test_triangle_histogram(self):
        ov = overlay_from_edges(3, [(0, 1), (1, 2), (0, 2)])
        assert degree_histogram(ov) == {2: 3}

    def test_star_histogram(self):
        ov = overlay_from_edges(5, [(0, i) for i in range(1, 5)])
        assert degree_histogram(ov) == {1: 4, 4: 1}

    def test_histogram_recounts_degrees(self):
        trained = [{i % 5} for i in range(50)]
        ov = generate(AttachmentParams(), trained, edge_limit=100, seed=7)
        hist = degree_histogram(ov)
        assert sum(hist.values()) == 50
        degrees = ov.degree.tolist()
        for deg, count in hist.items():
            assert degrees.count(deg) == count

    def test_survival_slope_of_exact_power_law(self):
        # degree sequence with CCDF proportional to k^-2
        degrees = []
        for k in range(1, 16):
            count = round(100000 * (k**-2 - (k + 1) ** -2))
            degrees.extend([k] * count)
        # residual bucket so the survival function is k^-2 all the way down
        degrees.extend([16] * round(100000 * 16**-2))
        slope = survival_slope(degrees)
        assert slope == pytest.approx(-2.0, abs=0.15)

    @pytest.mark.parametrize("degrees", [[], [0, 0], [3, 3, 3, 3], [0, 2, 2]])
    def test_survival_slope_needs_two_distinct_degrees(self, degrees):
        with pytest.raises(ValueError, match="need 2"):
            survival_slope(degrees)

    def test_generated_network_is_heavy_tailed(self):
        trained = [{i % 4} for i in range(500)]
        ov = generate(AttachmentParams(), trained, edge_limit=500, seed=9)
        slope = survival_slope(ov.degree)
        assert -3.5 < slope < -1.0


class TestAttachmentParams:
    def test_rejects_m_not_below_m0(self):
        with pytest.raises(ValueError):
            AttachmentParams(m0=3, m=3)

    def test_rejects_zero_m(self):
        with pytest.raises(ValueError):
            AttachmentParams(m0=3, m=0)

    def test_rejects_floor_out_of_range(self):
        with pytest.raises(ValueError):
            AttachmentParams(similarity_floor=1.0)
