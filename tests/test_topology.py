import numpy as np
import pytest

from edgeknow.pgm import DiscretePgm, Schema
from edgeknow.topology import (
    AttachmentParams,
    IncompatibleModels,
    NoAttachmentTarget,
    Overlay,
    attach,
    attachment_probabilities,
    degree_histogram,
    generate,
    similarity,
    survival_slope,
)

SCHEMA = Schema(
    predicting_cardinalities=tuple([2] * 12), context_cardinalities=(2,)
)


def pgm_with(var_indices):
    pgm = DiscretePgm(SCHEMA)
    for i in var_indices:
        pgm.observe(i, {0: 0}, 0)
    return pgm


def overlay_from_edges(n, edges, limit=100):
    ov = Overlay(
        adjacency={i: set() for i in range(n)},
        edge_limit=limit,
    )
    for u, v in edges:
        ov.add_edge(u, v)
    return ov


class TestSimilarity:
    def test_overlap_coefficient(self):
        a = pgm_with([0, 1, 2])
        b = pgm_with([1, 2, 3, 4])
        assert similarity(a, b) == pytest.approx(2 / 3)

    def test_identical_sets(self):
        a = pgm_with([0, 1])
        assert similarity(a, pgm_with([0, 1])) == 1.0

    def test_subset_is_full_overlap(self):
        assert similarity(pgm_with([0]), pgm_with([0, 1, 2])) == 1.0

    def test_disjoint(self):
        assert similarity(pgm_with([0]), pgm_with([1])) == 0.0

    def test_empty_model(self):
        assert similarity(pgm_with([]), pgm_with([0])) == 0.0

    def test_symmetry(self):
        a, b = pgm_with([0, 1, 5]), pgm_with([1, 7])
        assert similarity(a, b) == similarity(b, a)

    def test_schema_mismatch(self):
        other = DiscretePgm(Schema((2, 2), (2,)))
        with pytest.raises(IncompatibleModels):
            similarity(pgm_with([0]), other)


class TestAttachmentProbabilities:
    def test_degree_weighted_with_equal_similarity(self):
        ov = overlay_from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
        # degrees 4, 2, 2 after adding one more edge to node 0
        ov.add_edge(1, 3)
        # degrees now: 0 -> 3, 1 -> 3, 2 -> 2, 3 -> 2; use a 3-node subset
        existing = [(0, pgm_with([0])), (2, pgm_with([0])), (3, pgm_with([0]))]
        arriving = pgm_with([0])
        ov2 = overlay_from_edges(3, [])
        ov2.adjacency = {0: {10, 11, 12, 13}, 2: {10, 11}, 3: {10, 11}}
        ov2.edge_limit = 100
        probs = attachment_probabilities(ov2, arriving, existing)
        assert probs == pytest.approx([0.5, 0.25, 0.25])

    def test_saturated_node_excluded(self):
        ov = overlay_from_edges(3, [(0, 1), (0, 2)], limit=2)
        existing = [(0, pgm_with([0])), (1, pgm_with([0])), (2, pgm_with([0]))]
        probs = attachment_probabilities(ov, pgm_with([0]), existing)
        assert probs[0] == 0.0
        assert probs.sum() == pytest.approx(1.0)

    def test_similarity_scales_weights(self):
        ov = overlay_from_edges(2, [(0, 1)])
        existing = [(0, pgm_with([0])), (1, pgm_with([1]))]
        probs = attachment_probabilities(ov, pgm_with([0]), existing)
        assert probs == pytest.approx([1.0, 0.0])

    def test_floor_rescues_dissimilar_nodes(self):
        ov = overlay_from_edges(2, [(0, 1)])
        existing = [(0, pgm_with([0])), (1, pgm_with([1]))]
        probs = attachment_probabilities(
            ov, pgm_with([0]), existing, similarity_floor=0.1
        )
        assert probs[1] > 0
        assert probs[0] > probs[1]

    def test_all_saturated_raises(self):
        ov = overlay_from_edges(2, [(0, 1)], limit=1)
        existing = [(0, pgm_with([0])), (1, pgm_with([0]))]
        with pytest.raises(NoAttachmentTarget):
            attachment_probabilities(ov, pgm_with([0]), existing)


class TestGenerate:
    def params(self, m0=4, m=3, floor=0.05):
        return AttachmentParams(m0=m0, m=m, similarity_floor=floor)

    def test_seed_clique(self):
        pgms = [pgm_with([0]) for _ in range(3)]
        ov = generate(self.params(m0=3, m=1), pgms, edge_limit=10, seed=0)
        assert ov.edges() == [(0, 1), (0, 2), (1, 2)]

    def test_arrivals_get_up_to_m_edges(self):
        pgms = [pgm_with([0]) for _ in range(30)]
        ov = generate(self.params(), pgms, edge_limit=100, seed=1)
        for node in range(4, 30):
            assert 1 <= ov.degree(node) - 0 and ov.degree(node) >= 3

    def test_deterministic_per_seed(self):
        pgms = [pgm_with([i % 4]) for i in range(40)]
        a = generate(self.params(), pgms, edge_limit=100, seed=5)
        b = generate(self.params(), pgms, edge_limit=100, seed=5)
        c = generate(self.params(), pgms, edge_limit=100, seed=6)
        assert a.edges() == b.edges()
        assert a.edges() != c.edges()

    def test_degree_cap_is_hard(self):
        pgms = [pgm_with([0]) for _ in range(120)]
        ov = generate(self.params(), pgms, edge_limit=8, seed=2)
        assert max(ov.degree(n) for n in ov.nodes) <= 8

    def test_connected(self):
        pgms = [pgm_with([i % 6]) for i in range(80)]
        ov = generate(self.params(floor=0.01), pgms, edge_limit=100, seed=3)
        seen = {0}
        frontier = [0]
        while frontier:
            cur = frontier.pop()
            for nb in ov.neighbors(cur):
                if nb not in seen:
                    seen.add(nb)
                    frontier.append(nb)
        assert seen == set(ov.nodes)

    def test_too_few_nodes(self):
        with pytest.raises(ValueError):
            generate(self.params(), [pgm_with([0])] * 2, edge_limit=10, seed=0)

    def test_similar_nodes_cluster(self):
        # two model groups with no overlap; with a tiny floor, same-group
        # edges should dominate relative to a floor that flattens similarity
        def group_fraction(floor):
            fracs = []
            for seed in range(20):
                pgms = [pgm_with([0, 1]) if i % 2 == 0 else pgm_with([6, 7])
                        for i in range(60)]
                ov = generate(
                    AttachmentParams(m0=4, m=2, similarity_floor=floor),
                    pgms, edge_limit=100, seed=seed,
                )
                same = sum((u % 2) == (v % 2) for u, v in ov.edges())
                fracs.append(same / len(ov.edges()))
            return np.mean(fracs)

        clustered = group_fraction(0.01)
        flat = group_fraction(0.999)
        assert clustered > flat + 0.2

    def test_repair_counter_zero_when_connected(self):
        pgms = [pgm_with([0]) for _ in range(20)]
        ov = generate(self.params(), pgms, edge_limit=100, seed=0)
        assert ov.repair_edges == 0


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
        pgms = [pgm_with([i % 3]) for i in range(25)]
        ov = generate(AttachmentParams(), pgms, edge_limit=100, seed=4)
        for u in ov.nodes:
            for v in ov.neighbors(u):
                assert u in ov.neighbors(v)


class TestHistogramAndSlope:
    def test_triangle_histogram(self):
        ov = overlay_from_edges(3, [(0, 1), (1, 2), (0, 2)])
        assert degree_histogram(ov) == {2: 3}

    def test_star_histogram(self):
        ov = overlay_from_edges(5, [(0, i) for i in range(1, 5)])
        assert degree_histogram(ov) == {1: 4, 4: 1}

    def test_histogram_recounts_degrees(self):
        pgms = [pgm_with([i % 5]) for i in range(50)]
        ov = generate(AttachmentParams(), pgms, edge_limit=100, seed=7)
        hist = degree_histogram(ov)
        assert sum(hist.values()) == 50
        degrees = [ov.degree(n) for n in ov.nodes]
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

    def test_generated_network_is_heavy_tailed(self):
        pgms = [pgm_with([i % 4]) for i in range(500)]
        ov = generate(AttachmentParams(), pgms, edge_limit=500, seed=9)
        degrees = [ov.degree(n) for n in ov.nodes]
        slope = survival_slope(degrees)
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
