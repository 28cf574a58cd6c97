import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeknow.engine import TrainedAssignment, Workload, check_workload, train_pgms
from edgeknow.pgm import (
    JointTable,
    cell_counts,
    joint_entropy,
    marginal_entropy,
)

from conftest import (
    bf_chain_rule,
    bf_conditional_entropy,
    bf_entropy,
    bf_joint_entropy,
    bf_marginal,
    bf_observe,
    bf_true_conditional,
    table_from_tensor,
    vector_entropy,
)


class TestVectorEntropy:
    """`joint_entropy` of a one-axis table: a probability vector's entropy."""

    def test_fair_coin(self):
        assert vector_entropy([0.5, 0.5]) == pytest.approx(1.0, abs=1e-12)

    def test_certainty(self):
        assert vector_entropy([1.0, 0.0]) == 0.0

    def test_skewed_coin(self):
        # -(0.9 log2 0.9 + 0.1 log2 0.1), frozen from a hand evaluation
        assert vector_entropy([0.9, 0.1]) == pytest.approx(0.4689955935892812, abs=1e-9)

    @given(
        st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=16)
    )
    def test_bounds(self, weights):
        p = np.array(weights) / sum(weights)
        h = vector_entropy(p)
        assert -1e-12 <= h <= math.log2(len(p)) + 1e-9
        assert h == pytest.approx(bf_entropy(p), abs=1e-9)


class TestJointEntropy:
    def test_uniform_2x2(self):
        assert joint_entropy(table_from_tensor(np.full((2, 2), 0.25))) == (
            pytest.approx(2.0, abs=1e-12)
        )

    def test_single_cell(self):
        t = np.zeros((2, 2))
        t[1, 0] = 1.0
        assert joint_entropy(table_from_tensor(t)) == 0.0

    def test_dyadic_cells(self):
        t = np.array([[0.5, 0.25], [0.125, 0.125]])
        assert joint_entropy(table_from_tensor(t)) == pytest.approx(1.75, abs=1e-12)


class TestMarginalEntropy:
    def test_uniform_any_axis(self):
        table = table_from_tensor(np.full((4, 3), 1.0))
        h = vector_entropy(bf_marginal(table.counts, 0))
        assert h == pytest.approx(2.0, abs=1e-12)
        assert marginal_entropy(table, 0) == pytest.approx(
            math.log2(3), abs=1e-12
        )

    def test_deterministic_context_axis(self):
        t = np.zeros((2, 3))
        t[:, 1] = 0.5
        assert marginal_entropy(table_from_tensor(t), 0) == 0.0

    def test_symmetric_2x2(self):
        table = table_from_tensor(np.array([[0.4, 0.1], [0.1, 0.4]]))
        h = vector_entropy(bf_marginal(table.counts, 0))
        assert h == pytest.approx(1.0, abs=1e-12)
        assert bf_marginal(table.counts, 0) == pytest.approx([0.5, 0.5])
        assert marginal_entropy(table, 0) == pytest.approx(1.0, abs=1e-12)

    def test_unknown_variable(self):
        with pytest.raises(ValueError):
            marginal_entropy(table_from_tensor(np.ones((2, 2))), 7)


class TestChainRule:
    """The chain rule over the library's table entropies."""

    def test_empty_evidence_is_joint(self):
        table = table_from_tensor(np.array([[0.4, 0.1], [0.1, 0.4]]))
        assert bf_conditional_entropy(table, []) == joint_entropy(table)

    def test_independent_uniform(self):
        table = table_from_tensor(np.full((2, 2), 0.25))
        got = bf_conditional_entropy(table, [0])
        assert got == pytest.approx(1.0, abs=1e-12)
        assert got == pytest.approx(bf_true_conditional(table.counts, [1]), abs=1e-12)

    def test_rejects_non_context(self):
        table = table_from_tensor(np.ones((2, 2)))
        for context in (1, -1):
            with pytest.raises(ValueError):
                bf_conditional_entropy(table, [context])

    def test_clamps_and_counts_correlated_contexts(self):
        # two perfectly correlated contexts: H(P,C0,C1) = 1 < H(C0)+H(C1) = 2
        t = np.zeros((2, 2, 2))
        t[0, 0, 0] = 0.5
        t[0, 1, 1] = 0.5
        table = table_from_tensor(t)
        unclamped = joint_entropy(table) - sum(
            marginal_entropy(table, c) for c in (0, 1)
        )
        assert unclamped == pytest.approx(-1.0, abs=1e-12)
        assert bf_conditional_entropy(table, [0, 1]) == 0.0


class TestObserve:
    """Binning observations with `cell_counts` and smoothing them into tables
    with `train_pgms`."""

    def test_counting_with_uniform_prior(self, binary_config):
        wl = Workload(node_count=1)
        wl.entries.append(TrainedAssignment(0, 0, (), np.array([[5], [0]])))
        probs = train_pgms(wl, binary_config)[0][0].probabilities()
        assert probs == pytest.approx([6 / 7, 1 / 7])

    def test_negative_ids_do_not_wrap(self, binary_config):
        # -1 would index the last variable of a per-variable sequence
        for var, contexts in ((-1, (0,)), (0, (-1,))):
            wl = Workload(node_count=1)
            counts = np.ones((2, 2), dtype=np.int64)
            wl.entries.append(TrainedAssignment(0, var, contexts, counts))
            with pytest.raises(ValueError, match="unknown variable -1"):
                check_workload(binary_config, wl)

    def test_coin_flip_convergence(self):
        rng = np.random.default_rng(7)
        outcomes = rng.integers(2, size=1000)
        counts = 1.0 + cell_counts(2, 1, [0] * 1000, outcomes)
        probs = JointTable((), counts.ravel()).probabilities()
        assert probs == pytest.approx([0.5, 0.5], abs=0.05)
        assert vector_entropy(probs) == pytest.approx(1.0, abs=0.01)

    def test_cell_counts_match_loop(self):
        rng = np.random.default_rng(0)
        ctx_idx = rng.integers(4, size=50)
        outcomes = rng.integers(2, size=50)
        want = np.zeros((2, 2, 2), dtype=np.int64)
        for flat, out in zip(ctx_idx, outcomes):
            c0, c1 = np.unravel_index(flat, (2, 2))
            bf_observe(want, {0: int(c0), 1: int(c1)}, int(out))
        got = cell_counts(2, 4, ctx_idx, outcomes)
        assert np.array_equal(got, want.reshape(2, 4))

    @pytest.mark.parametrize(
        "ctx_idx, outcome", [(4, 0), (-1, 0), (0, 2), (0, -1), (0, 5)]
    )
    def test_cell_counts_rejects_out_of_range(self, ctx_idx, outcome):
        # binning happens in cell_counts; an escaped index would land in
        # another cell of the flat count
        with pytest.raises(ValueError, match="out of range"):
            cell_counts(2, 4, np.array([0, ctx_idx]), np.array([1, outcome]))

    def test_cell_counts_of_no_observations_are_zeros(self):
        # an empty plain list reads as float64; it still means no observations
        for empty in ([], np.array([], dtype=np.int64)):
            got = cell_counts(2, 4, empty, empty)
            assert got.dtype == np.int64
            assert np.array_equal(got, np.zeros((2, 4), dtype=np.int64))

    def test_cell_counts_rejects_float_indices(self):
        with pytest.raises(TypeError):
            cell_counts(2, 4, np.array([0.0, 3.0]), np.array([1, 0]))


def random_tensor(rng, max_axes=3, max_card=4):
    shape = [rng.integers(2, max_card + 1)]
    for _ in range(rng.integers(0, max_axes)):
        shape.append(rng.integers(2, max_card + 1))
    return rng.gamma(0.8, size=shape) + 1e-12


class TestInvariants:
    def test_joint_dominates_marginals(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            tensor = random_tensor(rng)
            table = table_from_tensor(tensor)
            marginals = [vector_entropy(bf_marginal(tensor, 0))] + [
                marginal_entropy(table, c) for c in table.contexts
            ]
            for h in marginals:
                assert joint_entropy(table) >= h - 1e-9

    def test_chain_rule_matches_brute_force(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            tensor = random_tensor(rng)
            table = table_from_tensor(tensor)
            n_ctx = tensor.ndim - 1
            given = [i for i in range(n_ctx) if rng.random() < 0.5]
            got = bf_conditional_entropy(table, given)
            want = bf_chain_rule(tensor, [1 + c for c in given])
            assert got == pytest.approx(want, abs=1e-9)

    def test_product_table_equals_true_conditional(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            marginals = [rng.gamma(1.0, size=rng.integers(2, 5)) + 1e-9
                         for _ in range(rng.integers(2, 4))]
            tensor = marginals[0]
            for m in marginals[1:]:
                tensor = np.multiply.outer(tensor, m)
            table = table_from_tensor(tensor)
            n_ctx = tensor.ndim - 1
            given = [i for i in range(n_ctx) if rng.random() < 0.5]
            got = bf_conditional_entropy(table, given)
            want = bf_true_conditional(tensor, [1 + c for c in given])
            assert got == pytest.approx(want, abs=1e-9)

    def test_observation_order_irrelevant(self):
        rng = np.random.default_rng(14)
        observations = [(int(rng.integers(2)), int(rng.integers(2))) for _ in range(40)]
        whole = cell_counts(2, 2, *zip(*observations))
        rng.shuffle(observations)
        one_by_one = sum(cell_counts(2, 2, [ctx], [out]) for ctx, out in observations)
        assert np.array_equal(whole, one_by_one)

    def test_entropy_decreases_with_concentration(self):
        table = table_from_tensor(np.ones((2, 1)))
        previous = math.inf
        for _ in range(30):
            table.counts += [[0], [1]]
            h = joint_entropy(table)
            assert h <= previous + 1e-12
            previous = h

    @settings(max_examples=200)
    @given(st.data())
    def test_joint_matches_brute_force(self, data):
        shape = data.draw(
            st.lists(st.integers(2, 4), min_size=1, max_size=3)
        )
        cells = data.draw(
            st.lists(
                st.floats(min_value=1e-6, max_value=10.0),
                min_size=int(np.prod(shape)),
                max_size=int(np.prod(shape)),
            )
        )
        tensor = np.array(cells).reshape(shape)
        table = table_from_tensor(tensor)
        assert joint_entropy(table) == pytest.approx(
            bf_joint_entropy(tensor), abs=1e-9
        )
