import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeknow.pgm import (
    ContextMismatch,
    DiscretePgm,
    JointTable,
    NoKnowledge,
    NotADistribution,
    Schema,
    UnknownVariable,
    clamp_diagnostics,
    conditional_entropy,
    entropy,
    joint_entropy,
    marginal_entropy,
)

from conftest import (
    bf_chain_rule,
    bf_entropy,
    bf_joint_entropy,
    bf_marginal,
    bf_true_conditional,
    table_from_tensor,
)


class TestEntropy:
    def test_fair_coin(self):
        assert entropy([0.5, 0.5]) == pytest.approx(1.0, abs=1e-12)

    def test_certainty(self):
        assert entropy([1.0, 0.0]) == 0.0

    def test_skewed_coin(self):
        # -(0.9 log2 0.9 + 0.1 log2 0.1), frozen from a hand evaluation
        assert entropy([0.9, 0.1]) == pytest.approx(0.4689955935892812, abs=1e-9)

    def test_rejects_unnormalized(self):
        with pytest.raises(NotADistribution):
            entropy([0.5, 0.6])

    def test_rejects_negative(self):
        with pytest.raises(NotADistribution):
            entropy([1.2, -0.2])

    @given(
        st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=16)
    )
    def test_bounds(self, weights):
        p = np.array(weights) / sum(weights)
        h = entropy(p)
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

    def test_empty_table(self):
        with pytest.raises(NotADistribution):
            joint_entropy(table_from_tensor(np.zeros((2, 2))))


class TestMarginalEntropy:
    def test_uniform_any_axis(self):
        table = table_from_tensor(np.full((4, 3), 1.0))
        assert entropy(bf_marginal(table.counts, 0)) == pytest.approx(2.0, abs=1e-12)
        assert marginal_entropy(table, 0) == pytest.approx(
            math.log2(3), abs=1e-12
        )

    def test_deterministic_context_axis(self):
        t = np.zeros((2, 3))
        t[:, 1] = 0.5
        assert marginal_entropy(table_from_tensor(t), 0) == 0.0

    def test_symmetric_2x2(self):
        table = table_from_tensor(np.array([[0.4, 0.1], [0.1, 0.4]]))
        assert entropy(bf_marginal(table.counts, 0)) == pytest.approx(1.0, abs=1e-12)
        assert bf_marginal(table.counts, 0) == pytest.approx([0.5, 0.5])
        assert marginal_entropy(table, 0) == pytest.approx(1.0, abs=1e-12)

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariable):
            marginal_entropy(table_from_tensor(np.ones((2, 2))), 7)


class TestConditionalEntropy:
    def test_empty_evidence_is_joint(self):
        table = table_from_tensor(np.array([[0.4, 0.1], [0.1, 0.4]]))
        assert conditional_entropy(table, []) == joint_entropy(table)

    def test_independent_uniform(self):
        table = table_from_tensor(np.full((2, 2), 0.25))
        got = conditional_entropy(table, [0])
        assert got == pytest.approx(1.0, abs=1e-12)
        assert got == pytest.approx(bf_true_conditional(table.counts, [1]), abs=1e-12)

    def test_rejects_non_context(self):
        table = table_from_tensor(np.ones((2, 2)))
        for context in (1, -1):
            with pytest.raises(UnknownVariable):
                conditional_entropy(table, [context])

    def test_clamps_and_counts_correlated_contexts(self):
        # two perfectly correlated contexts: H(P,C0,C1) = 1 < H(C0)+H(C1) = 2
        t = np.zeros((2, 2, 2))
        t[0, 0, 0] = 0.5
        t[0, 1, 1] = 0.5
        table = table_from_tensor(t)
        clamp_diagnostics.reset()
        assert conditional_entropy(table, [0, 1]) == 0.0
        assert clamp_diagnostics.count == 1


class TestObserve:
    def test_counting_with_uniform_prior(self, binary_schema):
        pgm = DiscretePgm(binary_schema)
        for _ in range(5):
            pgm.observe(0, {}, 0)
        probs = pgm.predict(0, {})
        assert probs == pytest.approx([6 / 7, 1 / 7])

    @pytest.mark.parametrize("key", [2, -1])
    def test_observe_block_rejects_non_context_keys(self, binary_schema, key):
        pgm = DiscretePgm(binary_schema)
        with pytest.raises(ContextMismatch):
            pgm.observe_block(0, (key,), np.zeros(1, int), np.zeros(1, int))
        assert pgm.tables == {}

    def test_negative_ids_do_not_wrap(self, binary_schema):
        pgm = DiscretePgm(binary_schema)
        with pytest.raises(UnknownVariable):
            pgm.observe(0, {-1: 0}, 0)
        with pytest.raises(UnknownVariable):
            pgm.observe(-1, {}, 0)
        assert pgm.tables == {}

    def test_context_combination_is_fixed_by_first_observation(self, binary_schema):
        pgm = DiscretePgm(binary_schema)
        pgm.observe(0, {0: 1}, 0)
        with pytest.raises(ContextMismatch):
            pgm.observe(0, {1: 1}, 0)

    def test_coin_flip_convergence(self, binary_schema):
        rng = np.random.default_rng(7)
        pgm = DiscretePgm(binary_schema)
        for outcome in rng.integers(2, size=1000):
            pgm.observe(0, {}, int(outcome))
        probs = pgm.predict(0, {})
        assert probs == pytest.approx([0.5, 0.5], abs=0.05)
        assert entropy(probs) == pytest.approx(1.0, abs=0.01)

    def test_out_of_range_outcome(self, binary_schema):
        with pytest.raises(ValueError):
            DiscretePgm(binary_schema).observe(0, {}, 5)

    def test_observe_block_matches_loop(self, binary_schema):
        a = DiscretePgm(binary_schema)
        b = DiscretePgm(binary_schema)
        rng = np.random.default_rng(0)
        ctx_idx = rng.integers(4, size=50)
        outcomes = rng.integers(2, size=50)
        b.observe_block(0, (0, 1), ctx_idx, outcomes)
        for flat, out in zip(ctx_idx, outcomes):
            c0, c1 = np.unravel_index(flat, (2, 2))
            a.observe(0, {0: int(c0), 1: int(c1)}, int(out))
        assert np.array_equal(a.tables[0].counts, b.tables[0].counts)
        assert a.observation_count == b.observation_count


class TestPredict:
    def test_deterministic_table(self, small_schema):
        pgm = DiscretePgm(small_schema)
        for c in range(3):
            for _ in range(10):
                pgm.observe(0, {0: c}, 2)
        probs = pgm.predict(0, {0: 1})
        assert np.argmax(probs) == 2
        assert probs[2] > 0.7

    def test_uniform_table(self, binary_schema):
        pgm = DiscretePgm(binary_schema)
        pgm.observe(0, {}, 0)
        pgm.observe(0, {}, 1)
        assert pgm.predict(0, {}) == pytest.approx([0.5, 0.5])

    def test_slice_normalization(self):
        schema = Schema(predicting_cardinalities=(3,), context_cardinalities=(2,))
        pgm = DiscretePgm(schema)
        # counts (7, 2, 1) in the ctx=0 slice, pseudocount included
        for outcome, n in ((0, 6), (1, 1)):
            for _ in range(n):
                pgm.observe(0, {0: 0}, outcome)
        assert pgm.predict(0, {0: 0}) == pytest.approx([0.7, 0.2, 0.1])

    def test_untrained_target(self, binary_schema):
        with pytest.raises(NoKnowledge):
            DiscretePgm(binary_schema).predict(0, {})


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
            marginals = [entropy(bf_marginal(tensor, 0))] + [
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
            got = conditional_entropy(table, given)
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
            got = conditional_entropy(table, given)
            want = bf_true_conditional(tensor, [1 + c for c in given])
            assert got == pytest.approx(want, abs=1e-9)

    def test_observation_order_irrelevant(self, binary_schema):
        rng = np.random.default_rng(14)
        observations = [
            ({0: int(rng.integers(2))}, int(rng.integers(2)))
            for _ in range(40)
        ]
        a = DiscretePgm(binary_schema)
        b = DiscretePgm(binary_schema)
        for ctx, out in observations:
            a.observe(0, ctx, out)
        rng.shuffle(observations)
        for ctx, out in observations:
            b.observe(0, ctx, out)
        assert np.array_equal(a.tables[0].counts, b.tables[0].counts)

    def test_entropy_decreases_with_concentration(self, binary_schema):
        pgm = DiscretePgm(binary_schema)
        previous = math.inf
        for _ in range(30):
            pgm.observe(0, {}, 1)
            h = joint_entropy(pgm.tables[0])
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
