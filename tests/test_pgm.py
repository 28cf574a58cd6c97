import math
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeknow import pgm
from edgeknow.engine import TrainedAssignment, Workload, check_workload
from edgeknow.pgm import cell_counts

from conftest import (
    ROW_WIDTH,
    bf_conditional_entropy,
    bf_entropy,
    bf_joint_entropy,
    bf_marginal,
    bf_observe,
    bf_summary,
    bf_true_conditional,
    library_answer,
    summarise,
    trained_rows,
)


class Summary(NamedTuple):
    """A library entropy-set row read back: its joint, the marginal entropy
    of each context it holds in ascending order, and the row itself."""

    joint: float
    marginals: dict[int, float]
    row: tuple

    def score(self, bound: frozenset[int]) -> float:
        """The row's score for evidence on `bound`, as a node answers."""
        return library_answer(self.row, bound)


def summary(s: tuple) -> Summary:
    joint, contexts, entropies = s
    return Summary(joint, {c: entropies[c] for c in contexts}, s)


def entropy_set(counts, pseudocount=0.0) -> Summary:
    """The library's entropy set of a count tensor smoothed with
    `pseudocount`: axis 0 is the predicting variable, and axes 1.. are the
    contexts 0.., all with the cardinality of axis 1."""
    counts = np.asarray(counts)
    n_ctx = counts.ndim - 1
    card = counts.shape[1] if n_ctx else 2
    entry = TrainedAssignment(
        0, 0, tuple(range(n_ctx)), counts.reshape(len(counts), -1)
    )
    return summary(summarise([entry], ROW_WIDTH, card, pseudocount)[0])


class TestVectorEntropy:
    """The joint entropy of a table with the predicting axis alone: a
    probability vector's entropy."""

    def test_fair_coin(self):
        assert entropy_set([[1], [1]]).joint == pytest.approx(1.0, abs=1e-12)

    def test_certainty(self):
        assert entropy_set([[1], [0]]).joint == 0.0

    def test_skewed_coin(self):
        # -(0.9 log2 0.9 + 0.1 log2 0.1), frozen from a hand evaluation
        assert entropy_set([[9], [1]]).joint == pytest.approx(
            0.4689955935892812, abs=1e-9
        )

    @given(st.lists(st.integers(1, 10**6), min_size=1, max_size=16))
    def test_bounds(self, counts):
        h = entropy_set(np.reshape(counts, (-1, 1))).joint
        assert -1e-12 <= h <= math.log2(len(counts)) + 1e-9
        p = np.array(counts) / sum(counts)
        assert h == pytest.approx(bf_entropy(p), abs=1e-12)


class TestJointEntropy:
    def test_uniform_2x2(self):
        assert entropy_set(np.ones((2, 2), dtype=np.int64)).joint == (
            pytest.approx(2.0, abs=1e-12)
        )

    def test_single_cell(self):
        t = np.zeros((2, 2), dtype=np.int64)
        t[1, 0] = 1
        assert entropy_set(t).joint == 0.0

    def test_dyadic_cells(self):
        s = entropy_set([[4, 2], [1, 1]])
        assert s.joint == pytest.approx(1.75, abs=1e-12)


class TestMarginalEntropy:
    def test_uniform_any_axis(self):
        t = np.ones((4, 3), dtype=np.int64)
        assert bf_entropy(bf_marginal(t, 0)) == pytest.approx(2.0, abs=1e-12)
        assert entropy_set(t).marginals[0] == pytest.approx(
            math.log2(3), abs=1e-12
        )

    def test_deterministic_context_axis(self):
        t = np.zeros((2, 3), dtype=np.int64)
        t[:, 1] = 5
        assert entropy_set(t).marginals[0] == 0.0

    def test_symmetric_2x2(self):
        t = np.array([[4, 1], [1, 4]])
        assert bf_marginal(t, 1) == pytest.approx([0.5, 0.5])
        assert entropy_set(t).marginals[0] == pytest.approx(1.0, abs=1e-12)

    def test_unknown_variable(self):
        # a set holds the marginals of its table's contexts and no others,
        # so evidence on another variable leaves its score alone
        s = entropy_set(np.ones((2, 2), dtype=np.int64), 1.0)
        assert list(s.marginals) == [0]
        assert s.score(frozenset({7})) == s.joint


class TestChainRule:
    """The chain rule over the library's entropy sets."""

    def test_empty_evidence_is_joint(self):
        t = np.array([[4, 1], [1, 4]])
        s = entropy_set(t)
        assert s.score(frozenset()) == s.joint
        assert s.joint == pytest.approx(
            bf_conditional_entropy(t, (0,), []), abs=1e-12
        )

    def test_independent_uniform(self):
        t = np.ones((2, 2), dtype=np.int64)
        got = entropy_set(t).score(frozenset({0}))
        assert got == pytest.approx(1.0, abs=1e-12)
        assert got == pytest.approx(bf_true_conditional(t, [1]), abs=1e-12)

    def test_rejects_non_context(self):
        # the reference answers only for the table's own contexts
        for context in (1, -1):
            with pytest.raises(ValueError):
                bf_conditional_entropy(np.ones((2, 2)), (0,), [context])

    def test_clamps_and_counts_correlated_contexts(self):
        # two perfectly correlated contexts: H(P,C0,C1) = 1 < H(C0)+H(C1) = 2
        t = np.zeros((2, 2, 2), dtype=np.int64)
        t[0, 0, 0] = 1
        t[0, 1, 1] = 1
        s = entropy_set(t)
        unclamped = s.joint - sum(s.marginals.values())
        assert unclamped == pytest.approx(-1.0, abs=1e-12)
        assert s.score(frozenset({0, 1})) == 0.0


class TestCellCounts:
    """Binning observations with `cell_counts`, and training on them with
    `train_pgms`."""

    def test_counting_with_uniform_prior(self, binary_config):
        wl = Workload(node_count=1)
        wl.entries.append(TrainedAssignment(0, 0, (), np.array([[5], [0]])))
        joint = trained_rows(wl, binary_config)[0][0][0]
        assert joint == pytest.approx(bf_entropy([6 / 7, 1 / 7]), abs=1e-12)

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
        counts = cell_counts(2, 1, [0] * 1000, outcomes)
        assert (counts / counts.sum()).ravel() == pytest.approx([0.5, 0.5], abs=0.05)
        assert entropy_set(counts, 1.0).joint == pytest.approx(1.0, abs=0.01)

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


def random_counts(rng, max_contexts=2, max_card=4):
    """Integer counts over a predicting axis and up to `max_contexts`
    context axes of one cardinality, and a pseudocount."""
    shape = [rng.integers(2, max_card + 1)]
    shape += [rng.integers(2, max_card + 1)] * rng.integers(0, max_contexts + 1)
    return rng.integers(0, 20, size=shape), float(rng.uniform(0.01, 2.0))


class TestInvariants:
    def test_joint_dominates_marginals(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            counts, pseudocount = random_counts(rng)
            s = entropy_set(counts, pseudocount)
            marginals = [bf_entropy(bf_marginal(counts + pseudocount, 0))]
            marginals += s.marginals.values()
            for h in marginals:
                assert s.joint >= h - 1e-9

    def test_chain_rule_matches_brute_force(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            counts, pseudocount = random_counts(rng)
            contexts = tuple(range(counts.ndim - 1))
            given = [c for c in contexts if rng.random() < 0.5]
            got = entropy_set(counts, pseudocount).score(frozenset(given))
            want = bf_conditional_entropy(counts + pseudocount, contexts, given)
            assert got == pytest.approx(want, abs=1e-9)

    def test_product_table_equals_true_conditional(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            card = rng.integers(2, 5)
            marginals = [rng.integers(1, 20, size=rng.integers(2, 5))]
            marginals += [
                rng.integers(1, 20, size=card) for _ in range(rng.integers(1, 3))
            ]
            tensor = marginals[0]
            for m in marginals[1:]:
                tensor = np.multiply.outer(tensor, m)
            n_ctx = tensor.ndim - 1
            given = [c for c in range(n_ctx) if rng.random() < 0.5]
            got = entropy_set(tensor).score(frozenset(given))
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
        previous = math.inf
        for n in range(1, 31):
            h = entropy_set([[1], [n]]).joint
            assert h <= previous + 1e-12
            previous = h

    @settings(max_examples=200)
    @given(st.data())
    def test_joint_matches_brute_force(self, data):
        shape = [data.draw(st.integers(2, 4))]
        shape += [data.draw(st.integers(2, 4))] * data.draw(st.integers(0, 2))
        cells = data.draw(
            st.lists(
                st.integers(0, 50),
                min_size=int(np.prod(shape)),
                max_size=int(np.prod(shape)),
            )
        )
        pseudocount = data.draw(st.floats(0.01, 2.0))
        counts = np.array(cells).reshape(shape)
        assert entropy_set(counts, pseudocount).joint == pytest.approx(
            bf_joint_entropy(counts + pseudocount), abs=1e-9
        )

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_batched_sets_match_brute_force(self, data):
        """Every joint and marginal of one batched pass over tables of 0 to
        3 contexts lies within 1e-12 of the brute-force references, for any
        integer dtype, and equals the value of its table taken alone,
        with batches small enough that tables fall into several."""
        n_out = data.draw(st.integers(2, 5))
        card = data.draw(st.integers(2, 5))
        pseudocount = data.draw(st.floats(0.01, 2.0))
        dtypes = [np.int8, np.uint8, np.int16, np.int32, np.int64, np.uint64]
        dtype = data.draw(st.sampled_from(dtypes))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        entries = []
        for var in range(data.draw(st.integers(1, 8))):
            picked = rng.choice(6, size=rng.integers(0, 4), replace=False)
            contexts = tuple(sorted(int(c) for c in picked))
            size = (n_out, card ** len(contexts))
            high = data.draw(st.sampled_from([2, 20, 100]))
            counts = rng.integers(0, high, size=size)
            entries.append(TrainedAssignment(0, var, contexts, counts.astype(dtype)))
        batch_cells = data.draw(st.integers(1, 3 * n_out * card**3))
        with mock.patch.object(pgm, "BATCH_CELLS", batch_cells):
            sets = summarise(entries, 6, card, pseudocount)
        for entry, row in zip(entries, sets, strict=True):
            s = summary(row)
            tensor = entry.counts.reshape((n_out,) + (card,) * len(entry.contexts))
            joint, marginals = bf_summary(tensor + pseudocount, entry.contexts)
            assert s.joint == pytest.approx(joint, abs=1e-12)
            assert list(s.marginals) == list(marginals)
            assert s.marginals == pytest.approx(marginals, abs=1e-12)
            assert [row] == summarise([entry], 6, card, pseudocount)
            assert row[1] == entry.contexts
            # a context the table does not hold has entropy 0.0 in the row
            assert [row[2][c] for c in range(6) if c not in entry.contexts] == [
                0.0
            ] * (6 - len(entry.contexts))
