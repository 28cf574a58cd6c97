"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the library's vectorized code paths:
entropies are computed with plain Python loops over explicitly enumerated
cells so the tests check the implementation against a second, independent
evaluation.
"""

import itertools
import math

import numpy as np
import pytest

from edgeknow.pgm import JointTable, Schema


def bf_entropy(probs) -> float:
    total = 0.0
    for p in probs:
        if p > 0:
            total -= p * math.log(p, 2)
    return total


def bf_joint_entropy(tensor: np.ndarray) -> float:
    total = tensor.sum()
    return bf_entropy([tensor[idx] / total for idx in np.ndindex(tensor.shape)])


def bf_marginal(tensor: np.ndarray, axis: int) -> list[float]:
    total = tensor.sum()
    cells = [tensor[idx] / total for idx in np.ndindex(tensor.shape)]
    marg = {}
    for idx, p in zip(np.ndindex(tensor.shape), cells):
        marg[idx[axis]] = marg.get(idx[axis], 0.0) + p
    return [marg[i] for i in sorted(marg)]


def bf_chain_rule(tensor: np.ndarray, given_axes) -> float:
    """Joint entropy minus the marginal entropies of the given axes (the
    clamped chain-rule surrogate), via explicit loops."""
    value = bf_joint_entropy(tensor)
    for axis in given_axes:
        value -= bf_entropy(bf_marginal(tensor, axis))
    return max(value, 0.0)


def bf_true_conditional(tensor: np.ndarray, given_axes) -> float:
    """Exact H(rest | given) = sum_g p(g) H(rest | g), by enumeration."""
    p = tensor / tensor.sum()
    given_axes = tuple(given_axes)
    other = tuple(a for a in range(p.ndim) if a not in given_axes)
    total = 0.0
    for assignment in itertools.product(
        *(range(p.shape[a]) for a in given_axes)
    ):
        index = [slice(None)] * p.ndim
        for axis, state in zip(given_axes, assignment):
            index[axis] = state
        block = p[tuple(index)]
        pg = block.sum()
        if pg > 0:
            total += pg * bf_entropy((block / pg).ravel())
    return total


def table_from_tensor(tensor: np.ndarray, pseudocount: float = 1e-9) -> JointTable:
    """Wrap a raw count/probability tensor as a JointTable: axis 0 is the
    predicting variable, context axes follow."""
    return JointTable(
        predicting=0,
        contexts=tuple(range(tensor.ndim - 1)),
        counts=np.asarray(tensor, dtype=float),
        pseudocount=pseudocount,
    )


@pytest.fixture
def binary_schema():
    return Schema(predicting_cardinalities=(2,), context_cardinalities=(2, 2))


@pytest.fixture
def small_schema():
    return Schema(
        predicting_cardinalities=(4, 4), context_cardinalities=(3, 3, 2)
    )
