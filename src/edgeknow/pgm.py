"""Discrete probabilistic graphical models with entropy-based quality metrics.

A node's model is, per trained predicting variable, one JointTable: the
Laplace-smoothed counts (pseudocount plus observations) over that variable
and the context combination it was trained against, as `engine.train_pgms`
builds them from the workload's binned cell counts (`cell_counts`).
Variables are plain ints indexed per kind: predicting variables 0..P-1 and
context variables 0..C-1; which kind an id is follows from where it is held,
and a table is filed under its predicting variable's id. The counts and
cardinalities of both kinds are `engine.SimConfig`'s.
All entropies are in bits. This module computes a table's joint entropy and
the marginal entropies of its contexts. The conditional answering quality
for a set of evidence variables, joint entropy minus the sum of the evidence
marginal entropies clamped at zero (exact only when the evidence variables
are independent), is computed from those in `routing.answer_entropy`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "JointTable",
    "cell_counts",
    "joint_entropy",
    "marginal_entropy",
]


@dataclass
class JointTable:
    """Dense count tensor over (predicting states x context states).

    Axis 0 is the predicting variable; context axes follow in the ascending
    order of `contexts`. The tables `engine.train_pgms` builds hold smoothed
    counts, so every cell is positive."""

    contexts: tuple[int, ...]
    counts: np.ndarray

    def axis_of(self, context: int) -> int:
        """The axis of `context`; ValueError when the table lacks it."""
        return 1 + self.contexts.index(context)

    def probabilities(self) -> np.ndarray:
        return self.counts / self.counts.sum()


def _entropy_bits(p: np.ndarray) -> float:
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum())


def joint_entropy(table: JointTable) -> float:
    return _entropy_bits(table.probabilities().ravel())


def marginal_entropy(table: JointTable, context: int) -> float:
    axis = table.axis_of(context)
    p = table.probabilities()
    other = tuple(i for i in range(p.ndim) if i != axis)
    return _entropy_bits(p.sum(axis=other))


def cell_counts(
    n_outcomes: int,
    n_assignments: int,
    ctx_flat_idx: np.ndarray,
    outcomes: np.ndarray,
) -> np.ndarray:
    """How many observations fell into each (outcome, context assignment)
    cell, as an int64 array of shape (n_outcomes, n_assignments).
    `ctx_flat_idx` is the row-major flattened index of each observation's
    context assignment (ordered by the sorted context tuple)."""
    outcomes, ctx_flat_idx = np.asarray(outcomes), np.asarray(ctx_flat_idx)
    if not outcomes.size and not ctx_flat_idx.size:
        # an empty plain list reads as float64, which bincount refuses
        return np.zeros((n_outcomes, n_assignments), dtype=np.int64)
    # an out-of-range index would land in another cell of the flat count
    for index, bound in ((outcomes, n_outcomes), (ctx_flat_idx, n_assignments)):
        if index.size and not 0 <= index.min() <= index.max() < bound:
            raise ValueError("observation index out of range")
    cells = np.bincount(
        outcomes * n_assignments + ctx_flat_idx, minlength=n_outcomes * n_assignments
    )
    return cells.astype(np.int64, copy=False).reshape(n_outcomes, n_assignments)
