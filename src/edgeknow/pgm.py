"""Discrete probabilistic graphical models summarised by their entropies.

A node's model of one trained predicting variable is the Laplace-smoothed
count table over that variable and the context combination it was trained
against: the config's pseudocount plus the workload's binned cell counts
(`cell_counts`). Only the table's summary is kept, computed once at set-up
from the counts (`table_entropies`, through `routing.local_entropy_sets`):
its joint entropy and the marginal entropy of each of its contexts, held as
the local entropy set `(joint, contexts, entropies)`, with one entropy slot
per context variable of the config and 0.0 in the slots of contexts the
table does not hold, since subtracting 0.0 changes no float. The routing
model keeps each distinct `(contexts, entropies)` once, as a row of its
entropy table, and an advertised set names its row by index.
Variables are plain ints indexed per kind: predicting variables 0..P-1 and
context variables 0..C-1; which kind an id is follows from where it is
held. The counts and cardinalities of both kinds are `engine.SimConfig`'s.
All entropies are in bits. The conditional answering quality for a set of
evidence variables, joint entropy minus the sum of the evidence marginal
entropies clamped at zero (exact only when the evidence variables are
independent), is computed for every node at once from the routing model's
local joints and entropy table in `routing.answer_entropy`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

# cells per batch of `table_entropies`, which bounds its float buffers
BATCH_CELLS = 1 << 16


def _row_entropies(p: np.ndarray) -> np.ndarray:
    """The entropy of each probability vector on the last axis of `p`, a 0
    adding 0; a row is summed as a flat vector is, whatever its batch."""
    terms = np.zeros_like(p)
    np.log2(p, out=terms, where=p > 0)
    terms *= p
    return -terms.sum(axis=-1)


def table_entropies(
    entries: Sequence, context_cardinality: int, pseudocount: float
) -> list[tuple[float, list[float]]]:
    """Per entry, in order, the joint entropy of its table and the marginal
    entropy of each of its contexts in axis order; an entry has the
    `contexts` and `counts` of an `engine.TrainedAssignment`, and its table
    is `pseudocount` plus its counts. One pass per number of contexts, in
    batches of about `BATCH_CELLS` cells. A joint is taken from the table's
    cells over their pairwise total, as from the table alone; a marginal
    state's mass is the integer count of its slice plus the pseudocount of
    its cells, over that total (counts are summed as floats: exact below
    2**53)."""
    card = context_cardinality
    by_width: dict[int, list[int]] = {}
    for i, entry in enumerate(entries):
        by_width.setdefault(len(entry.contexts), []).append(i)
    out: list = [None] * len(entries)
    for width, index in by_width.items():
        n_out, n_assign = entries[index[0]].counts.shape
        step = max(1, BATCH_CELLS // (n_out * n_assign))
        for start in range(0, len(index), step):
            batch = index[start : start + step]
            cells = np.empty((len(batch), n_out * n_assign))
            for row, i in zip(cells, batch):
                row[:] = entries[i].counts.reshape(-1)
            per_assign = cells.reshape(len(batch), n_out, n_assign).sum(axis=1)
            states = np.empty((len(batch), width, card))
            for axis in range(width):
                by_axis = per_assign.reshape(len(batch), card**axis, card, -1)
                states[:, axis] = by_axis.sum(axis=(1, 3))
            cells += pseudocount
            totals = cells.sum(axis=1)[:, None]
            cells /= totals
            states += pseudocount * (n_out * n_assign // card)
            states /= totals[:, None]
            joints = _row_entropies(cells).tolist()
            for i, joint, hs in zip(batch, joints, _row_entropies(states).tolist()):
                out[i] = (joint, hs)
    return out


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
