"""Discrete probabilistic graphical models with entropy-based quality metrics.

Each network node owns a DiscretePgm: per predicting variable, one joint count
table over that variable and the context combination it was trained against.
Variables are plain ints indexed per kind: predicting variables 0..P-1 and
context variables 0..C-1; which kind an id is follows from where it is held.
Observations arrive binned, as the per-cell counts `cell_counts` makes.
Probabilities come from Laplace-smoothed counts (uniform prior); all entropies
are in bits. This module computes a table's joint entropy and the marginal
entropies of its contexts. The conditional answering quality for a set of
evidence variables, joint entropy minus the sum of the evidence marginal
entropies clamped at zero (exact only when the evidence variables are
independent), is computed from those in `routing.answer_entropy`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

__all__ = [
    "Schema",
    "JointTable",
    "DiscretePgm",
    "cell_counts",
    "joint_entropy",
    "marginal_entropy",
    "NotADistribution",
    "UnknownVariable",
    "ContextMismatch",
]


class NotADistribution(ValueError):
    pass


class UnknownVariable(KeyError):
    pass


class ContextMismatch(ValueError):
    pass


def _cardinality(cards: tuple[int, ...], var: int) -> int:
    # a negative id must not wrap around through tuple indexing
    if not 0 <= var < len(cards):
        raise UnknownVariable(var)
    return cards[var]


@dataclass(frozen=True)
class Schema:
    """Shared structure of every node's model: state counts per variable."""

    predicting_cardinalities: tuple[int, ...]
    context_cardinalities: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "predicting_cardinalities", tuple(self.predicting_cardinalities)
        )
        object.__setattr__(
            self, "context_cardinalities", tuple(self.context_cardinalities)
        )
        for card in self.predicting_cardinalities + self.context_cardinalities:
            if card < 2:
                raise ValueError(f"cardinality must be >= 2, got {card}")

    @property
    def context_vars(self) -> range:
        return range(len(self.context_cardinalities))

    def predicting_cardinality(self, var: int) -> int:
        return _cardinality(self.predicting_cardinalities, var)

    def context_cardinality(self, var: int) -> int:
        return _cardinality(self.context_cardinalities, var)


@dataclass
class JointTable:
    """Dense count tensor over (predicting states x context states).

    Axis 0 is the predicting variable; context axes follow in the (sorted)
    order of `contexts`. Every cell starts at `pseudocount`.
    """

    predicting: int
    contexts: tuple[int, ...]
    counts: np.ndarray
    pseudocount: float = 1.0

    @classmethod
    def fresh(
        cls,
        schema: Schema,
        predicting: int,
        contexts: Iterable[int],
        pseudocount: float = 1.0,
    ) -> "JointTable":
        if pseudocount <= 0:
            raise ValueError("pseudocount must be positive")
        ctxs = tuple(sorted(contexts))
        shape = (schema.predicting_cardinality(predicting),) + tuple(
            schema.context_cardinality(c) for c in ctxs
        )
        counts = np.full(shape, float(pseudocount))
        return cls(predicting, ctxs, counts, pseudocount)

    def axis_of(self, context: int) -> int:
        try:
            return 1 + self.contexts.index(context)
        except ValueError:
            raise UnknownVariable(context) from None

    def probabilities(self) -> np.ndarray:
        total = self.counts.sum()
        if self.counts.size == 0 or total <= 0:
            raise NotADistribution("table has no mass")
        return self.counts / total


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


@dataclass
class DiscretePgm:
    """One node's model: a joint table per trained predicting variable."""

    schema: Schema
    pseudocount: float = 1.0
    tables: dict[int, JointTable] = field(default_factory=dict)
    observation_count: dict[int, int] = field(default_factory=dict)

    def _table_for(self, target: int, keys: frozenset[int]) -> JointTable:
        table = self.tables.get(target)
        if table is None:
            extra = keys.difference(self.schema.context_vars)
            if extra:
                raise ContextMismatch(f"{sorted(extra)} are not context vars")
            table = JointTable.fresh(self.schema, target, keys, self.pseudocount)
            self.tables[target] = table
        elif frozenset(table.contexts) != keys:
            raise ContextMismatch(
                f"{target} trained with contexts {table.contexts}, got {sorted(keys)}"
            )
        return table

    def observe_counts(self, target: int, contexts: Iterable[int], counts: np.ndarray):
        """Add per-cell observation counts, shaped (outcomes, context
        assignments) as `cell_counts` returns them, to the target's table;
        the first call fixes the table's context combination. A wrong-shaped
        or negative counts array raises ValueError and leaves the table
        untouched."""
        table = self._table_for(target, frozenset(contexts))
        n_out = table.counts.shape[0]
        counts = np.asarray(counts)
        if counts.shape != (n_out, table.counts.size // n_out):
            raise ValueError(
                f"counts of shape {counts.shape} do not fit the table of {target}"
            )
        if counts.min() < 0:
            raise ValueError(f"negative observation count for {target}")
        # cells hold pseudocount + n
        table.counts += counts.reshape(table.counts.shape)
        self.observation_count[target] = self.observation_count.get(
            target, 0
        ) + int(counts.sum())

    @property
    def trained_vars(self) -> frozenset[int]:
        return frozenset(
            v for v, n in self.observation_count.items() if n > 0
        )
