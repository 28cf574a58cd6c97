"""Discrete probabilistic graphical models with entropy-based quality metrics.

Each network node owns a DiscretePgm: per predicting variable, one joint count
table over that variable and the context combination it was trained against.
Variables are plain ints indexed per kind: predicting variables 0..P-1 and
context variables 0..C-1; which kind an id is follows from where it is held.
Probabilities come from Laplace-smoothed counts (uniform prior); all entropies
are in bits. A table's conditional answering quality for a set of evidence
variables is joint entropy minus the sum of the evidence marginal entropies,
clamped at zero (exact only when the evidence variables are independent; the
clamp is counted in `clamp_diagnostics`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

__all__ = [
    "Schema",
    "ContextAssignment",
    "JointTable",
    "DiscretePgm",
    "entropy",
    "joint_entropy",
    "marginal_entropy",
    "conditional_entropy",
    "clamp_diagnostics",
    "NotADistribution",
    "UnknownVariable",
    "ContextMismatch",
    "NoKnowledge",
]


class NotADistribution(ValueError):
    pass


class UnknownVariable(KeyError):
    pass


class ContextMismatch(ValueError):
    pass


class NoKnowledge(LookupError):
    pass


# A context assignment binds context variables to concrete state indices.
ContextAssignment = Mapping[int, int]


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


class _ClampDiagnostics:
    """Counts how often a negative chain-rule result was clamped to zero."""

    def __init__(self):
        self.count = 0

    def reset(self):
        self.count = 0


clamp_diagnostics = _ClampDiagnostics()


def _entropy_bits(p: np.ndarray) -> float:
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum())


def entropy(dist) -> float:
    """Shannon entropy in bits of a probability vector, with 0*log(0) = 0."""
    p = np.asarray(dist, dtype=float)
    if p.size == 0 or np.any(p < 0) or abs(p.sum() - 1.0) > 1e-9:
        raise NotADistribution(f"not a probability vector: {dist!r}")
    return _entropy_bits(p)


def joint_entropy(table: JointTable) -> float:
    return _entropy_bits(table.probabilities().ravel())


def marginal_entropy(table: JointTable, context: int) -> float:
    axis = table.axis_of(context)
    p = table.probabilities()
    other = tuple(i for i in range(p.ndim) if i != axis)
    return _entropy_bits(p.sum(axis=other))


def conditional_entropy(table: JointTable, given: Iterable[int]) -> float:
    """Remaining uncertainty after observing the contexts `given`: joint minus
    the sum of the evidence marginals, clamped at zero."""
    value = joint_entropy(table)
    for var in given:
        value -= marginal_entropy(table, var)
    if value < 0:
        clamp_diagnostics.count += 1
        value = 0.0
    return value


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

    def observe(self, target: int, ctx: ContextAssignment, outcome: int):
        """Count one observation; the first observation fixes the context
        combination of the target's table."""
        for var, state in ctx.items():
            if not 0 <= state < self.schema.context_cardinality(var):
                raise ValueError(f"state {state} out of range for context {var}")
        if not 0 <= outcome < self.schema.predicting_cardinality(target):
            raise ValueError(f"outcome {outcome} out of range for {target}")
        table = self._table_for(target, frozenset(ctx))
        idx = (outcome,) + tuple(ctx[c] for c in table.contexts)
        table.counts[idx] += 1.0
        self.observation_count[target] = self.observation_count.get(target, 0) + 1

    def observe_block(
        self,
        target: int,
        contexts: Iterable[int],
        ctx_flat_idx: np.ndarray,
        outcomes: np.ndarray,
    ):
        """Bulk form of observe: `ctx_flat_idx` is the row-major flattened
        index of the context assignment for each observation (ordered by the
        sorted context tuple)."""
        keys = frozenset(contexts)
        table = self._table_for(target, keys)
        flat = table.counts.reshape(table.counts.shape[0], -1)
        np.add.at(flat, (np.asarray(outcomes), np.asarray(ctx_flat_idx)), 1.0)
        self.observation_count[target] = self.observation_count.get(
            target, 0
        ) + len(outcomes)

    def predict(self, target: int, ctx: ContextAssignment) -> np.ndarray:
        """Distribution over the target's states given the bound contexts:
        slice the bound axes, marginalize the rest, normalize."""
        table = self.tables.get(target)
        if table is None or self.observation_count.get(target, 0) == 0:
            raise NoKnowledge(target)
        index = [slice(None)] * table.counts.ndim
        for var, state in ctx.items():
            index[table.axis_of(var)] = state
        sliced = table.counts[tuple(index)]
        if sliced.ndim > 1:
            sliced = sliced.sum(axis=tuple(range(1, sliced.ndim)))
        return sliced / sliced.sum()

    @property
    def trained_vars(self) -> frozenset[int]:
        return frozenset(
            v for v, n in self.observation_count.items() if n > 0
        )
