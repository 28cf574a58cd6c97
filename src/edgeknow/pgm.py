"""Discrete probabilistic graphical models with entropy-based quality metrics.

Each network node owns a DiscretePgm: per predicting variable, one joint count
table over that variable and the context combination it was trained against.
Probabilities come from Laplace-smoothed counts (uniform prior); all entropies
are in bits. A table's conditional answering quality for a set of evidence
variables is joint entropy minus the sum of the evidence marginal entropies,
clamped at zero (exact only when the evidence variables are independent; the
clamp is counted in `clamp_diagnostics`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Iterable, Mapping

import numpy as np

__all__ = [
    "VarKind",
    "VariableId",
    "pvar",
    "cvar",
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


class VarKind(IntEnum):
    PREDICTING = 0
    CONTEXT = 1


@dataclass(frozen=True, order=True)
class VariableId:
    kind: VarKind
    index: int

    def __repr__(self):
        return f"{'P' if self.kind == VarKind.PREDICTING else 'C'}{self.index}"


def pvar(index: int) -> VariableId:
    return VariableId(VarKind.PREDICTING, index)


def cvar(index: int) -> VariableId:
    return VariableId(VarKind.CONTEXT, index)


# A context assignment binds context variables to concrete state indices.
ContextAssignment = Mapping[VariableId, int]


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
    def context_vars(self) -> tuple[VariableId, ...]:
        return tuple(cvar(i) for i in range(len(self.context_cardinalities)))

    def cardinality(self, var: VariableId) -> int:
        cards = (
            self.predicting_cardinalities
            if var.kind == VarKind.PREDICTING
            else self.context_cardinalities
        )
        if not 0 <= var.index < len(cards):
            raise UnknownVariable(var)
        return cards[var.index]


@dataclass
class JointTable:
    """Dense count tensor over (predicting states x context states).

    Axis 0 is the predicting variable; context axes follow in the (sorted)
    order of `contexts`. Every cell starts at `pseudocount`.
    """

    predicting: VariableId
    contexts: tuple[VariableId, ...]
    counts: np.ndarray
    pseudocount: float = 1.0

    @classmethod
    def fresh(
        cls,
        schema: Schema,
        predicting: VariableId,
        contexts: Iterable[VariableId],
        pseudocount: float = 1.0,
    ) -> "JointTable":
        if pseudocount <= 0:
            raise ValueError("pseudocount must be positive")
        ctxs = tuple(sorted(contexts))
        shape = (schema.cardinality(predicting),) + tuple(
            schema.cardinality(c) for c in ctxs
        )
        counts = np.full(shape, float(pseudocount))
        return cls(predicting, ctxs, counts, pseudocount)

    def axis_of(self, var: VariableId) -> int:
        if var == self.predicting:
            return 0
        try:
            return 1 + self.contexts.index(var)
        except ValueError:
            raise UnknownVariable(var) from None

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


def marginal_entropy(table: JointTable, var: VariableId) -> float:
    axis = table.axis_of(var)
    p = table.probabilities()
    other = tuple(i for i in range(p.ndim) if i != axis)
    return _entropy_bits(p.sum(axis=other))


def conditional_entropy(table: JointTable, given: Iterable[VariableId]) -> float:
    """Remaining uncertainty after observing `given`: joint minus the sum of
    the evidence marginals, clamped at zero."""
    given = tuple(given)
    for var in given:
        if var == table.predicting or var not in table.contexts:
            raise UnknownVariable(var)
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
    tables: dict[VariableId, JointTable] = field(default_factory=dict)
    observation_count: dict[VariableId, int] = field(default_factory=dict)

    def _table_for(
        self, target: VariableId, keys: frozenset[VariableId]
    ) -> JointTable:
        if target.kind != VarKind.PREDICTING:
            raise UnknownVariable(target)
        table = self.tables.get(target)
        if table is None:
            extra = keys - frozenset(self.schema.context_vars)
            if extra:
                raise ContextMismatch(f"{sorted(extra)} are not context vars")
            table = JointTable.fresh(self.schema, target, keys, self.pseudocount)
            self.tables[target] = table
        elif frozenset(table.contexts) != keys:
            raise ContextMismatch(
                f"{target} trained with contexts {table.contexts}, got {sorted(keys)}"
            )
        return table

    def observe(self, target: VariableId, ctx: ContextAssignment, outcome: int):
        """Count one observation; the first observation fixes the context
        combination of the target's table."""
        for var, state in ctx.items():
            if var.kind != VarKind.CONTEXT:
                raise ContextMismatch(f"{var} is not a context variable")
            if not 0 <= state < self.schema.cardinality(var):
                raise ValueError(f"state {state} out of range for {var}")
        if not 0 <= outcome < self.schema.cardinality(target):
            raise ValueError(f"outcome {outcome} out of range for {target}")
        table = self._table_for(target, frozenset(ctx))
        idx = (outcome,) + tuple(ctx[c] for c in table.contexts)
        table.counts[idx] += 1.0
        self.observation_count[target] = self.observation_count.get(target, 0) + 1

    def observe_block(
        self,
        target: VariableId,
        contexts: Iterable[VariableId],
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

    def predict(self, target: VariableId, ctx: ContextAssignment) -> np.ndarray:
        """Distribution over the target's states given the bound contexts:
        slice the bound axes, marginalize the rest, normalize."""
        table = self.tables.get(target)
        if table is None or self.observation_count.get(target, 0) == 0:
            raise NoKnowledge(target)
        index = [slice(None)] * table.counts.ndim
        for var, state in ctx.items():
            if var not in table.contexts:
                raise UnknownVariable(var)
            index[table.axis_of(var)] = state
        sliced = table.counts[tuple(index)]
        if sliced.ndim > 1:
            sliced = sliced.sum(axis=tuple(range(1, sliced.ndim)))
        return sliced / sliced.sum()

    @property
    def trained_vars(self) -> frozenset[VariableId]:
        return frozenset(
            v for v, n in self.observation_count.items() if n > 0
        )
