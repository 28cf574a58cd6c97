"""Per-neighbor routing models, entropy-set advertisement, query forwarding.

Nodes advertise, per predicting variable, up to K entropy sets (one per
context combination): a joint entropy plus the marginal entropies of the
combination's context variables. Sets learned from a neighbor are re-advertised
with a small additive per-hop inflation so that loops cannot sustain
spuriously low values and shortest paths win ties. Local sets whose
evidence-free conditional quality is poor are advertised in reduced
(joint-only) form; those still steer queries toward the cluster that trained
the variable, where context-aware scoring takes over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .pgm import (
    DiscretePgm,
    conditional_entropy,
    joint_entropy,
    marginal_entropy,
)

NodeId = int


class MalformedAdvertisement(ValueError):
    pass


@dataclass
class EntropySet:
    """Advertised quality summary for one predicting variable in one context
    combination. Empty context_entropies marks the reduced (joint-only) form."""

    predicting: int
    joint: float
    context_entropies: dict[int, float] = field(default_factory=dict)

    @property
    def combination(self) -> frozenset[int]:
        return frozenset(self.context_entropies)

    def inflated(self, eps: float) -> "EntropySet":
        return EntropySet(
            self.predicting,
            self.joint + eps,
            dict(self.context_entropies),
        )

    def score(self, bound: Iterable[int]) -> float:
        """Conditional entropy estimate for evidence on `bound`: only bound
        variables present in this set contribute to the subtraction."""
        value = self.joint
        for var in bound:
            h = self.context_entropies.get(var)
            if h is not None:
                value -= h
        return max(value, 0.0)


@dataclass
class AdvertisementPolicy:
    change_threshold: float = 0.05
    quality_threshold: float = 2.4
    hop_inflation: float = 0.01

    def __post_init__(self):
        if min(self.change_threshold, self.quality_threshold,
               self.hop_inflation) < 0:
            raise ValueError("policy fields must be non-negative")


# what a node advertises: per predicting variable, up to K entropy sets
Advertisement = dict[int, list[EntropySet]]


@dataclass
class RoutingModel:
    """Summary of the knowledge reachable through one neighbor."""

    k: int
    entries: dict[int, list[EntropySet]] = field(default_factory=dict)

    def best_score(self, target: int, bound: frozenset[int]) -> float:
        return min(
            (s.score(bound) for s in self.entries.get(target, ())),
            default=math.inf,
        )


@dataclass
class Query:
    target: int
    ctx: dict[int, int]
    hops_remaining: int
    issuer: NodeId
    result: Optional[np.ndarray] = None
    quality: float = math.inf
    visited: list[NodeId] = field(default_factory=list)


@dataclass
class NodeState:
    """Everything one node owns: its PGM, its neighborhood, and one routing
    model per neighbor. The local caches are safe because the PGM is static
    once the simulation cycles start; the forwarding orders depend on the
    routing models, so whoever changes a model calls `models_changed`."""

    node_id: NodeId
    pgm: DiscretePgm
    neighbors: list[NodeId] = field(default_factory=list)
    routing_models: dict[NodeId, RoutingModel] = field(default_factory=dict)
    last_advertisement: Optional[Advertisement] = None
    models_dirty: bool = True
    _local_sets: Optional[list[EntropySet]] = None
    _answer_cache: dict = field(default_factory=dict)
    # per (target, evidence variable set): neighbors by (best_score, id)
    _order_cache: dict = field(default_factory=dict)

    def local_sets(self) -> list[EntropySet]:
        if self._local_sets is None:
            self._local_sets = local_entropy_sets(self.pgm)
        return self._local_sets

    def local_answer(self, target: int, bound: frozenset[int]):
        key = (target, bound)
        if key not in self._answer_cache:
            self._answer_cache[key] = answer_entropy(self.pgm, target, bound)
        return self._answer_cache[key]

    def forwarding_order(self, target: int, bound: frozenset[int]) -> list[NodeId]:
        """Neighbors sorted by the conditional entropy their routing models
        promise for `target` under evidence on `bound`, ties to the lowest id."""
        key = (target, bound)
        order = self._order_cache.get(key)
        if order is None:
            models = self.routing_models
            order = sorted(
                self.neighbors,
                key=lambda n: (models[n].best_score(target, bound), n),
            )
            self._order_cache[key] = order
        return order

    def models_changed(self):
        """Mark the routing models as changed: the next cycle rebuilds this
        node's advertisement and every forwarding order is recomputed."""
        self.models_dirty = True
        self._order_cache.clear()


def local_entropy_sets(pgm: DiscretePgm) -> list[EntropySet]:
    """One full entropy set per trained predicting variable, computed from
    its joint table."""
    sets = []
    for var in sorted(pgm.trained_vars):
        table = pgm.tables[var]
        sets.append(
            EntropySet(
                predicting=var,
                joint=joint_entropy(table),
                context_entropies={
                    c: marginal_entropy(table, c) for c in table.contexts
                },
            )
        )
    return sets


def answer_entropy(
    pgm: DiscretePgm, target: int, bound: Iterable[int]
) -> Optional[float]:
    """The node's remaining uncertainty to answer a query for `target` with
    evidence on `bound`, or None if the target is untrained here."""
    table = pgm.tables.get(target)
    if table is None or pgm.observation_count.get(target, 0) == 0:
        return None
    given = [v for v in bound if v in table.contexts]
    return conditional_entropy(table, given)


def build_advertisement(
    local_sets: list[EntropySet],
    routing_models: Iterable[RoutingModel],
    policy: AdvertisementPolicy,
    k: int,
) -> Advertisement:
    """Aggregate local and neighbor-learned entropy sets into the summary this
    node would advertise: per predicting variable, the K lowest-joint sets over
    distinct context combinations, with sets drawn from routing models inflated
    by one hop and low-quality local sets reduced to joint-only form."""
    if k < 1:
        raise ValueError("k must be >= 1")

    # per variable, per combination: the minimum-joint candidate
    best: dict[int, dict[frozenset, EntropySet]] = {}

    def offer(s: EntropySet):
        combos = best.setdefault(s.predicting, {})
        cur = combos.get(s.combination)
        if cur is None or s.joint < cur.joint:
            combos[s.combination] = s

    for s in local_sets:
        if s.score(s.combination) > policy.quality_threshold:
            offer(EntropySet(s.predicting, s.joint))
        else:
            offer(s)
    for model in routing_models:
        for sets in model.entries.values():
            for s in sets:
                offer(s.inflated(policy.hop_inflation))

    return {
        var: sorted(combos.values(), key=lambda s: s.joint)[:k]
        for var, combos in best.items()
    }


def integrate_advertisement(model: RoutingModel, entries: Advertisement):
    """Replace the model's entries per advertised variable; variables absent
    from the advertisement are retained."""
    for var, sets in entries.items():
        if len(sets) > model.k:
            raise MalformedAdvertisement(
                f"{len(sets)} sets for {var} exceeds K={model.k}"
            )
        combos = [s.combination for s in sets]
        if len(set(combos)) != len(combos):
            raise MalformedAdvertisement(f"duplicate combination for {var}")
        model.entries[var] = sorted(sets, key=lambda s: s.joint)


def should_advertise(
    previous: Optional[Advertisement],
    current: Advertisement,
    policy: AdvertisementPolicy,
) -> bool:
    if previous is None:
        return True
    old, new = (
        {(var, s.combination): s.joint for var, sets in adv.items() for s in sets}
        for adv in (previous, current)
    )
    if set(old) != set(new):
        return True
    return any(abs(new[k] - old[k]) > policy.change_threshold for k in new)


def _arrive(state: NodeState, query: Query, bound: frozenset[int]) -> bool:
    """Handle one query arrival: improve the result from the local PGM when
    strictly better and record the visit. True when the query goes on, that
    is when hops remain and the node has neighbors; the hop is then spent."""
    local = state.local_answer(query.target, bound)
    if local is not None and local < query.quality:
        table = state.pgm.tables[query.target]
        known = {v: s for v, s in query.ctx.items() if v in table.contexts}
        query.result = state.pgm.predict(query.target, known)
        query.quality = local
    query.visited.append(state.node_id)
    if query.hops_remaining > 0 and state.neighbors:
        query.hops_remaining -= 1
        return True
    return False


def process_query(state: NodeState, query: Query) -> Optional[NodeId]:
    """Handle one query arrival and return the next node: the unvisited
    neighbor scoring the smallest conditional entropy (the best of all
    neighbors once every one is visited), or None when the query goes back
    to its issuer."""
    bound = frozenset(query.ctx)
    if not _arrive(state, query, bound):
        return None
    order = state.forwarding_order(query.target, bound)
    for n in order:
        if n not in query.visited:
            return n
    return order[0]


def random_walk_step(
    state: NodeState, query: Query, rng: np.random.Generator
) -> Optional[NodeId]:
    """Directed random walk baseline: identical arrival handling, but the
    next node is uniform over unvisited neighbors (any neighbor once all are
    visited)."""
    if not _arrive(state, query, frozenset(query.ctx)):
        return None
    candidates = [n for n in state.neighbors if n not in query.visited]
    candidates = candidates or state.neighbors
    return candidates[rng.integers(len(candidates))]
