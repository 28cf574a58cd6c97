"""Routing models, entropy-set advertisement, query forwarding.

Nodes advertise, per predicting variable, up to K entropy sets (one per
context combination): a joint entropy plus the marginal entropies of the
combination's context variables. Sets learned from a neighbor are re-advertised
with a small additive per-hop inflation so that loops cannot sustain
spuriously low values and shortest paths win ties. Local sets whose
evidence-free conditional quality is poor are advertised in reduced
(joint-only) form; those still steer queries toward the cluster that trained
the variable, where context-aware scoring takes over.

Propagation is incremental in the manner of routing indices (Crespo and
Garcia-Molina, ICDCS 2002): integrating an advertisement reports which
variables' lists changed, and the receiver rebuilds, compares and re-sorts
only those variables. Because every neighbor of a sender receives the same
advertisements, one routing model per sender, shared by its neighbors,
stands for all their copies. An advertisement is sent as a delta, in the
manner of triggered updates (RIP, RFC 2453 §3.10.1): a node keeps the lists
it built since its last send that differ from its published model, and a
send carries only those. Receivers keep the variables a delta leaves out,
so while the overlay is static and every neighbor received every earlier
delta, routes are those full snapshots would give; the traffic counted,
`adv_sets_sent`, is the sets of the delta times the number of neighbors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Optional

import numpy as np

from .pgm import JointTable, joint_entropy, marginal_entropy

NodeId = int


@dataclass(slots=True)
class EntropySet:
    """Advertised quality summary for one predicting variable in one context
    combination. Empty context_entropies marks the reduced (joint-only) form.

    Sets, and the lists of sets an advertisement holds, are never mutated
    after a build: inflated copies share their source's context entropies
    and combination, and one sent list is shared by every receiver's
    routing model."""

    predicting: int
    joint: float
    context_entropies: dict[int, float] = field(default_factory=dict)
    # the bound context variables, derived from context_entropies when not
    # given; computed once here because every offer and check keys on it
    combination: Optional[frozenset[int]] = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self):
        if self.combination is None:
            self.combination = frozenset(self.context_entropies)

    def inflated(self, eps: float) -> "EntropySet":
        return EntropySet(
            self.predicting, self.joint + eps, self.context_entropies, self.combination
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


# what a node advertises: per predicting variable, up to K entropy sets
Advertisement = dict[int, list[EntropySet]]

_joint = attrgetter("joint")


@dataclass
class RoutingModel:
    """Summary of the knowledge reachable through one neighbor."""

    entries: dict[int, list[EntropySet]] = field(default_factory=dict)

    def best_score(self, target: int, bound: frozenset[int]) -> float:
        """The lowest `EntropySet.score` over the target's sets, inf when
        there are none. Inlined: clamping the minimum once equals the
        minimum of clamped scores, and subtracting in `bound`'s order, as
        `score` does, keeps every float bit-identical."""
        best = math.inf
        for s in self.entries.get(target, ()):
            value = s.joint
            hs = s.context_entropies
            for var in bound:
                h = hs.get(var)
                if h is not None:
                    value -= h
            if value < best:
                best = value
        return max(best, 0.0)


@dataclass
class Query:
    target: int
    ctx: dict[int, int]
    hops_remaining: int
    issuer: NodeId
    # the node whose local answer set `quality`; None while none could answer
    answered_by: Optional[NodeId] = None
    quality: float = math.inf
    visited: list[NodeId] = field(default_factory=list)


@dataclass
class NodeState:
    """Everything one node owns: its model (a smoothed count table per
    trained predicting variable), its neighborhood, and one routing model
    per neighbor. The local sets, computed from the tables on first use,
    are safe to keep because the tables are static once the cycles start;
    the forwarding orders and the next advertisement depend on the routing
    models, so whoever changes a model calls `models_changed`.

    Every neighbor receives the same advertisements in the same order, so
    the model of what is reachable through a node is kept once, as its
    `published` model, and each neighbor's `routing_models[node_id]` is that
    same object. Receivers only read their routing models; the node's sends
    are integrated into `published`, which therefore holds what the
    neighbors were told. `unsent` holds the lists built since the last send
    that differ by value from `published`: a send carries exactly those,
    which is all the neighbors lack while the overlay is static and each of
    them received every earlier send, and `adv_sets_sent` counts their sets
    once per neighbor."""

    node_id: NodeId
    tables: dict[int, JointTable]
    neighbors: list[NodeId] = field(default_factory=list)
    routing_models: dict[NodeId, RoutingModel] = field(default_factory=dict)
    # what this node's sends have told its neighbors so far
    published: RoutingModel = field(default_factory=RoutingModel)
    # the lists built since the last send that differ from `published`
    unsent: Advertisement = field(default_factory=dict)
    # variables to rebuild: at set-up the trained ones, then those whose
    # routing-model entries changed since the last build
    changed_vars: set[int] = field(default_factory=set)
    _local_sets: Optional[dict[int, EntropySet]] = None
    # per target, per evidence variable set: neighbors by (best_score, id)
    _order_cache: dict[int, dict] = field(default_factory=dict)

    def local_sets(self) -> dict[int, EntropySet]:
        if self._local_sets is None:
            self._local_sets = local_entropy_sets(self.tables)
        return self._local_sets

    def local_answer(self, target: int, bound: frozenset[int]) -> Optional[float]:
        return answer_entropy(self.local_sets(), target, bound)

    def forwarding_order(self, target: int, bound: frozenset[int]) -> list[NodeId]:
        """Neighbors sorted by the conditional entropy their routing models
        promise for `target` under evidence on `bound`, ties to the lowest id."""
        orders = self._order_cache.get(target)
        if orders is None:
            orders = self._order_cache[target] = {}
        order = orders.get(bound)
        if order is None:
            models = self.routing_models
            order = sorted(
                self.neighbors,
                key=lambda n: (models[n].best_score(target, bound), n),
            )
            orders[bound] = order
        return order

    def models_changed(self, changed: set[int]):
        """Record that the routing models' lists for the variables in
        `changed` changed by value: the next cycle rebuilds those variables
        of this node's advertisement, and their forwarding orders are
        recomputed. Orders for other targets stay cached. `changed` is
        copied, never kept: one set is passed to every neighbor of a
        sender, so no caller may mutate it."""
        if changed:
            self.changed_vars |= changed
            for var in changed:
                self._order_cache.pop(var, None)


def local_entropy_sets(tables: dict[int, JointTable]) -> dict[int, EntropySet]:
    """Per trained predicting variable, in ascending order, the full entropy
    set computed from its joint table."""
    return {
        var: EntropySet(
            predicting=var,
            joint=joint_entropy(table),
            context_entropies={c: marginal_entropy(table, c) for c in table.contexts},
        )
        for var, table in sorted(tables.items())
    }


def answer_entropy(
    local_sets: dict[int, EntropySet], target: int, bound: Iterable[int]
) -> Optional[float]:
    """The node's remaining uncertainty to answer a query for `target` with
    evidence on `bound`, or None if the target is untrained here: the score
    of the node's own entropy set for `target`, which holds the joint and
    marginal entropies of its table, so the value is the table's joint
    entropy minus the marginal entropies of the bound contexts it holds,
    clamped at zero."""
    s = local_sets.get(target)
    return None if s is None else s.score(bound)


def build_advertisement(
    local_sets: dict[int, EntropySet],
    routing_models: Iterable[RoutingModel],
    policy: AdvertisementPolicy,
    k: int,
    variables: Iterable[int],
) -> Advertisement:
    """The lists this node would advertise for `variables`: per variable, the
    K lowest-joint sets over distinct context combinations, drawn from its
    local set and its routing models, with sets from routing models inflated
    by one hop and a low-quality local set reduced to joint-only form. Ties
    in joint go to the combination offered first: the local set, then the
    models in iteration order."""
    models = [model.entries for model in routing_models]
    eps = policy.hop_inflation
    adv = {}
    for var in variables:
        # per combination: the minimum-joint candidate
        best: dict[frozenset, EntropySet] = {}
        s = local_sets.get(var)
        if s is not None:
            if s.score(s.combination) > policy.quality_threshold:
                s = EntropySet(var, s.joint)
            best[s.combination] = s
        for entries in models:
            for s in entries.get(var, ()):
                cur = best.get(s.combination)
                if cur is None or s.joint + eps < cur.joint:
                    best[s.combination] = s.inflated(eps)
        adv[var] = sorted(best.values(), key=_joint)[:k]
    return adv


def integrate_advertisement(model: RoutingModel, entries: Advertisement) -> set[int]:
    """Replace the model's entries per advertised variable; variables absent
    from the advertisement are retained. Returns the variables whose list
    changed by value. Lists are stored as they are: the engine integrates
    only what `build_advertisement` made, at most K sets per variable over
    distinct combinations in ascending joint order.

    The engine integrates each send once, into the sender's published model,
    and hands the returned set to every neighbor."""
    changed = set()
    held = model.entries
    for var, sets in entries.items():
        if sets != held.get(var):
            changed.add(var)
        held[var] = sets
    return changed


def should_advertise(
    previous: Advertisement,
    current: Advertisement,
    policy: AdvertisementPolicy,
) -> bool:
    """True when a list in `current` differs from the one `previous` holds
    for its variable (none before the first send): in its combinations, or
    by more than the change threshold in a joint. The engine passes the
    sender's published model as `previous` and only the rebuilt lists that
    differ from it by value as `current`."""
    threshold = policy.change_threshold
    for var, new in current.items():
        old = previous.get(var, ())
        if len(old) != len(new):
            return True
        joints = {s.combination: s.joint for s in old}
        for s in new:
            joint = joints.get(s.combination)
            if joint is None or abs(s.joint - joint) > threshold:
                return True
    return False


def _arrive(state: NodeState, query: Query, bound: frozenset[int]) -> bool:
    """Handle one query arrival: take over the answer when the local model's is
    strictly better and record the visit. True when the query goes on, that
    is when hops remain and the node has neighbors; the hop is then spent."""
    local = state.local_answer(query.target, bound)
    if local is not None and local < query.quality:
        query.answered_by = state.node_id
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
