"""Routing model, entropy-set advertisement, query forwarding.

Nodes advertise, per predicting variable, up to K entropy sets (one per
context combination): a joint entropy plus the marginal entropies of the
combination's context variables. Every set starts as a node's local set, the
summary of one trained table, so an advertised set is its joint and its
origin, the index of that local set's `(contexts, entropies)` row in the
trial's entropy table; `entropies` has one slot per context variable, 0.0
where the set has no context, and since `x - 0.0 == x` for every float, a
score that subtracts the slot of every bound context is exactly the joint
minus the held bound marginals. Sets learned from a neighbor are
re-advertised with a small additive per-hop inflation so that loops cannot
sustain spuriously low values and shortest paths win ties. Local sets whose
evidence-free conditional quality is poor are advertised in reduced
(joint-only) form, origin 0; those still steer queries toward the cluster
that trained the variable, where context-aware scoring takes over.

Propagation is incremental in the manner of routing indices (Crespo and
Garcia-Molina, ICDCS 2002): a node rebuilds only the variables whose lists
changed at a neighbor. Every neighbor of a sender receives the same
advertisements, so one trial-wide `RoutingModel` holds, per node, the lists
it has told its neighbors, and stands for all their copies. An
advertisement is sent as a delta, in the manner of triggered updates (RIP,
RFC 2453 §3.10.1): a node keeps the lists it built since its last send that
differ from its published lists, and a send carries only those. Receivers
keep the variables a delta leaves out, so while the overlay is static and
every neighbor received every earlier delta, routes are those full
snapshots would give; the traffic counted, `adv_sets_sent`, is the sets of
the delta times the number of neighbors.

The model holds everything per variable as arrays over nodes: the published
lists as (nodes x K) joints, padded with inf, and origins, padded with 0;
the unsent lists alike, with a pending mask; and which nodes must rebuild
the variable. Every build of a cycle reads the lists as they stood at its
start, so `build_advertisement`, `should_advertise` and
`integrate_advertisement` each handle one variable for every affected node
at once. A set's combination is the table's combination id of its origin. A
query's next hop is read from one vector per (target, evidence) key that
scores every node's list at once: numpy subtracts elementwise in the
evidence set's order, so each score is the float `_score` gives for that
set. Beside the vector, the model keeps each node's neighbors sorted by it,
the node's forwarding order for the key; an integration of the target drops
both.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .pgm import table_entropies

NodeId = int


# A node's local entropy set of one trained variable, the row (joint,
# contexts, entropies): `contexts` is the table's ascending context tuple
# and `entropies` is `context_var_count` wide.
EntropySet = tuple[float, tuple[int, ...], tuple[float, ...]]


def _score(joint: float, entropies: Sequence[float], bound: Iterable[int]) -> float:
    """Conditional entropy estimate of a set for evidence on `bound`: its
    joint minus the entropies of the bound variables in `bound`'s iteration
    order, clamped at zero; bound variables the set does not hold subtract
    0.0."""
    for var in bound:
        joint -= entropies[var]
    return max(joint, 0.0)


@dataclass
class AdvertisementPolicy:
    change_threshold: float = 0.005
    quality_threshold: float = 2.4
    hop_inflation: float = 0.001


class RoutingModel:
    """What every node has told its neighbors, what it has still to tell,
    and what the trial derives from it, over fixed neighbor lists.

    Per variable and node: the local set as its joint (inf when untrained),
    origin and gate score, the evidence-free score of the quality gate,
    computed once here in the iteration order of the frozenset of the
    table's contexts filled from a dict; `changed`, whether the node must
    rebuild the variable; the published lists (`joints`, `origins`, K slots
    each, ascending joint first); and the unsent lists, valid where
    `pending`. The entropy table holds origin 0, the reduced form's all-zero
    row with no context, then one row per distinct `(contexts, entropies)`
    of the local sets; `combos` maps each origin to its combination's id.

    Per (target, evidence variable set) key, the model keeps every node's
    best score and each node's forwarding order, until an integration of
    the target drops them."""

    def __init__(
        self,
        local_sets: Sequence[dict[int, EntropySet]],
        neighbors: Sequence[Sequence[NodeId]],
        variables: int,
        k: int,
        width: int,
    ):
        shape = (variables, len(local_sets))
        self.local_joints = np.full(shape, math.inf)
        self.local_origins = np.zeros(shape, dtype=np.int32)
        self.gates = np.zeros(shape)
        rows = {((), (0.0,) * width): 0}
        for node, sets in enumerate(local_sets):
            for var, (joint, contexts, entropies) in sets.items():
                origin = rows.setdefault((contexts, entropies), len(rows))
                self.local_joints[var, node] = joint
                self.local_origins[var, node] = origin
                bound = frozenset(dict.fromkeys(contexts))
                self.gates[var, node] = _score(joint, entropies, bound)
        self.changed = np.isfinite(self.local_joints)
        # per context variable, its entropy in every row of the table
        self._entropies = np.array([e for _, e in rows], dtype=float).T.copy()
        combos: dict[tuple[int, ...], int] = {}
        self.combos = np.array(
            [combos.setdefault(c, len(combos)) for c, _ in rows], dtype=np.intp
        )
        self.degree = np.array([len(nbs) for nbs in neighbors], dtype=np.intp)
        self._starts = np.cumsum(self.degree) - self.degree
        self._neighbors = np.array(
            [nb for nbs in neighbors for nb in nbs], dtype=np.intp
        )
        self.joints = np.full(shape + (k,), math.inf)
        self.origins = np.zeros(shape + (k,), dtype=np.int32)
        self.unsent_joints = self.joints.copy()
        self.unsent_origins = self.origins.copy()
        self.pending = np.zeros(shape, dtype=bool)
        # per target, per evidence variable set: every node's best score
        self._scores: dict[int, dict[frozenset[int], array]] = {}
        # per target, per evidence variable set, per node: its neighbors by
        # (best score, id)
        self._orders: dict[int, dict[frozenset[int], dict[NodeId, list]]] = {}

    def neighbors_of(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The neighbors of `nodes`, each node's ascending and the nodes in
        order, and how many each node has."""
        counts = self.degree[nodes]
        flat = np.arange(counts.sum())
        flat += np.repeat(self._starts[nodes] - (np.cumsum(counts) - counts), counts)
        return self._neighbors[flat], counts

    def best_score(self, target: int, bound: frozenset[int]) -> array:
        """Per node, the lowest clamped score over its published sets for
        `target` under evidence on `bound`, inf when it published none: each
        set's joint minus its entropies of the bound variables, subtracted
        in `bound`'s iteration order, so every float is the one `_score`
        gives. Kept until a list of `target` is integrated. Equal evidence
        sets share one vector: queries fill theirs in ascending order, so
        equal sets iterate alike."""
        by_bound = self._scores.get(target)
        if by_bound is None:
            by_bound = self._scores[target] = {}
        scores = by_bound.get(bound)
        if scores is None:
            origins = self.origins[target]
            value = self.joints[target]
            for var in bound:
                value = value - self._entropies[var][origins]
            best = np.maximum(value.min(axis=1), 0.0)
            scores = by_bound[bound] = array("d", best.tobytes())
        return scores

    def forwarding_order(
        self, node: NodeId, neighbors: list[NodeId], target: int, bound: frozenset[int]
    ) -> list[NodeId]:
        """`node`'s neighbors, given ascending, sorted by the conditional
        entropy their published lists promise for `target` under evidence
        on `bound`, ties to the lowest id: the sort is stable. Kept until a
        list of `target` is integrated; a node's neighbors are fixed for the
        model's life."""
        by_bound = self._orders.get(target)
        if by_bound is None:
            by_bound = self._orders[target] = {}
        orders = by_bound.get(bound)
        if orders is None:
            orders = by_bound[bound] = {}
        order = orders.get(node)
        if order is None:
            scores = self.best_score(target, bound)
            order = orders[node] = sorted(neighbors, key=scores.__getitem__)
        return order


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
    # the evidence variables, iterating in the order scores subtract in
    bound: frozenset[int] = field(init=False)

    def __post_init__(self):
        self.bound = frozenset(self.ctx)


@dataclass
class NodeState:
    """Everything one node owns: its model, as the full entropy set of each
    trained predicting variable (`local_sets`, fixed at set-up), its
    neighborhood, ascending, and the trial's shared routing model, which
    holds what this node has told its neighbors and keeps its forwarding
    orders."""

    node_id: NodeId
    local_sets: dict[int, EntropySet]
    model: RoutingModel
    neighbors: list[NodeId] = field(default_factory=list)

    def local_answer(self, target: int, bound: frozenset[int]) -> Optional[float]:
        return answer_entropy(self.local_sets, target, bound)


def local_entropy_sets(
    entries: Sequence,
    context_var_count: int,
    context_cardinality: int,
    pseudocount: float,
) -> list[EntropySet]:
    """The full entropy set of each entry's table, in order, from the
    batched `table_entropies` pass over the entries, cardinality and
    pseudocount, with rows `context_var_count` wide."""
    summaries = table_entropies(entries, context_cardinality, pseudocount)
    sets = []
    for entry, (joint, hs) in zip(entries, summaries):
        entropies = [0.0] * context_var_count
        for c, h in zip(entry.contexts, hs):
            entropies[c] = h
        sets.append((joint, entry.contexts, tuple(entropies)))
    return sets


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
    return None if s is None else _score(s[0], s[2], bound)


def build_advertisement(
    model: RoutingModel, var: int, nodes: np.ndarray, policy: AdvertisementPolicy
) -> tuple[np.ndarray, np.ndarray]:
    """The lists `nodes` (ascending) would advertise for `var`, as (nodes x
    K) joints and origins: per node, the K lowest-joint sets over distinct
    context combinations, drawn from its local set, reduced to joint-only
    form when its gate score exceeds the quality threshold, and then from
    its neighbors' published lists in ascending neighbor order, inflated by
    one hop. Per combination the lowest joint wins, ties to the earlier
    offer; winners are ordered by joint, ties to the combination offered
    first."""
    k = model.joints.shape[2]
    senders, counts = model.neighbors_of(nodes)
    local = np.where(
        model.gates[var, nodes] > policy.quality_threshold,
        0, model.local_origins[var, nodes],
    )
    # offers in order within each node: its local set, then the learned sets
    joint = np.concatenate(
        (model.local_joints[var, nodes],
         (model.joints[var, senders] + policy.hop_inflation).ravel())
    )
    origin = np.concatenate((local, model.origins[var, senders].ravel()))
    rank = np.arange(len(nodes))
    owner = np.concatenate((rank, np.repeat(np.repeat(rank, counts), k)))
    offer = np.flatnonzero(np.isfinite(joint))
    joint, origin, owner = joint[offer], origin[offer], owner[offer]
    # combination ids are below the number of origins
    group = owner * len(model.combos) + model.combos[origin]
    # per (node, combination): the lowest joint, ties to the earliest offer
    order = np.lexsort((offer, joint, group))
    first = np.flatnonzero(np.diff(group[order], prepend=-1))
    win = order[first]
    first_offer = np.minimum.reduceat(offer[order], first)
    order = np.lexsort((first_offer, joint[win], owner[win]))
    win, owner = win[order], owner[win][order]
    slot = np.arange(len(win)) - np.searchsorted(owner, owner)
    kept = slot < k
    joints = np.full((len(nodes), k), math.inf)
    origins = np.zeros((len(nodes), k), dtype=np.int32)
    joints[owner[kept], slot[kept]] = joint[win[kept]]
    origins[owner[kept], slot[kept]] = origin[win[kept]]
    return joints, origins


def should_advertise(
    model: RoutingModel,
    var: int,
    nodes: np.ndarray,
    joints: np.ndarray,
    origins: np.ndarray,
    policy: AdvertisementPolicy,
) -> list[NodeId]:
    """The nodes among `nodes` whose new list for `var` (rows of `joints`
    and `origins`) differs from their published one: in its combinations,
    or by more than the change threshold in a joint. The engine passes only
    the rebuilt lists that differ from the published ones by value."""
    held, was_held = np.isfinite(joints), np.isfinite(model.joints[var, nodes])
    combos = model.combos[origins]
    same = combos[:, :, None] == model.combos[model.origins[var, nodes]][:, None, :]
    same &= was_held[:, None, :]
    # a published list holds each combination once, so a sum picks its joint
    was = np.where(same, model.joints[var, nodes][:, None, :], 0.0).sum(axis=2)
    moved = ~same.any(axis=2) | (np.abs(joints - was) > policy.change_threshold)
    send = (held.sum(axis=1) != was_held.sum(axis=1)) | (held & moved).any(axis=1)
    return nodes[send].tolist()


def integrate_advertisement(model: RoutingModel, var: int, nodes: np.ndarray) -> int:
    """Send the unsent lists of `var` of `nodes`: they become the nodes'
    published lists, their neighbors must rebuild `var`, and the scores and
    forwarding orders of `var` as a target are dropped, the only place the
    model drops them. Returns the sets delivered, each node's once per
    neighbor."""
    joints = model.unsent_joints[var, nodes]
    model.joints[var, nodes] = joints
    model.origins[var, nodes] = model.unsent_origins[var, nodes]
    model.pending[var, nodes] = False
    receivers, counts = model.neighbors_of(nodes)
    model.changed[var, receivers] = True
    model._scores.pop(var, None)
    model._orders.pop(var, None)
    return int(np.isfinite(joints).sum(axis=1) @ counts)


def _arrive(state: NodeState, query: Query) -> bool:
    """Handle one query arrival: take over the answer when the local model's is
    strictly better and record the visit. True when the query goes on, that
    is when hops remain and the node has neighbors; the hop is then spent."""
    local = state.local_answer(query.target, query.bound)
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
    if not _arrive(state, query):
        return None
    order = state.model.forwarding_order(
        state.node_id, state.neighbors, query.target, query.bound
    )
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
    if not _arrive(state, query):
        return None
    candidates = [n for n in state.neighbors if n not in query.visited]
    candidates = candidates or state.neighbors
    return candidates[rng.integers(len(candidates))]
