"""Routing model, entropy-set advertisement, query forwarding.

Nodes advertise, per predicting variable, up to K entropy sets (one per
context combination): a joint entropy plus the marginal entropies of the
combination's context variables, held as an immutable row `(joint,
combination, entropies)` (`EntropySet`). `entropies` has one slot per
context variable; a context the set does not hold has 0.0 there, and since
`x - 0.0 == x` for every float, a score that subtracts the slot of every
bound context is exactly the joint minus the held bound marginals. Sets
learned from a neighbor are re-advertised with a small additive per-hop
inflation so that loops cannot sustain spuriously low values and shortest
paths win ties. Local sets whose evidence-free conditional quality is poor
are advertised in reduced (joint-only) form; those still steer queries
toward the cluster that trained the variable, where context-aware scoring
takes over.

Propagation is incremental in the manner of routing indices (Crespo and
Garcia-Molina, ICDCS 2002): integrating an advertisement reports which
variables' lists changed, and the receiver rebuilds, compares and re-sorts
only those variables. Every neighbor of a sender receives the same
advertisements, so one trial-wide `RoutingModel` holds, per node, the lists
it has told its neighbors, and stands for all their copies. An
advertisement is sent as a delta, in the manner of triggered updates (RIP,
RFC 2453 §3.10.1): a node keeps the lists it built since its last send that
differ from its published lists, and a send carries only those. Receivers
keep the variables a delta leaves out, so while the overlay is static and
every neighbor received every earlier delta, routes are those full
snapshots would give; the traffic counted, `adv_sets_sent`, is the sets of
the delta times the number of neighbors.

The model also holds the published lists column-wise, per variable, as
(nodes x width) arrays of joints and of origins, indexes into a table of
the local sets' `entropies` rows. A query's next hop is then read from one
vector per (target, evidence) key that scores every node's list at once:
numpy subtracts elementwise in the evidence set's order, so each score is
the float `_score` gives for that set. Beside the vector, the model keeps
each node's neighbors sorted by it, the node's forwarding order for the
key, a per-query lookup in the manner of routing indices. Vectors, orders
and column rows derive from the published lists alone, so the integration
that changes a list is the one place that drops them.
"""

from __future__ import annotations

import functools
import math
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Optional, Sequence

import numpy as np

from .pgm import table_entropies

NodeId = int


# An entropy set, the row (joint, combination, entropies): `combination` is
# the frozenset of the set's context variables, one object per distinct
# combination, and `entropies` is `context_var_count` wide. The reduced
# (joint-only) form holds no context. Rows are never mutated: an inflated
# copy shares its source's combination and entropies, and one sent list is
# shared by every receiver's routing model. A set is filed under its
# predicting variable's key and only compared with sets of the same
# variable, so it does not repeat the id.
EntropySet = tuple[float, frozenset[int], tuple[float, ...]]

@functools.cache
def _no_entropies(width: int) -> tuple[float, ...]:
    """The entropies of the reduced form, one shared row per width."""
    return (0.0,) * width


def _score(s: EntropySet, bound: Iterable[int]) -> float:
    """Conditional entropy estimate of `s` for evidence on `bound`: its joint
    minus the entropies of the bound variables in `bound`'s iteration order,
    clamped at zero; bound variables the set does not hold subtract 0.0."""
    value, _, entropies = s
    for var in bound:
        value -= entropies[var]
    return max(value, 0.0)


@dataclass
class AdvertisementPolicy:
    change_threshold: float = 0.005
    quality_threshold: float = 2.4
    hop_inflation: float = 0.001


# what a node advertises: per predicting variable, up to K entropy sets
Advertisement = dict[int, list[EntropySet]]

_joint = itemgetter(0)


class RoutingModel:
    """What every node has told its neighbors, and what the trial derives
    from it: per node, its published lists; per variable, the same lists
    as columns, scored for all nodes at once; and per node, its forwarding
    orders.

    `lists[node]` holds, per variable, the last list the node sent; its
    neighbors read it when they build. The columns of a variable are two
    (nodes x width) arrays, width the longest list so far: the sets' joints,
    padded with inf, and their origins, indexes into the entropy table,
    padded with 0, the reduced form's all-zero row. The table holds the
    `entropies` rows given at construction, which must include every row of
    every list integrated later: at set-up those of the local sets, which
    every inflated copy and reduced form shares.

    Per (target, evidence variable set) key, the model keeps every node's
    best score and each node's forwarding order. `integrate_advertisement`
    alone drops them: when a list of a target changes by value, it drops
    the target's scores and orders and logs the changed rows, which the
    target's next score writes into its columns, one write per column."""

    def __init__(
        self, node_count: int, width: int, rows: Iterable[tuple[float, ...]] = ()
    ):
        self.lists: list[Advertisement] = [{} for _ in range(node_count)]
        origins = {_no_entropies(width): 0}
        for entropies in rows:
            origins.setdefault(entropies, len(origins))
        self._origins = origins
        # per context variable, its entropy in every row of the table
        self._entropies = np.array(list(origins), dtype=float).T.copy()
        # per variable: (joints, origins)
        self._columns: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        # per variable: the lists that changed since its columns' write, by node
        self._stale: defaultdict[int, dict[NodeId, list]] = defaultdict(dict)
        # per target, per evidence variable set: every node's best score
        self._scores: dict[int, dict[frozenset[int], array]] = {}
        # per target, per evidence variable set, per node: its neighbors by
        # (best score, id)
        self._orders: dict[int, dict[frozenset[int], dict[NodeId, list]]] = {}

    def _column(self, var: int) -> tuple[np.ndarray, np.ndarray]:
        column = self._columns.get(var)
        stale = self._stale.pop(var, {})
        if column is not None and not stale:
            return column
        nodes, lists = list(stale), list(stale.values())
        lengths = np.array(list(map(len, lists)), dtype=np.intp)
        held = 0 if column is None else column[0].shape[1]
        width = max(lengths.max(initial=1), held)
        if width > held:
            shape = (len(self.lists), width)
            grown = (np.full(shape, math.inf), np.zeros(shape, dtype=np.int32))
            if column is not None:
                grown[0][:, :held] = column[0]
                grown[1][:, :held] = column[1]
            column = self._columns[var] = grown
        node_ids = np.array(nodes, dtype=np.intp)
        column[0][node_ids] = math.inf
        column[1][node_ids] = 0
        index = self._origins
        joints = [joint for sets in lists for joint, _, _ in sets]
        origins = [index[entropies] for sets in lists for _, _, entropies in sets]
        # flat slot of each set: its node's row, then its rank in the list
        starts = np.cumsum(lengths) - lengths
        slots = np.arange(len(joints)) + np.repeat(
            node_ids * column[0].shape[1] - starts, lengths
        )
        column[0].flat[slots] = joints
        column[1].flat[slots] = origins
        return column

    def best_score(self, target: int, bound: frozenset[int]) -> array:
        """Per node, the lowest clamped score over its published sets for
        `target` under evidence on `bound`, inf when it published none: each
        set's joint minus its entropies of the bound variables, subtracted
        in `bound`'s iteration order, so every float is the one `_score`
        gives. Kept until a list of `target` changes. Equal evidence sets
        share one vector: queries fill theirs in ascending order, so equal
        sets iterate alike."""
        by_bound = self._scores.get(target)
        if by_bound is None:
            by_bound = self._scores[target] = {}
        scores = by_bound.get(bound)
        if scores is None:
            joints, origins = self._column(target)
            value = joints
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
        list of `target` changes; a node's neighbors are fixed for the
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
    neighborhood, ascending, and the trial's shared routing model, whose
    `lists[node_id]` are what this node's sends have told its neighbors, and
    which keeps this node's forwarding orders.

    `unsent` holds the lists built since the last send that differ by value
    from the published ones: a send carries exactly those, which is all the
    neighbors lack while the overlay is static and each of them received
    every earlier send, and `adv_sets_sent` counts their sets once per
    neighbor."""

    node_id: NodeId
    local_sets: dict[int, EntropySet]
    model: RoutingModel
    neighbors: list[NodeId] = field(default_factory=list)
    # the lists built since the last send that differ from the published ones
    unsent: Advertisement = field(default_factory=dict)
    # variables to rebuild: at set-up the trained ones, then those whose
    # lists changed at a neighbor since the last build
    changed_vars: set[int] = field(default_factory=set)

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
    pseudocount, with rows `context_var_count` wide. Entries over the same
    contexts share one combination object, filled from a dict of the
    ascending contexts: a frozenset's iteration order depends on how it was
    filled once ids share a hash slot, and the quality gate subtracts in it."""
    summaries = table_entropies(entries, context_cardinality, pseudocount)
    combinations: dict[tuple[int, ...], frozenset[int]] = {}
    sets = []
    for entry, (joint, hs) in zip(entries, summaries):
        combination = combinations.get(entry.contexts)
        if combination is None:
            combination = frozenset(dict.fromkeys(entry.contexts))
            combinations[entry.contexts] = combination
        entropies = [0.0] * context_var_count
        for c, h in zip(entry.contexts, hs):
            entropies[c] = h
        sets.append((joint, combination, tuple(entropies)))
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
    return None if s is None else _score(s, bound)


def build_advertisement(
    local_sets: dict[int, EntropySet],
    neighbor_lists: Sequence[Advertisement],
    policy: AdvertisementPolicy,
    k: int,
    variables: Iterable[int],
) -> Advertisement:
    """The lists this node would advertise for `variables`: per variable, the
    K lowest-joint sets over distinct context combinations, drawn from its
    local set and its neighbors' published lists, with learned sets inflated
    by one hop and a low-quality local set reduced to joint-only form. Ties
    in joint go to the combination offered first: the local set, then the
    neighbors' lists in order."""
    eps = policy.hop_inflation
    adv = {}
    for var in variables:
        # per combination: the minimum-joint candidate
        best: dict[frozenset, EntropySet] = {}
        s = local_sets.get(var)
        if s is not None:
            joint, combination, entropies = s
            if _score(s, combination) > policy.quality_threshold:
                combination = frozenset()
                s = (joint, combination, _no_entropies(len(entropies)))
            best[combination] = s
        for published in neighbor_lists:
            for joint, combination, entropies in published.get(var, ()):
                joint += eps
                cur = best.get(combination)
                if cur is None or joint < cur[0]:
                    best[combination] = (joint, combination, entropies)
        adv[var] = sorted(best.values(), key=_joint)[:k]
    return adv


def integrate_advertisement(
    model: RoutingModel, node: NodeId, entries: Advertisement
) -> set[int]:
    """Replace `node`'s published lists per advertised variable; variables
    absent from the advertisement are retained. Returns the variables whose
    list changed by value; for each, logs the node's new list for the
    variable's columns and drops the scores and forwarding orders of the
    variable as a target, the only place the model drops them. Lists are
    stored as they are: the engine integrates only what
    `build_advertisement` made, at most K sets per variable over distinct
    combinations in ascending joint order.

    The engine integrates each send once and adds the returned set to the
    variables every neighbor of the sender rebuilds."""
    changed = set()
    held = model.lists[node]
    for var, sets in entries.items():
        if sets != held.get(var):
            changed.add(var)
            model._stale[var][node] = sets
            model._scores.pop(var, None)
            model._orders.pop(var, None)
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
    sender's published lists as `previous` and only the rebuilt lists that
    differ from it by value as `current`."""
    threshold = policy.change_threshold
    for var, new in current.items():
        old = previous.get(var, ())
        if len(old) != len(new):
            return True
        joints = {combination: joint for joint, combination, _ in old}
        for joint, combination, _ in new:
            was = joints.get(combination)
            if was is None or abs(joint - was) > threshold:
                return True
    return False


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
