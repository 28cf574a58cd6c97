"""Routing model, entropy-set advertisement, query forwarding.

Nodes advertise, per predicting variable, up to K entropy sets (one per
context combination): a joint entropy plus the marginal entropies of the
combination's context variables. Every set starts as a node's local set, the
summary of one trained table (`LocalSets`, made at set-up one batch of
tables at a time by `local_entropy_sets`), so an advertised set is its joint
and its origin, the index of that local set's (combination, entropy row)
in the trial's entropy table; an entropy row has one slot per context
variable, 0.0 where the set has no context, and since `x - 0.0 == x` for
every float, a score that subtracts the slot of every bound context is
exactly the joint minus the held bound marginals. Sets learned from a
neighbor are re-advertised with a small additive per-hop inflation so that
loops cannot sustain spuriously low values and shortest paths win ties.
Local sets whose evidence-free conditional quality is poor are advertised
in reduced (joint-only) form, origin 0; those still steer queries toward
the cluster that trained the variable, where context-aware scoring takes
over.

Propagation is incremental in the manner of routing indices (Crespo and
Garcia-Molina, ICDCS 2002): a node rebuilds only the variables whose lists
changed at a neighbor. Every neighbor of a sender receives the same
advertisements, so one trial-wide `RoutingModel` holds, per node, the lists
it has told its neighbors, and stands for all their copies. An
advertisement is sent as a delta, in the manner of triggered updates (RIP,
RFC 2453 §3.10.1): a node stages every list it rebuilds, and a send carries
only the staged lists that differ from its published ones. Receivers
keep the variables a delta leaves out, so while the overlay is static and
every neighbor received every earlier delta, routes are those full
snapshots would give; the traffic counted, `adv_sets_sent`, is the sets of
the delta times the number of neighbors.

The model holds everything per variable as arrays over nodes
(`RoutingModel`), and every build of a cycle reads the lists as they stood
at its start, so `build_advertisement`, `should_advertise` and
`integrate_advertisement` each handle one variable for every affected node
at once. A query is its key: a target and its evidence, the frozenset of the
context variables it binds. Per key, one numpy expression scores every
node's published lists (`best_score`) and one every node's local set
(`answer_entropy`), both through `RoutingModel.subtract`, the one scoring
path, which the quality gate also takes.

Queries move in lockstep, both strategies through one hop step
(`process_query`) over the overlay's neighbor matrix (`topology.Overlay`),
padded with node n, which the model reads and never copies: `abs` keys
a node's neighbor slots with the forwarding ranks of the query's key, so it
goes to the best unvisited neighbor, and `rw` with uniform draws, a uniform
hop over the unvisited neighbors, or over all once every one is visited. A
query takes the answer of the first node on its path whose answer is least
(`argmin` returns the first), the strict `<` of a walk that keeps the best
answer so far.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .pgm import table_entropies
from .topology import Overlay

NodeId = int


@dataclass
class LocalSets:
    """Local entropy sets, one entry per trained table, as parallel arrays:
    node, variable, combination (an index into `combinations`, ascending
    context tuples, () then first-seen), joint entropy and entropy row."""

    nodes: np.ndarray
    variables: np.ndarray
    combos: np.ndarray
    joints: np.ndarray
    entropies: np.ndarray
    combinations: list[tuple[int, ...]]


@dataclass
class AdvertisementPolicy:
    change_threshold: float = 0.005
    quality_threshold: float = 2.4
    hop_inflation: float = 0.001


class RoutingModel:
    """What every node knows, has told its neighbors and has still to
    tell, and what the trial derives from it, over the neighbor lists of
    `overlay`, whose matrix it reads and never copies.

    Per variable and node, from the `LocalSets` arrays of the trial's
    local sets: the local set as its joint (inf when untrained),
    origin and gate score, the evidence-free score of the quality gate:
    `subtract` over the table's own contexts, in the iteration order of
    their frozenset filled from a dict, clamped at 0, taken once here for
    each combination; `changed`, whether the node must rebuild the variable; the
    published lists (`joints`, `origins`, K slots each, ascending joint
    first); and the unsent lists, the node's last rebuilt ones, pending
    where they differ from the published ones. The entropy table holds
    origin 0, the reduced form's all-zero row with no context, then one row
    per distinct (combination, entropy row) of the local sets, in first-seen
    order; `combos` maps each origin to its combination's id.

    Per (target, evidence variable set) key, the model keeps every node's
    forwarding rank, until an integration of the target drops them, and
    every node's local answer, for its life. Both have a slot for the pad
    node n, which pads the overlay's rows."""

    def __init__(self, sets: LocalSets, overlay: Overlay, variables: int, k: int):
        self.overlay = overlay
        shape = (variables, len(overlay.degree))
        # rows (combination, entropies): the reduced form's, then each local
        # set's; equal rows share the first's origin, numbered by first sight
        rows = np.zeros((len(sets.joints) + 1, 1 + sets.entropies.shape[1]))
        rows[1:, 0], rows[1:, 1:] = sets.combos, sets.entropies
        _, first, inverse = np.unique(
            rows, axis=0, return_index=True, return_inverse=True
        )
        seen = np.argsort(first)
        origins = np.argsort(seen).astype(np.int32)[inverse.reshape(-1)][1:]
        self.combos = rows[first[seen], 0].astype(np.intp)
        # per context variable, its entropy in every row of the table
        self._entropies = rows[first[seen], 1:].T.copy()
        cells = sets.variables, sets.nodes
        self.local_joints = np.full(shape, math.inf)
        self.local_joints[cells] = sets.joints
        self.local_origins = np.zeros(shape, dtype=np.int32)
        self.local_origins[cells] = origins
        self.changed = np.isfinite(self.local_joints)
        self.gates = np.zeros(shape)
        for combo in np.unique(sets.combos).tolist():
            over = sets.combos == combo
            bound = frozenset(dict.fromkeys(sets.combinations[combo]))
            scores = self.subtract(sets.joints[over], origins[over], bound)
            self.gates[sets.variables[over], sets.nodes[over]] = np.maximum(scores, 0.0)
        self.joints = np.full(shape + (k,), math.inf)
        self.origins = np.zeros(shape + (k,), dtype=np.int32)
        self.unsent_joints = self.joints.copy()
        self.unsent_origins = self.origins.copy()
        # per target, per evidence variable set: every node's forwarding rank
        self._ranks: dict[int, dict[frozenset[int], np.ndarray]] = {}
        # per (target, evidence variable set): every node's local answer
        self._answers: dict[tuple[int, frozenset[int]], np.ndarray] = {}

    def neighbors_of(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The neighbors of `nodes`, each node's ascending and the nodes in
        order, and how many each node has."""
        degree = self.overlay.degree
        rows = self.overlay.rows[nodes]
        return rows[rows < len(degree)], degree[nodes]

    def pending(self, nodes: np.ndarray) -> np.ndarray:
        """Per variable, whether each of `nodes` holds an unsent list that
        differs from its published one, as a (variables x nodes) mask."""
        differs = self.unsent_joints != self.joints
        differs |= self.unsent_origins != self.origins
        return differs.any(axis=2)[:, nodes]

    def subtract(self, joints, origins, bound: frozenset[int]) -> np.ndarray:
        """`joints` less, for each variable of `bound` in its iteration
        order, that variable's entropy in the table rows `origins` name,
        unclamped: the one subtraction behind every score, the gates,
        `best_score` and `answer_entropy`."""
        for var in bound:
            joints = joints - self._entropies[var][origins]
        return joints

    def best_score(self, target: int, bound: frozenset[int]) -> np.ndarray:
        """Per node, the lowest clamped score over its published sets for
        `target` under evidence on `bound`, inf when it published none."""
        value = self.subtract(self.joints[target], self.origins[target], bound)
        return np.maximum(value.min(axis=1), 0.0)

    def ranks(self, target: int, bound: frozenset[int]) -> np.ndarray:
        """Per node, its forwarding rank for `target` under evidence on
        `bound`: its place among all nodes by `best_score`, ties to the
        lowest id (the sort is stable); then the pad node n, ranked 2n,
        behind every node even with the visited penalty of n. Kept until a
        list of `target` is integrated. Equal evidence sets share one
        vector: a trial makes each of its sets once, from the ascending
        combination tuple."""
        by_bound = self._ranks.setdefault(target, {})
        ranks = by_bound.get(bound)
        if ranks is None:
            n = len(self.overlay.degree)
            ranks = by_bound[bound] = np.full(n + 1, 2 * n, dtype=np.int32)
            order = self.best_score(target, bound).argsort(kind="stable")
            ranks[order] = np.arange(n, dtype=np.int32)
        return ranks

    def answers(self, target: int, bound: frozenset[int]) -> np.ndarray:
        """Per node, its local answer for `target` under evidence on `bound`
        (`answer_entropy`, looked up on the module, where perfbench wraps
        it), then inf for the pad node n. Kept for the model's life: local
        sets are fixed. Equal evidence sets share one vector, as in
        `ranks`."""
        key = (target, bound)
        values = self._answers.get(key)
        if values is None:
            values = np.append(answer_entropy(self, target, bound), math.inf)
            self._answers[key] = values
        return values


def local_entropy_sets(
    batches: Iterable[Sequence],
    context_var_count: int,
    context_cardinality: int,
    pseudocount: float,
) -> LocalSets:
    """The local entropy set of each entry of `batches`, in order, with rows
    `context_var_count` wide: one `table_entropies` pass per batch, made
    before the next batch is read."""
    combinations: dict[tuple[int, ...], int] = {(): 0}
    keys: list[tuple[int, int, int]] = []
    joints, entropies = [np.zeros(0)], [np.zeros((0, context_var_count))]
    args = context_var_count, context_cardinality, pseudocount
    for entries in batches:
        joint, rows = table_entropies(entries, *args)
        joints.append(joint)
        entropies.append(rows)
        keys += [
            (e.node_id, e.var, combinations.setdefault(e.contexts, len(combinations)))
            for e in entries
        ]
    ids = np.array(keys, dtype=np.intp).reshape(-1, 3).T
    return LocalSets(
        *ids, np.concatenate(joints), np.concatenate(entropies), list(combinations)
    )


def answer_entropy(
    model: RoutingModel, target: int, bound: frozenset[int]
) -> np.ndarray:
    """Per node, its remaining uncertainty to answer a query for `target`
    with evidence on `bound`, inf where the target is untrained: the score
    of the node's own entropy set for `target`, which holds the joint and
    marginal entropies of its table, so the value is the table's joint
    entropy minus the marginal entropies of the bound contexts it holds,
    clamped at zero."""
    joints, origins = model.local_joints[target], model.local_origins[target]
    return np.maximum(model.subtract(joints, origins, bound), 0.0)


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
    model: RoutingModel, var: int, nodes: np.ndarray, policy: AdvertisementPolicy
) -> list[NodeId]:
    """The nodes among `nodes` whose unsent list for `var` differs from
    their published one: in its combinations, or by more than the change
    threshold in a joint. A list equal to the published one sends
    nothing."""
    joints = model.unsent_joints[var, nodes]
    origins = model.unsent_origins[var, nodes]
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
    published lists, their neighbors must rebuild `var`, and the forwarding
    ranks of `var` as a target are dropped, the only place the model drops
    them. Returns the sets delivered, each node's once per
    neighbor."""
    joints = model.unsent_joints[var, nodes]
    model.joints[var, nodes] = joints
    model.origins[var, nodes] = model.unsent_origins[var, nodes]
    receivers, counts = model.neighbors_of(nodes)
    model.changed[var, receivers] = True
    model._ranks.pop(var, None)
    return int(np.isfinite(joints).sum(axis=1) @ counts)


def process_query(
    step: np.ndarray, visited: np.ndarray, keys: np.ndarray
) -> np.ndarray:
    """Forward every query in flight one hop and return the nodes they go
    to. Query i is at a node whose row of the neighbor matrix is `step[i]`;
    row i of `visited`, a (queries x nodes+1) mask, marks the nodes it has
    been at; and `keys[i]` holds one key per slot of `step[i]`, in [0, n)
    for a neighbor and 2n for the pad node n. The key of every visited
    slot grows by n, in place, and the query goes to the slot of least key,
    the first on a tie: to its least-keyed unvisited neighbor, or the
    least-keyed of all once every one is visited; from a node without
    neighbors, to the pad node, and from there nowhere else."""
    queries, width = np.arange(len(step)), visited.shape[1]
    # a flat take: twice as fast as fancy indexing with two index arrays
    penalty = visited.reshape(-1).take((queries * width)[:, None] + step)
    keys += penalty * np.int32(width - 1)
    return step[queries, keys.argmin(axis=1)]
