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
`integrate_advertisement` each handle a block of (variable, node) pairs at
once, of one variable or many, gathering the lists by flat takes of the
(variables x nodes) arrays and the neighbors by `Overlay.neighbor_pairs`,
each with its owner, the pair it belongs to. No sort runs over a block's
offers: a block numbers the context combinations it holds 0..m-1
(`_numbering`), each (pair, combination)'s winner is found by minima
scattered into a dense (pairs x m) array, and only each pair's winners
are sorted; the send gate
looks each unsent set's combination up in the same kind of scatter of the
published lists. A query is its key: a target and its evidence,
the frozenset of the context variables it binds. Per key, one numpy
expression scores every node's published lists (`best_score`) and one
every node's local set (`answer_entropy`), both through
`RoutingModel.subtract`, the one scoring path, which the quality gate also
takes.

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

# `RoutingModel.pending` compares the lists of about this many (variable,
# node) pairs at once
PENDING_BLOCK = 2**13


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
    where they differ from the published ones. The entropy table holds one
    row per distinct (combination, entropy row) of the reduced form and the
    local sets, in `np.unique`'s sorted order, so origin 0 is the reduced
    form's all-zero row with no context (ids and entropies are >= 0);
    `combos` maps each origin to its combination's id.

    Per (target, evidence variable set) key, the model keeps every node's
    forwarding rank, until an integration of the target drops them, and
    every node's local answer, for its life. Both have a slot for the pad
    node n, which pads the overlay's rows."""

    def __init__(self, sets: LocalSets, overlay: Overlay, variables: int, k: int):
        self.overlay = overlay
        shape = (variables, len(overlay.degree))
        # rows (combination, entropies): the reduced form's, then each local
        # set's; equal rows share one origin, numbered in np.unique's order
        rows = np.zeros((len(sets.joints) + 1, 1 + sets.entropies.shape[1]))
        rows[1:, 0], rows[1:, 1:] = sets.combos, sets.entropies
        table, inverse = np.unique(rows, axis=0, return_inverse=True)
        origins = inverse.reshape(-1)[1:].astype(np.int32)
        self.combos = table[:, 0].astype(np.intp)
        # combination ids run below this
        self.combination_count = int(self.combos.max()) + 1
        # per context variable, its entropy in every row of the table
        self._entropies = table[:, 1:].T.copy()
        cells = sets.variables, sets.nodes
        self.local_joints = np.full(shape, math.inf)
        self.local_joints[cells] = sets.joints
        self.local_origins = np.zeros(shape, dtype=np.int32)
        self.local_origins[cells] = origins
        self.changed = np.isfinite(self.local_joints)
        self.gates = np.zeros(shape)
        for combo in np.unique(sets.combos).tolist():
            over = sets.combos == combo
            # not frozenset(tuple): a dict presizes the set's table, so it
            # iterates in another order ({0, 1, 2, 3, 5, 16} as 0, 1, 2, 3,
            # 16, 5), and the subtraction order sets the gate's float bits
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

    def pending(self, nodes: np.ndarray) -> np.ndarray:
        """Per variable, whether each of `nodes` holds an unsent list that
        differs from its published one, as a (variables x nodes) mask. Only
        the lists of `nodes` are compared, those of about `PENDING_BLOCK`
        (variable, node) pairs at a time, which bounds the copies gathered."""
        count = len(self.joints)
        rows = max(1, PENDING_BLOCK // max(1, len(nodes)))
        masks = []
        for start in range(0, count, rows):
            variables = np.arange(start, min(start + rows, count))
            cells = _cells(self, variables[:, None], nodes).reshape(-1)
            differs = _lists(self.unsent_joints, cells) != _lists(self.joints, cells)
            differs |= _lists(self.unsent_origins, cells) != _lists(self.origins, cells)
            masks.append(differs.any(axis=1).reshape(len(variables), len(nodes)))
        return np.concatenate(masks)

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


def _cells(model: RoutingModel, var, nodes: np.ndarray) -> np.ndarray:
    """Each (variable, node) pair's row in the model's (variables x nodes)
    arrays flattened; `var` is parallel to `nodes`, or one variable for
    all of them."""
    return var * model.local_joints.shape[1] + nodes


def _lists(array: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """The K-slot lists of a (variables x nodes x K) `array` at the flat
    rows `cells`: a flat take, as two index arrays gather far slower."""
    return array.reshape(-1, array.shape[2]).take(cells, axis=0)


def _numbering(model: RoutingModel, *combos: np.ndarray) -> tuple[np.ndarray, int]:
    """A block's own numbers for the combination ids that `combos` hold:
    a lookup over all the model's ids that maps them, in ascending order,
    to 0..m-1, and m; dense (pairs x m) scatters stay as small as the
    block's combinations make them."""
    present = np.zeros(model.combination_count, dtype=bool)
    for ids in combos:
        present[ids] = True
    lookup = np.cumsum(present) - 1
    return lookup, int(lookup[-1]) + 1


def build_advertisement(
    model: RoutingModel, var, nodes: np.ndarray, policy: AdvertisementPolicy
) -> tuple[np.ndarray, np.ndarray]:
    """The lists the (`var`, `nodes`) pairs would advertise, as (pairs x K)
    joints and origins; `var` is parallel to `nodes`, or one variable for
    all of them: per pair, the K lowest-joint sets over distinct context
    combinations, drawn from the node's local set of the variable,
    reduced to joint-only form when its gate score exceeds the quality
    threshold, and then from its neighbors' published lists of the
    variable in ascending neighbor order, inflated by one hop. Per
    combination the lowest joint wins, ties to the earlier offer; winners
    are ordered by joint, ties to the combination offered first.

    No sort runs over the offers. Each (pair, combination)'s lowest
    joint, earliest offer at it and first offer are minima scattered
    (`np.minimum.at`) into dense (pairs x m) arrays, m the combinations the
    block offers, numbered by `_numbering`; only each pair's winners are
    sorted. Neighbors' empty lists are never gathered."""
    k = model.joints.shape[2]
    pairs = len(nodes)
    cells = _cells(model, var, nodes)
    senders, pair = model.overlay.neighbor_pairs(nodes)
    # each sender's row of its pair's variable, kept if its list is not
    # empty: a list is ascending, so its first slot is inf only when empty
    learned = (cells - nodes)[pair] + senders
    full = np.flatnonzero(model.joints.reshape(-1).take(learned * k) < math.inf)
    learned, pair = learned[full], pair[full]
    local = np.where(
        model.gates.reshape(-1).take(cells) > policy.quality_threshold,
        0, model.local_origins.reshape(-1).take(cells),
    )
    # offers in order within each pair: its local set, then the learned sets
    joint = np.concatenate(
        (model.local_joints.reshape(-1).take(cells),
         (_lists(model.joints, learned) + policy.hop_inflation).ravel())
    )
    origin = np.concatenate((local, _lists(model.origins, learned).ravel()))
    owner = np.concatenate((np.arange(pairs), np.repeat(pair, k)))
    kept = np.flatnonzero(joint < math.inf)
    joint, origin, owner = joint[kept], origin[kept], owner[kept]
    combo = model.combos[origin]
    lookup, m = _numbering(model, combo)
    group = owner * m + lookup[combo]
    # per (pair, combination): the lowest joint, the earliest offer at it,
    # and the earliest offer of any joint; `len(joint)` where none was
    best = np.full(pairs * m, math.inf)
    np.minimum.at(best, group, joint)
    ties = np.flatnonzero(joint == best[group])
    win = np.full(pairs * m, len(joint))
    np.minimum.at(win, group[ties], ties)
    first = np.full(pairs * m, len(joint))
    np.minimum.at(first, group, np.arange(len(joint)))
    # each pair's winners by joint, ties to the combination offered first;
    # its combinations never offered, joint inf, sort last
    best = best.reshape(pairs, m)
    order = np.lexsort((first.reshape(pairs, m), best), axis=1)[:, :k]
    won = np.take_along_axis(best, order, axis=1)
    win = np.take_along_axis(win.reshape(pairs, m), order, axis=1)
    held = won < math.inf
    joints = np.full((pairs, k), math.inf)
    origins = np.zeros((pairs, k), dtype=np.int32)
    joints[:, : order.shape[1]] = won
    origins[:, : order.shape[1]][held] = origin[win[held]]
    return joints, origins


def should_advertise(
    model: RoutingModel, var, nodes: np.ndarray, policy: AdvertisementPolicy
) -> list[int]:
    """The nodes of the (`var`, `nodes`) pairs, `var` parallel to `nodes`
    or one variable for all of them, whose unsent list of the pair's
    variable differs from their published one: in its combinations, or by
    more than the change threshold in a joint, once per such pair. A list
    equal to the published one sends nothing. Each unsent set finds its
    combination's published joint in a dense (pairs x m) scatter of the
    published lists, m the block's combinations, nan where none was."""
    cells = _cells(model, var, nodes)
    joints = _lists(model.unsent_joints, cells)
    combos = model.combos[_lists(model.unsent_origins, cells)]
    published = _lists(model.joints, cells)
    held, was_held = np.isfinite(joints), np.isfinite(published)
    was_combos = model.combos[_lists(model.origins, cells)]
    lookup, m = _numbering(model, combos, was_combos)
    row = np.arange(len(nodes))[:, None] * m
    was = np.full(len(nodes) * m, math.nan)
    # a published list holds each combination once
    was[(row + lookup[was_combos])[was_held]] = published[was_held]
    was = was[row + lookup[combos]]
    moved = np.isnan(was) | (np.abs(joints - was) > policy.change_threshold)
    # held sets come first in a list, so its count changed where the masks differ
    send = ((held != was_held) | (held & moved)).any(axis=1)
    return nodes[send].tolist()


def integrate_advertisement(model: RoutingModel, var, nodes: np.ndarray) -> int:
    """Send the unsent lists of the (`var`, `nodes`) pairs, `var` parallel
    to `nodes` or one variable for all of them: they become the nodes'
    published lists, the nodes' neighbors must rebuild the pair's
    variable, and the forwarding ranks of each variable sent as a target
    are dropped, the only place the model drops them. Returns the sets
    delivered, each pair's once per neighbor."""
    cells = _cells(model, var, nodes)
    k = model.joints.shape[2]
    joints = _lists(model.unsent_joints, cells)
    model.joints.reshape(-1, k)[cells] = joints
    model.origins.reshape(-1, k)[cells] = _lists(model.unsent_origins, cells)
    receivers, owner = model.overlay.neighbor_pairs(nodes)
    model.changed.reshape(-1)[(cells - nodes)[owner] + receivers] = True
    for target in np.unique(var).tolist():
        model._ranks.pop(target, None)
    return int(np.isfinite(joints).sum(axis=1) @ model.overlay.degree[nodes])


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
