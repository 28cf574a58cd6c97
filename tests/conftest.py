"""Shared fixtures, independent brute-force oracles and a workload CSV writer.

The oracles here deliberately avoid the library's vectorized and
incremental code paths: entropies are computed with plain Python loops over
explicitly enumerated cells, overlay growth with one `bf_similarity` call per
pair of nodes, a routing model's score with one `min` over its sets' scores,
a node's answer from its workload entry, the next hop with one `min` over the
candidate neighbors, an advertisement from scratch out of every local set
and model entry, propagation with one private routing model per receiver,
and the workload as raw observation streams rather than cell counts,
counted into plain tensors one observation at a time, so the tests check the
implementation against a second, independent evaluation.
"""

import csv
import itertools
import math
from typing import Iterable

import numpy as np
import pytest

from edgeknow.engine import _combination_pool
from edgeknow.pgm import JointTable, Schema, joint_entropy, marginal_entropy
from edgeknow.routing import (
    Advertisement,
    AdvertisementPolicy,
    EntropySet,
    RoutingModel,
)
from edgeknow.topology import NoAttachmentTarget, Overlay, _repair_connectivity


def bf_entropy(probs) -> float:
    total = 0.0
    for p in probs:
        if p > 0:
            total -= p * math.log(p, 2)
    return total


def bf_joint_entropy(tensor: np.ndarray) -> float:
    total = tensor.sum()
    return bf_entropy([tensor[idx] / total for idx in np.ndindex(tensor.shape)])


def bf_marginal(tensor: np.ndarray, axis: int) -> list[float]:
    total = tensor.sum()
    cells = [tensor[idx] / total for idx in np.ndindex(tensor.shape)]
    marg = {}
    for idx, p in zip(np.ndindex(tensor.shape), cells):
        marg[idx[axis]] = marg.get(idx[axis], 0.0) + p
    return [marg[i] for i in sorted(marg)]


def bf_chain_rule(tensor: np.ndarray, given_axes) -> float:
    """Joint entropy minus the marginal entropies of the given axes (the
    clamped chain-rule surrogate), via explicit loops."""
    value = bf_joint_entropy(tensor)
    for axis in given_axes:
        value -= bf_entropy(bf_marginal(tensor, axis))
    return max(value, 0.0)


def bf_true_conditional(tensor: np.ndarray, given_axes) -> float:
    """Exact H(rest | given) = sum_g p(g) H(rest | g), by enumeration."""
    p = tensor / tensor.sum()
    given_axes = tuple(given_axes)
    other = tuple(a for a in range(p.ndim) if a not in given_axes)
    total = 0.0
    for assignment in itertools.product(
        *(range(p.shape[a]) for a in given_axes)
    ):
        index = [slice(None)] * p.ndim
        for axis, state in zip(given_axes, assignment):
            index[axis] = state
        block = p[tuple(index)]
        pg = block.sum()
        if pg > 0:
            total += pg * bf_entropy((block / pg).ravel())
    return total


def bf_conditional_entropy(table: JointTable, given: Iterable[int]) -> float:
    """The chain-rule surrogate over a table's own entropies: joint minus
    the marginals of the contexts `given`, clamped at zero. A variable that
    is not one of the table's contexts raises `UnknownVariable`."""
    value = joint_entropy(table)
    for var in given:
        value -= marginal_entropy(table, var)
    return max(value, 0.0)


def bf_observe(tensor: np.ndarray, ctx: dict[int, int], outcome: int):
    """Count one observation into a plain (outcome x context states) count
    tensor, context axes in ascending variable order, one cell at a time:
    the reference for binning with `cell_counts`."""
    tensor[(outcome,) + tuple(ctx[c] for c in sorted(ctx))] += 1


def table_from_tensor(tensor: np.ndarray) -> JointTable:
    """Wrap a raw count/probability tensor as a JointTable: axis 0 is the
    predicting variable, context axes follow."""
    return JointTable(
        predicting=0,
        contexts=tuple(range(tensor.ndim - 1)),
        counts=np.asarray(tensor, dtype=float),
    )


def vector_entropy(dist) -> float:
    """The library's entropy of a probability vector: the joint entropy of
    a table with the predicting axis alone."""
    return joint_entropy(table_from_tensor(np.asarray(dist, dtype=float)))


def bf_similarity(a: set[int], b: set[int]) -> float:
    """Overlap coefficient of two trained predicting-variable sets:
    |A & B| / min(|A|, |B|); zero when either set is empty."""
    if not a or not b:
        return 0.0
    return len(a & b) / min(len(a), len(b))


def bf_attachment_probabilities(overlay, arriving, existing, similarity_floor):
    """Attachment probabilities over the (node, trained set) pairs in
    `existing`, one similarity per pair; saturated nodes get probability
    zero."""
    degrees = np.array([overlay.degree(n) for n, _ in existing], dtype=float)
    total = degrees.sum()
    weights = np.zeros(len(existing))
    for i, (node, trained) in enumerate(existing):
        if overlay.degree(node) >= overlay.edge_limit:
            continue
        sim = max(bf_similarity(arriving, trained), similarity_floor)
        weights[i] = degrees[i] / total * sim if total > 0 else sim
    wsum = weights.sum()
    if wsum <= 0:
        raise NoAttachmentTarget("all existing nodes saturated or zero-weight")
    return weights / wsum


def bf_generate(params, trained, edge_limit, seed) -> Overlay:
    """Similarity-weighted preferential attachment over nodes with the given
    trained-variable sets, as one Python loop over the pool of unlinked
    (node, trained set) pairs per draw, then the library's connectivity
    repair pass."""
    n = len(trained)
    if n < params.m0:
        raise ValueError(f"need at least m0={params.m0} nodes, got {n}")
    rng = np.random.default_rng(seed)
    overlay = Overlay(
        adjacency={i: set() for i in range(params.m0)}, edge_limit=edge_limit
    )
    for u in range(params.m0):
        for v in range(u + 1, params.m0):
            overlay.add_edge(u, v)
    for new_id in range(params.m0, n):
        existing = [(node, trained[node]) for node in overlay.nodes]
        overlay.adjacency[new_id] = set()
        for _ in range(params.m):
            pool = [
                (node, ids)
                for node, ids in existing
                if node not in overlay.adjacency[new_id]
            ]
            if not pool:
                break
            try:
                probs = bf_attachment_probabilities(
                    overlay, trained[new_id], pool, params.similarity_floor
                )
            except NoAttachmentTarget:
                overlay.saturation_warnings += 1
                break
            overlay.add_edge(new_id, pool[rng.choice(len(pool), p=probs)][0])
    _repair_connectivity(overlay)
    return overlay


def bf_best_score(model: RoutingModel, target: int, bound: frozenset[int]) -> float:
    """The lowest clamped score over the model's sets for `target`, as one
    `min` over `EntropySet.score`; inf when there are none."""
    return min(
        (s.score(bound) for s in model.entries.get(target, ())),
        default=math.inf,
    )


def bf_answer_entropy(entry, schema, pseudocount, bound: Iterable[int]):
    """A node's answering quality from the workload entry it trained the
    target on: the clamped chain-rule surrogate through
    `bf_conditional_entropy` over the entry's smoothed count table, or None
    when there is no entry or it holds no observation."""
    if entry is None or entry.counts.sum() == 0:
        return None
    shape = [schema.predicting_cardinality(entry.var)]
    shape += [schema.context_cardinality(c) for c in entry.contexts]
    counts = np.reshape(entry.counts + pseudocount, shape)
    table = JointTable(entry.var, entry.contexts, counts)
    given = [v for v in bound if v in table.contexts]
    return bf_conditional_entropy(table, given)


def bf_next_hop(state, query):
    """The next hop as one min over the candidates (the unvisited neighbors,
    or every neighbor once all are visited), keyed on (bf_best_score, node
    id)."""
    visited = set(query.visited)
    unvisited = [n for n in state.neighbors if n not in visited]
    candidates = unvisited if unvisited else list(state.neighbors)
    bound = frozenset(query.ctx)
    return min(
        candidates,
        key=lambda n: (
            bf_best_score(state.routing_models[n], query.target, bound),
            n,
        ),
    )


def bf_build_advertisement(
    local_sets: dict[int, EntropySet],
    routing_models: Iterable[RoutingModel],
    policy: AdvertisementPolicy,
    k: int,
) -> Advertisement:
    """Aggregate local and neighbor-learned entropy sets into the summary this
    node would advertise: per predicting variable, the K lowest-joint sets over
    distinct context combinations, with sets drawn from routing models inflated
    by one hop and low-quality local sets reduced to joint-only form."""
    # per variable, per combination: the minimum-joint candidate
    best: dict[int, dict[frozenset, EntropySet]] = {}

    def offer(s: EntropySet):
        combos = best.setdefault(s.predicting, {})
        cur = combos.get(s.combination)
        if cur is None or s.joint < cur.joint:
            combos[s.combination] = s

    for s in local_sets.values():
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


def bf_should_advertise(
    previous: Advertisement,
    current: Advertisement,
    policy: AdvertisementPolicy,
) -> bool:
    """The full comparison: every (variable, combination) key and joint."""
    old, new = (
        {(var, s.combination): s.joint for var, sets in adv.items() for s in sets}
        for adv in (previous, current)
    )
    if set(old) != set(new):
        return True
    return any(abs(new[k] - old[k]) > policy.change_threshold for k in new)


def well_formed(adv: Advertisement, k: int) -> bool:
    """What receivers store unchecked: per variable, one to K sets over
    distinct combinations, in ascending joint order."""
    return all(
        0 < len(sets) <= k
        and len({s.combination for s in sets}) == len(sets)
        and all(a.joint <= b.joint for a, b in zip(sets, sets[1:]))
        for sets in adv.values()
    )


def bf_propagate(trial, sent: dict, built: dict) -> tuple[int, int]:
    """Phase 1 of a cycle from scratch, with one private routing model per
    receiver: every node builds its full advertisement with
    `bf_build_advertisement`, sends it when `bf_should_advertise` says it
    differs from the last one it sent, and every neighbor of a sender
    integrates the full advertisement into its own copy. Give each node
    private `routing_models` before the first call. `sent` and `built` map
    each node to the last advertisement it sent and built, and are updated;
    each node's `changed_vars` become the variables whose private lists
    changed by value this cycle.
    Returns the cycle's `adv_sets_sent` counted per receiver, once over the
    variables whose private list changed by value (what a delta carries) and
    once over every advertised variable (a full snapshot)."""
    config = trial.config
    policy = config.resolved_policy()
    delta_sets = snapshot_sets = 0
    outgoing = []
    for state in trial.nodes:
        adv = bf_build_advertisement(
            state.local_sets(), state.routing_models.values(), policy, config.k_sets
        )
        built[state.node_id] = adv
        if bf_should_advertise(sent.get(state.node_id, {}), adv, policy):
            outgoing.append((state, adv))
        state.changed_vars = set()
    for state, adv in outgoing:
        sent[state.node_id] = adv
        for nb in state.neighbors:
            receiver = trial.nodes[nb]
            held = receiver.routing_models[state.node_id].entries
            changed = {var for var, sets in adv.items() if held.get(var) != sets}
            held.update(adv)
            receiver.changed_vars |= changed
            delta_sets += sum(len(adv[var]) for var in changed)
            snapshot_sets += sum(map(len, adv.values()))
    return delta_sets, snapshot_sets


def bf_generate_workload(config, seed) -> list[tuple]:
    """The synthetic Gaussian workload as raw observation streams: per
    entry, in draw order, a plain `(node_id, var, contexts, ctx_flat_idx,
    outcomes)` tuple with the context assignments as flattened indices."""
    rng = np.random.default_rng(seed)
    pool = _combination_pool(config, rng)
    pred_card = config.predicting_cardinality
    ctx_card = config.context_cardinality
    n_assign = ctx_card**config.contexts_per_table
    entries = []
    n_trained = min(config.vars_trained_per_node, config.predicting_var_count)
    for node_id in range(config.node_count):
        var_ids = rng.choice(
            config.predicting_var_count, size=n_trained, replace=False
        )
        for var_idx in sorted(var_ids):
            contexts = pool[rng.integers(len(pool))]
            means = rng.uniform(0, pred_card - 1, size=n_assign)
            flat_idx = rng.integers(n_assign, size=config.observations_per_var)
            raw = means[flat_idx] + rng.standard_normal(config.observations_per_var)
            outcomes = np.clip(np.rint(raw), 0, pred_card - 1).astype(np.int64)
            entries.append(
                (node_id, int(var_idx), contexts, flat_idx.astype(np.int64), outcomes)
            )
    return entries


def export_workload_csv(workload, path):
    """Write a workload in the CSV form `engine.ingest_csv` reads: rows of
    node_id, predicting var index, outcome, then one c<j>=<state> field per
    bound context variable j. Each entry's counts expand into one row per
    observation, in cell order."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["node_id", "predicting_var", "outcome"])
        for entry in workload.entries:
            cards = [workload.schema.context_cardinality(c) for c in entry.contexts]
            for (outcome, flat), n in np.ndenumerate(entry.counts):
                states = np.unravel_index(flat, cards)
                row = [entry.node_id, entry.var, outcome]
                row += [f"c{c}={int(s)}" for c, s in zip(entry.contexts, states)]
                writer.writerows([row] * int(n))


@pytest.fixture
def binary_schema():
    return Schema(predicting_cardinalities=(2,), context_cardinalities=(2, 2))
