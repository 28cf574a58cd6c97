"""Shared fixtures, independent brute-force oracles and a workload CSV writer.

The oracles here deliberately avoid the library's vectorized and
incremental code paths: entropies are computed with plain Python loops over
explicitly enumerated cells, overlay growth with one `bf_similarity` call per
pair of nodes, a node's best score with one `min` over its published sets'
scores, a node's answer from its workload entry, the next hop with one `min`
over the candidate neighbors, an advertisement from scratch out of every
local set and neighbor list, propagation with one private copy of each
sender's lists per receiver, a whole trial (`bf_run_trial`) from those
pieces and set-up alone,
and the workload as raw observation streams rather than cell counts,
counted into plain tensors one observation at a time, so the tests check the
implementation against a second, independent evaluation. The references
read entropy sets as plain `(joint, {context: entropy})` views (`view`) of
rows `(joint, contexts, entropies)` read off the library's `LocalSets`
arrays (`rows_of`), and score a view from its dict (`bf_score`).
"""

import csv
import itertools
import math
from typing import Iterable, Optional

import numpy as np
import pytest

from edgeknow import engine
from edgeknow.engine import (
    SimConfig,
    _combination_pool,
    generate_workload,
    setup_trial,
    train_pgms,
    trial_streams,
)
from edgeknow.routing import (
    AdvertisementPolicy,
    LocalSets,
    RoutingModel,
    answer_entropy,
    local_entropy_sets,
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


def bf_summary(tensor: np.ndarray, contexts) -> tuple[float, dict[int, float]]:
    """A count tensor's joint entropy and, per context variable of
    `contexts` (axes 1.. in order), its marginal entropy, via explicit
    loops."""
    return bf_joint_entropy(tensor), {
        c: bf_entropy(bf_marginal(tensor, 1 + i)) for i, c in enumerate(contexts)
    }


def bf_conditional_entropy(
    tensor: np.ndarray, contexts, given: Iterable[int]
) -> float:
    """The chain-rule surrogate of a count tensor whose axes after the first
    are the context variables `contexts`: `bf_chain_rule` over the axes of
    the variables `given`. A variable that is not one of `contexts` raises
    ValueError."""
    return bf_chain_rule(tensor, [1 + tuple(contexts).index(v) for v in given])


def bf_observe(tensor: np.ndarray, ctx: dict[int, int], outcome: int):
    """Count one observation into a plain (outcome x context states) count
    tensor, context axes in ascending variable order, one cell at a time:
    the reference for binning with `cell_counts`."""
    tensor[(outcome,) + tuple(ctx[c] for c in sorted(ctx))] += 1


def smoothed_tensor(entry, config) -> np.ndarray:
    """A workload entry's counts plus the config's pseudocount, with one
    axis per context after the predicting axis."""
    shape = [config.predicting_cardinality]
    shape += [config.context_cardinality for _ in entry.contexts]
    return np.reshape(entry.counts + config.pseudocount, shape)


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
    degrees = np.array([overlay.degree[n] for n, _ in existing], dtype=float)
    total = degrees.sum()
    weights = np.zeros(len(existing))
    for i, (node, trained) in enumerate(existing):
        if overlay.degree[node] >= overlay.edge_limit:
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
    rng = np.random.default_rng(seed)
    overlay = Overlay(n, edge_limit)
    clique = min(n, params.m0)
    for u in range(clique):
        for v in range(u + 1, clique):
            overlay.add_edge(u, v)
    for new_id in range(params.m0, n):
        existing = [(node, trained[node]) for node in range(new_id)]
        for _ in range(params.m):
            linked = overlay.neighbors(new_id).tolist()
            pool = [(node, ids) for node, ids in existing if node not in linked]
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


# rows that tests make by hand are this wide: evidence over context ids 0-15
# then iterates unsorted, ids 8-15 sharing hash slots with 0-7
ROW_WIDTH = 16


def row(joint: float, hs: Optional[dict[int, float]] = None, width: int = ROW_WIDTH):
    """A library entropy-set row `(joint, contexts, entropies)` with the
    marginal entropies `hs` (none: the reduced form)."""
    hs = hs or {}
    entropies = [0.0] * width
    for c, h in hs.items():
        entropies[c] = h
    return joint, tuple(sorted(hs)), tuple(entropies)


def view(s: tuple) -> tuple[float, dict[int, float]]:
    """A library row as the `(joint, {context: entropy})` view the
    references read, its dict in ascending context order."""
    joint, contexts, entropies = s
    return joint, {c: entropies[c] for c in sorted(contexts)}


def rows_of(sets: LocalSets) -> list[tuple]:
    """Each local set of `sets`, in order, as the row `(joint, contexts,
    entropies)` its arrays hold."""
    return [
        (joint, sets.combinations[combo], tuple(entropies))
        for joint, combo, entropies in zip(
            sets.joints.tolist(), sets.combos.tolist(), sets.entropies.tolist()
        )
    ]


def summarise(entries, width: int, card: int, pseudocount: float) -> list[tuple]:
    """The rows of `local_entropy_sets` over `entries` as one batch."""
    return rows_of(local_entropy_sets([entries], width, card, pseudocount))


def model_of(local_sets, neighbors, variables: int, k: int, width: int):
    """A `RoutingModel` over per-node dicts of rows `width` wide: one
    `LocalSets` entry per row, in node order, then dict order, combinations
    numbered as `local_entropy_sets` numbers them; and over the overlay with
    the per-node ascending `neighbors`, which must list each edge at both
    ends."""
    overlay = Overlay(len(neighbors), edge_limit=len(neighbors))
    for u, nbs in enumerate(neighbors):
        for v in nbs:
            if u < v:
                overlay.add_edge(u, v)
    assert [overlay.neighbors(u).tolist() for u in range(len(neighbors))] == [
        list(nbs) for nbs in neighbors
    ]
    entries = [(node, var, s) for node, sets in enumerate(local_sets)
               for var, s in sets.items()]
    combinations = {(): 0}
    combos = [combinations.setdefault(s[1], len(combinations)) for _, _, s in entries]
    sets = LocalSets(
        nodes=np.array([e[0] for e in entries], dtype=np.intp),
        variables=np.array([e[1] for e in entries], dtype=np.intp),
        combos=np.array(combos, dtype=np.intp),
        joints=np.array([s[0] for _, _, s in entries], dtype=float),
        entropies=np.array([s[2] for _, _, s in entries], dtype=float).reshape(
            len(entries), width
        ),
        combinations=list(combinations),
    )
    return RoutingModel(sets, overlay, variables, k)


def draw_workload(config, seed) -> list:
    """`generate_workload`'s batches joined into one list of entries."""
    return [e for batch in generate_workload(config, seed) for e in batch]


def trained_rows(workload, config) -> list[dict[int, tuple]]:
    """Per node, keyed by variable in entry order, the rows of the local
    sets `train_pgms` makes of `workload`'s entries."""
    sets = train_pgms([workload], config)
    per_node: list[dict[int, tuple]] = [{} for _ in range(config.node_count)]
    for node, var, s in zip(sets.nodes.tolist(), sets.variables.tolist(), rows_of(sets)):
        per_node[node][var] = s
    return per_node


def published_rows(model, local_sets, unsent=False) -> list[dict[int, list]]:
    """Per node, per variable it published, its list as library rows read
    from the model's arrays (with `unsent`, its unsent lists that differ
    from its published ones instead); `local_sets`, per node, are those the
    model was built from, which give each origin its row."""
    joints, origins = model.joints, model.origins
    if unsent:
        same = (model.unsent_joints == joints).all(axis=2)
        same &= (model.unsent_origins == origins).all(axis=2)
        joints = np.where(same[:, :, None], math.inf, model.unsent_joints)
        origins = model.unsent_origins
    width = model._entropies.shape[0]
    rows = {0: ((), (0.0,) * width)}
    for node, sets in enumerate(local_sets):
        for var, (_, contexts, entropies) in sets.items():
            rows[int(model.local_origins[var, node])] = (contexts, entropies)
    out: list[dict[int, list]] = [{} for _ in range(joints.shape[1])]
    for var, node in zip(*np.nonzero(np.isfinite(joints[:, :, 0]))):
        out[node][int(var)] = [
            (float(joint), *rows[int(origin)])
            for joint, origin in zip(joints[var, node], origins[var, node])
            if joint < math.inf
        ]
    return out


def set_up(config, workload=None):
    """`setup_trial`'s trial, its workload (drawn from the same
    stream when none is given) and the local sets it trained, per node, as
    rows, by `train_pgms`."""
    trial = setup_trial(config, workload)
    if workload is None:
        workload = draw_workload(config, trial_streams(config.seed)[0])
    return trial, workload, trained_rows(workload, config)


def library_answer(s: tuple, bound: frozenset[int]) -> float:
    """The library's answer of a node whose local set of variable 0 is the
    row `s`, for evidence on `bound`: `answer_entropy` over a one-node
    model."""
    model = model_of([{0: s}], [[]], 1, 1, len(s[2]))
    return float(answer_entropy(model, 0, bound)[0])


def views(entries: dict) -> dict[int, list]:
    """Per variable, the views of a list of rows."""
    return {var: [view(s) for s in sets] for var, sets in entries.items()}


def bf_score(v: tuple[float, dict[int, float]], bound: Iterable[int]) -> float:
    """A view's clamped chain-rule score for evidence on `bound`: its joint
    minus the entropy of each bound context its dict holds, subtracted in
    `bound`'s iteration order."""
    value, hs = v
    for var in bound:
        h = hs.get(var)
        if h is not None:
            value -= h
    return max(value, 0.0)


def bf_gate_score(v: tuple[float, dict[int, float]]) -> float:
    """The evidence-free conditional quality the quality gate compares: the
    view's score with all its own contexts bound, in the iteration order of
    the frozenset of its dict."""
    return bf_score(v, frozenset(v[1]))


def bf_best_score(lists: dict, target: int, bound: frozenset[int]) -> float:
    """The lowest clamped score over one node's published sets for `target`
    (`lists` holds a list of views per variable), as one `min` over their
    `bf_score`; inf when there are none."""
    return min(
        (bf_score(v, bound) for v in lists.get(target, ())), default=math.inf
    )


def bf_answer_entropy(entry, config, bound: Iterable[int]):
    """A node's answering quality from the workload entry it trained the
    target on: the clamped chain-rule surrogate through
    `bf_conditional_entropy` over the entry's count tensor smoothed with the
    config's pseudocount, or None when there is no entry or it holds no
    observation."""
    if entry is None or entry.counts.sum() == 0:
        return None
    given = [v for v in bound if v in entry.contexts]
    return bf_conditional_entropy(
        smoothed_tensor(entry, config), entry.contexts, given
    )


def bf_next_hop(
    neighbors, published: dict, target: int, bound: frozenset[int], visited
):
    """The next hop of a query for `target` with evidence on `bound` that
    has been at the nodes `visited`, as one min over the candidates (the
    unvisited `neighbors`, or every neighbor once all are visited), keyed on
    (bf_best_score of the neighbor's lists, node id); `published[n]` holds
    neighbor n's lists of views per variable."""
    unvisited = [n for n in neighbors if n not in visited]
    candidates = unvisited if unvisited else list(neighbors)
    return min(
        candidates, key=lambda n: (bf_best_score(published[n], target, bound), n)
    )


def bf_build_advertisement(
    local_sets: dict[int, tuple],
    neighbor_lists: Iterable[dict[int, list]],
    policy: AdvertisementPolicy,
    k: int,
) -> dict[int, list]:
    """Aggregate local and neighbor-learned entropy sets into the summary this
    node would advertise: per predicting variable, the K lowest-joint sets over
    distinct context combinations, with sets drawn from neighbors' lists
    inflated by one hop and low-quality local sets reduced to joint-only form.
    Every set, taken and returned, is a view; a neighbor's lists are a dict
    of lists of views per variable."""
    # per variable, per combination: the minimum-joint candidate
    best: dict[int, dict[frozenset, tuple]] = {}

    def offer(var: int, joint: float, hs: dict[int, float]):
        combos = best.setdefault(var, {})
        cur = combos.get(frozenset(hs))
        if cur is None or joint < cur[0]:
            combos[frozenset(hs)] = (joint, hs)

    for var, (joint, hs) in local_sets.items():
        if bf_gate_score((joint, hs)) > policy.quality_threshold:
            offer(var, joint, {})
        else:
            offer(var, joint, hs)
    for lists in neighbor_lists:
        for var, sets in lists.items():
            for joint, hs in sets:
                offer(var, joint + policy.hop_inflation, hs)

    return {
        var: sorted(combos.values(), key=lambda v: v[0])[:k]
        for var, combos in best.items()
    }


def bf_should_advertise(
    previous: dict[int, list],
    current: dict[int, list],
    policy: AdvertisementPolicy,
) -> bool:
    """The full comparison of two advertisements of views: every (variable,
    combination) key and joint."""
    old, new = (
        {(var, frozenset(hs)): joint for var, sets in adv.items() for joint, hs in sets}
        for adv in (previous, current)
    )
    if set(old) != set(new):
        return True
    return any(abs(new[k] - old[k]) > policy.change_threshold for k in new)


def well_formed(adv: dict[int, list], k: int) -> bool:
    """What receivers store unchecked, read from an advertisement's views:
    per variable, one to K sets over distinct combinations, in ascending
    joint order."""
    return all(
        0 < len(sets) <= k
        and len({frozenset(hs) for _, hs in sets}) == len(sets)
        and all(a[0] <= b[0] for a, b in zip(sets, sets[1:]))
        for sets in adv.values()
    )


def bf_propagate(
    trial, local_sets: list, private: dict, sent: dict, built: dict, changed: dict
) -> tuple[int, int]:
    """Phase 1 of a cycle from scratch, with one private copy of each
    sender's lists per receiver: every node builds its full advertisement
    with `bf_build_advertisement`, sends it when `bf_should_advertise` says
    it differs from the last one it sent, and every neighbor of a sender
    integrates the full advertisement into its own copy. `private[receiver]
    [sender]` is that copy, a dict of lists of views per variable, empty
    before the first call. `sent` and `built` map each node to the last
    advertisement of views it sent and built, and `changed` to the variables
    whose private lists changed by value at it this cycle; all four are
    updated. Of the trial, only its config and overlay are read;
    `local_sets` are the nodes' local sets, as `set_up` gives them.
    Returns the cycle's `adv_sets_sent` counted per receiver, once over the
    variables whose private list changed by value (what a delta carries) and
    once over every advertised variable (a full snapshot)."""
    config = trial.config
    policy = config.resolved_policy()
    delta_sets = snapshot_sets = 0
    outgoing = []
    neighbors = [trial.overlay.neighbors(m).tolist() for m in range(config.node_count)]
    for node, sets in enumerate(local_sets):
        local = {var: view(s) for var, s in sets.items()}
        copies = private[node]
        learned = [copies[nb] for nb in neighbors[node]]
        adv = bf_build_advertisement(local, learned, policy, config.k_sets)
        built[node] = adv
        if bf_should_advertise(sent.get(node, {}), adv, policy):
            outgoing.append((node, adv))
        changed[node] = set()
    for node, adv in outgoing:
        sent[node] = adv
        for nb in neighbors[node]:
            held = private[nb][node]
            delta = {var for var, sets in adv.items() if held.get(var) != sets}
            held.update(adv)
            changed[nb] |= delta
            delta_sets += sum(len(adv[var]) for var in delta)
            snapshot_sets += sum(map(len, adv.values()))
    return delta_sets, snapshot_sets


def bf_run_trial(config, workload=None) -> list[tuple[int, list[dict]]]:
    """A whole trial from scratch: per cycle, its `adv_sets_sent` and one
    record per query (issuer, target, bound, path, answered_by, achieved,
    optimal, hit). Set-up (`set_up`) supplies the workload (drawn from the
    same `SeedSequence` stream when none is given), each node's local sets
    and the overlay; the rest is the `bf_*` pieces: `bf_propagate` over
    private copies, forwarding as `bf_next_hop` over the forwarding node's
    copies (or the least walk draw for `rw`), answers as `bf_score` of the
    node's local set, each checked against its entry tensor through
    `bf_answer_entropy`, and an oracle over every node. The take-over
    compares answers of different nodes, whose tables can be permutations
    of one another with entropies equal up to rounding, so it reads the
    set-up summaries, not the tensor values. Queries and walks draw from
    the query and walk streams in the engine's order: per issuer, a target,
    then one of its trained combinations, whose ascending tuple makes the
    evidence set; per block of `engine.ISSUER_BLOCK` issuers, one array of
    walk draws per hop, a row per issuer and a column per neighbor slot up
    to the highest degree. A walking query reads its row: it goes to the
    neighbor, in ascending order, of least draw among the unvisited ones,
    or among all once every one is visited."""
    trial, workload, local_sets = set_up(config, workload)
    _, _, s_query, s_walk = trial_streams(config.seed)
    entries = {(e.node_id, e.var): e for e in workload}
    combos: dict[int, set] = {}
    for e in workload:
        if e.counts.any():
            combos.setdefault(e.var, set()).add(e.contexts)
    targets = sorted(combos)
    query_rng = np.random.default_rng(s_query)
    walk_rng = np.random.default_rng(s_walk)
    n, hops = config.node_count, config.resolved_hops()
    neighbors = [trial.overlay.neighbors(node).tolist() for node in range(n)]
    width = max([1] + [len(nbs) for nbs in neighbors])
    per_block = engine.ISSUER_BLOCK
    uniform = math.log2(config.predicting_cardinality)
    answers: dict = {}

    def answer(node, target, bound):
        key = (node, target, bound)
        if key not in answers:
            s = local_sets[node].get(target)
            value = None if s is None else bf_score(view(s), bound)
            want = bf_answer_entropy(entries.get((node, target)), config, bound)
            assert (value is None) == (want is None)
            assert value is None or abs(value - want) <= 1e-9
            answers[key] = value
        return answers[key]

    private = {i: {nb: {} for nb in neighbors[i]} for i in range(n)}
    sent, built, changed = {}, {}, {}
    cycles = []
    for _ in range(config.cycles):
        adv_sets_sent, _ = bf_propagate(
            trial, local_sets, private, sent, built, changed
        )
        records = []
        for issuer in range(n):
            if config.strategy.value == "rw" and issuer % per_block == 0:
                block = min(per_block, n - issuer)
                draws = [walk_rng.random((block, width)) for _ in range(hops)]
            target = targets[query_rng.integers(len(targets))]
            options = sorted(combos[target])
            bound = frozenset(options[query_rng.integers(len(options))])
            visited = []
            quality, answered_by, left, node = math.inf, None, hops, issuer
            while True:
                local = answer(node, target, bound)
                if local is not None and local < quality:
                    quality, answered_by = local, node
                visited.append(node)
                if left == 0 or not neighbors[node]:
                    break
                if config.strategy.value == "rw":
                    drawn = draws[hops - left][issuer % per_block]
                    offers = list(zip(drawn, neighbors[node]))
                    unvisited = [o for o in offers if o[1] not in visited]
                    node = min(unvisited or offers)[1]
                else:
                    node = bf_next_hop(
                        neighbors[node], private[node], target, bound, visited
                    )
                left -= 1
            achieved = quality if math.isfinite(quality) else uniform
            optimal = min(
                [uniform] + [a for a in (answer(m, target, bound) for m in range(n))
                             if a is not None]
            )
            records.append(dict(
                issuer=issuer, target=target, bound=bound, path=visited,
                answered_by=answered_by, achieved=achieved, optimal=optimal,
                hit=achieved <= optimal + 1e-6,
            ))
        cycles.append((adv_sets_sent, records))
    return cycles


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


def export_workload_csv(workload, config, path):
    """Write a workload in the CSV form `engine.ingest_csv` reads: rows of
    node_id, predicting var index, outcome, then one c<j>=<state> field per
    bound context variable j, whose states number the config's context
    cardinality. Each entry's counts expand into one row per observation,
    in cell order."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["node_id", "predicting_var", "outcome"])
        for entry in workload:
            cards = [config.context_cardinality for _ in entry.contexts]
            for (outcome, flat), n in np.ndenumerate(entry.counts):
                states = np.unravel_index(flat, cards)
                row = [entry.node_id, entry.var, outcome]
                row += [f"c{c}={int(s)}" for c, s in zip(entry.contexts, states)]
                writer.writerows([row] * int(n))


@pytest.fixture
def binary_config():
    """One node, one binary predicting variable, two binary contexts."""
    return SimConfig(
        node_count=1,
        predicting_var_count=1,
        context_var_count=2,
        contexts_per_table=2,
        predicting_cardinality=2,
        context_cardinality=2,
    )
