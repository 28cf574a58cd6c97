"""Cycle-based simulation harness.

A trial: generate a synthetic Gaussian workload (or take a workload as its
list of entries, which `ingest_csv` reads from CSV), train one model per
node, grow the similarity-clustered overlay from each node's trained
variables, the one padded neighbor matrix that routing reads, then run
cycles in which every node first propagates its knowledge and then issues
one query. `setup_trial` is the one path from a config and a workload to an
overlay; `edgeknow topology` exports its overlay. Set-up summarises the
workload a batch of entries at a time into the local sets' arrays
(`routing.LocalSets`), which the overlay, the queries and the routing model
read. Propagation works on the shared routing model's
per-variable arrays, over the (variable, node) pairs that must rebuild, in
blocks of whole variables of about `OFFER_BLOCK` offers: one pass per
block builds, stages and compares its pairs' lists, and the sends are
integrated after the last build, in blocks by the same rule. A
cycle's queries are drawn first, in issuer order, and then routed together:
both strategies move every query of a block of issuers one hop per
`process_query` step, to the neighbor of least key, `abs` keying each
neighbor by its forwarding rank for the query's key and `rw` by a uniform
draw from the walk stream. A query is its key, a target and the context
variables it binds as evidence: the paper's quality metric conditions on the
bound set, so no context state is drawn.
A query takes the first least answer along its path from its key's answer
vector, every node's local answer. Its achieved quality is compared against
an exhaustive-search oracle (the minimum of that vector, at most the uniform
prior); accuracy is the hit rate within a small tolerance.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, Optional

import numpy as np

from . import routing
from .pgm import BATCH_CELLS, cell_counts
from .routing import (
    AdvertisementPolicy,
    LocalSets,
    RoutingModel,
    build_advertisement,
    integrate_advertisement,
    process_query,
    should_advertise,
)
from .topology import AttachmentParams, Overlay, generate

HIT_TOLERANCE_BITS = 1e-6
# at most this many queries are routed at once, which bounds the (queries x
# nodes) temporaries of a hop; `abs` queries are independent, so any block is
# exact for them, while `rw` draws one (block x max degree) array per hop
ISSUER_BLOCK = 256
# phase 1 takes about this many offers at once: a pair's local set and K per
# neighbor; builds are independent across variables, so any block of whole
# variables is exact, and a variable that offers more goes alone
OFFER_BLOCK = 2**14


class InvalidField(ValueError):
    """A `SimConfig` value out of its range; `name` is the field's."""

    def __init__(self, name: str, problem: str):
        # both in args, so a copy or unpickling rebuilds the same error
        super().__init__(name, problem)
        self.name = name

    def __str__(self):
        return " ".join(self.args)


class Strategy(str, Enum):
    ABS = "abs"
    RANDOM_WALK = "rw"


@dataclass
class SimConfig:
    node_count: int = 256
    predicting_var_count: int = 100
    context_var_count: int = 3
    contexts_per_table: int = 3
    combinations_pool: int = 1
    vars_trained_per_node: int = 5
    observations_per_var: int = 5000
    predicting_cardinality: int = 8
    context_cardinality: int = 4
    pseudocount: float = 1.0
    k_sets: int = 2
    hop_budget: Optional[int] = None
    cycles: int = 30
    strategy: Strategy = Strategy.ABS
    attachment: AttachmentParams = field(default_factory=AttachmentParams)
    edge_limit: int = 60
    seed: int = 0

    def __post_init__(self):
        # nan fails too: it would make every answer nan
        if not 0 < self.pseudocount < math.inf:
            raise InvalidField(
                "pseudocount", f"must be in (0, inf), got {self.pseudocount}"
            )
        for name in (
            "node_count",
            "predicting_var_count",
            "context_var_count",
            "contexts_per_table",
            "combinations_pool",
            "vars_trained_per_node",
            "observations_per_var",
            "k_sets",
        ):
            if getattr(self, name) < 1:
                raise InvalidField(name, "must be >= 1")
        for name in ("predicting_cardinality", "context_cardinality"):
            if getattr(self, name) < 2:
                raise InvalidField(name, "must be >= 2")
        if self.contexts_per_table > self.context_var_count:
            raise InvalidField("contexts_per_table", "exceeds context_var_count")
        if not isinstance(self.strategy, Strategy):
            raise InvalidField("strategy", f"{self.strategy!r} is not a Strategy")
        # a zero budget means the issuer answers alone; zero cycles, no rows;
        # numpy seeds from non-negative integers only
        for name in ("hop_budget", "cycles", "seed"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise InvalidField(name, "must be >= 0")
        # the overlay grows from a clique of min(node_count, m0) nodes
        clique = min(self.node_count, self.attachment.m0)
        if self.edge_limit < clique - 1:
            raise InvalidField(
                "edge_limit", f"must be >= min(node_count, m0)-1={clique - 1}"
            )

    def resolved_hops(self) -> int:
        if self.hop_budget is not None:
            return self.hop_budget
        return max(1, round(2 * math.log2(self.node_count)))

    def resolved_policy(self) -> AdvertisementPolicy:
        return AdvertisementPolicy(
            quality_threshold=0.8 * math.log2(self.predicting_cardinality)
        )


@dataclass
class TrainedAssignment:
    """One node's observations of one variable under one context combination,
    held as `cell_counts`: how many fell into each (outcome, context
    assignment) cell, assignments flattened row-major in `contexts` order.
    `contexts` is strictly ascending, the axis order of the trained table."""

    node_id: int
    var: int
    contexts: tuple[int, ...]
    counts: np.ndarray


def _combination_pool(config: SimConfig, rng: np.random.Generator):
    all_combos = list(
        itertools.combinations(range(config.context_var_count), config.contexts_per_table)
    )
    pool_size = min(config.combinations_pool, len(all_combos))
    idx = rng.choice(len(all_combos), size=pool_size, replace=False)
    return [all_combos[j] for j in sorted(idx)]


def generate_workload(config: SimConfig, seed: int) -> Iterator[list]:
    """Synthetic Gaussian workload: every node trains a random subset of
    predicting variables, each against one context combination from the pool.
    Per concrete context assignment the outcome is a discretized Gaussian with
    a uniformly placed mean and a stddev of one state width. Entries come in
    draw order, in new lists of as many as `pgm.table_entropies` batches."""
    rng = np.random.default_rng(seed)
    pool = _combination_pool(config, rng)
    pred_card = config.predicting_cardinality
    ctx_card = config.context_cardinality
    n_assign = ctx_card**config.contexts_per_table
    size = max(1, BATCH_CELLS // (pred_card * n_assign))
    n_trained = min(config.vars_trained_per_node, config.predicting_var_count)
    batch: list[TrainedAssignment] = []
    for node_id in range(config.node_count):
        var_ids = rng.choice(config.predicting_var_count, size=n_trained, replace=False)
        for var_idx in sorted(var_ids):
            contexts = pool[rng.integers(len(pool))]
            means = rng.uniform(0, pred_card - 1, size=n_assign)
            flat_idx = rng.integers(n_assign, size=config.observations_per_var)
            raw = means[flat_idx] + rng.standard_normal(config.observations_per_var)
            outcomes = np.clip(np.rint(raw), 0, pred_card - 1).astype(np.int64)
            counts = cell_counts(pred_card, n_assign, flat_idx, outcomes)
            batch.append(TrainedAssignment(node_id, int(var_idx), contexts, counts))
            if len(batch) == size:
                yield batch
                batch = []
    if batch:
        yield batch


def train_pgms(batches: Iterable[list], config: SimConfig) -> LocalSets:
    """The local entropy set of every entry with observations, in order:
    one `routing.local_entropy_sets` pass (looked up on the module, where
    perfbench wraps it) over the batches, smoothed with the config's
    pseudocount."""
    trained = ([entry for entry in batch if entry.counts.any()] for batch in batches)
    args = config.context_var_count, config.context_cardinality, config.pseudocount
    return routing.local_entropy_sets(trained, *args)


def trial_streams(seed: int) -> list:
    """A trial's four streams, spawned from its seed: the workload's and the
    overlay's seeds, then the query and walk `SeedSequence`s."""
    streams = np.random.SeedSequence(seed).spawn(4)
    return [int(s.generate_state(1)[0]) for s in streams[:2]] + streams[2:]


def _check_field(var: int, var_count: int, state: int, card: int, name: str):
    """Reject a CSV value whose variable or state is outside the config's
    ranges, naming the CSV field."""
    if not 0 <= var < var_count:
        raise ValueError(f"unknown variable {name}")
    if not 0 <= state < card:
        raise ValueError(f"state {state} out of range for {name}")


def ingest_csv(path, config: SimConfig) -> list[TrainedAssignment]:
    """Parse an observation CSV into the cell counts of each (node, var), all
    of whose rows bind the same context variables, as a workload's entries
    in (node, var) order; row order does not matter.
    Malformed rows, rows that bind a context twice, fall outside the config's
    nodes, variables or states or bind other context variables than earlier
    rows of their (node, var), raise ValueError with the line number; so does
    a file without observation rows. A leading byte-order mark is dropped."""
    pred_card, ctx_card = config.predicting_cardinality, config.context_cardinality
    # per (node, var): the bound context variables and the flat cell counts,
    # one cell per (outcome, context states) row-major
    groups: dict[tuple[int, int], tuple[tuple[int, ...], np.ndarray]] = {}
    with open(path, newline="", encoding="utf-8-sig") as f:
        for lineno, row in enumerate(csv.reader(f), start=1):
            if not row:
                continue
            if lineno == 1 and row[0] == "node_id":
                continue
            try:
                node_id = int(row[0])
                var = int(row[1])
                outcome = int(row[2])
                if not 0 <= node_id < config.node_count:
                    raise ValueError(
                        f"node_id {node_id} outside {config.node_count} nodes"
                    )
                _check_field(
                    var, config.predicting_var_count, outcome, pred_card,
                    f"predicting_var {var}",
                )
                bindings = {}
                for cell in row[3:]:
                    name, _, state = cell.partition("=")
                    if not name.startswith("c") or not state:
                        raise ValueError(f"bad context field {cell!r}")
                    c = int(name[1:])
                    if c in bindings:
                        raise ValueError(f"context {name} bound twice")
                    bindings[c] = int(state)
                    _check_field(
                        c, config.context_var_count, bindings[c], ctx_card, name
                    )
                contexts = tuple(sorted(bindings))
                group = groups.get((node_id, var))
                if group is None:
                    cells = pred_card * ctx_card ** len(contexts)
                    group = groups[node_id, var] = (
                        contexts, np.zeros(cells, dtype=np.int64)
                    )
                elif contexts != group[0]:
                    raise ValueError(
                        f"contexts {contexts} differ from {group[0]} in earlier "
                        f"rows of node {node_id}, predicting_var {var}"
                    )
            except (ValueError, IndexError) as exc:
                raise ValueError(f"{path}: malformed row at line {lineno}: {exc}")
            cell = outcome
            for c in contexts:
                cell = cell * ctx_card + bindings[c]
            group[1][cell] += 1
    if not groups:
        raise ValueError(f"{path}: no observation rows")
    return [
        TrainedAssignment(node_id, var, contexts, cells.reshape(pred_card, -1))
        for (node_id, var), (contexts, cells) in sorted(groups.items())
    ]


@dataclass
class CycleMetrics:
    cycle: int
    strategy: Strategy
    issued: int
    hits: int
    accuracy: float
    accuracy_std: float
    mean_regret: float
    adv_sets_sent: int
    oracle_violations: int


@dataclass
class TrialMetrics:
    config: SimConfig
    rows: list[CycleMetrics] = field(default_factory=list)

    CSV_COLUMNS = (
        "cycle,strategy,node_count,K,hops,accuracy,accuracy_std,"
        "mean_regret,adv_sets_sent"
    )

    @property
    def oracle_violations(self) -> int:
        return sum(r.oracle_violations for r in self.rows)

    def converged_accuracy(self, last: int = 5) -> float:
        if not self.rows:
            return 0.0
        tail = self.rows[-last:]
        return sum(r.accuracy for r in tail) / len(tail)

    def write_csv(self, path):
        with open(path, "w") as f:
            f.write(self.CSV_COLUMNS + "\n")
            for r in self.rows:
                f.write(
                    f"{r.cycle},{r.strategy.value},{self.config.node_count},"
                    f"{self.config.k_sets},{self.config.resolved_hops()},"
                    f"{r.accuracy:.6f},{r.accuracy_std:.6f},"
                    f"{r.mean_regret:.6f},{r.adv_sets_sent}\n"
                )


@dataclass
class TrialState:
    """What a trial carries from cycle to cycle. The neighbor lists are
    held once, as the overlay's padded matrix, which the routing model and
    the hop step of both strategies read; `query_rng` draws the queries and
    `walk_rng` the keys of `rw`'s hops."""

    config: SimConfig
    overlay: Overlay
    # what every node knows and has told its neighbors
    model: RoutingModel
    # per trained variable, the evidence set of each combination it was
    # trained on, by ascending tuple; one object per distinct set
    trained_combos: dict[int, list[frozenset[int]]]
    query_rng: np.random.Generator
    walk_rng: np.random.Generator


def accuracy(
    achieved: np.ndarray, optimal: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per query, hit or miss against the exhaustive oracle, within
    `HIT_TOLERANCE_BITS`, normalized regret, and whether it beat the oracle,
    a true lower bound, which means a bug: such a query is a miss with no
    regret."""
    violation = achieved < optimal - HIT_TOLERANCE_BITS
    hit = (achieved <= optimal + HIT_TOLERANCE_BITS) & ~violation
    regret = (achieved - optimal) / np.maximum(optimal, 1e-9)
    return hit, np.where(violation, 0.0, regret), violation


def oracle_best(
    model: RoutingModel, keys: list, index: np.ndarray, pred_card: int
) -> np.ndarray:
    """Per query, its key's (`keys[index[i]]`) minimum answering entropy
    over all nodes, at most the uniform prior log2(cardinality) that
    untrained nodes answer from."""
    best = [model.answers(target, bound).min() for target, bound in keys]
    return np.minimum(math.log2(pred_card), best)[index]


def take_over(
    model: RoutingModel, keys: list, index: np.ndarray, paths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per query, the step of its path (a row of `paths`) whose node's
    answer it takes, the first least of its key's (`keys[index[i]]`)
    answers along the path, and that answer, inf when no node on the path
    answered."""
    answers = np.stack([model.answers(target, bound) for target, bound in keys])
    along = answers.reshape(-1).take((index * answers.shape[1])[:, None] + paths)
    step = along.argmin(axis=1)
    return step, along[np.arange(len(index)), step]


def check_workload(config: SimConfig, workload: list[TrainedAssignment]):
    """Raise ValueError unless every entry of the workload trains one of the
    config's variables at one of its nodes against a strictly ascending
    tuple of the config's contexts, once per (node, variable), with
    non-negative counts in an integer array of the shape `cell_counts` gives
    for the config's cardinalities, and some entry holds an observation."""
    seen = set()
    for entry in workload:
        where = f"entry for node {entry.node_id}, variable {entry.var}"
        try:
            if not 0 <= entry.node_id < config.node_count:
                raise ValueError(f"node outside {config.node_count} nodes")
            if (entry.node_id, entry.var) in seen:
                raise ValueError("listed twice")
            seen.add((entry.node_id, entry.var))
            # set-up keys on the contexts, so they must be hashable
            if not isinstance(entry.contexts, tuple):
                raise ValueError(f"contexts {entry.contexts!r} not a tuple")
            if list(entry.contexts) != sorted(set(entry.contexts)):
                raise ValueError(f"contexts {entry.contexts} not strictly ascending")
            if not 0 <= entry.var < config.predicting_var_count:
                raise ValueError(f"unknown variable {entry.var}")
            for c in entry.contexts:
                if not 0 <= c < config.context_var_count:
                    raise ValueError(f"unknown variable {c}")
            counts = entry.counts
            if not isinstance(counts, np.ndarray):
                raise ValueError(f"counts a {type(counts).__name__}, not an array")
            # nan passes the sign check, and inf or a fraction is no tally
            if not np.issubdtype(counts.dtype, np.integer):
                raise ValueError(f"counts of dtype {counts.dtype}, not integers")
            shape = (
                config.predicting_cardinality,
                config.context_cardinality ** len(entry.contexts),
            )
            if counts.shape != shape:
                raise ValueError(f"counts shaped {counts.shape}, not {shape}")
            if counts.min() < 0:
                raise ValueError("negative counts")
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    # queries target trained variables, so some entry must hold an observation
    if not any(entry.counts.any() for entry in workload):
        raise ValueError("workload holds no observation")


def setup_trial(
    config: SimConfig, workload: Optional[list[TrainedAssignment]] = None
) -> TrialState:
    """The trial of `config` on `workload`'s entries, or on the synthetic
    workload drawn from the trial's stream when none is given: the local
    sets of the entries with observations, the overlay grown from each
    node's trained variables and the routing model over both."""
    workload_seed, overlay_seed, s_query, s_walk = trial_streams(config.seed)
    if workload is None:
        batches = generate_workload(config, workload_seed)
    else:
        check_workload(config, workload)
        batches = [workload]
    sets = train_pgms(batches, config)
    trained: list[list[int]] = [[] for _ in range(config.node_count)]
    for node, var in zip(sets.nodes.tolist(), sets.variables.tolist()):
        trained[node].append(var)
    overlay = generate(config.attachment, trained, config.edge_limit, overlay_seed)
    model = RoutingModel(sets, overlay, config.predicting_var_count, config.k_sets)
    # per trained variable, ascending, the evidence set of each combination it
    # was trained on, by ascending tuple; one object per distinct set
    evidence = {c: frozenset(c) for c in sets.combinations}
    pairs = zip(sets.variables.tolist(), sets.combos.tolist())
    trained_combos: dict[int, list[frozenset[int]]] = {}
    for var, contexts in sorted({(v, sets.combinations[c]) for v, c in pairs}):
        trained_combos.setdefault(var, []).append(evidence[contexts])
    return TrialState(
        config=config,
        overlay=overlay,
        model=model,
        trained_combos=trained_combos,
        query_rng=np.random.default_rng(s_query),
        walk_rng=np.random.default_rng(s_walk),
    )


def draw_queries(trial: TrialState) -> tuple[list, np.ndarray]:
    """A cycle's queries, query i node i's: for each issuer in turn, a
    target drawn from the trained variables, then one of its trained
    combinations, the only draws from the query stream. Returns the
    distinct (target, evidence) keys, first drawn first, and each query's
    index among them."""
    rng, targets = trial.query_rng, list(trial.trained_combos)
    keys: dict[tuple[int, frozenset[int]], int] = {}
    index = np.empty(trial.config.node_count, dtype=np.intp)
    for issuer in range(len(index)):
        target = targets[rng.integers(len(targets))]
        combos = trial.trained_combos[target]
        index[issuer] = keys.setdefault(
            (target, combos[rng.integers(len(combos))]), len(keys)
        )
    return list(keys), index


def route_query(
    trial: TrialState, keys: list, index: np.ndarray, strategy: Strategy
) -> np.ndarray:
    """The paths of the queries whose keys are `keys[index[i]]`, one row
    each: the issuer, node i, then the node each hop reached, padded with
    the pad node n after a node without neighbors. Each block of
    `ISSUER_BLOCK` queries moves in lockstep, one `process_query` step per
    hop, which keys every slot of a query's row of the neighbor matrix:
    `abs` with the slot node's forwarding rank for the query's key (the pad
    node ranks 2n), `rw` with a uniform draw in [0, 1) from the walk
    stream, one (block x max degree) array per hop, and 2n at the pad
    node."""
    model, n = trial.model, trial.config.node_count
    hops = trial.config.resolved_hops()
    paths = np.full((len(index), hops + 1), n, dtype=np.int32)
    paths[:, 0] = np.arange(len(index))
    for start in range(0, len(index), ISSUER_BLOCK):
        block = paths[start : start + ISSUER_BLOCK]
        queries = np.arange(len(block))
        if strategy is Strategy.ABS:
            used, rows = np.unique(
                index[start : start + ISSUER_BLOCK], return_inverse=True
            )
            ranks = np.stack([model.ranks(*keys[key]) for key in used]).reshape(-1)
            # where each query's key's ranks start in the flat stack
            first = (rows * (n + 1))[:, None]
        visited = np.zeros((len(block), n + 1), dtype=bool)
        for hop in range(1, hops + 1):
            nodes = block[:, hop - 1]
            visited[queries, nodes] = True
            step = trial.overlay.rows[nodes]
            if strategy is Strategy.ABS:
                # a flat take, as in `process_query`
                slot_keys = ranks.take(first + step)
            else:
                slot_keys = trial.walk_rng.random(step.shape)
                slot_keys[step == n] = 2 * n
            block[:, hop] = process_query(step, visited, slot_keys)
    return paths


def variable_blocks(
    mask: np.ndarray, offers: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The (variable, column) pairs of the (variables x columns) `mask`, in
    row-major order, in blocks of whole variables that offer at most
    `OFFER_BLOCK` sets together, `offers[j]` for a pair in column j, or of
    one variable that offers more alone. No (variables x columns) array is
    made: `einsum` sums each variable's offers in buffered chunks."""
    bounds, spent = [0], 0
    for var, cost in enumerate(np.einsum("vn,n->v", mask, offers).tolist()):
        if spent and spent + cost > OFFER_BLOCK:
            bounds.append(var)
            spent = 0
        spent += cost
    bounds.append(len(mask))
    for start, stop in zip(bounds, bounds[1:]):
        var, columns = np.nonzero(mask[start:stop])
        if len(var):
            yield var + start, columns


def propagate(model: RoutingModel, policy: AdvertisementPolicy) -> int:
    """Phase 1 of a cycle, knowledge propagation, over the (variable, node)
    pairs that must rebuild: at set-up each variable's trainers, then the
    neighbors of its senders. Returns the sets delivered.

    Every build reads the lists as the cycle found them, as sends are
    integrated after the last build, so builds are independent across
    variables, and the pairs go in blocks of whole variables
    (`variable_blocks`), each built, staged and gated in one call, a pair
    offering its local set and K sets per neighbor. Every rebuilt list is
    staged, unsent; those that differ from the published ones wait until
    `should_advertise` finds a rebuilt list of their node worth sending. A
    send is integrated once, into the shared model, in blocks by the same
    rule, and carries only the node's pending lists: all its neighbors lack
    while the overlay is static and each of them received every earlier
    send."""
    offers = 1 + model.overlay.degree * model.joints.shape[2]
    senders = np.zeros(len(offers), dtype=bool)
    for var, nodes in variable_blocks(model.changed, offers):
        joints, origins = build_advertisement(model, var, nodes, policy)
        model.unsent_joints[var, nodes] = joints
        model.unsent_origins[var, nodes] = origins
        senders[should_advertise(model, var, nodes, policy)] = True
    model.changed[:] = False
    senders = np.flatnonzero(senders)
    sent = 0
    for var, nodes in variable_blocks(model.pending(senders), offers[senders]):
        sent += integrate_advertisement(model, var, senders[nodes])
    return sent


def run_cycle(trial: TrialState, cycle: int) -> CycleMetrics:
    config = trial.config
    strategy = config.strategy
    policy = config.resolved_policy()
    model = trial.model
    # phase 1: knowledge propagation
    adv_sets_sent = propagate(model, policy)

    # phase 2: one query per node, drawn in issuer order, routed together
    keys, index = draw_queries(trial)
    paths = route_query(trial, keys, index, strategy)
    achieved = take_over(model, keys, index, paths)[1]
    achieved[np.isinf(achieved)] = math.log2(config.predicting_cardinality)
    optimal = oracle_best(model, keys, index, config.predicting_cardinality)
    hit, regret, violation = accuracy(achieved, optimal)
    issued = config.node_count
    hits = int(hit.sum())
    return CycleMetrics(
        cycle=cycle,
        strategy=strategy,
        issued=issued,
        hits=hits,
        accuracy=hits / issued,
        accuracy_std=float(hit.astype(float).std()),
        # summed in issuer order: np.sum adds pairwise, which changes the bits
        mean_regret=float(np.add.accumulate(regret)[-1]) / issued,
        adv_sets_sent=adv_sets_sent,
        oracle_violations=int(violation.sum()),
    )


def run_trial(
    config: SimConfig, workload: Optional[list[TrainedAssignment]] = None
) -> TrialMetrics:
    trial = setup_trial(config, workload)
    metrics = TrialMetrics(config=config)
    for cycle in range(1, config.cycles + 1):
        metrics.rows.append(run_cycle(trial, cycle))
    return metrics
