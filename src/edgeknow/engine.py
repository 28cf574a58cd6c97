"""Cycle-based simulation harness.

A trial: generate a synthetic Gaussian workload (or ingest one from CSV),
train one model per node, grow the similarity-clustered overlay, then run
cycles in which every node first propagates its knowledge and then issues one
query. Each query's achieved quality is compared against an exhaustive-search
oracle (the minimum answering entropy over all nodes); accuracy is the hit
rate within a small tolerance.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .pgm import JointTable, Schema, UnknownVariable, cell_counts
from .routing import (
    AdvertisementPolicy,
    NodeState,
    Query,
    RoutingModel,
    build_advertisement,
    integrate_advertisement,
    process_query,
    random_walk_step,
    should_advertise,
)
from .topology import AttachmentParams, Overlay, generate

HIT_TOLERANCE_BITS = 1e-6


class OracleViolation(RuntimeError):
    pass


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
        if self.contexts_per_table > self.context_var_count:
            raise InvalidField("contexts_per_table", "exceeds context_var_count")
        # a zero budget means the issuer answers alone; zero cycles, no rows
        for name in ("hop_budget", "cycles"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise InvalidField(name, "must be >= 0")
        m0 = self.attachment.m0
        if 2 <= self.node_count < m0:
            raise InvalidField("node_count", f"must be 1 or >= m0={m0}")
        if self.edge_limit < m0 - 1:
            raise InvalidField("edge_limit", f"must be >= m0-1={m0 - 1}")

    def resolved_hops(self) -> int:
        if self.hop_budget is not None:
            return self.hop_budget
        return max(1, round(2 * math.log2(self.node_count)))

    def resolved_policy(self) -> AdvertisementPolicy:
        return AdvertisementPolicy(
            change_threshold=0.005,
            quality_threshold=0.8 * math.log2(self.predicting_cardinality),
            hop_inflation=0.001,
        )

    def schema(self) -> Schema:
        return Schema(
            predicting_cardinalities=(self.predicting_cardinality,)
            * self.predicting_var_count,
            context_cardinalities=(self.context_cardinality,)
            * self.context_var_count,
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


@dataclass
class Workload:
    schema: Schema
    node_count: int
    entries: list[TrainedAssignment] = field(default_factory=list)


def _combination_pool(config: SimConfig, rng: np.random.Generator):
    all_combos = list(
        itertools.combinations(range(config.context_var_count), config.contexts_per_table)
    )
    pool_size = min(config.combinations_pool, len(all_combos))
    idx = rng.choice(len(all_combos), size=pool_size, replace=False)
    return [all_combos[j] for j in sorted(idx)]


def generate_workload(config: SimConfig, seed: int) -> Workload:
    """Synthetic Gaussian workload: every node trains a random subset of
    predicting variables, each against one context combination from the pool.
    Per concrete context assignment the outcome is a discretized Gaussian with
    a uniformly placed mean and a stddev of one state width."""
    rng = np.random.default_rng(seed)
    schema = config.schema()
    pool = _combination_pool(config, rng)
    pred_card = config.predicting_cardinality
    ctx_card = config.context_cardinality
    n_assign = ctx_card**config.contexts_per_table
    workload = Workload(schema=schema, node_count=config.node_count)
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
            workload.entries.append(
                TrainedAssignment(
                    node_id=node_id,
                    var=int(var_idx),
                    contexts=contexts,
                    counts=cell_counts(pred_card, n_assign, flat_idx, outcomes),
                )
            )
    return workload


def train_pgms(
    workload: Workload, pseudocount: float = 1.0
) -> list[dict[int, JointTable]]:
    """Per node, the Laplace-smoothed count table of each variable it
    observed: pseudocount plus the entry's counts, with one axis per
    context. An entry without observations trains nothing."""
    tables: list[dict[int, JointTable]] = [{} for _ in range(workload.node_count)]
    cards = workload.schema.context_cardinalities
    for entry in workload.entries:
        if entry.counts.any():
            shape = entry.counts.shape[:1] + tuple(cards[c] for c in entry.contexts)
            tables[entry.node_id][entry.var] = JointTable(
                entry.var, entry.contexts, (pseudocount + entry.counts).reshape(shape)
            )
    return tables


def _check_field(cardinality, var: int, state: int, name: str):
    """Reject a CSV value whose variable or state does not fit the schema,
    naming the CSV field."""
    try:
        card = cardinality(var)
    except UnknownVariable:
        raise ValueError(f"unknown variable {name}") from None
    if not 0 <= state < card:
        raise ValueError(f"state {state} out of range for {name}")


def ingest_csv(path, schema: Schema, node_count: Optional[int] = None) -> Workload:
    """Parse an observation CSV into the cell counts of each (node, var), all
    of whose rows bind the same context variables; row order does not matter.
    Malformed rows, rows that bind a context twice, do not fit the schema or
    `node_count` or bind other context variables than earlier rows of their
    (node, var), raise ValueError with the line number; so does a file
    without observation rows."""
    # per (node, var): the bound context variables, their cardinalities and
    # the flat cell counts, one cell per (outcome, context states) row-major
    groups: dict[tuple[int, int], tuple[tuple[int, ...], list, np.ndarray]] = {}
    max_node = -1
    with open(path, newline="") as f:
        for lineno, row in enumerate(csv.reader(f), start=1):
            if not row:
                continue
            if lineno == 1 and row[0] == "node_id":
                continue
            try:
                node_id = int(row[0])
                var = int(row[1])
                outcome = int(row[2])
                if node_id < 0 or (node_count is not None and node_id >= node_count):
                    raise ValueError(f"node_id {node_id} outside {node_count} nodes")
                _check_field(
                    schema.predicting_cardinality, var, outcome, f"predicting_var {var}"
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
                    _check_field(schema.context_cardinality, c, bindings[c], name)
                contexts = tuple(sorted(bindings))
                group = groups.get((node_id, var))
                if group is None:
                    cards = [schema.context_cardinality(c) for c in contexts]
                    cells = schema.predicting_cardinality(var) * math.prod(cards)
                    group = groups[node_id, var] = (
                        contexts, cards, np.zeros(cells, dtype=np.int64)
                    )
                elif contexts != group[0]:
                    raise ValueError(
                        f"contexts {contexts} differ from {group[0]} in earlier "
                        f"rows of node {node_id}, predicting_var {var}"
                    )
            except (ValueError, IndexError) as exc:
                raise ValueError(f"{path}: malformed row at line {lineno}: {exc}")
            cell = outcome
            for c, card in zip(contexts, group[1]):
                cell = cell * card + bindings[c]
            group[2][cell] += 1
            max_node = max(max_node, node_id)
    if not groups:
        raise ValueError(f"{path}: no observation rows")
    workload = Workload(
        schema=schema,
        node_count=node_count if node_count is not None else max_node + 1,
    )
    for (node_id, var), (contexts, _, cells) in sorted(groups.items()):
        counts = cells.reshape(schema.predicting_cardinality(var), -1)
        workload.entries.append(TrainedAssignment(node_id, var, contexts, counts))
    return workload


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
    config: SimConfig
    nodes: list[NodeState]
    overlay: Overlay
    trained_combos: dict[int, list[tuple[int, ...]]]
    # per predicting variable, the ids of the nodes that trained it, ascending
    trainers: dict[int, list[int]]
    query_rng: np.random.Generator
    walk_rng: np.random.Generator
    oracle_cache: dict = field(default_factory=dict)


def accuracy(
    achieved: float, optimal: float, tolerance: float = HIT_TOLERANCE_BITS
) -> tuple[bool, float]:
    """Hit/miss against the exhaustive oracle plus normalized regret. The
    oracle is a true lower bound; beating it means a bug."""
    if achieved < optimal - tolerance:
        raise OracleViolation(
            f"achieved {achieved} beats exhaustive optimum {optimal}"
        )
    hit = achieved <= optimal + tolerance
    regret = (achieved - optimal) / max(optimal, 1e-9)
    return hit, regret


def oracle_best(query: Query, nodes: Sequence[NodeState], pred_card: int) -> float:
    """Minimum answering entropy over the given nodes; untrained nodes
    answer from the uniform prior at log2(cardinality)."""
    bound = frozenset(query.ctx)
    uniform = math.log2(pred_card)
    best = uniform
    for state in nodes:
        local = state.local_answer(query.target, bound)
        if local is not None and local < best:
            best = local
    return best


def _cached_oracle(trial: TrialState, query: Query) -> float:
    # answering entropies depend on which variables are bound, not on the
    # concrete states, so the cache keys on the evidence variable set; every
    # node that did not train the target answers None, so only trainers count
    key = (query.target, frozenset(query.ctx))
    if key not in trial.oracle_cache:
        trainers = [trial.nodes[n] for n in trial.trainers.get(query.target, ())]
        trial.oracle_cache[key] = oracle_best(
            query, trainers, trial.config.predicting_cardinality
        )
    return trial.oracle_cache[key]


def check_workload(config: SimConfig, workload: Workload):
    """Raise ValueError unless the workload has the config's node count and
    schema, every entry trains a known variable of one of its nodes against
    a strictly ascending tuple of known contexts, once per (node, variable),
    with non-negative counts in an integer array of the shape `cell_counts`
    gives, and some entry holds an observation."""
    if workload.node_count != config.node_count:
        raise ValueError(
            f"workload has {workload.node_count} nodes, config {config.node_count}"
        )
    schema = config.schema()
    if workload.schema != schema:
        have, want = (
            f"{len(s.predicting_cardinalities)}/{len(s.context_cardinalities)}"
            for s in (workload.schema, schema)
        )
        raise ValueError(
            "workload schema differs from the config's (predicting/context "
            f"variables {have} vs {want})"
        )
    seen = set()
    for entry in workload.entries:
        where = f"entry for node {entry.node_id}, variable {entry.var}"
        try:
            if not 0 <= entry.node_id < workload.node_count:
                raise ValueError(f"node outside {workload.node_count} nodes")
            if (entry.node_id, entry.var) in seen:
                raise ValueError("listed twice")
            seen.add((entry.node_id, entry.var))
            # set-up keys on the contexts, so they must be hashable
            if not isinstance(entry.contexts, tuple):
                raise ValueError(f"contexts {entry.contexts!r} not a tuple")
            if list(entry.contexts) != sorted(set(entry.contexts)):
                raise ValueError(f"contexts {entry.contexts} not strictly ascending")
            counts = entry.counts
            if not isinstance(counts, np.ndarray):
                raise ValueError(f"counts a {type(counts).__name__}, not an array")
            # nan passes the sign check, and inf or a fraction is no tally
            if not np.issubdtype(counts.dtype, np.integer):
                raise ValueError(f"counts of dtype {counts.dtype}, not integers")
            cards = map(schema.context_cardinality, entry.contexts)
            shape = (schema.predicting_cardinality(entry.var), math.prod(cards))
            if counts.shape != shape:
                raise ValueError(f"counts shaped {counts.shape}, not {shape}")
            if counts.min() < 0:
                raise ValueError("negative counts")
        except UnknownVariable as exc:
            raise ValueError(f"{where}: unknown variable {exc}") from None
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    # queries target trained variables, so some entry must hold an observation
    if not any(entry.counts.any() for entry in workload.entries):
        raise ValueError("workload holds no observation")


def setup_trial(config: SimConfig, workload: Optional[Workload] = None) -> TrialState:
    ss = np.random.SeedSequence(config.seed)
    s_workload, s_topology, s_query, s_walk = ss.spawn(4)
    if workload is None:
        workload = generate_workload(
            config, seed=int(s_workload.generate_state(1)[0])
        )
    else:
        check_workload(config, workload)
    tables = train_pgms(workload, config.pseudocount)
    if config.node_count == 1:
        overlay = Overlay(adjacency={0: set()}, edge_limit=config.edge_limit)
    else:
        overlay = generate(
            config.attachment,
            [node_tables.keys() for node_tables in tables],
            config.edge_limit,
            seed=int(s_topology.generate_state(1)[0]),
        )
    # every neighbor of a node holds that node's one published model
    models = [RoutingModel() for _ in range(config.node_count)]
    nodes = []
    for node_id in range(config.node_count):
        neighbors = sorted(overlay.neighbors(node_id))
        nodes.append(
            NodeState(
                node_id=node_id,
                tables=tables[node_id],
                neighbors=neighbors,
                routing_models={nb: models[nb] for nb in neighbors},
                published=models[node_id],
                changed_vars=set(tables[node_id]),
            )
        )
    trained_combos: dict[int, set] = {}
    trainers: dict[int, list[int]] = {}
    for node_id, node_tables in enumerate(tables):
        for var, table in node_tables.items():
            trained_combos.setdefault(var, set()).add(table.contexts)
            trainers.setdefault(var, []).append(node_id)
    return TrialState(
        config=config,
        nodes=nodes,
        overlay=overlay,
        trained_combos={v: sorted(c) for v, c in sorted(trained_combos.items())},
        trainers=trainers,
        query_rng=np.random.default_rng(s_query),
        walk_rng=np.random.default_rng(s_walk),
    )


def _make_query(trial: TrialState, issuer: int) -> Query:
    rng = trial.query_rng
    targets = list(trial.trained_combos)
    target = targets[rng.integers(len(targets))]
    combos = trial.trained_combos[target]
    combo = combos[rng.integers(len(combos))]
    ctx = {
        c: int(rng.integers(trial.config.context_cardinality)) for c in combo
    }
    return Query(
        target=target,
        ctx=ctx,
        hops_remaining=trial.config.resolved_hops(),
        issuer=issuer,
    )


def route_query(trial: TrialState, query: Query, strategy: Strategy) -> Query:
    node = query.issuer
    while node is not None:
        state = trial.nodes[node]
        if strategy is Strategy.RANDOM_WALK:
            node = random_walk_step(state, query, trial.walk_rng)
        else:
            node = process_query(state, query)
    return query


def run_cycle(trial: TrialState, cycle: int) -> CycleMetrics:
    config = trial.config
    strategy = config.strategy
    policy = config.resolved_policy()
    adv_sets_sent = 0

    # phase 1: knowledge propagation; a node rebuilds and compares only the
    # variables it trained, in its first build, or that its routing models
    # changed since its last build. A rebuilt list equal to the published
    # one is dropped, with any unsent list of its variable; the others wait
    # in `unsent` until `should_advertise` finds a rebuilt list worth
    # sending. Every neighbor of a sender integrates the same sends in the
    # same order, so the sender's published model is integrated once and
    # shared by all, and a send carries only the unsent lists: all a
    # receiver lacks while the overlay is static and every neighbor
    # received every earlier send.
    outgoing: list[NodeState] = []
    for state in trial.nodes:
        if not state.changed_vars:
            continue
        published = state.published.entries
        rebuilt = build_advertisement(
            state.local_sets(), state.routing_models.values(), policy,
            config.k_sets, state.changed_vars,
        )
        for var, sets in list(rebuilt.items()):
            if sets == published.get(var):
                del rebuilt[var]
                state.unsent.pop(var, None)
        state.unsent.update(rebuilt)
        if should_advertise(published, rebuilt, policy):
            outgoing.append(state)
        state.changed_vars = set()
    for state in outgoing:
        adv, state.unsent = state.unsent, {}
        delta = integrate_advertisement(state.published, adv)
        for nb in state.neighbors:
            trial.nodes[nb].models_changed(delta)
        adv_sets_sent += len(state.neighbors) * sum(map(len, adv.values()))

    # phase 2: one query per node
    hits = 0
    violations = 0
    regret_sum = 0.0
    hit_flags = []
    uniform = math.log2(config.predicting_cardinality)
    for state in trial.nodes:
        query = _make_query(trial, issuer=state.node_id)
        done = route_query(trial, query, strategy)
        achieved = done.quality if math.isfinite(done.quality) else uniform
        optimal = _cached_oracle(trial, done)
        try:
            hit, regret = accuracy(achieved, optimal)
        except OracleViolation:
            violations += 1
            hit, regret = False, 0.0
        hits += hit
        hit_flags.append(1.0 if hit else 0.0)
        regret_sum += regret
    issued = len(trial.nodes)
    flags = np.asarray(hit_flags)
    return CycleMetrics(
        cycle=cycle,
        strategy=strategy,
        issued=issued,
        hits=hits,
        accuracy=hits / issued,
        accuracy_std=float(flags.std()),
        mean_regret=regret_sum / issued,
        adv_sets_sent=adv_sets_sent,
        oracle_violations=violations,
    )


def run_trial(config: SimConfig, workload: Optional[Workload] = None) -> TrialMetrics:
    trial = setup_trial(config, workload)
    metrics = TrialMetrics(config=config)
    for cycle in range(1, config.cycles + 1):
        metrics.rows.append(run_cycle(trial, cycle))
    return metrics
