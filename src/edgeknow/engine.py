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

from .pgm import DiscretePgm, Schema, UnknownVariable
from .routing import (
    Advertisement,
    AdvertisementPolicy,
    Forward,
    NodeState,
    Query,
    Return,
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
        if self.contexts_per_table > self.context_var_count:
            raise ValueError("contexts_per_table exceeds context_var_count")
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
                raise ValueError(f"{name} must be >= 1")

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
    """One node's observation stream for one (variable, context combination):
    context assignments as flattened indices plus the drawn outcomes."""

    node_id: int
    var: int
    contexts: tuple[int, ...]
    ctx_flat_idx: np.ndarray
    outcomes: np.ndarray


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
            raw = rng.normal(means[flat_idx], 1.0)
            outcomes = np.clip(np.rint(raw), 0, pred_card - 1).astype(np.int64)
            workload.entries.append(
                TrainedAssignment(
                    node_id=node_id,
                    var=int(var_idx),
                    contexts=contexts,
                    ctx_flat_idx=flat_idx.astype(np.int64),
                    outcomes=outcomes,
                )
            )
    return workload


def train_pgms(workload: Workload, pseudocount: float = 1.0) -> list[DiscretePgm]:
    pgms = [
        DiscretePgm(schema=workload.schema, pseudocount=pseudocount)
        for _ in range(workload.node_count)
    ]
    for entry in workload.entries:
        pgms[entry.node_id].observe_block(
            entry.var, entry.contexts, entry.ctx_flat_idx, entry.outcomes
        )
    return pgms


def export_workload_csv(workload: Workload, path):
    """Rows: node_id, predicting var index, outcome, then one c<j>=<state>
    field per bound context variable j."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["node_id", "predicting_var", "outcome"])
        for entry in workload.entries:
            cards = [workload.schema.context_cardinality(c) for c in entry.contexts]
            states = np.unravel_index(entry.ctx_flat_idx, cards)
            for i in range(len(entry.outcomes)):
                row = [entry.node_id, entry.var, int(entry.outcomes[i])]
                row += [
                    f"c{entry.contexts[j]}={int(states[j][i])}"
                    for j in range(len(entry.contexts))
                ]
                writer.writerow(row)


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
    """Parse an observation CSV back into per-(node, var, combination)
    streams. Malformed rows, and rows that do not fit the schema or
    `node_count`, raise ValueError with the line number."""
    groups: dict[tuple, list[tuple[int, tuple[int, ...]]]] = {}
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
                    bindings[c] = int(state)
                    _check_field(schema.context_cardinality, c, bindings[c], name)
            except (ValueError, IndexError) as exc:
                raise ValueError(f"{path}: malformed row at line {lineno}: {exc}")
            contexts = tuple(sorted(bindings))
            states = tuple(bindings[c] for c in contexts)
            groups.setdefault((node_id, var, contexts), []).append((outcome, states))
            max_node = max(max_node, node_id)
    workload = Workload(
        schema=schema,
        node_count=node_count if node_count is not None else max_node + 1,
    )
    for (node_id, var, contexts), rows in sorted(groups.items()):
        cards = [schema.context_cardinality(c) for c in contexts]
        outcomes = np.array([r[0] for r in rows], dtype=np.int64)
        if contexts:
            state_cols = np.array([r[1] for r in rows], dtype=np.int64).T
            flat_idx = np.ravel_multi_index(tuple(state_cols), cards)
        else:
            flat_idx = np.zeros(len(rows), dtype=np.int64)
        workload.entries.append(
            TrainedAssignment(node_id, var, contexts, flat_idx, outcomes)
        )
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
    """Minimum answering entropy over every node; untrained nodes answer
    from the uniform prior at log2(cardinality)."""
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
    # concrete states, so the cache keys on the evidence variable set
    key = (query.target, frozenset(query.ctx))
    if key not in trial.oracle_cache:
        trial.oracle_cache[key] = oracle_best(
            query, trial.nodes, trial.config.predicting_cardinality
        )
    return trial.oracle_cache[key]


def check_workload(config: SimConfig, workload: Workload):
    """Raise ValueError unless the workload has the config's node count and
    schema."""
    if workload.node_count != config.node_count:
        raise ValueError(
            f"workload has {workload.node_count} nodes, config {config.node_count}"
        )
    if workload.schema != config.schema():
        have, want = workload.schema, config.schema()
        raise ValueError(
            "workload schema differs from the config's (predicting/context "
            f"variables {len(have.predicting_cardinalities)}/"
            f"{len(have.context_cardinalities)} vs "
            f"{len(want.predicting_cardinalities)}/{len(want.context_cardinalities)})"
        )


def setup_trial(config: SimConfig, workload: Optional[Workload] = None) -> TrialState:
    ss = np.random.SeedSequence(config.seed)
    s_workload, s_topology, s_query, s_walk = ss.spawn(4)
    if workload is None:
        workload = generate_workload(
            config, seed=int(s_workload.generate_state(1)[0])
        )
    else:
        check_workload(config, workload)
    pgms = train_pgms(workload, config.pseudocount)
    if config.node_count == 1:
        overlay = Overlay(adjacency={0: set()}, edge_limit=config.edge_limit)
    else:
        overlay = generate(
            config.attachment,
            pgms,
            config.edge_limit,
            seed=int(s_topology.generate_state(1)[0]),
        )
    nodes = []
    for node_id in range(config.node_count):
        neighbors = sorted(overlay.neighbors(node_id))
        nodes.append(
            NodeState(
                node_id=node_id,
                pgm=pgms[node_id],
                neighbors=neighbors,
                routing_models={
                    nb: RoutingModel(neighbor=nb, k=config.k_sets)
                    for nb in neighbors
                },
            )
        )
    trained_combos: dict[int, set] = {}
    for entry in workload.entries:
        trained_combos.setdefault(entry.var, set()).add(entry.contexts)
    return TrialState(
        config=config,
        nodes=nodes,
        overlay=overlay,
        trained_combos={v: sorted(c) for v, c in sorted(trained_combos.items())},
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
    current = query.issuer
    first = True
    while True:
        state = trial.nodes[current]
        if strategy is Strategy.RANDOM_WALK:
            decision = random_walk_step(state, query, trial.walk_rng, first_hop=first)
        else:
            decision = process_query(state, query, first_hop=first)
        first = False
        if isinstance(decision, Return):
            return decision.query
        current = decision.to


def run_cycle(trial: TrialState, cycle: int, strategy: Optional[Strategy] = None) -> CycleMetrics:
    config = trial.config
    strategy = strategy or config.strategy
    policy = config.resolved_policy()
    adv_sets_sent = 0

    # phase 1: knowledge propagation
    outgoing: list[tuple[NodeState, Advertisement]] = []
    for state in trial.nodes:
        if not state.models_dirty and state.last_advertisement is not None:
            continue
        current = build_advertisement(
            state.pgm,
            state.routing_models.values(),
            policy,
            config.k_sets,
            local_sets=state.local_sets(),
        )
        current.origin = state.node_id
        if should_advertise(state.last_advertisement, current, policy):
            outgoing.append((state, current))
        state.models_dirty = False
    for state, adv in outgoing:
        state.last_advertisement = adv
        for nb in state.neighbors:
            receiver = trial.nodes[nb]
            integrate_advertisement(receiver.routing_models[state.node_id], adv)
            receiver.models_dirty = True
            adv_sets_sent += adv.total_sets()

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
