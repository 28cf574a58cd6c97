"""Cycle-based simulation harness.

A trial: generate a synthetic Gaussian workload (or ingest one from CSV),
train one model per node, grow the similarity-clustered overlay, then run
cycles in which every node first propagates its knowledge and then issues one
query. Propagation works on the shared routing model's per-variable arrays:
one pass per variable that some node must rebuild builds, compares and
stages that variable's lists for all those nodes at once, and the sends are
integrated per variable after the last pass. A query reads its key's answer
vector, every node's local answer, from the model: a node on its path takes
the answer over when its own is strictly better. Each query's achieved
quality is compared against an exhaustive-search oracle (the minimum of that
vector, at most the uniform prior); accuracy is the hit rate within a small
tolerance.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from . import routing
from .pgm import cell_counts
from .routing import (
    AdvertisementPolicy,
    EntropySet,
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


@dataclass
class Workload:
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
    pool = _combination_pool(config, rng)
    pred_card = config.predicting_cardinality
    ctx_card = config.context_cardinality
    n_assign = ctx_card**config.contexts_per_table
    workload = Workload(node_count=config.node_count)
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


def train_pgms(workload: Workload, config: SimConfig) -> list[dict[int, EntropySet]]:
    """Per node, keyed by variable in entry order, the full entropy set of
    each variable it observed: one `routing.local_entropy_sets` pass (looked
    up on the module, where perfbench wraps it) over the entries with
    observations, smoothed with the config's pseudocount."""
    trained = [entry for entry in workload.entries if entry.counts.any()]
    sets = routing.local_entropy_sets(
        trained, config.context_var_count, config.context_cardinality,
        config.pseudocount,
    )
    models: list[dict[int, EntropySet]] = [{} for _ in range(workload.node_count)]
    for entry, s in zip(trained, sets):
        models[entry.node_id][entry.var] = s
    return models


def _check_field(var: int, var_count: int, state: int, card: int, name: str):
    """Reject a CSV value whose variable or state is outside the config's
    ranges, naming the CSV field."""
    if not 0 <= var < var_count:
        raise ValueError(f"unknown variable {name}")
    if not 0 <= state < card:
        raise ValueError(f"state {state} out of range for {name}")


def ingest_csv(path, config: SimConfig) -> Workload:
    """Parse an observation CSV into the cell counts of each (node, var), all
    of whose rows bind the same context variables; row order does not matter.
    Malformed rows, rows that bind a context twice, fall outside the config's
    nodes, variables or states or bind other context variables than earlier
    rows of their (node, var), raise ValueError with the line number; so does
    a file without observation rows."""
    pred_card, ctx_card = config.predicting_cardinality, config.context_cardinality
    # per (node, var): the bound context variables and the flat cell counts,
    # one cell per (outcome, context states) row-major
    groups: dict[tuple[int, int], tuple[tuple[int, ...], np.ndarray]] = {}
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
    workload = Workload(node_count=config.node_count)
    for (node_id, var), (contexts, cells) in sorted(groups.items()):
        counts = cells.reshape(pred_card, -1)
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
    overlay: Overlay
    # per node, its neighbors, ascending
    neighbors: list[list[int]]
    # what every node knows and has told its neighbors
    model: RoutingModel
    trained_combos: dict[int, list[tuple[int, ...]]]
    query_rng: np.random.Generator
    walk_rng: np.random.Generator
    # the variables queries target: the keys of `trained_combos`
    targets: list[int] = field(init=False)

    def __post_init__(self):
        self.targets = list(self.trained_combos)


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


def oracle_best(model: RoutingModel, query: Query, pred_card: int) -> float:
    """Minimum answering entropy over all nodes for the query's key, at most
    the uniform prior log2(cardinality) that untrained nodes answer from.
    Answers depend on which variables are bound, not on their states."""
    return min(math.log2(pred_card), model.answers(query.target, query.bound)[1])


def check_workload(config: SimConfig, workload: Workload):
    """Raise ValueError unless the workload has the config's node count,
    every entry trains one of the config's variables at one of its nodes
    against a strictly ascending tuple of the config's contexts, once per
    (node, variable), with non-negative counts in an integer array of the
    shape `cell_counts` gives for the config's cardinalities, and some entry
    holds an observation."""
    if workload.node_count != config.node_count:
        raise ValueError(
            f"workload has {workload.node_count} nodes, config {config.node_count}"
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
    local_sets = train_pgms(workload, config)
    if config.node_count == 1:
        overlay = Overlay(adjacency={0: set()}, edge_limit=config.edge_limit)
    else:
        overlay = generate(
            config.attachment,
            [sets.keys() for sets in local_sets],
            config.edge_limit,
            seed=int(s_topology.generate_state(1)[0]),
        )
    neighbors = [sorted(overlay.neighbors(n)) for n in range(config.node_count)]
    model = RoutingModel(
        local_sets, neighbors, config.predicting_var_count, config.k_sets,
        config.context_var_count,
    )
    trained_combos: dict[int, set] = {}
    for sets in local_sets:
        for var, (_, contexts, _) in sets.items():
            trained_combos.setdefault(var, set()).add(contexts)
    return TrialState(
        config=config,
        overlay=overlay,
        neighbors=neighbors,
        model=model,
        trained_combos={v: sorted(c) for v, c in sorted(trained_combos.items())},
        query_rng=np.random.default_rng(s_query),
        walk_rng=np.random.default_rng(s_walk),
    )


def _make_query(trial: TrialState, issuer: int) -> Query:
    rng = trial.query_rng
    targets = trial.targets
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
    model, neighbors, rng = trial.model, trial.neighbors, trial.walk_rng
    answers = model.answers(query.target, query.bound)[0]
    node = query.issuer
    while node is not None:
        if strategy is Strategy.RANDOM_WALK:
            node = random_walk_step(node, neighbors[node], query, answers, rng)
        else:
            node = process_query(model, node, neighbors[node], query, answers)
    return query


def run_cycle(trial: TrialState, cycle: int) -> CycleMetrics:
    config = trial.config
    strategy = config.strategy
    policy = config.resolved_policy()
    adv_sets_sent = 0

    # phase 1: knowledge propagation, one pass per variable that some node
    # must rebuild: at set-up its trainers, then the neighbors of its
    # senders. Every build reads the lists as the cycle found them, as
    # sends are integrated after the last build. A rebuilt list equal to
    # the published one is dropped, with any unsent list of its variable;
    # the others wait, unsent, until `should_advertise` finds a rebuilt list
    # of their node worth sending. A send is integrated once, into the
    # shared model, and carries only the node's unsent lists: all its
    # neighbors lack while the overlay is static and each of them received
    # every earlier send.
    model = trial.model
    senders = np.zeros(config.node_count, dtype=bool)
    for var in np.flatnonzero(model.changed.any(axis=1)):
        nodes = np.flatnonzero(model.changed[var])
        model.changed[var] = False
        joints, origins = build_advertisement(model, var, nodes, policy)
        differs = (joints != model.joints[var, nodes]).any(axis=1)
        differs |= (origins != model.origins[var, nodes]).any(axis=1)
        model.pending[var, nodes] = differs
        nodes, joints, origins = nodes[differs], joints[differs], origins[differs]
        model.unsent_joints[var, nodes] = joints
        model.unsent_origins[var, nodes] = origins
        senders[should_advertise(model, var, nodes, joints, origins, policy)] = True
    for var in np.flatnonzero((model.pending & senders).any(axis=1)):
        nodes = np.flatnonzero(model.pending[var] & senders)
        adv_sets_sent += integrate_advertisement(model, var, nodes)

    # phase 2: one query per node
    hits = 0
    violations = 0
    regret_sum = 0.0
    hit_flags = []
    uniform = math.log2(config.predicting_cardinality)
    for issuer in range(config.node_count):
        done = route_query(trial, _make_query(trial, issuer), strategy)
        achieved = done.quality if math.isfinite(done.quality) else uniform
        optimal = oracle_best(model, done, config.predicting_cardinality)
        try:
            hit, regret = accuracy(achieved, optimal)
        except OracleViolation:
            violations += 1
            hit, regret = False, 0.0
        hits += hit
        hit_flags.append(1.0 if hit else 0.0)
        regret_sum += regret
    issued = config.node_count
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
