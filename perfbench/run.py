"""One measured run of one edgeknow benchmark workload.

    python3 perfbench/run.py --workload steady-256 --seed 0 --seconds 40 --trace 0

The run drives the public engine entry points `engine.setup_trial` and
`engine.run_cycle` the way `engine.run_trial` does, in this one process, with
no threads or worker processes. The seed reaches the program only as
`SimConfig.seed`.

`--trace 0` repeats whole trials (and then bare set-ups) while they fit in
`--seconds`, and reports the end-to-end metrics as medians over them, with
times scaled to a reference host speed (see `HostSpeed`).
`--trace 1` runs one untraced trial, then one trial with every layer's public
function wrapped in a span recorder, and reports per-layer counts and plain
wall times. Spans are written to `perfbench/out/trace-<workload>.npz` at the
end.

Every trial is checked: each cycle issues one query per node, no query may
beat the exhaustive oracle, and the simulated outputs (the per-cycle rows of
`TrialMetrics.write_csv` plus the overlay edge list) must hash the same in
every trial of the run, traced or not. The last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
SRC_DIR = BENCH_DIR.parent / "src"

# SimConfig overrides per workload; the seed is added per run.
WORKLOADS = {
    # the paper's headline operating point: advertising stops early, so most
    # cycles only route queries over warm caches (the routing read path)
    "steady-256": {},
    # the acceptance pool-stress config at 256 nodes: K=10 lists over 252
    # context combinations, heavy advertisement writes, caches rarely hit
    "pool-256": dict(
        node_count=256,
        predicting_var_count=32,
        vars_trained_per_node=1,
        context_var_count=10,
        contexts_per_table=5,
        combinations_pool=252,
        observations_per_var=20000,
        pseudocount=0.25,
        k_sets=10,
        cycles=10,
    ),
    # set-up dominated: quadratic overlay growth, one cycle on cold caches
    "grow-1024": dict(node_count=1024, cycles=3),
}

# Wrapped in traced runs: (span name, owner, attribute). The owner is the
# module or class through which the program looks the attribute up at its
# call site, so the wrapper is what the program calls.
TRACED = (
    ("engine.setup_trial", "engine", "setup_trial"),
    ("engine.run_cycle", "engine", "run_cycle"),
    ("engine.generate_workload", "engine", "generate_workload"),
    ("pgm.train_pgms", "engine", "train_pgms"),
    ("topology.generate", "engine", "generate"),
    ("topology.attachment_probabilities", "topology", "attachment_probabilities"),
    ("routing.build_advertisement", "engine", "build_advertisement"),
    ("routing.should_advertise", "engine", "should_advertise"),
    ("routing.integrate_advertisement", "engine", "integrate_advertisement"),
    ("engine.route_query", "engine", "route_query"),
    ("routing.process_query", "engine", "process_query"),
    ("engine.oracle_best", "engine", "oracle_best"),
    ("pgm.answer_entropy", "routing", "answer_entropy"),
    ("pgm.local_entropy_sets", "routing", "local_entropy_sets"),
    ("routing.best_score", "RoutingModel", "best_score"),
)


class ProgramMissing(RuntimeError):
    pass


def load_program():
    """Import the simulator from the checkout's `src/` tree."""
    if not (SRC_DIR / "edgeknow" / "engine.py").is_file():
        raise ProgramMissing(f"edgeknow sources not found under {SRC_DIR}")
    sys.path.insert(0, str(SRC_DIR))
    from edgeknow import engine, routing, topology

    return engine, routing, topology


@dataclass
class Trial:
    setup_s: float
    setup_wall: float
    trial_wall: float
    trial_s: float
    cycle_s: float
    queries: int
    violations: int
    accuracy: float
    adv_sets_total: int
    quiescence_cycle: int
    overlay: object
    digest: str


def run_trial(engine, config, tag: str, speed: "HostSpeed | None") -> Trial:
    """setup_trial plus every cycle, timed; then the correctness checks.
    With `speed`, times are scaled to the reference host speed."""
    clock = speed.clock if speed else time.perf_counter
    first = speed.mark() if speed else 0
    t0 = clock()
    trial = engine.setup_trial(config)
    setup_wall = clock() - t0
    metrics = engine.TrialMetrics(config=config)
    cycle_wall = 0.0
    for cycle in range(1, config.cycles + 1):
        c0 = clock()
        row = engine.run_cycle(trial, cycle)
        cycle_wall += clock() - c0
        metrics.rows.append(row)
    scale = speed.factor(first) if speed else 1.0

    issued = [r.issued for r in metrics.rows]
    if issued != [config.node_count] * config.cycles:
        raise RuntimeError(f"issued {issued}, want {config.node_count} per cycle")
    quiet = [r.cycle for r in metrics.rows if r.adv_sets_sent == 0]
    return Trial(
        setup_s=setup_wall * scale,
        setup_wall=setup_wall,
        trial_s=(setup_wall + cycle_wall) * scale,
        trial_wall=setup_wall + cycle_wall,
        cycle_s=cycle_wall * scale,
        queries=sum(issued),
        violations=metrics.oracle_violations,
        accuracy=metrics.converged_accuracy(),
        adv_sets_total=sum(r.adv_sets_sent for r in metrics.rows),
        quiescence_cycle=quiet[0] if quiet else config.cycles + 1,
        overlay=trial.overlay,
        digest=output_digest(metrics, trial.overlay, tag),
    )


def output_digest(metrics, overlay, tag: str) -> str:
    """sha256 over the per-cycle CSV rows and the overlay edge list, written
    by the program's own writers."""
    OUT_DIR.mkdir(exist_ok=True)
    rows, edges = OUT_DIR / f"{tag}-rows.csv", OUT_DIR / f"{tag}-edges.txt"
    metrics.write_csv(rows)
    overlay.write_edge_list(edges)
    h = hashlib.sha256()
    for path in (rows, edges):
        h.update(path.read_bytes())
    return h.hexdigest()


def time_setup(engine, config, speed: "HostSpeed") -> float:
    first = speed.mark()
    t0 = speed.clock()
    engine.setup_trial(config)
    wall = speed.clock() - t0
    return wall * speed.factor(first)


class HostSpeed:
    """Scales measured wall times to a fixed host speed.

    On a shared host identical work can take up to 1.6x as long, in phases
    from under a second to minutes, while CPU time tracks wall time: the core
    runs slower, the process is not descheduled. While a `HostSpeed` is
    entered, an interval timer interrupts the run every `PERIOD_S` seconds to
    time a fixed reference kernel shaped like the simulator's work
    (attribute and dict lookups keyed by frozensets, `min` with a key
    function, small numpy reductions), so samples are spread evenly over
    time, inside long program calls too. `clock()` excludes the time spent
    sampling. A trial's times are multiplied by `REF_S` over the median
    kernel time during the trial; `REF_S` is about the kernel's median on the
    2-core host the baseline was recorded on, so scaled times read as
    seconds there.
    """

    REF_S = 0.025
    PERIOD_S = 0.5

    def __init__(self):
        rng = np.random.default_rng(0)
        self.keys = [frozenset(rng.choice(12, size=3, replace=False).tolist())
                     for _ in range(64)]
        self.tables = [{k: _Cell(float(i * j)) for j, k in enumerate(self.keys)}
                       for i in range(1200)]
        self.arrays = [rng.random(32) for _ in range(256)]
        self.samples: list[float] = []
        self.stolen = 0.0
        self._busy = False

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum=None, frame=None):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        self.samples.append(self.sample())
        self.stolen += time.perf_counter() - t0
        self._busy = False

    def clock(self) -> float:
        """Wall clock less the time spent sampling."""
        return time.perf_counter() - self.stolen

    def mark(self) -> int:
        """Take a sample and return its index, the start of a measurement."""
        self._tick()
        return len(self.samples) - 1

    def factor(self, first: int) -> float:
        self._tick()
        return self.REF_S / statistics.median(self.samples[first:])

    def sample(self) -> float:
        # the collector stays off so that a collection the program's heap
        # is due for lands in the program's time, not in the sample
        gc.disable()
        try:
            self._pass()  # untimed: bring the kernel's data back into cache
            t0 = time.perf_counter()
            self._pass()
            self._pass()
            return time.perf_counter() - t0
        finally:
            gc.enable()

    def _pass(self) -> float:
        keys, probe = self.keys, self.keys[::2]
        acc = 0.0
        for table in self.tables:
            for k in probe:
                acc += table[k].value
            acc += len(min(keys[:16], key=lambda k: (table[k].value, len(k))))
        for a in self.arrays:
            p = a / a.sum()
            acc -= float((p * np.log2(p)).sum())
        return acc


class _Cell:
    __slots__ = ("value",)

    def __init__(self, value: float):
        self.value = value


class Tracer:
    """In-memory span recorder. Each span is a row of parallel arrays: name
    id, start, end, parent row (-1 at the top) and query id (-1 outside
    `engine.route_query`, so all spans of one query share an id)."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.query = array("i")
        self.stack = [-1]
        self.query_id = -1
        self.queries = 0
        self.adv_sent = 0
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, span: str, fn):
        nid = self.name_ids.setdefault(span, len(self.names))
        if nid == len(self.names):
            self.names.append(span)
        name, start, end, parent, query = (
            self.name, self.start, self.end, self.parent, self.query)
        stack, clock = self.stack, time.perf_counter
        is_query = span == "engine.route_query"
        is_decision = span == "routing.should_advertise"

        def traced(*args, **kwargs):
            row = len(name)
            if is_query:
                self.query_id = self.queries
                self.queries += 1
            name.append(nid)
            parent.append(stack[-1])
            query.append(self.query_id)
            end.append(0.0)
            stack.append(row)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[row] = clock()
                stack.pop()
                if is_query:
                    self.query_id = -1
            if is_decision and result:
                self.adv_sent += 1
            return result

        return traced

    def install(self, owners: dict):
        for span, owner_name, attr in TRACED:
            owner = owners[owner_name]
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(span, original))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "query": np.frombuffer(self.query, dtype=np.int32),
        }

    def layer_times(self) -> dict[str, tuple[int, float, float, np.ndarray]]:
        """Per span name: calls, inclusive seconds, self seconds (inclusive
        minus the time of direct children) and every span's duration."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        nested = a["parent"] >= 0
        child = np.bincount(
            a["parent"][nested], weights=dur[nested], minlength=len(dur)
        )
        own = dur - child
        out = {}
        for nid, span in enumerate(self.names):
            mask = a["name"] == nid
            out[span] = (int(mask.sum()), float(dur[mask].sum()),
                         float(own[mask].sum()), dur[mask])
        return out

    def write(self, path: Path):
        path.parent.mkdir(exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    metrics: dict

    def line(self) -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        })


class Checker:
    """Counts queries attempted and failed over a run's trials. A trial
    that raises counts every query it would have issued as failed."""

    def __init__(self, config):
        self.config = config
        self.attempted = 0
        self.failed = 0
        self.digests: set[str] = set()
        self.ok = True

    def run(self, engine, tag: str, speed: HostSpeed | None):
        planned = self.config.node_count * self.config.cycles
        self.attempted += planned
        try:
            trial = run_trial(engine, self.config, tag, speed)
        except Exception:
            traceback.print_exc()
            self.failed += planned
            self.ok = False
            return None
        self.failed += trial.violations
        self.digests.add(trial.digest)
        if len(self.digests) > 1:
            print("simulated outputs differ between trials", file=sys.stderr)
            self.ok = False
        return trial

    def outcome(self, metrics: dict) -> Outcome:
        correct = self.ok and self.failed == 0 and self.attempted > 0
        return Outcome(correct, self.attempted, self.failed, metrics)


def measure(engine, config, seconds: float, tag: str) -> Outcome:
    """Whole trials while the next one is expected to fit in `seconds`
    (always at least one), then bare set-ups to fill the rest."""
    check = Checker(config)
    trials, setups, walls = [], [], []
    deadline = time.perf_counter() + seconds

    def fits() -> bool:
        return time.perf_counter() + statistics.median(walls) <= deadline

    with HostSpeed() as speed:
        while not trials or fits():
            t0 = time.perf_counter()
            trial = check.run(engine, tag, speed)
            gc.collect()
            if trial is None:
                return check.outcome({})
            walls.append(time.perf_counter() - t0)
            trials.append(trial)
            setups.append(trial.setup_s)
            print(f"trial {len(trials)}: {trial.trial_s:.3f} s scaled, "
                  f"{trial.trial_wall:.3f} s wall", file=sys.stderr)
        walls = [t.setup_wall for t in trials]
        while fits():
            t0 = time.perf_counter()
            setups.append(time_setup(engine, config, speed))
            gc.collect()
            walls.append(time.perf_counter() - t0)
    print(f"{len(setups)} set-ups", file=sys.stderr)

    last = trials[-1]
    return check.outcome({
        "setup_s": (statistics.median(setups), "s"),
        "trial_s": (statistics.median(t.trial_s for t in trials), "s"),
        "queries_per_s": (
            statistics.median(t.queries / t.cycle_s for t in trials), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "accuracy": (last.accuracy, "ratio"),
        "adv_sets_total": (last.adv_sets_total, "count"),
    })


def measure_traced(engine, routing, topology, config, tag: str,
                   trace_path: Path | None) -> Outcome:
    """One untraced trial as the reference, then one traced trial. Times
    here are plain wall times: sampling would land inside the spans."""
    check = Checker(config)
    plain = check.run(engine, tag, None)
    gc.collect()
    if plain is None:
        return check.outcome({})
    tracer = Tracer()
    tracer.install({"engine": engine, "topology": topology,
                    "routing": routing, "RoutingModel": routing.RoutingModel})
    try:
        traced = check.run(engine, tag, None)
    finally:
        tracer.uninstall()
    if traced is None:
        return check.outcome({})
    if trace_path is not None:
        tracer.write(trace_path)
    return check.outcome(layer_metrics(tracer, plain, traced))


def layer_metrics(tracer: Tracer, plain: Trial, traced: Trial) -> dict:
    layers = tracer.layer_times()
    empty = (0, 0.0, 0.0, np.zeros(0))
    calls = {k: layers.get(k, empty)[0] for k, _, _ in TRACED}
    total = {k: layers.get(k, empty)[1] for k, _, _ in TRACED}
    queries = calls["engine.route_query"]
    route_us = layers.get("engine.route_query", empty)[3] * 1e6
    built = calls["routing.build_advertisement"]
    overlay = traced.overlay
    m = {
        "engine.generate_workload_s": (total["engine.generate_workload"], "s"),
        "engine.route_query_calls": (queries, "count"),
        "engine.route_query_s": (total["engine.route_query"], "s"),
        "engine.route_query_us_p50": (float(np.percentile(route_us, 50)), "us"),
        "engine.route_query_us_p99": (float(np.percentile(route_us, 99)), "us"),
        "engine.oracle_best_calls": (calls["engine.oracle_best"], "count"),
        "engine.oracle_best_s": (total["engine.oracle_best"], "s"),
        "engine.oracle_hit_ratio": (
            1.0 - calls["engine.oracle_best"] / queries, "ratio"),
        "pgm.train_pgms_s": (total["pgm.train_pgms"], "s"),
        "pgm.answer_entropy_calls": (calls["pgm.answer_entropy"], "count"),
        "pgm.answer_entropy_s": (total["pgm.answer_entropy"], "s"),
        "pgm.local_entropy_sets_s": (total["pgm.local_entropy_sets"], "s"),
        "topology.generate_s": (total["topology.generate"], "s"),
        "topology.attachment_probabilities_calls": (
            calls["topology.attachment_probabilities"], "count"),
        "topology.attachment_probabilities_s": (
            total["topology.attachment_probabilities"], "s"),
        "topology.edges": (len(overlay.edges()), "count"),
        "topology.repair_edges": (overlay.repair_edges, "count"),
        "topology.saturation_warnings": (overlay.saturation_warnings, "count"),
        "routing.build_advertisement_calls": (built, "count"),
        "routing.build_advertisement_s": (total["routing.build_advertisement"], "s"),
        "routing.should_advertise_s": (total["routing.should_advertise"], "s"),
        "routing.adv_sent_ratio": (
            tracer.adv_sent / built if built else 0.0, "ratio"),
        "routing.integrate_advertisement_calls": (
            calls["routing.integrate_advertisement"], "count"),
        "routing.integrate_advertisement_s": (
            total["routing.integrate_advertisement"], "s"),
        "routing.process_query_calls": (calls["routing.process_query"], "count"),
        "routing.process_query_s": (total["routing.process_query"], "s"),
        "routing.best_score_calls": (calls["routing.best_score"], "count"),
        "routing.best_score_s": (total["routing.best_score"], "s"),
        # the issuer's own process_query call is not a hop
        "routing.hops_per_query": (
            (calls["routing.process_query"] - queries) / queries, "hops"),
        "routing.quiescence_cycle": (traced.quiescence_cycle, "cycle"),
    }
    for span, _, _ in TRACED:
        m[f"{span}.self_s"] = (layers.get(span, empty)[2], "s")
    m["trace_overhead_s"] = (traced.trial_s - plain.trial_s, "s")
    return m


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        engine, routing, topology = load_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    config = engine.SimConfig(seed=args.seed, **WORKLOADS[args.workload])
    tag = f"{args.workload}-{args.seed}"
    if args.trace:
        outcome = measure_traced(engine, routing, topology, config, tag,
                                 OUT_DIR / f"trace-{args.workload}.npz")
    else:
        outcome = measure(engine, config, args.seconds, tag)
    print(outcome.line())
    return 0


if __name__ == "__main__":
    sys.exit(main())
