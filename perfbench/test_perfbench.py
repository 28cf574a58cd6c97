"""Fast self-test of the benchmark on tiny configs.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run

ROOT = Path(run.__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

engine, routing, topology = run.load_program()

TINY = {
    "steady": dict(node_count=16, predicting_var_count=8,
                   vars_trained_per_node=2, observations_per_var=300, cycles=4),
    "pool": dict(node_count=16, predicting_var_count=4, vars_trained_per_node=1,
                 context_var_count=5, contexts_per_table=2, combinations_pool=10,
                 observations_per_var=300, pseudocount=0.25, k_sets=3, cycles=3),
}


def tiny(name, seed=0):
    return engine.SimConfig(seed=seed, **TINY[name])


def assert_emits(outcome, group):
    assert outcome.correct and outcome.failed == 0 and outcome.attempted > 0
    want = {m["name"]: m["unit"] for m in SPEC[group]}
    got = {name: unit for name, (_, unit) in outcome.metrics.items()}
    assert got == want


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced_run_emits_every_end_to_end_metric(name):
    assert_emits(run.measure(engine, tiny(name), 0.2, f"test-{name}"), "end_to_end")


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_emits_every_per_layer_metric(name):
    outcome = run.measure_traced(engine, routing, topology, tiny(name),
                                 f"test-{name}", None)
    assert_emits(outcome, "per_layer")
    calls = {k: v for k, (v, _) in outcome.metrics.items() if k.endswith("_calls")}
    assert calls["routing.process_query_calls"] > calls["engine.route_query_calls"] > 0


def test_workload_names_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_simulated_outputs_identical_across_runs_and_tracing(name):
    config = tiny(name, seed=5)
    first = run.run_trial(engine, config, "test-det", None).digest
    second = run.run_trial(engine, config, "test-det", None).digest
    originals = (engine.route_query, routing.RoutingModel.best_score)
    tracer = run.Tracer()
    tracer.install({"engine": engine, "topology": topology, "routing": routing,
                    "RoutingModel": routing.RoutingModel})
    try:
        traced = run.run_trial(engine, config, "test-det", None).digest
    finally:
        tracer.uninstall()
    assert first == second == traced
    assert (engine.route_query, routing.RoutingModel.best_score) == originals
    assert run.run_trial(engine, tiny(name, seed=6), "test-det", None).digest != first


def test_spans_nest_and_share_query_ids():
    tracer = run.Tracer()
    tracer.install({"engine": engine, "topology": topology, "routing": routing,
                    "RoutingModel": routing.RoutingModel})
    try:
        run.run_trial(engine, tiny("steady"), "test-spans", None)
    finally:
        tracer.uninstall()
    a = tracer.arrays()
    names = tracer.names
    route = names.index("engine.route_query")
    best = names.index("routing.best_score")
    assert (a["end"] >= a["start"]).all()
    # every best_score span sits inside a query and carries its id
    best_rows = (a["name"] == best).nonzero()[0]
    assert len(best_rows) and (a["query"][best_rows] >= 0).all()
    route_rows = (a["name"] == route).nonzero()[0]
    assert list(a["query"][route_rows]) == list(range(len(route_rows)))
    layers = tracer.layer_times()
    for span, (calls, total, own, _) in layers.items():
        assert 0 <= own <= total + 1e-9, span


def test_trial_that_raises_counts_every_query_as_failed(monkeypatch):
    def broken(trial, cycle):
        raise RuntimeError("injected")

    monkeypatch.setattr(engine, "run_cycle", broken)
    outcome = run.measure(engine, tiny("steady"), 0.2, "test-fail")
    assert not outcome.correct
    assert outcome.failed == outcome.attempted == 16 * 4
    assert outcome.metrics == {}


def test_exits_nonzero_without_result_when_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "steady-256",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_host_speed_samples_inside_long_calls_and_excludes_them():
    speed = run.HostSpeed()
    with speed:
        first = speed.mark()
        t0, c0 = time.perf_counter(), speed.clock()
        end = t0 + 1.3
        while time.perf_counter() < end:  # busy, as inside setup_trial
            sum(range(1000))
        wall, clock = time.perf_counter() - t0, speed.clock() - c0
        factor = speed.factor(first)
    assert len(speed.samples) - first >= 4  # two ticks plus mark and factor
    assert clock < wall - 0.02
    assert factor > 0
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
