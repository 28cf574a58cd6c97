"""End-to-end acceptance checks.

Every test here exercises a full published operating point and prints one
PASS/FAIL line (run with -s to see them). These are the slowest tests: the
whole module took 21 s on a shared 2-core VM (Python 3.11, numpy 2.4),
nearly all of it in the fixtures. Heavy runs are shared through
module-scoped fixtures, and every trial's oracle-violation count feeds the
final zero-violations check. The hop, K and pool fixtures read their
configs from `studies/`, as `edgeknow run --config` does.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from edgeknow.cli import _base_config, _read_config_file, _resolve_seeds, build_parser
from edgeknow.engine import (
    SimConfig,
    Strategy,
    TrainedAssignment,
    generate_workload,
    run_trial,
)
from edgeknow.topology import AttachmentParams, generate, survival_slope

from conftest import (
    bf_conditional_entropy,
    bf_summary,
    library_answer,
    summarise,
    view,
)

ALL_RUNS = []


def report(name: str, ok: bool, detail: str):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def collect(metrics):
    ALL_RUNS.append(metrics)
    return metrics


@pytest.fixture(scope="module")
def abs_runs_256():
    return [collect(run_trial(SimConfig(seed=s))) for s in range(10)]


@pytest.fixture(scope="module")
def rw_runs_256():
    return [
        collect(run_trial(SimConfig(seed=s, strategy=Strategy.RANDOM_WALK)))
        for s in range(3)
    ]


# the points the hop, K and pool claims' bounds were set on, with their
# seeds: a study file that drifts from its point fails here, not as a moved
# claim
POINTS = {
    "hops": (SimConfig(node_count=512, predicting_var_count=10, cycles=15), [0, 1, 2]),
    "k": (
        SimConfig(
            node_count=256,
            predicting_var_count=100,
            vars_trained_per_node=2,
            context_var_count=5,
            contexts_per_table=3,
            combinations_pool=10,
            cycles=25,
        ),
        [0, 1],
    ),
    "pool": (
        SimConfig(
            node_count=512,
            predicting_var_count=32,
            vars_trained_per_node=1,
            context_var_count=10,
            contexts_per_table=5,
            observations_per_var=20000,
            pseudocount=0.25,
            k_sets=10,
            cycles=12,
        ),
        [0],
    ),
}


def study_runs(name, field, values):
    """One trial per (value, seed) of `studies/<name>.cfg`, read as
    `edgeknow run --config` reads it, with `field` set to each value."""
    path = Path(__file__).resolve().parents[1] / "studies" / f"{name}.cfg"
    args = build_parser().parse_args(["run", "--config", str(path)])
    file_values, file_lines = _read_config_file(path)
    base = _base_config(args, file_values, file_lines)
    seeds = _resolve_seeds(args.seed, file_values.get("seed"))
    assert (base, seeds) == POINTS[name]
    return {
        value: [
            collect(run_trial(replace(base, seed=seed, **{field: value})))
            for seed in seeds
        ]
        for value in values
    }


@pytest.fixture(scope="module")
def hop_sweep_runs():
    return study_runs("hops", "hop_budget", (2, 4, 6, 8))


@pytest.fixture(scope="module")
def k_sweep_runs():
    return study_runs("k", "k_sets", (5, 10))


@pytest.fixture(scope="module")
def pool_sweep_runs():
    return study_runs("pool", "combinations_pool", (10, 50, 150, 252))


def tail_std(metrics):
    return float(np.mean([r.accuracy_std for r in metrics.rows[-5:]]))


class TestAcceptance:
    def test_01_converges_on_256_nodes(self, abs_runs_256):
        metrics = abs_runs_256[0]
        converged = metrics.converged_accuracy()
        first = metrics.rows[0].accuracy
        ok = converged >= 0.85 and len(metrics.rows) <= 50
        report(
            "entropy routing converges on 256 nodes",
            ok,
            f"converged accuracy {converged:.3f} (cycle 1 at {first:.3f}, "
            f"{len(metrics.rows)} cycles)",
        )

    def test_02_high_accuracy_across_seeds(self, abs_runs_256):
        convs = [m.converged_accuracy() for m in abs_runs_256]
        good = sum(c >= 0.95 for c in convs)
        report(
            "near-optimal routing is seed-robust",
            good >= 7,
            f"{good}/10 seeds converged to >= 0.95 "
            f"(values {', '.join(f'{c:.3f}' for c in convs)})",
        )

    def test_03_beats_random_walk(self, abs_runs_256, rw_runs_256):
        abs_mean = float(np.mean([m.converged_accuracy() for m in abs_runs_256]))
        rw_mean = float(np.mean([m.converged_accuracy() for m in rw_runs_256]))
        gap = abs_mean - rw_mean
        report(
            "entropy routing beats the random walk",
            gap >= 0.10,
            f"entropy {abs_mean:.3f} vs random walk {rw_mean:.3f} "
            f"(gap {gap:.3f}, needs >= 0.10)",
        )

    def test_04_hop_budget_monotonicity(self, hop_sweep_runs):
        budgets = sorted(hop_sweep_runs)
        accs = [
            float(np.mean([m.converged_accuracy() for m in hop_sweep_runs[h]]))
            for h in budgets
        ]
        stds = [
            float(np.mean([tail_std(m) for m in hop_sweep_runs[h]]))
            for h in budgets
        ]
        acc_monotone = all(b >= a - 0.02 for a, b in zip(accs, accs[1:]))
        std_monotone = all(b <= a + 0.02 for a, b in zip(stds, stds[1:]))
        spread = accs[-1] - accs[0]
        ok = acc_monotone and std_monotone and spread >= 0.02
        report(
            "accuracy grows and spread shrinks with the hop budget",
            ok,
            f"budgets {budgets}: accuracy {[round(a, 3) for a in accs]}, "
            f"per-query std {[round(s, 3) for s in stds]}",
        )

    def test_05_k_truncation_tolerated(self, k_sweep_runs):
        acc5 = float(np.mean([m.converged_accuracy() for m in k_sweep_runs[5]]))
        acc10 = float(np.mean([m.converged_accuracy() for m in k_sweep_runs[10]]))
        diff = abs(acc10 - acc5)
        report(
            "K=5 tracks K=10 within 5 accuracy points",
            diff <= 0.05,
            f"K=5 at {acc5:.3f}, K=10 at {acc10:.3f} (|diff| {diff:.3f})",
        )

    def test_06_context_pool_stress(self, pool_sweep_runs):
        pools = sorted(pool_sweep_runs)
        accs = [
            float(np.mean([m.converged_accuracy() for m in pool_sweep_runs[p]]))
            for p in pools
        ]
        stds = [
            float(np.mean([tail_std(m) for m in pool_sweep_runs[p]]))
            for p in pools
        ]
        acc_monotone = all(b <= a + 0.02 for a, b in zip(accs, accs[1:]))
        std_monotone = all(b >= a - 0.02 for a, b in zip(stds, stds[1:]))
        ok = (
            acc_monotone
            and std_monotone
            and accs[0] - accs[-1] >= 0.05
            and stds[-1] - stds[0] >= 0.05
        )
        report(
            "more context combinations degrade accuracy and widen spread",
            ok,
            f"pools {pools}: accuracy {[round(a, 3) for a in accs]}, "
            f"per-query std {[round(s, 3) for s in stds]}",
        )

    def test_07_topology_cap_and_tail(self):
        config = SimConfig(node_count=800, observations_per_var=50, seed=0)
        trained = [[] for _ in range(config.node_count)]
        for batch in generate_workload(config, seed=0):
            for entry in batch:
                if entry.counts.any():
                    trained[entry.node_id].append(entry.var)
        capped = generate(AttachmentParams(), trained, 60, seed=0)
        degrees = capped.degree.tolist()
        at_limit = sum(d == 60 for d in degrees)
        uncapped = generate(AttachmentParams(), trained, 800, seed=0)
        slope = survival_slope(uncapped.degree)
        ok = max(degrees) <= 60 and at_limit >= 2 and -3.5 <= slope <= -1.5
        report(
            "degree cap is hard and the uncapped tail is scale-free",
            ok,
            f"capped max degree {max(degrees)}, {at_limit} nodes at the limit, "
            f"uncapped survival slope {slope:.2f}",
        )

    def test_08_entropy_matches_brute_force(self):
        rng = np.random.default_rng(2024)
        cases = 0
        worst = 0.0
        for _ in range(400):
            card = int(rng.integers(2, 5))
            shape = [int(rng.integers(2, 5))] + [card] * int(rng.integers(0, 3))
            counts = rng.integers(0, int(rng.integers(1, 200)), size=shape)
            pseudocount = float(rng.uniform(0.01, 2.0))
            contexts = tuple(range(len(shape) - 1))
            entry = TrainedAssignment(0, 0, contexts, counts.reshape(shape[0], -1))
            s = summarise([entry], len(contexts), card, pseudocount)[0]
            got, hs = view(s)
            tensor = counts + pseudocount
            joint, marginals = bf_summary(tensor, contexts)
            worst = max(worst, abs(got - joint))
            for c in contexts:
                worst = max(worst, abs(hs[c] - marginals[c]))
            cases += 1 + len(contexts)
            given = [c for c in contexts if rng.random() < 0.5]
            worst = max(
                worst,
                abs(
                    library_answer(s, frozenset(given))
                    - bf_conditional_entropy(tensor, contexts, given)
                ),
            )
            cases += 1
        ok = cases >= 1000 and worst <= 1e-9
        report(
            "entropy calculations match independent brute force",
            ok,
            f"{cases} randomized cases, worst deviation {worst:.2e}",
        )

    def test_09_no_oracle_violations(
        self, abs_runs_256, rw_runs_256, hop_sweep_runs, k_sweep_runs, pool_sweep_runs
    ):
        total_queries = sum(
            r.issued for m in ALL_RUNS for r in m.rows
        )
        violations = sum(m.oracle_violations for m in ALL_RUNS)
        report(
            "no query ever beats the exhaustive oracle",
            violations == 0,
            f"{violations} violations over {total_queries} scored queries "
            f"in {len(ALL_RUNS)} trials",
        )
