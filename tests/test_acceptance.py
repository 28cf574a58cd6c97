"""End-to-end acceptance checks.

Every test here exercises a full published operating point and prints one
PASS/FAIL line (run with -s to see them). These are slow: the whole module
took 86 s on a 2-core VM (Python 3.11, numpy 2.4), nearly all of it in the
fixtures. Heavy runs are shared through
module-scoped fixtures, and every trial's oracle-violation count feeds the
final zero-violations check.
"""

import numpy as np
import pytest

from edgeknow.engine import (
    SimConfig,
    Strategy,
    TrainedAssignment,
    generate_workload,
    run_trial,
)
from edgeknow.routing import local_entropy_sets
from edgeknow.topology import AttachmentParams, generate, survival_slope

from conftest import bf_conditional_entropy, bf_summary, library_answer, view

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


@pytest.fixture(scope="module")
def hop_sweep_runs():
    runs = {}
    for hops in (2, 4, 6, 8):
        runs[hops] = [
            collect(
                run_trial(
                    SimConfig(
                        node_count=512,
                        predicting_var_count=10,
                        hop_budget=hops,
                        cycles=15,
                        seed=seed,
                    )
                )
            )
            for seed in range(3)
        ]
    return runs


@pytest.fixture(scope="module")
def k_sweep_runs():
    runs = {}
    for k in (5, 10):
        runs[k] = [
            collect(
                run_trial(
                    SimConfig(
                        node_count=256,
                        predicting_var_count=100,
                        vars_trained_per_node=2,
                        context_var_count=5,
                        contexts_per_table=3,
                        combinations_pool=10,
                        k_sets=k,
                        cycles=25,
                        seed=seed,
                    )
                )
            )
            for seed in range(2)
        ]
    return runs


@pytest.fixture(scope="module")
def pool_sweep_runs():
    runs = {}
    for pool in (10, 50, 150, 252):
        runs[pool] = [
            collect(
                run_trial(
                    SimConfig(
                        node_count=512,
                        predicting_var_count=32,
                        vars_trained_per_node=1,
                        context_var_count=10,
                        contexts_per_table=5,
                        combinations_pool=pool,
                        observations_per_var=20000,
                        pseudocount=0.25,
                        k_sets=10,
                        cycles=12,
                        seed=0,
                    )
                )
            )
        ]
    return runs


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
        workload = generate_workload(config, seed=0)
        trained = [[] for _ in range(config.node_count)]
        for entry in workload.entries:
            if entry.counts.any():
                trained[entry.node_id].append(entry.var)
        capped = generate(AttachmentParams(), trained, 60, seed=0)
        degrees = [capped.degree(n) for n in capped.nodes]
        at_limit = sum(d == 60 for d in degrees)
        uncapped = generate(AttachmentParams(), trained, 800, seed=0)
        slope = survival_slope([uncapped.degree(n) for n in uncapped.nodes])
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
            s = local_entropy_sets([entry], len(contexts), card, pseudocount)[0]
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
