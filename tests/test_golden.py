"""Byte-identical outputs for a fixed small configuration.

The files under tests/golden/ are run CSVs (`TrialMetrics.write_csv`) and
overlay edge lists (`Overlay.write_edge_list`) for two seeds and both
strategies, for two configurations. Any refactor that is meant to keep
results unchanged must keep these bytes unchanged. `CONFIG` keeps K below the
pool of context combinations (so advertisements are truncated), lets
advertisement traffic die out within the run and leaves accuracy below
saturation. `POOL_CONFIG` (files prefixed `pool_`) has K=10 over a pool of 40
combinations of 3 of 10 contexts: many lists hold fewer than K sets or none,
and evidence sets span context ids 8 and 9, which share hash slots with 0
and 1, so they iterate unsorted.

`perfbench_seeds.sha256` holds the sha256 of the run rows and edge list that
each benchmark workload (`perfbench/run.py`) writes at seeds 0, 1 and 2 (18
files); CI checks it with `sha256sum -c` after running the workloads.

Regenerate (only when a change is meant to alter results, and say why), the
benchmark digests with the other goldens:
    PYTHONPATH=src python tests/test_golden.py
    for s in 0 1 2; do for w in steady-256 pool-256 grow-1024; do
        python perfbench/run.py --workload $w --seed $s --seconds 0
    done; done
    sha256sum perfbench/out/{steady-256,pool-256,grow-1024}-{0,1,2}-{rows.csv,edges.txt} \
        > tests/golden/perfbench_seeds.sha256
"""

from dataclasses import replace
from pathlib import Path

import pytest

from edgeknow.engine import SimConfig, Strategy, run_trial, setup_trial

GOLDEN_DIR = Path(__file__).parent / "golden"
CONFIG = SimConfig(
    node_count=40,
    predicting_var_count=8,
    context_var_count=4,
    contexts_per_table=2,
    combinations_pool=4,
    vars_trained_per_node=2,
    observations_per_var=300,
    k_sets=2,
    cycles=6,
)
POOL_CONFIG = SimConfig(
    node_count=40,
    predicting_var_count=4,
    vars_trained_per_node=1,
    context_var_count=10,
    contexts_per_table=3,
    combinations_pool=40,
    observations_per_var=300,
    pseudocount=0.25,
    k_sets=10,
    cycles=6,
)
# the benchmark workloads' output digests, checked in CI, not here
PERFBENCH_DIGESTS = "perfbench_seeds.sha256"
# file name prefix per configuration
CASES = {"": CONFIG, "pool_": POOL_CONFIG}
SEEDS = (0, 1)
NAMES = [
    name
    for prefix in CASES
    for name in [f"{prefix}edges_seed{seed}.txt" for seed in SEEDS]
    + [
        f"{prefix}run_seed{seed}_{strategy.value}.csv"
        for seed in SEEDS
        for strategy in Strategy
    ]
]


def write_golden(out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    for prefix, base in CASES.items():
        for seed in SEEDS:
            config = replace(base, seed=seed)
            setup_trial(config).overlay.write_edge_list(
                out_dir / f"{prefix}edges_seed{seed}.txt"
            )
            for strategy in Strategy:
                run_trial(replace(config, strategy=strategy)).write_csv(
                    out_dir / f"{prefix}run_seed{seed}_{strategy.value}.csv"
                )


@pytest.fixture(scope="module")
def regenerated(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    write_golden(out)
    return out


def test_file_set(regenerated):
    assert sorted(p.name for p in regenerated.iterdir()) == sorted(NAMES)
    committed = sorted(NAMES + [PERFBENCH_DIGESTS])
    assert sorted(p.name for p in GOLDEN_DIR.iterdir()) == committed


@pytest.mark.parametrize("name", NAMES)
def test_byte_identical(regenerated, name):
    assert (regenerated / name).read_bytes() == (GOLDEN_DIR / name).read_bytes()


if __name__ == "__main__":
    write_golden(GOLDEN_DIR)
    print(f"wrote {len(NAMES)} files to {GOLDEN_DIR}")
