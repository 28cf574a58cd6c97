"""Named parameter studies: one trial per (value, seed), seed-averaged.

Each study fixes some SimConfig fields, sweeps one field over a list of
values and writes one CSV row per (value, cycle) with the seed-mean
accuracy and the seed-mean per-query standard deviation of hits:

    value,cycle,accuracy,accuracy_std

It prints the seed-mean converged accuracy (mean over the last five cycles)
per value. Studies:

- cycles: per-cycle accuracy, entropy routing versus random walk.
- hops: larger hop budgets should raise accuracy and shrink its spread.
- k: small K truncates routing knowledge when each variable is trained
  under many (here ten) context combinations; once K covers them the
  curves agree.
- pool: more distinct context combinations cover the query mix less well.
  Heavy observation counts and a small pseudocount keep per-table entropy
  signals sharp, so the trend isolates the combination effect.
- context_size: with one combination per variable, the number of bound
  context variables should barely move accuracy, because scores shift for
  every node alike.

Usage: python3 scripts/studies.py --study {cycles,hops,k,pool,context_size}
       [--seeds 0,1] [--values 2,4] [--cycles 10] [--out out/hops.csv]
"""

import argparse
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from edgeknow.engine import SimConfig, Strategy, run_trial


class Study(NamedTuple):
    field: str
    values: str
    seeds: str
    cycles: int
    fixed: dict


STUDIES = {
    "cycles": Study("strategy", "abs,rw", "0,1,2", 30, {}),
    "hops": Study(
        "hop_budget", "2,4,6,8", "0,1,2", 15,
        dict(node_count=512, predicting_var_count=10),
    ),
    "k": Study(
        "k_sets", "1,2,5,10", "0,1", 25,
        dict(
            node_count=256, predicting_var_count=100, vars_trained_per_node=2,
            context_var_count=5, contexts_per_table=3, combinations_pool=10,
        ),
    ),
    "pool": Study(
        "combinations_pool", "10,50,150,252", "0", 12,
        dict(
            node_count=512, predicting_var_count=32, vars_trained_per_node=1,
            context_var_count=10, contexts_per_table=5,
            observations_per_var=20000, pseudocount=0.25, k_sets=10,
        ),
    ),
    "context_size": Study(
        "contexts_per_table", "1,2,3,4,5", "0,1", 15,
        dict(
            node_count=128, predicting_var_count=30, vars_trained_per_node=2,
            context_var_count=5, combinations_pool=1,
        ),
    ),
}


def _split(text: str) -> list[str]:
    return [v for v in text.split(",") if v]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--study", required=True, choices=sorted(STUDIES))
    ap.add_argument("--seeds", type=str, help="comma list (default per study)")
    ap.add_argument("--values", type=str, help="comma list (default per study)")
    ap.add_argument("--cycles", type=int, help="cycles per trial (default per study)")
    ap.add_argument("--out", type=Path, help="output CSV (default out/<study>.csv)")
    args = ap.parse_args()
    study = STUDIES[args.study]
    seeds = [int(s) for s in _split(args.seeds or study.seeds)]
    values = _split(args.values or study.values)
    parse = Strategy if study.field == "strategy" else int
    base = SimConfig(cycles=args.cycles or study.cycles, **study.fixed)
    out = args.out or Path("out") / f"{args.study}.csv"

    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as f:
        f.write("value,cycle,accuracy,accuracy_std\n")
        for value in values:
            runs = [
                run_trial(replace(base, seed=seed, **{study.field: parse(value)}))
                for seed in seeds
            ]
            acc = np.mean([[r.accuracy for r in m.rows] for m in runs], axis=0)
            std = np.mean([[r.accuracy_std for r in m.rows] for m in runs], axis=0)
            for cycle, (a, s) in enumerate(zip(acc, std), start=1):
                f.write(f"{value},{cycle},{a:.6f},{s:.6f}\n")
            converged = np.mean([m.converged_accuracy() for m in runs])
            print(f"{study.field}={value} converged_accuracy={converged:.6f}")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
