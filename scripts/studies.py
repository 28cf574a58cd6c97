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

Seeds and values are distinct comma-separated lists; `--cycles 0` writes
the header alone. A bad list, or a value the study's config rejects, exits
with status 2 and one line on stderr, before `--out` is opened; so does an
`--out` that cannot be opened, as under a file or at a directory.
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from edgeknow.cli import _int_list, _make_out_dir, _seed_list
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


def _strategy_list(text: str) -> list[Strategy]:
    """Distinct comma-separated strategies, as `_int_list` reads integers."""
    values = [Strategy(v) for v in text.split(",") if v]
    if not values or len(set(values)) < len(values):
        raise ValueError(f"expected distinct comma-separated strategies, got {text!r}")
    return values


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--study", required=True, choices=sorted(STUDIES))
    ap.add_argument("--seeds", type=str, help="comma list (default per study)")
    ap.add_argument("--values", type=str, help="comma list (default per study)")
    ap.add_argument("--cycles", type=int, help="cycles per trial (default per study)")
    ap.add_argument("--out", type=Path, help="output CSV (default out/<study>.csv)")
    args = ap.parse_args()
    study = STUDIES[args.study]
    parse = _strategy_list if study.field == "strategy" else _int_list
    try:
        seeds = _seed_list(args.seeds or study.seeds)
        values = parse(args.values or study.values)
        cycles = study.cycles if args.cycles is None else args.cycles
        base = SimConfig(cycles=cycles, **study.fixed)
        configs = [
            [replace(base, seed=seed, **{study.field: value}) for seed in seeds]
            for value in values
        ]
    except ValueError as exc:
        print(f"bad study {args.study}: {exc}", file=sys.stderr)
        return 2
    out = args.out or Path("out") / f"{args.study}.csv"
    if not _make_out_dir(out.parent):
        return 2
    try:
        f = open(out, "w")
    except OSError as exc:
        print(f"bad --out: {exc}", file=sys.stderr)
        return 2
    with f:
        f.write("value,cycle,accuracy,accuracy_std\n")
        for value, trials in zip(values, configs):
            label = value.value if study.field == "strategy" else value
            runs = [run_trial(config) for config in trials]
            acc = np.mean([[r.accuracy for r in m.rows] for m in runs], axis=0)
            std = np.mean([[r.accuracy_std for r in m.rows] for m in runs], axis=0)
            for cycle, (a, s) in enumerate(zip(acc, std), start=1):
                f.write(f"{label},{cycle},{a:.6f},{s:.6f}\n")
            converged = np.mean([m.converged_accuracy() for m in runs])
            print(f"{study.field}={label} converged_accuracy={converged:.6f}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
