"""Command-line front end: single trials, parameter sweeps, topology export.

`edgeknow run` executes one trial per (sweep value, seed, strategy) and emits
one metrics CSV per run, a merged summary and seed-mean accuracy curves; a
study is one config file under `studies/` run this way. `edgeknow topology`
emits the edge list and degree histogram of the overlay `setup_trial` grows
for its config, a synthetic workload of 50 observations per trained
variable. Flags override values from an optional key=value config file; the
env var EDGEKNOW_SEED is the seed fallback.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path
from typing import Optional

from .engine import (
    InvalidField,
    SimConfig,
    Strategy,
    ingest_csv,
    run_trial,
    setup_trial,
)
from .topology import AttachmentParams, survival_slope

# CLI flag name -> SimConfig field: the keys `--sweep` takes
_FLAG_FIELDS = {
    "nodes": "node_count",
    "predicting": "predicting_var_count",
    "contexts": "context_var_count",
    "contexts_per_table": "contexts_per_table",
    "combinations": "combinations_pool",
    "trained_per_node": "vars_trained_per_node",
    "observations": "observations_per_var",
    "k": "k_sets",
    "hops": "hop_budget",
    "cycles": "cycles",
    "edge_limit": "edge_limit",
}


def _int_list(text: str) -> list[int]:
    """Distinct comma-separated integers, none empty: a repeated seed or
    sweep value would name two runs alike."""
    try:
        values = [int(v) for v in text.split(",")]
    except ValueError:
        values = []
    if not values:
        raise ValueError(f"expected comma-separated integers, got {text!r}")
    if len(set(values)) < len(values):
        repeated = next(v for v in values if values.count(v) > 1)
        raise ValueError(f"repeated value {repeated} in {text!r}")
    return values


def _seed_list(text: str) -> list[int]:
    seeds = _int_list(text)
    if min(seeds) < 0:
        raise ValueError(f"negative seed {min(seeds)}")
    return seeds


# config file key -> how its value is read: seed, a list as `--seed` takes;
# pseudocount, the one study setting without a flag, a float; a flag, an int
_CONFIG_KEYS = {
    **dict.fromkeys(_FLAG_FIELDS, int), "seed": _seed_list, "pseudocount": float
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgeknow",
        description="Entropy-guided query routing simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a trial or a parameter sweep")
    run.add_argument("--nodes", type=int, help="network size (default 256)")
    run.add_argument("--predicting", type=int, help="number of predicting variables")
    run.add_argument("--contexts", type=int, help="number of context variables")
    run.add_argument("--contexts-per-table", type=int, dest="contexts_per_table")
    run.add_argument("--combinations", type=int, help="context combination pool size")
    run.add_argument("--trained-per-node", type=int, dest="trained_per_node")
    run.add_argument("--observations", type=int, help="observations per trained variable")
    run.add_argument("--k", type=int, help="entropy sets kept per variable")
    run.add_argument("--hops", type=int, help="hop budget (default 2*log2(nodes))")
    run.add_argument("--cycles", type=int)
    run.add_argument(
        "--strategy",
        choices=["abs", "rw", "both"],
        default="abs",
        help="routing strategy; 'both' emits paired runs",
    )
    run.add_argument("--seed", type=str, help="seed or comma list of seeds")
    run.add_argument("--sweep", type=str, help="parameter sweep, e.g. nodes=512,1024")
    run.add_argument("--out", type=Path, default=Path("out"))
    run.add_argument("--workload-csv", type=Path, dest="workload_csv")
    run.add_argument("--edge-limit", type=int, dest="edge_limit")
    run.add_argument("--m0", type=int)
    run.add_argument("--m", type=int)
    run.add_argument("--threads", type=int, default=1, help="max worker processes")
    run.add_argument("--config", type=Path, help="key=value config file")
    run.set_defaults(func=cmd_run)

    topo = sub.add_parser("topology", help="generate and export an overlay")
    topo.add_argument("--nodes", type=int, default=600)
    topo.add_argument(
        "--edge-limit", type=int, dest="edge_limit", default=0,
        help="per-node degree cap; 0 = unlimited",
    )
    topo.add_argument("--m0", type=int, default=4)
    topo.add_argument("--m", type=int, default=3)
    topo.add_argument("--predicting", type=int, default=100)
    topo.add_argument("--trained-per-node", type=int, dest="trained_per_node", default=5)
    topo.add_argument("--seed", type=str)
    topo.add_argument("--out", type=Path, default=Path("out"))
    topo.set_defaults(func=cmd_topology)
    return parser


def _read_config_file(path: Path) -> tuple[dict, dict]:
    """Config file values by key, read as `_CONFIG_KEYS` says; and by key,
    the line that set each. A bad line, or a key given twice, raises
    ValueError naming the file and line; so does a file that is not UTF-8.
    A leading byte-order mark is dropped."""
    try:
        text = path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    values, lines = {}, {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = (part.strip() for part in line.partition("="))
        try:
            if not sep:
                raise ValueError("expected key=value")
            if key not in _CONFIG_KEYS:
                raise ValueError("unknown config key")
            if key in lines:
                raise ValueError(f"repeated key (first at line {lines[key]})")
            values[key] = _CONFIG_KEYS[key](value)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
        lines[key] = lineno
    return values, lines


def _resolve_seeds(
    flag: Optional[str], file_seeds: Optional[list[int]] = None
) -> list[int]:
    """Seeds from `--seed`, else the config file, else EDGEKNOW_SEED, else 0."""
    if flag is None:
        if file_seeds is not None:
            return file_seeds
        flag = os.environ.get("EDGEKNOW_SEED") or "0"
    return _seed_list(flag)


def _base_config(args, file_values: dict, file_lines: dict) -> SimConfig:
    """Config file values overridden by flags; seeds are set per run. A
    rejected value from the file is reported with its line."""
    values = {
        _FLAG_FIELDS.get(key, key): value
        for key, value in file_values.items()
        if key != "seed"
    }
    for flag, fld in _FLAG_FIELDS.items():
        arg = getattr(args, flag, None)
        if arg is not None:
            values[fld] = arg
    default = AttachmentParams()
    attachment = AttachmentParams(
        m0=default.m0 if args.m0 is None else args.m0,
        m=default.m if args.m is None else args.m,
    )
    try:
        return SimConfig(**values, attachment=attachment)
    except InvalidField as exc:
        for key, lineno in file_lines.items():
            field = _FLAG_FIELDS.get(key, key)
            if field == exc.name and getattr(args, key, None) is None:
                # the key names the field unless its flag is named otherwise
                problem = exc.args[1] if key == field else exc
                raise ValueError(f"{args.config}:{lineno}: {key}: {problem}") from None
        raise


def _run_name(param, value, seed, strategy) -> str:
    parts = []
    if param is not None:
        parts.append(f"{param}{value}")
    parts.append(f"seed{seed}")
    parts.append(strategy.value)
    return "run_" + "_".join(parts)


def _make_out_dir(out: Path) -> bool:
    """Create `out` and its parents; False, after one line on stderr, when
    that fails, as when `out` or one of its parents is a file."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"bad --out: {exc}", file=sys.stderr)
        return False
    return True


def _execute(job):
    config, workload = job
    return run_trial(config, workload)


def cmd_run(args) -> int:
    try:
        file_values, file_lines = (
            _read_config_file(args.config) if args.config else ({}, {})
        )
        base = _base_config(args, file_values, file_lines)
        seeds = _resolve_seeds(args.seed, file_values.get("seed"))
        if args.threads < 1:
            raise ValueError(f"--threads must be >= 1, got {args.threads}")
    except (ValueError, TypeError, OSError) as exc:
        print(f"bad config: {exc}", file=sys.stderr)
        return 2
    strategies = (
        [Strategy.ABS, Strategy.RANDOM_WALK]
        if args.strategy == "both"
        else [Strategy(args.strategy)]
    )
    sweep_param, sweep_values = None, [None]
    if args.sweep:
        name, _, raw = args.sweep.partition("=")
        try:
            if not raw:
                raise ValueError("expected <key>=<v1>,<v2>,...")
            if name == "seed":
                raise ValueError("seeds come from --seed, not --sweep")
            if name not in _FLAG_FIELDS:
                raise ValueError(f"sweepable keys are {', '.join(_FLAG_FIELDS)}")
            sweep_param, sweep_values = name, _int_list(raw)
        except ValueError as exc:
            print(f"bad sweep expression {args.sweep!r}: {exc}", file=sys.stderr)
            return 2

    runs = []
    for value in sweep_values:
        for seed in seeds:
            for strategy in strategies:
                name = _run_name(sweep_param, value, seed, strategy)
                config = replace(base, seed=seed, strategy=strategy)
                if sweep_param is not None:
                    try:
                        config = replace(
                            config, **{_FLAG_FIELDS[sweep_param]: value}
                        )
                    except ValueError as exc:
                        print(f"bad config for {name}: {exc}", file=sys.stderr)
                        return 2
                runs.append((name, value, config))
    # each run reads the CSV against its own ranges, once per distinct ranges
    workloads, jobs = {}, []
    for name, _, config in runs:
        key = (config.node_count, config.predicting_var_count, config.context_var_count)
        if args.workload_csv and key not in workloads:
            try:
                workloads[key] = ingest_csv(args.workload_csv, config)
            except (ValueError, OSError) as exc:
                # the reader names the file in every error but a decoding one
                bad = isinstance(exc, UnicodeDecodeError)
                where = f"{args.workload_csv}: " if bad else ""
                print(f"bad workload for {name}: {where}{exc}", file=sys.stderr)
                return 2
        jobs.append((config, workloads.get(key)))

    if not _make_out_dir(args.out):
        return 2
    # the pool starts every worker up front, so never more than there are jobs
    workers = min(args.threads, len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_execute, jobs))
    else:
        results = [_execute(job) for job in jobs]

    violations = 0
    # per (sweep value, strategy), each seed's rows, in run order
    curves: dict[tuple, list] = {}
    summary_path = args.out / "summary.csv"
    with open(summary_path, "w") as f:
        f.write(
            "name,sweep_param,sweep_value,seed,strategy,converged_accuracy,"
            "mean_regret_last,oracle_violations\n"
        )
        for (name, value, config), metrics in zip(runs, results):
            metrics.write_csv(args.out / f"{name}.csv")
            curves.setdefault((value, config.strategy), []).append(metrics.rows)
            violations += metrics.oracle_violations
            tail = metrics.rows[-5:]
            regret = (
                sum(r.mean_regret for r in tail) / len(tail) if tail else 0.0
            )
            f.write(
                f"{name},{sweep_param or ''},{'' if value is None else value},"
                f"{config.seed},{config.strategy.value},"
                f"{metrics.converged_accuracy():.6f},{regret:.6f},"
                f"{metrics.oracle_violations}\n"
            )
    with open(args.out / "curves.csv", "w") as f:
        f.write("sweep_value,strategy,cycle,accuracy,accuracy_std\n")
        for (value, strategy), seed_rows in curves.items():
            for rows in zip(*seed_rows):
                # seed means of the unrounded rows, summed in seed order
                acc = sum(r.accuracy for r in rows) / len(rows)
                std = sum(r.accuracy_std for r in rows) / len(rows)
                f.write(
                    f"{'' if value is None else value},{strategy.value},"
                    f"{rows[0].cycle},{acc:.6f},{std:.6f}\n"
                )
    print(f"wrote {len(results)} run CSVs, {summary_path} and curves.csv")
    if violations:
        print(f"oracle violations: {violations}", file=sys.stderr)
        return 1
    return 0


def cmd_topology(args) -> int:
    n = args.nodes
    limit = args.edge_limit or n
    try:
        if args.edge_limit < 0:
            raise ValueError(
                f"edge_limit must be >= 0 (0 = unlimited), got {args.edge_limit}"
            )
        seed, *more = _resolve_seeds(args.seed)
        if more:
            raise ValueError(f"one edge list takes one seed, got {len(more) + 1}")
        config = SimConfig(
            node_count=n,
            predicting_var_count=args.predicting,
            vars_trained_per_node=args.trained_per_node,
            observations_per_var=50,
            attachment=AttachmentParams(m0=args.m0, m=args.m),
            edge_limit=limit,
            seed=seed,
        )
    except ValueError as exc:
        print(f"bad config: {exc}", file=sys.stderr)
        return 2
    if not _make_out_dir(args.out):
        return 2
    overlay = setup_trial(config).overlay
    overlay.write_edge_list(args.out / "edges.txt")
    overlay.write_degree_csv(args.out / "degree_histogram.csv")
    degrees = overlay.degree.tolist()
    print(f"nodes={n} edges={len(overlay.edges())} max_degree={max(degrees)}")
    # uncapped, the limit is n and no node, of at most n - 1 neighbors, is at it
    if args.edge_limit:
        print(f"nodes_at_limit={sum(d == limit for d in degrees)}")
    if overlay.saturation_warnings:
        print(f"saturation_warnings={overlay.saturation_warnings}")
    if overlay.repair_edges:
        print(f"repair_edges={overlay.repair_edges}")
    if args.edge_limit == 0:
        # a lone seed clique has one distinct degree, and so no slope
        try:
            print(f"loglog_survival_slope={survival_slope(degrees):.3f}")
        except ValueError:
            pass
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
