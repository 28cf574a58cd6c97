"""Command-line front end: single trials, parameter sweeps, topology export.

`edgeknow run` executes one trial per (sweep value, seed, strategy) and emits
one metrics CSV per run plus a merged summary. `edgeknow topology` emits an
edge list and degree histogram for the similarity-weighted attachment model.
Flags override values from an optional key=value config file; the env var
EDGEKNOW_SEED is the seed fallback.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

from .engine import (
    SimConfig,
    Strategy,
    TrialMetrics,
    check_workload,
    export_workload_csv,
    generate_workload,
    ingest_csv,
    run_trial,
)
from .topology import AttachmentParams, degree_histogram, generate, survival_slope

# CLI flag name -> SimConfig field
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
    "seed": "seed",
}


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v]


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
    run.add_argument("--threads", type=int, default=1)
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


def _read_config_file(path: Path) -> dict[str, str]:
    values = {}
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        values[key.strip()] = value.strip()
    return values


def _resolve_seeds(args) -> list[int]:
    if args.seed is not None:
        return _int_list(args.seed)
    env = os.environ.get("EDGEKNOW_SEED")
    if env:
        return _int_list(env)
    return [0]


def _base_config(args) -> SimConfig:
    values: dict = {}
    if getattr(args, "config", None):
        file_values = _read_config_file(args.config)
        for key, value in file_values.items():
            if key in _FLAG_FIELDS:
                values[_FLAG_FIELDS[key]] = int(value)
            else:
                raise ValueError(f"unknown config key: {key}")
    for flag, fld in _FLAG_FIELDS.items():
        if flag == "seed":
            continue
        arg = getattr(args, flag, None)
        if arg is not None:
            values[fld] = arg
    config = SimConfig(**values)
    attachment = config.attachment
    if args.m0 is not None or args.m is not None:
        attachment = AttachmentParams(
            m0=args.m0 if args.m0 is not None else attachment.m0,
            m=args.m if args.m is not None else attachment.m,
            similarity_floor=attachment.similarity_floor,
        )
        config = replace(config, attachment=attachment)
    return config


def _run_name(param, value, seed, strategy) -> str:
    parts = []
    if param is not None:
        parts.append(f"{param}{value}")
    parts.append(f"seed{seed}")
    parts.append(strategy.value)
    return "run_" + "_".join(parts)


def _execute(job):
    config, workload = job
    return run_trial(config, workload)


def cmd_run(args) -> int:
    try:
        base = _base_config(args)
    except (ValueError, TypeError) as exc:
        print(f"bad config: {exc}", file=sys.stderr)
        return 2
    seeds = _resolve_seeds(args)
    strategies = (
        [Strategy.ABS, Strategy.RANDOM_WALK]
        if args.strategy == "both"
        else [Strategy(args.strategy)]
    )
    sweep_param, sweep_values = None, [None]
    if args.sweep:
        name, _, raw = args.sweep.partition("=")
        if name not in _FLAG_FIELDS or not raw:
            print(f"bad sweep expression: {args.sweep}", file=sys.stderr)
            return 2
        sweep_param, sweep_values = name, _int_list(raw)

    workload = None
    if args.workload_csv:
        try:
            workload = ingest_csv(
                args.workload_csv, base.schema(), node_count=base.node_count
            )
        except ValueError as exc:
            print(f"bad workload: {exc}", file=sys.stderr)
            return 2

    args.out.mkdir(parents=True, exist_ok=True)
    runs = []
    for value in sweep_values:
        for seed in seeds:
            for strategy in strategies:
                config = replace(base, seed=seed, strategy=strategy)
                if sweep_param is not None:
                    config = replace(config, **{_FLAG_FIELDS[sweep_param]: value})
                runs.append((_run_name(sweep_param, value, seed, strategy), value, config))
    if workload is not None:
        for name, _, config in runs:
            try:
                check_workload(config, workload)
            except ValueError as exc:
                print(f"bad workload for {name}: {exc}", file=sys.stderr)
                return 2

    jobs = [(config, workload) for _, _, config in runs]
    if args.threads > 1:
        with ProcessPoolExecutor(max_workers=args.threads) as pool:
            results = list(pool.map(_execute, jobs))
    else:
        results = [_execute(job) for job in jobs]

    violations = 0
    summary_path = args.out / "summary.csv"
    with open(summary_path, "w") as f:
        f.write(
            "name,sweep_param,sweep_value,seed,strategy,converged_accuracy,"
            "mean_regret_last,oracle_violations\n"
        )
        for (name, value, config), metrics in zip(runs, results):
            metrics.write_csv(args.out / f"{name}.csv")
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
    print(f"wrote {len(results)} run CSVs and {summary_path}")
    if violations:
        print(f"oracle violations: {violations}", file=sys.stderr)
        return 1
    return 0


def cmd_topology(args) -> int:
    seeds = _resolve_seeds(args)
    seed = seeds[0]
    n = args.nodes
    limit = args.edge_limit if args.edge_limit > 0 else n
    config = SimConfig(
        node_count=n,
        predicting_var_count=args.predicting,
        vars_trained_per_node=args.trained_per_node,
        observations_per_var=50,
        attachment=AttachmentParams(m0=args.m0, m=args.m),
        edge_limit=limit,
        seed=seed,
    )
    workload = generate_workload(config, seed)
    from .engine import train_pgms

    pgms = train_pgms(workload)
    overlay = generate(config.attachment, pgms, limit, seed)
    args.out.mkdir(parents=True, exist_ok=True)
    overlay.write_edge_list(args.out / "edges.txt")
    overlay.write_degree_csv(args.out / "degree_histogram.csv")
    degrees = [overlay.degree(node) for node in overlay.nodes]
    print(f"nodes={n} edges={len(overlay.edges())} max_degree={max(degrees)}")
    print(f"nodes_at_limit={sum(d == limit for d in degrees)}")
    if overlay.saturation_warnings:
        print(f"saturation_warnings={overlay.saturation_warnings}")
    if overlay.repair_edges:
        print(f"repair_edges={overlay.repair_edges}")
    if args.edge_limit <= 0:
        slope = survival_slope(degrees)
        print(f"loglog_survival_slope={slope:.3f}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
