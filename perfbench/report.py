"""Human-facing views of benchmark runs. Each run is a fresh `run.py` process.

    # every end-to-end and per-layer metric, with unit and direction
    python3 perfbench/report.py metrics --workload steady-256 --seed 0

    # spread of the end-to-end metrics over seeds, against their bounds
    python3 perfbench/report.py sweep --workload pool-256 --seeds 0-9

`sweep --json FILE` also writes the per-seed values and quartiles, the form
of `perfbench/baseline.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(lines[-1])


def cmd_metrics(args) -> int:
    missing = []
    ok = True
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        result = run(args.workload, args.seed, args.seconds, trace)
        ok &= result["correct"] and result["failed"] == 0
        print(f"# {group}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for spec in SPEC[group]:
            got = result["metrics"].get(spec["name"])
            if got is None:
                missing.append(spec["name"])
                continue
            print(f"{spec['name']:<42} {got['value']:>16.6g} "
                  f"{spec['unit']:<6} {spec['better']}")
    if missing:
        print(f"missing metrics: {', '.join(missing)}", file=sys.stderr)
    return 0 if ok and not missing else 1


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def cmd_sweep(args) -> int:
    seeds = parse_seeds(args.seeds)
    results = []
    for seed in seeds:
        r = run(args.workload, seed, args.seconds, 0)
        results.append(r)
        print(f"seed {seed}: correct={r['correct']} "
              + " ".join(f"{k}={v['value']:.5g}" for k, v in r["metrics"].items()),
              flush=True)
    ok = all(r["correct"] for r in results)
    summary = {}
    for spec in SPEC["end_to_end"]:
        values = [r["metrics"][spec["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        summary[spec["name"]] = dict(
            unit=spec["unit"], better=spec["better"], median=med, q1=q1, q3=q3,
            spread=spread, bound=spec["bound"], values=values)
        flag = "" if spec["name"] == "setup_s" or spread <= spec["bound"] / 3 else "  WIDE"
        print(f"{spec['name']:<16} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
              f"spread {spread:.4f} (bound {spec['bound']}){flag}")
    if args.json:
        Path(args.json).write_text(json.dumps({
            "workload": args.workload, "seeds": seeds, "seconds": args.seconds,
            "machine": machine(), "metrics": summary}, indent=1) + "\n")
    return 0 if ok else 1


def machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "platform": platform.platform()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    for name in ("metrics", "sweep"):
        s = sub.add_parser(name)
        s.add_argument("--workload", required=True)
        s.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    sub.choices["metrics"].add_argument("--seed", type=int, default=0)
    sub.choices["sweep"].add_argument("--seeds", default="0-9")
    sub.choices["sweep"].add_argument("--json")
    args = p.parse_args(argv)
    return cmd_metrics(args) if args.cmd == "metrics" else cmd_sweep(args)


if __name__ == "__main__":
    sys.exit(main())
