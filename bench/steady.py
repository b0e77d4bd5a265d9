#!/usr/bin/env python3
"""Steadiness check: run each workload once per seed, in its own process,
and print every end-to-end metric's median and quartiles next to its bound.

    python3 bench/steady.py --runs 10 [--workload dense-batch] [--save set1.json]
    python3 bench/steady.py --runs 10 --compare set1.json

A metric is steady when the distance between its quartiles, as a share of
its median, stays within its bound from BENCHMARK.json (``setup_s`` is
exempt: it is only compared between sets).  ``--compare`` also checks that
each median is no worse than the saved set's by more than the bound, and
that the share of failed operations is the same.  Exits 1 if a check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr}")
    result = json.loads(lines[-1])
    # keep the run's own summary (every pass and set-up time) with the result
    result["summary"] = [json.loads(line) for line in proc.stderr.splitlines()
                         if line.startswith('{"workload"')]
    return result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workload", action="append", choices=names)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--save", type=Path, default=None)
    p.add_argument("--compare", type=Path, default=None)
    args = p.parse_args(argv)
    if args.runs < 4:
        p.error("--runs must be at least 4 to give quartiles")

    results = {}
    for name in args.workload or names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            r = run_once(name, seed, args.seconds)
            runs.append(r)
            vals = " ".join(f"{m}={v['value']:.4g}" for m, v in r["metrics"].items())
            print(f"{name} seed {seed}: {vals} failed {r['failed']}/{r['attempted']}",
                  flush=True)
        results[name] = runs

    baseline = (json.loads(args.compare.read_text(encoding="utf-8"))
                if args.compare else None)
    ok = True
    print(f"\n{'workload':<12} {'metric':<13} {'median':>10} {'q1':>10} "
          f"{'q3':>10} {'spread':>7} {'bound':>6}" + ("  vs saved" if baseline else ""))
    for name, runs in results.items():
        shares = {r["failed"] / r["attempted"] for r in runs}
        if len(shares) != 1:
            ok = False
            print(f"{name}: failed share differs between runs: {sorted(shares)}")
        for metric in spec["end_to_end"]:
            m, bound = metric["name"], metric["bound"]
            values = [r["metrics"][m]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            line = (f"{name:<12} {m:<13} {med:>10.5g} {q1:>10.5g} {q3:>10.5g} "
                    f"{spread:>7.3f} {bound:>6.3f}")
            if m != "setup_s" and spread > bound:
                ok = False
                line += "  SPREAD OVER BOUND"
            if baseline and name in baseline:
                old = [r["metrics"][m]["value"] for r in baseline[name]]
                old_med = statistics.quantiles(old, n=4)[1]
                change = med / old_med - 1.0
                line += f"  {change:+.3f}"
                if change > bound:
                    ok = False
                    line += " WORSE THAN BOUND"
                old_shares = {r["failed"] / r["attempted"] for r in baseline[name]}
                if old_shares != shares:
                    ok = False
                    line += " FAILED SHARE CHANGED"
            print(line)
    if args.save:
        args.save.parent.mkdir(parents=True, exist_ok=True)
        args.save.write_text(json.dumps(results) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
