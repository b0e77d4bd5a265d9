#!/usr/bin/env python3
"""Benchmark of pinv-minres on two workloads.

One workload per process:

    python3 bench/run.py --workload dense-batch --seed 1 --seconds 50 --trace 0

prints the end-to-end metrics (``setup_s``, ``pass_s``, ``peak_rss_mib``) as
the last line of standard output; with ``--trace 1`` it prints the per-layer
metrics instead and writes every layer's entry to a BENCH JSON file.  Every
workload in its own process, untraced and traced:

    python3 bench/run.py --all [--seconds 50]

and the quick tier of the same, in well under a minute:

    python3 bench/run.py --all --quick --seconds 0.1

See bench/README.md for the workloads, the checks and reference figures.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
THREADS = 1                 # BLAS/OpenMP threads; at most nproc
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOAD_NAMES = ("deblur-n256", "dense-batch")

END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("peak_rss_mib", "MiB"))


@dataclass(frozen=True)
class Plan:
    setups: int             # set-ups per run: at least this many ...
    setup_seconds: float    # ... and until this long has been spent
    warmup: bool            # one untimed pass before the timed ones
    min_passes: int         # timed passes of each kind, even past --seconds


FULL = Plan(setups=5, setup_seconds=1.0, warmup=True, min_passes=3)
QUICK = Plan(setups=1, setup_seconds=0.0, warmup=False, min_passes=1)

# per-layer metric -> (layer, field, unit); see bench/README.md for the
# end-to-end metric and workload each one should move
PER_LAYER = {
    "core.kron_apply.calls": ("core.kron_apply", "calls", "count"),
    "core.kron_apply.s": ("core.kron_apply", "s", "s"),
    "core.kron_apply.bytes": ("core.kron_apply", "bytes", "B"),
    "core.dense_apply.calls": ("core.dense_apply", "calls", "count"),
    "core.dense_apply.s": ("core.dense_apply", "s", "s"),
    "minres_h.solve.s": ("minres_h.solve", "s", "s"),
    "minres_h.solve.self_s": ("minres_h.solve", "self_s", "s"),
    "minres_h.solve.iterations": ("minres_h.solve", "iterations", "count"),
    "minres_cs.solve_cs.s": ("minres_cs.solve_cs", "s", "s"),
    "minres_cs.solve_cs.self_s": ("minres_cs.solve_cs", "self_s", "s"),
    "minres_cs.solve_cs.iterations": ("minres_cs.solve_cs", "iterations", "count"),
    "pminres.psolve.s": ("pminres.psolve", "s", "s"),
    "pminres.psolve.self_s": ("pminres.psolve", "self_s", "s"),
    "pminres.psolve.iterations": ("pminres.psolve", "iterations", "count"),
    "pminres.precon_apply.calls": ("pminres.precon_apply", "calls", "count"),
    "pminres.precon_apply.s": ("pminres.precon_apply", "s", "s"),
    "pminres.reorth.calls": ("pminres.reorth", "calls", "count"),
    "pminres.reorth.s": ("pminres.reorth", "s", "s"),
    "pminres.subop_apply.calls": ("pminres.subop_apply", "calls", "count"),
    "pminres.subop_apply.s": ("pminres.subop_apply", "s", "s"),
    "pminres.subsolve.s": ("pminres.subsolve", "s", "s"),
    "pminres.subsolve.products_per_iteration":
        ("pminres.subsolve", "products_per_iteration", "count/iter"),
    "minres_h.lift.s": ("minres_h.lift", "s", "s"),
    "minres_cs.lift_cs.s": ("minres_cs.lift_cs", "s", "s"),
    "pminres.plift.s": ("pminres.plift", "s", "s"),
    "pminres.sublift.s": ("pminres.sublift", "s", "s"),
    "baselines.lsqr.s": ("baselines.lsqr", "s", "s"),
    "baselines.lsqr.products": ("baselines.lsqr", "matvecs", "count"),
    "baselines.tsvd.s": ("baselines.tsvd", "s", "s"),
    "imaging.ssim.calls": ("imaging.ssim", "calls", "count"),
    "imaging.ssim.s": ("imaging.ssim", "s", "s"),
    "imaging.psnr.s": ("imaging.psnr", "s", "s"),
    "npc_monitor.attach.s": ("npc_monitor.attach", "s", "s"),
    "npc_monitor.verify_identities.s": ("npc_monitor.verify_identities", "s", "s"),
    "npc_monitor.check_monotonicity.s": ("npc_monitor.check_monotonicity", "s", "s"),
    "oracle.hermitian_eig.calls": ("oracle.hermitian_eig", "calls", "count"),
    "oracle.hermitian_eig.s": ("oracle.hermitian_eig", "s", "s"),
    "oracle.takagi.calls": ("oracle.takagi", "calls", "count"),
    "oracle.takagi.s": ("oracle.takagi", "s", "s"),
    "synthetic.rand_matrix.s": ("synthetic.rand_matrix", "s", "s"),
    "precon_factory.make_npc_matrix.s": ("precon_factory.make_npc_matrix", "s", "s"),
    "precon_factory.make_npc_suite.s": ("precon_factory.make_npc_suite", "s", "s"),
    "process.minor_faults": ("process", "minor_faults", "count"),
    "process.cpu_s": ("process", "cpu_s", "s"),
    "process.sys_s": ("process", "sys_s", "s"),
    "trace.pass_s": ("trace", "pass_s", "s"),
    "trace.overhead_s": ("trace", "overhead_s", "s"),
}


def pin_threads() -> None:
    """Fix the BLAS/OpenMP thread count; must run before numpy is imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("thread count must be pinned before importing numpy")
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)


def import_library():
    """Put this checkout's ``src`` first on the path and import from it."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import pinv_minres
    if Path(pinv_minres.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"pinv_minres was imported from {pinv_minres.__file__}, "
                          f"not from {src}")
    return pinv_minres


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"threads": THREADS, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "cpu": cpu}


def pass_time(times: list) -> float:
    """A run's ``pass_s``: the 85th percentile of its pass times.

    A shared host may run at its usual speed most of the time, with
    bursts up to 1.8x faster and, less often, a few passes that are much
    slower.  The median pass lands in whichever state held for more than
    half of the run, so it jumps between runs; the 85th percentile stays at
    the usual speed unless fast bursts fill most of the run, and it passes
    over the slowest few passes (bench/README.md, Noise control).
    """
    if len(times) < 2:
        return times[0]
    return statistics.quantiles(times, n=20, method="inclusive")[16]


def _usage():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_minflt, ru.ru_utime, ru.ru_stime


def _layer_values(rounds: list) -> dict:
    """Median over rounds of every layer's fields (a layer absent from a
    round counts as zero there)."""
    layers = sorted({name for r in rounds for name in r})
    out = {}
    for name in layers:
        fields = {}
        for field in ("calls", "s", "self_s", "matvecs", "precon_applies",
                      "subop_applies", "iterations", "bytes"):
            fields[field] = statistics.median(
                getattr(r[name], field) if name in r else 0 for r in rounds)
        fields["products_per_iteration"] = (
            (fields["matvecs"] + fields["subop_applies"]) / fields["iterations"]
            if fields["iterations"] else 0)
        out[name] = fields
    return out


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, ops: list) -> None:
        for name, ok, detail in ops:
            self.attempted += 1
            if not ok:
                self.failed += 1
                print(f"FAILED {name}: {detail}", file=sys.stderr)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 out_path: Path | None, plan: Plan = FULL) -> dict:
    import numpy as np  # noqa: F401  (imported after the threads are pinned)
    from tracer import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    tracer = Tracer()
    tally = Tally()

    # the previous set-up's state and pass's outputs are dropped before the
    # next one is made, so the peak resident set is that of one of each
    setup_times, setup_rounds, state = [], [], None
    while len(setup_times) < plan.setups or sum(setup_times) < plan.setup_seconds:
        state = None
        gc.collect()
        if trace:
            with tracer.installed():
                t0 = time.perf_counter()
                state = wl.setup(seed)
                setup_times.append(time.perf_counter() - t0)
            setup_rounds.append(tracer.round())
        else:
            t0 = time.perf_counter()
            state = wl.setup(seed)
            setup_times.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    ref = wl.reference(state)
    reference_s = time.perf_counter() - t0

    if plan.warmup:
        tally.add(wl.check(state, ref, wl.run_pass(state)))

    untraced, traced, pass_rounds, usage = [], [], [], []
    deadline = time.perf_counter() + seconds
    k = 0
    while (time.perf_counter() < deadline or len(untraced) < plan.min_passes
           or (trace and len(traced) < plan.min_passes)):
        # a traced run alternates untraced and traced passes, so the
        # overhead compares passes made under the same conditions
        traced_pass = trace and k % 2 == 1
        k += 1
        out = None
        gc.collect()
        if traced_pass:
            with tracer.installed():
                t0 = time.perf_counter()
                out = wl.run_pass(state)
                traced.append(time.perf_counter() - t0)
            pass_rounds.append(tracer.round())
        else:
            u0 = _usage()
            t0 = time.perf_counter()
            out = wl.run_pass(state)
            untraced.append(time.perf_counter() - t0)
            u1 = _usage()
            usage.append([b - a for a, b in zip(u0, u1)])
        tally.add(wl.check(state, ref, out))

    # ru_maxrss is in KiB on Linux
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    env = environment()
    pass_s = pass_time(untraced)
    summary = {"workload": name, "seed": seed, "setup_s": setup_times,
               "reference_s": reference_s, "passes": len(untraced),
               "pass_s_each": untraced, "env": env}
    print(json.dumps(summary), file=sys.stderr)
    if not trace:
        metrics = {"setup_s": statistics.median(setup_times),
                   "pass_s": pass_s, "peak_rss_mib": peak_rss_mib}
        units = dict(END_TO_END)
    else:
        layers = _layer_values(pass_rounds)
        for lname, fields in _layer_values(setup_rounds).items():
            cur = layers.setdefault(lname, dict.fromkeys(fields, 0))
            for field, value in fields.items():
                cur[field] += value
        layers["process"] = {
            "minor_faults": statistics.median(u[0] for u in usage),
            "cpu_s": statistics.median(u[1] for u in usage),
            "sys_s": statistics.median(u[2] for u in usage)}
        layers["trace"] = {"pass_s": pass_time(traced),
                           "overhead_s": pass_time(traced) - pass_s}
        metrics, units = {}, {}
        for metric, (lname, field, unit) in PER_LAYER.items():
            metrics[metric] = layers.get(lname, {}).get(field, 0)
            units[metric] = unit
        if out_path is not None:
            write_bench(out_path, name, seed, env, layers, len(setup_rounds),
                        len(pass_rounds), untraced, setup_times)
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {m: {"value": v, "unit": units[m]}
                        for m, v in metrics.items()}}


def write_bench(path: Path, case: str, seed: int, env: dict, layers: dict,
                setup_repeats: int, pass_repeats: int, untraced: list,
                setup_times: list) -> None:
    """BENCH entries: {case, layer, median_s, repeats, matvecs,
    precon_applies, env} plus the layer's other fields.  A layer's figures
    are per set-up plus per pass; the end-to-end ``pass_s`` entry also
    carries the reported 85th percentile as ``p85_s``."""
    entries = [{"case": case, "layer": "end_to_end.pass_s",
                "median_s": statistics.median(untraced),
                "p85_s": pass_time(untraced), "repeats": len(untraced),
                "matvecs": None, "precon_applies": None,
                "seed": seed, "env": env},
               {"case": case, "layer": "end_to_end.setup_s",
                "median_s": statistics.median(setup_times),
                "repeats": setup_repeats, "matvecs": None,
                "precon_applies": None, "seed": seed, "env": env}]
    for lname, fields in sorted(layers.items()):
        if lname in ("process", "trace"):
            entry = {"case": case, "layer": lname, "median_s": None,
                     "repeats": pass_repeats, "matvecs": None,
                     "precon_applies": None, **fields}
        else:
            entry = {"case": case, "layer": lname, "median_s": fields["s"],
                     "repeats": pass_repeats, **fields}
        entry.update(seed=seed, env=env)
        entries.append(entry)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(entries, indent=1) + "\n", encoding="ascii")


def run_all(seed: int, seconds: float, out_path: Path, quick: bool) -> int:
    """Every workload in its own process, untraced then traced; the traced
    entries are merged into ``out_path``."""
    entries, status = [], 0
    for name in WORKLOAD_NAMES:
        part = out_path.with_name(f"{out_path.stem}.{name}.json")
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
                   name, "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(trace), "--out", str(part)]
            if quick:
                cmd.append("--quick")
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit {proc.returncode}")
                status = 1
                continue
            result = json.loads(lines[-1])
            print(f"{name} trace={trace}: attempted {result['attempted']}, "
                  f"failed {result['failed']}, correct {result['correct']}")
            for metric, mv in result["metrics"].items():
                print(f"  {metric:<42s} {mv['value']:.6g} {mv['unit']}")
            status |= result["failed"] != 0 or not result["correct"]
        if part.exists():
            entries.extend(json.loads(part.read_text(encoding="ascii")))
            part.unlink()
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(entries, indent=1) + "\n", encoding="ascii")
    print(f"wrote {out_path}")
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--all", action="store_true",
                   help="run every workload, untraced and traced, each in "
                        "its own process")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="quick tier: one set-up, no warm-up, one pass of "
                        "each kind")
    p.add_argument("--out", type=Path, default=None,
                   help="BENCH JSON file for the traced run (default: "
                        "bench/out/BENCH_<workload>.json)")
    args = p.parse_args(argv)
    if args.all == (args.workload is not None):
        p.error("give exactly one of --workload and --all")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.all:
        return run_all(args.seed, args.seconds,
                       args.out or BENCH_DIR / "out" / "BENCH_all.json",
                       args.quick)
    pin_threads()
    import_library()
    sys.path.insert(0, str(BENCH_DIR))
    out_path = args.out or BENCH_DIR / "out" / f"BENCH_{args.workload}.json"
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), out_path,
                          QUICK if args.quick else FULL)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
