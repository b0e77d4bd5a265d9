"""Command-line workbench for the solver experiments.

Subcommands: ``synthetic`` (lifted-iterate recovery), ``precon-sweep``
(per-rank error analysis), ``npc`` (curvature monitor over the four-way
preconditioner suite), ``equiv`` (preconditioned vs. reduced solve), and
``deblur`` (a shell over the Kronecker Gaussian-blur experiment in
``imaging``: it writes the images and the PSNR/SSIM table).

Each command returns ``(config, columns, rows, failures)``: the resolved
configuration, its table and the checked properties that fail.  ``main``
alone acts on them: with --csv it writes a versioned CSV whose header
carries the configuration; with --assert it prints the failures, or that
all properties hold, and exits 2 or 0.  Without --assert it exits 0, and
usage or I/O errors exit 1.  All runs are deterministic given --seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .core import COMPLEX_SYMMETRIC, HERMITIAN, DenseOperator, probe_symmetry
from .imaging import (DEBLUR_SOLVERS, SSIM_WINDOW, ImagePlane, deblur_channel,
                      deblur_problem, phantom, psnr, read_image, ssim,
                      write_image)
from .minres_h import SolveOptions, lift, lift_cs, solve, solve_cs
from .npc_monitor import attach, check_monotonicity, verify_identities
from .oracle import pinv
from .pminres import (DenseSubOperator, Preconditioner, psolve_cs, psolve_h,
                      subsolve)
from .precon_factory import (make_npc_matrix, make_npc_suite, make_rank_family,
                             run_error_sweep)
from .synthetic import rand_matrix, rng_for

CSV_SCHEMA = "pinv-minres-csv v1"
EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PROPERTY = 2

KIND_ALIASES = {"hermitian": HERMITIAN, "cs": COMPLEX_SYMMETRIC}


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1; property failures reserve exit code 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fmt(value) -> str:
    if isinstance(value, float):  # numpy float64 included
        return repr(float(value))
    return str(value)


def _write_csv(path: str, config: dict, columns, rows) -> None:
    lines = [CSV_SCHEMA,
             "# config: " + json.dumps(config, sort_keys=True),
             ",".join(columns)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------- synthetic

def _validate_dims(args, d_max):
    if not 1 <= args.d <= d_max:
        raise ValueError(f"--d must be in 1..{d_max} (dense oracle regime)")
    if not 1 <= args.rank <= args.d:
        raise ValueError("--rank must be in 1..d")


def cmd_synthetic(args):
    _validate_dims(args, 512)
    kind = KIND_ALIASES[args.kind]
    a = rand_matrix(kind, args.d, args.rank, args.seed)
    b = np.ones(args.d, dtype=np.complex128)
    op = DenseOperator(a, kind)
    opts = SolveOptions(max_iterations=(4 * args.d if args.max_iter is None
                                        else args.max_iter),
                        record_trace=True, reorthogonalize=args.reorth)
    report = solve_cs(op, b, opts) if kind == COMPLEX_SYMMETRIC else solve(op, b, opts)
    xd = pinv(a) @ b
    nxd = np.linalg.norm(xd)
    lifter = lift_cs if kind == COMPLEX_SYMMETRIC else lift
    rows = []
    for t, (x_t, r_t) in enumerate(zip(report.trace.iterates,
                                       report.trace.residuals), start=1):
        err_plain = float(np.linalg.norm(x_t - xd) / nxd)
        err_lifted = float(np.linalg.norm(lifter(x_t, r_t) - xd) / nxd)
        rows.append((t, err_plain, err_lifted, args.kind))
    config = {"cmd": "synthetic", "d": args.d, "rank": args.rank,
              "kind": args.kind, "seed": args.seed, "reorth": args.reorth,
              "max_iter": opts.max_iterations}
    print(f"synthetic {args.kind}: terminated {report.termination} after "
          f"{report.iterations} iterations; final plain error "
          f"{rows[-1][1]:.3e}, lifted {rows[-1][2]:.3e}")
    failures = []
    if rows[-1][2] > 1e-8:
        failures.append(f"final lifted error {rows[-1][2]:.3e} > 1e-8")
    if args.rank < args.d and rows[-1][1] <= 1e-2:
        failures.append(f"final plain error {rows[-1][1]:.3e} not > 1e-2")
    return config, ("t", "err_plain", "err_lifted", "kind"), rows, failures


# ------------------------------------------------------------- precon sweep

def cmd_precon_sweep(args):
    _validate_dims(args, 512)
    kinds = ([HERMITIAN, COMPLEX_SYMMETRIC] if args.kind == "both"
             else [KIND_ALIASES[args.kind]])
    columns = ("family", "kind", "i", "E_x", "E_x_hat", "E_r", "E_P",
               "norm_Mr", "norm_AMr")
    rows = []
    failures = []
    for kind in kinds:
        a = rand_matrix(kind, args.d, args.rank, args.seed)
        b = np.ones(args.d, dtype=np.complex128)
        a_norm = float(np.linalg.norm(a, 2))
        b_norm = float(np.linalg.norm(b))
        for family_name, source in (("non_range_preserved", "random_psd_svd"),
                                    ("range_preserved", "range_preserved")):
            family = make_rank_family(a, kind, args.seed + 1, source)
            sweep = run_error_sweep(a, b, family, kind)
            mr_scale = max(float(m.sigma.max()) for m in family) * b_norm
            amr_scale = a_norm * mr_scale
            for row in sweep:
                rows.append((family_name, kind, row.rank, row.e_x, row.e_x_hat,
                             row.e_r, row.e_p, row.norm_m_r, row.norm_am_r))
                tag = f"{kind}/{family_name}/i={row.rank}"
                if row.b_holds and row.norm_m_r > 1e-8 * mr_scale:
                    failures.append(f"{tag}: ||M r|| = {row.norm_m_r:.3e}")
                if row.b_holds and row.e_p > 1e-8:
                    failures.append(f"{tag}: E_P = {row.e_p:.3e}")
                if row.a_holds and row.norm_am_r > 1e-8 * amr_scale:
                    failures.append(f"{tag}: ||A M r|| = {row.norm_am_r:.3e}")
                # a range-preserving M of rank >= r lifts to A^+ b
                if (family_name == "range_preserved" and row.rank >= args.rank
                        and row.e_x_hat > 1e-8):
                    failures.append(f"{tag}: E_x_hat = {row.e_x_hat:.3e}")
            if family_name == "range_preserved":
                at_r = [row for row in sweep if row.rank == args.rank]
                if not at_r or at_r[0].e_x > 1e-8:
                    failures.append(f"{kind}/range_preserved: E_x at i=r not ~0")
            elif args.rank < args.d and any(row.e_x <= 1e-3 for row in sweep):
                # only a singular A has a null space for M to miss
                failures.append(f"{kind}/non_range_preserved: E_x <= 1e-3 "
                                "at some rank")
    config = {"cmd": "precon-sweep", "d": args.d, "rank": args.rank,
              "kind": args.kind, "seed": args.seed}
    print(f"precon-sweep: {len(rows)} rows"
          + (f" -> {args.csv}" if args.csv else ""))
    return config, columns, rows, failures


# ---------------------------------------------------------------------- npc

def cmd_npc(args):
    _validate_dims(args, 128)
    if args.rank < 2:
        raise ValueError("--rank must be in 2..d (rank - 1 positive "
                         "eigenvalues and one -1)")
    a, u_plus, u_minus = make_npc_matrix(args.d, args.rank, args.rank - 1,
                                         args.seed)
    suite = make_npc_suite(a, u_plus, u_minus, args.seed + 1)
    op = DenseOperator(a, HERMITIAN)
    b = np.ones(args.d, dtype=np.complex128)
    opts = SolveOptions(max_iterations=4 * args.d, record_trace=True,
                        reorthogonalize=True)
    columns = ("preconditioner", "t", "lambda_min_T", "m_x", "x_b",
               "x_mdag_norm", "phi", "detected_at")
    rows = []
    failures = []
    for name in ("M1", "M2", "M3", "M4"):
        m = suite[name]
        report = psolve_h(op, m, b, opts)
        cert, monot = attach(report, op, m, b)
        det = cert.iteration if cert.detected else -1
        rows.extend((name, t, *row, det) for t, row in enumerate(zip(
            monot.lambda_mins, monot.m_values, monot.xb_values,
            monot.x_mdag_norms, report.trace.phis), 1))
        print(f"{name}: {report.termination} after {report.iterations} "
              f"iterations, NPC at t={det if det > 0 else 'none'}")
        if name == "M4":
            if cert.detected and cert.iteration < report.iterations:
                failures.append(f"{name}: NPC before the final iteration "
                                f"(t={cert.iteration})")
        else:
            if not cert.detected or cert.iteration >= report.iterations:
                failures.append(f"{name}: no NPC strictly before termination")
        for v in check_monotonicity(monot):
            failures.append(f"{name}: monotonicity {v.name} at t={v.iteration}"
                            f" (magnitude {v.magnitude:.3e})")
        for v in verify_identities(monot, report, op, m, b):
            failures.append(f"{name}: identity {v.name} at t={v.iteration}"
                            f" (magnitude {v.magnitude:.3e})")
    config = {"cmd": "npc", "d": args.d, "rank": args.rank,
              "r_plus": args.rank - 1, "seed": args.seed}
    return config, columns, rows, failures


# -------------------------------------------------------------------- equiv

def cmd_equiv(args):
    _validate_dims(args, 512)
    if not 1 <= args.rank_m <= args.d:
        raise ValueError("--rank-m must be in 1..d")
    if args.pairs < 1:
        raise ValueError("--pairs must be at least 1")
    kind = KIND_ALIASES[args.kind]
    rows = []
    failures = []
    for pair in range(args.pairs):
        seed = args.seed + 97 * pair
        a = rand_matrix(kind, args.d, args.rank, seed)
        op = DenseOperator(a, kind)
        rng = rng_for(seed + 1)
        g = rng.standard_normal((args.d, args.d)) + 1j * rng.standard_normal(
            (args.d, args.d))
        q, _ = np.linalg.qr(g)
        p = q[:, :args.rank_m]
        sigma = rng.uniform(0.5, 2.0, args.rank_m)
        m = Preconditioner.from_economy(p, sigma)
        b = rng.standard_normal(args.d) + 1j * rng.standard_normal(args.d)

        opts = SolveOptions(max_iterations=4 * args.d, record_trace=True,
                            reorthogonalize=True)
        psolver = psolve_cs if kind == COMPLEX_SYMMETRIC else psolve_h
        rep = psolver(op, m, b, opts)
        # economy factor and the square PSD root of the same M
        s_eco = m.factor
        root = (p * np.sqrt(sigma)) @ p.conj().T
        s_root = DenseSubOperator(root)
        worst = 0.0
        divergent = None
        for label, s_op in (("economy", s_eco), ("psd_root", s_root)):
            sub = subsolve(op, s_op, b, opts)
            for t, xt_red in enumerate(sub.reduced.trace.iterates, start=1):
                if t > len(rep.trace.iterates):
                    break
                x_sub = s_op.apply(xt_red)
                x_ps = rep.trace.iterates[t - 1]
                rel = float(np.linalg.norm(x_sub - x_ps)
                            / max(np.linalg.norm(x_ps), 1e-300))
                worst = max(worst, rel)
                if rel > 1e-10 and divergent is None:
                    divergent = (label, t, rel)
        if divergent is not None:
            failures.append(f"pair {pair}: {divergent[0]} diverges at "
                            f"t={divergent[1]} (rel {divergent[2]:.3e})")
        rows.append((pair, worst))
        print(f"pair {pair}: worst trace deviation {worst:.3e}")
    if not failures:
        print(f"equiv: {args.pairs} pairs agree to 1e-10")
    config = {"cmd": "equiv", "d": args.d, "rank": args.rank,
              "kind": args.kind, "rank_m": args.rank_m, "pairs": args.pairs,
              "seed": args.seed}
    return config, ("pair", "worst_deviation"), rows, failures


# ------------------------------------------------------------------- deblur

def cmd_deblur(args):
    if args.full_scale:
        args.n, args.bandwidth, args.sigma_blur = 1024, 101, 9.0
    original = read_image(args.image) if args.image else phantom(args.n)
    n = original.size
    # SSIM's window needs at least SSIM_WINDOW pixels a side
    if n < SSIM_WINDOW:
        raise ValueError(f"the image size must be at least {SSIM_WINDOW}")
    if args.bandwidth >= 2 * n:
        raise ValueError("bandwidth too large for the image size")
    problem = deblur_problem(original, args.bandwidth, args.sigma_blur,
                             args.sigma_noise, args.rank_side, args.seed)
    # MINRES and the lifts are only meaningful on the symmetry A declares;
    # probed before the solves so that its vectors do not add to their peak
    symmetric = probe_symmetry(problem["op"])
    recon = {name: [] for name in DEBLUR_SOLVERS}
    for k in range(original.channels):
        for name, x in deblur_channel(problem, k, args.iters).items():
            recon[name].append(np.clip(x.real.reshape(n, n), 0.0, 1.0))
    planes = {"original": original, "blurred": problem["blurred"],
              "noisy": problem["noisy"]}
    planes.update((name, ImagePlane(np.stack(chans, axis=-1)))
                  for name, chans in recon.items())
    os.makedirs(args.outdir, exist_ok=True)
    ext = "pgm" if original.channels == 1 else "ppm"
    for name, plane in planes.items():
        write_image(plane, os.path.join(args.outdir, f"{name}.{ext}"))

    sub_ratio = args.rank_side ** 2 / n ** 2
    clipped_noisy = ImagePlane(np.clip(problem["noisy"].samples, 0.0, 1.0))
    metrics = {name: (psnr(planes[name], original), ssim(planes[name], original))
               for name in DEBLUR_SOLVERS}
    metrics["blurred_noisy"] = (psnr(clipped_noisy, original),
                                ssim(clipped_noisy, original))
    rows = [("blurred_noisy", 1.0, *metrics["blurred_noisy"])]
    for name in DEBLUR_SOLVERS:
        ratio = 1.0 if name in ("minres", "minres_lifted", "lsqr") else sub_ratio
        rows.append((name, ratio, *metrics[name]))
    for name, _, p, s in rows[1:] + rows[:1]:
        print(f"{name:>14s}: PSNR {p:7.3f} dB, SSIM {s:.4f}")

    config = {"cmd": "deblur", "n": n, "bandwidth": args.bandwidth,
              "sigma_blur": args.sigma_blur, "sigma_noise": args.sigma_noise,
              "iters": args.iters, "rank_side": args.rank_side,
              "seed": args.seed, "channels": original.channels,
              "image": args.image or "phantom"}
    failures = []
    if not symmetric:
        failures.append(f"the blur operator is not {problem['op'].kind}")
    if metrics["minres_lifted"][0] < metrics["minres"][0]:
        failures.append("PSNR(lifted minres) < PSNR(minres)")
    for name in DEBLUR_SOLVERS:
        if metrics[name][0] <= metrics["blurred_noisy"][0]:
            failures.append(f"PSNR({name}) <= PSNR(blurred input)")
    if metrics["s1"][0] <= metrics["s2"][0]:
        failures.append("range-aligned S1 does not outperform S2")
    return config, ("solver", "rank_ratio", "psnr", "ssim"), rows, failures


# --------------------------------------------------------------------- main

def _add_common(p, d=20, rank=15):
    p.add_argument("--d", type=int, default=d)
    p.add_argument("--rank", type=int, default=rank)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", type=str, default=None,
                   help="write the data CSV to this path")
    p.add_argument("--assert", dest="assert_properties", action="store_true",
                   help="check the documented properties; exit 2 on failure")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pinv-minres",
                     description="Pseudo-inverse solutions with MINRES: "
                                 "synthetic checks, preconditioner sweeps, "
                                 "curvature monitoring and image deblurring.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synthetic", help="lifted-iterate recovery errors")
    _add_common(p)
    p.add_argument("--kind", choices=("hermitian", "cs"), default="hermitian")
    p.add_argument("--reorth", action="store_true")
    p.add_argument("--max-iter", type=int, default=None)
    p.set_defaults(fn=cmd_synthetic)

    p = sub.add_parser("precon-sweep", help="per-rank preconditioner errors")
    _add_common(p)
    p.add_argument("--kind", choices=("hermitian", "cs", "both"),
                   default="both")
    p.set_defaults(fn=cmd_precon_sweep)

    p = sub.add_parser("npc", help="curvature monitor over the M1..M4 suite")
    _add_common(p)
    p.set_defaults(fn=cmd_npc)

    p = sub.add_parser("equiv", help="preconditioned vs reduced solve traces")
    _add_common(p)
    p.add_argument("--kind", choices=("hermitian", "cs"), default="hermitian")
    p.add_argument("--rank-m", type=int, default=10)
    p.add_argument("--pairs", type=int, default=5)
    p.set_defaults(fn=cmd_equiv)

    p = sub.add_parser("deblur", help="Kronecker Gaussian-blur pipeline")
    p.add_argument("--image", type=str, default=None,
                   help="input PGM/PPM; a synthetic pattern is used if omitted")
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--bandwidth", type=int, default=9)
    p.add_argument("--sigma-blur", type=float, default=2.0)
    p.add_argument("--sigma-noise", type=float, default=1e-2)
    p.add_argument("--iters", type=int, default=30)
    p.add_argument("--rank-side", type=int, default=16,
                   help="side rank r of the C factors (rank-ratio r^2/n^2)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--outdir", type=str, default="deblur-output")
    p.add_argument("--csv", type=str, default=None)
    p.add_argument("--full-scale", action="store_true",
                   help="full-size preset n=1024, bandwidth=101, sigma=9")
    p.add_argument("--assert", dest="assert_properties", action="store_true")
    p.set_defaults(fn=cmd_deblur)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config, columns, rows, failures = args.fn(args)
        if args.csv:
            _write_csv(args.csv, config, columns, rows)
    except (OSError, ValueError) as exc:
        print(f"pinv-minres: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not args.assert_properties:
        return EXIT_OK
    print("\n".join(f"FAIL {msg}" for msg in failures)
          or "all asserted properties hold")
    return EXIT_PROPERTY if failures else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
