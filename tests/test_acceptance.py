"""Acceptance suite: each test checks one release criterion at its stated
tolerance and prints a single PASS/FAIL line (run with ``pytest -s`` to see
them)."""

import time

import numpy as np

from conftest import rel_err
from pinv_minres.cli import EXIT_OK, main
from pinv_minres.core import (COMPLEX_SYMMETRIC, HERMITIAN, SKEW_HERMITIAN,
                              DenseOperator)
from pinv_minres.minres_h import (SolveOptions, lift, lift_cs, solve, solve_cs,
                                  solve_skew)
from pinv_minres.npc_monitor import (attach, check_monotonicity,
                                     verify_identities)
from pinv_minres.oracle import (check_rank_assumptions, hermitian_eig,
                                lifted_problem_pinv, pinv, takagi)
from pinv_minres.pminres import (DenseSubOperator, Preconditioner, plift,
                                 psolve_cs, psolve_h, subsolve)
from pinv_minres.precon_factory import (make_npc_matrix, make_npc_suite,
                                        make_rank_family)
from pinv_minres.synthetic import (rand_complex_symmetric, rand_hermitian,
                                   rand_skew_hermitian, rng_for)
from reference import grade, verify_moore_penrose

REORTH = SolveOptions(reorthogonalize=True)


def _finish(num, name, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {status}")
    assert not failures, f"criterion {num}: " + "; ".join(failures[:5])


def _recovery_sweep(kind, solver, lifter, seed0, count=200):
    """Lifted final iterate equals the dense pseudo-inverse solution to
    1e-8 relative on every instance; the unlifted iterate misses on at
    least 95 percent of them."""
    failures = []
    unlifted_violations = 0
    for k in range(count):
        rng = rng_for(seed0 + k)
        d = int(rng.integers(5, 31))
        r = int(rng.integers(1, d))
        if kind == HERMITIAN:
            a = rand_hermitian(d, r, seed0 + 10_000 + k)
        elif kind == COMPLEX_SYMMETRIC:
            a = rand_complex_symmetric(d, r, seed0 + 10_000 + k)
        else:
            a = rand_skew_hermitian(d, r, seed0 + 10_000 + k)
        b = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        rep = solver(DenseOperator(a, kind), b, REORTH)
        lifted = lifter(rep.x, rep.r)
        xd = pinv(a) @ b
        err = rel_err(lifted, xd)
        if err > 1e-8:
            failures.append(f"seed {seed0 + k}: lifted error {err:.2e}")
        if rel_err(rep.x, xd) > 1e-8:
            unlifted_violations += 1
    if unlifted_violations < 0.95 * count:
        failures.append(f"unlifted violated only {unlifted_violations}/{count}")
    return failures


def test_criterion_1_hermitian_recovery():
    t0 = time.perf_counter()
    failures = _recovery_sweep(HERMITIAN, solve, lift, seed0=11_000)
    elapsed = time.perf_counter() - t0
    if elapsed > 10.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 10s")
    _finish(1, "Hermitian pseudo-inverse recovery", failures)


def test_criterion_2_complex_symmetric_and_skew_recovery():
    failures = _recovery_sweep(COMPLEX_SYMMETRIC, solve_cs, lift_cs,
                               seed0=12_000)
    failures += _recovery_sweep(SKEW_HERMITIAN, solve_skew, lift,
                                seed0=13_000)
    _finish(2, "complex-symmetric and skew-Hermitian recovery", failures)


def test_criterion_3_closed_form_preconditioned_example():
    a = DenseOperator(np.diag([1.0, 0.0]), HERMITIAN)
    root = np.array([[2.0, 1.0], [1.0, 1.0]])
    m2 = root @ root
    m = Preconditioner(2, lambda v: m2 @ v)
    b = np.array([1.0, 1.0], dtype=complex)
    lifted = plift(psolve_h(a, m, b))
    failures = []
    if np.abs(lifted - np.array([1.6, 0.96])).max() > 1e-10:
        failures.append(f"iterate {lifted} != [1.6, 0.96]")
    residual = b - a.apply(lifted)
    if np.abs(residual - np.array([-0.6, 1.0])).max() > 1e-10:
        failures.append(f"residual {residual} != [-0.6, 1]")
    _finish(3, "closed-form preconditioned example", failures)


def test_criterion_4_range_matched_corollaries():
    failures = []
    for k in range(50):
        rng = rng_for(14_000 + k)
        d = int(rng.integers(6, 21))
        r = int(rng.integers(2, d))
        sigma = rng.uniform(0.5, 2.0, r)
        b = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        scale = float(sigma.max()) * np.linalg.norm(b)

        a = rand_hermitian(d, r, 14_500 + k)
        m = Preconditioner.from_economy(hermitian_eig(a).u, sigma)
        rep = psolve_h(DenseOperator(a, HERMITIAN), m, b, REORTH)
        if np.linalg.norm(rep.r_hat) > 1e-8 * scale:
            failures.append(f"H seed {k}: ||r_hat|| = "
                            f"{np.linalg.norm(rep.r_hat):.2e}")
        if rel_err(rep.x, pinv(a) @ b) > 1e-8:
            failures.append(f"H seed {k}: x_g misses A^+ b")

        acs = rand_complex_symmetric(d, r, 14_700 + k)
        # rg(conj(M)) = rg(A) needs P = conj(U) for the Takagi basis U
        mcs = Preconditioner.from_economy(np.conj(takagi(acs).u), sigma)
        rep = psolve_cs(DenseOperator(acs, COMPLEX_SYMMETRIC), mcs, b, REORTH)
        if np.linalg.norm(rep.r_hat) > 1e-8 * scale:
            failures.append(f"CS seed {k}: ||r_hat|| = "
                            f"{np.linalg.norm(rep.r_hat):.2e}")
        if rel_err(rep.x, pinv(acs) @ b) > 1e-8:
            failures.append(f"CS seed {k}: x_g misses A^+ b")
    _finish(4, "range-matched corollaries", failures)


def test_criterion_5_rank_assumption_theorems():
    failures = []
    d, r = 20, 15
    opts = SolveOptions(max_iterations=4 * d, reorthogonalize=True)
    for kind, gen in ((HERMITIAN, rand_hermitian),
                      (COMPLEX_SYMMETRIC, rand_complex_symmetric)):
        a = gen(d, r, seed=15_000 if kind == HERMITIAN else 15_001)
        b = np.ones(d, dtype=complex)
        a_norm = np.linalg.norm(a, 2)
        xd = pinv(a) @ b
        family = make_rank_family(a, kind, 15_100, "range_preserved")
        psolver = psolve_h if kind == HERMITIAN else psolve_cs
        for i, m in enumerate(family, start=1):
            rep = psolver(DenseOperator(a, kind), m, b, opts)
            p = m.p
            flags = check_rank_assumptions(a, p, kind)
            scale = float(m.sigma.max()) * np.linalg.norm(b)
            tag = f"{kind} i={i}"
            rhat = rep.r_hat
            a_rhat = np.conj(a) @ rhat if kind == COMPLEX_SYMMETRIC else a @ rhat
            if flags["a_holds"] and np.linalg.norm(a_rhat) > 1e-8 * scale * a_norm:
                failures.append(f"{tag}: ||A r_hat|| = "
                                f"{np.linalg.norm(a_rhat):.2e}")
            if flags["b_holds"]:
                if np.linalg.norm(rhat) > 1e-8 * scale:
                    failures.append(f"{tag}: ||r_hat|| = "
                                    f"{np.linalg.norm(rhat):.2e}")
                target = lifted_problem_pinv(a, p, b, kind)
                if rel_err(plift(rep), target) > 1e-8:
                    failures.append(f"{tag}: plift misses projected inverse")
            e_x = rel_err(rep.x, xd)
            if i == r and e_x > 1e-8:
                failures.append(f"{tag}: E_x = {e_x:.2e} at i = r")
            if i != r and e_x <= 1e-8:
                failures.append(f"{tag}: unexpected exact recovery")
    _finish(5, "rank-assumption theorems over the range-preserved family",
            failures)


def test_criterion_6_algorithm_equivalence():
    failures = []
    opts = SolveOptions(max_iterations=80, record_trace=True)
    for kind, gen, psolver in ((HERMITIAN, rand_hermitian, psolve_h),
                               (COMPLEX_SYMMETRIC, rand_complex_symmetric,
                                psolve_cs)):
        for k in range(20):
            rng = rng_for(16_000 + k)
            d = 20
            r = int(rng.integers(5, 13))
            m_rank = int(rng.integers(r + 2, d + 1))
            a = gen(d, r, 16_500 + k)
            q, _ = np.linalg.qr(rng.standard_normal((d, d))
                                + 1j * rng.standard_normal((d, d)))
            sigma = rng.uniform(0.5, 2.0, m_rank)
            m = Preconditioner.from_economy(q[:, :m_rank], sigma)
            b = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            rep = psolver(DenseOperator(a, kind), m, b, opts)
            root = (q[:, :m_rank] * np.sqrt(sigma)) @ q[:, :m_rank].conj().T
            traces = []
            for s_op in (m.factor, DenseSubOperator(root)):
                sub = subsolve(DenseOperator(a, kind), s_op, b, opts, kind)
                xs = [s_op.apply(xt) for xt in sub.reduced.trace.iterates]
                traces.append(xs)
                for t, x_sub in enumerate(xs):
                    if t >= len(rep.trace.iterates):
                        break
                    x_ps = rep.trace.iterates[t]
                    dev = np.linalg.norm(x_sub - x_ps) / \
                        max(np.linalg.norm(x_ps), 1e-300)
                    if dev > 1e-10:
                        failures.append(f"{kind} pair {k}: psolve/subsolve "
                                        f"deviate {dev:.2e} at t={t + 1}")
                        break
            for t in range(min(len(traces[0]), len(traces[1]))):
                dev = np.linalg.norm(traces[0][t] - traces[1][t]) / \
                    max(np.linalg.norm(traces[0][t]), 1e-300)
                if dev > 1e-10:
                    failures.append(f"{kind} pair {k}: factorizations "
                                    f"deviate {dev:.2e} at t={t + 1}")
                    break
    _finish(6, "preconditioned vs reduced solve equivalence", failures)


def test_criterion_7_npc_suite():
    failures = []
    a, u_plus, u_minus = make_npc_matrix(d=20, rank=15, r_plus=14, seed=0)
    suite = make_npc_suite(a, u_plus, u_minus, seed=1)
    op = DenseOperator(a, HERMITIAN)
    b = np.ones(20, dtype=complex)
    opts = SolveOptions(max_iterations=80, record_trace=True,
                        reorthogonalize=True)
    for name in ("M1", "M2", "M3", "M4"):
        m = suite[name]
        rep = psolve_h(op, m, b, opts)
        cert, monot = attach(rep, op, m, b)
        if name == "M4":
            if cert.detected and cert.iteration < rep.iterations:
                failures.append(f"M4 detects NPC at t={cert.iteration} "
                                f"before termination {rep.iterations}")
        elif not cert.detected or cert.iteration >= rep.iterations:
            failures.append(f"{name} fails to detect NPC before termination")
        for v in check_monotonicity(monot):
            failures.append(f"{name}: {v.name} at t={v.iteration}")
        for v in verify_identities(monot, rep, op, m, b):
            failures.append(f"{name}: {v.name} at t={v.iteration}")
    _finish(7, "NPC detection and pre-detection monotonicity", failures)


def test_criterion_8_reorthogonalization():
    failures = []
    d, iters = 40, 35
    a = rand_hermitian(d, d - 4, seed=17_000)
    rng = rng_for(17_001)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    m = Preconditioner.from_economy(q[:, :d - 2].astype(complex),
                                    rng.uniform(0.5, 2.0, d - 2))
    b = rng.standard_normal(d) + 0j
    sh = m.factor.s.conj().T

    def max_offdiag(reorth):
        opts = SolveOptions(max_iterations=iters, record_trace=True,
                            reorthogonalize=reorth)
        rep = psolve_h(DenseOperator(a, HERMITIAN), m, b, opts)
        if rep.iterations != iters:
            failures.append(f"reorth={reorth} stopped at {rep.iterations} "
                            f"< {iters} iterations")
        # the implied reduced-space Lanczos vectors S^H v_t
        v = np.stack([sh @ vt for vt in rep.trace.basis], axis=1)
        gram = v.conj().T @ v
        return np.abs(gram - np.diag(np.diag(gram))).max()

    off_with = max_offdiag(True)
    off_without = max_offdiag(False)
    if off_with > 1e-10:
        failures.append(f"reorthogonalized loss {off_with:.2e} > 1e-10")
    if off_without <= off_with:
        failures.append("orthogonality loss without reorthogonalization is "
                        "not strictly larger")
    _finish(8, "reorthogonalization quality", failures)


def test_criterion_9_deblurring_desk_scale(tmp_path):
    t0 = time.perf_counter()
    code = main(["deblur", "--n", "64", "--bandwidth", "9",
                 "--sigma-blur", "2.0", "--sigma-noise", "1e-2",
                 "--iters", "30", "--rank-side", "16", "--seed", "0",
                 "--outdir", str(tmp_path / "out"),
                 "--csv", str(tmp_path / "deblur.csv"), "--assert"])
    elapsed = time.perf_counter() - t0
    failures = []
    if code != EXIT_OK:
        failures.append(f"deblur --assert exited with {code}")
    if elapsed > 30.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 30s")
    _finish(9, "desk-scale deblurring properties", failures)


def test_criterion_10_oracle_self_consistency():
    failures = []
    for k in range(50):
        rng = rng_for(18_000 + k)
        d = int(rng.integers(4, 26))
        r = int(rng.integers(1, d + 1))
        a = rand_hermitian(d, r, 18_100 + k)
        ok, res = verify_moore_penrose(a, pinv(a))
        if not ok:
            failures.append(f"H seed {k}: Moore-Penrose defect {res}")
        acs = rand_complex_symmetric(d, r, 18_200 + k)
        ok, res = verify_moore_penrose(acs, pinv(acs))
        if not ok:
            failures.append(f"CS seed {k}: Moore-Penrose defect {res}")
        dec = takagi(acs)
        recon = (dec.u * dec.values) @ dec.u.T
        if np.linalg.norm(recon - acs) > 1e-8 * np.linalg.norm(acs):
            failures.append(f"CS seed {k}: Takagi reconstruction")
    for k in range(100):
        rng = rng_for(18_300 + k)
        d = int(rng.integers(4, 26))
        r = int(rng.integers(1, d))
        b = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        if k % 2 == 0:
            a = rand_hermitian(d, r, 18_400 + k)
            rep = solve(DenseOperator(a, HERMITIAN), b, REORTH)
            g = grade(a, b, HERMITIAN)
        else:
            a = rand_complex_symmetric(d, r, 18_400 + k)
            rep = solve_cs(DenseOperator(a, COMPLEX_SYMMETRIC), b, REORTH)
            g = grade(a, b, COMPLEX_SYMMETRIC)
        if rep.grade != g:
            failures.append(f"seed {k}: solver grade {rep.grade} != oracle {g}")
    _finish(10, "oracle self-consistency", failures)
