"""Span tracer that wraps the library's public functions from outside.

``Tracer.installed()`` replaces each traced function or method with a
wrapper that records one span per call: its duration, the time covered by
the spans it opened (so self time is duration minus that), and the number
of operator products, preconditioner applies and sub-operator applies made
inside it.  Nothing in the library is edited; the originals are restored on
exit.  Measure end-to-end figures with the tracer uninstalled.
"""

from __future__ import annotations

import contextlib
import sys
import time
from dataclasses import dataclass

from pinv_minres import (baselines, core, imaging, minres_cs, minres_h,
                         npc_monitor, oracle, pminres, precon_factory,
                         synthetic)

# span kinds whose calls count as work units inside enclosing spans
MATVEC, PRECON, SUBOP = "matvec", "precon", "subop"


@dataclass
class LayerStats:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    matvecs: int = 0          # operator products made inside the span
    precon_applies: int = 0
    subop_applies: int = 0
    iterations: int = 0       # solver iterations reported by the call
    bytes: int = 0            # computed bytes moved (Kronecker products)


def _kron_bytes(args, out) -> int:
    # Z X Z^T: Z read twice, X read, Z X written and read back, result written
    return 2 * args[0].z.nbytes + 4 * out.nbytes


def _iterations(args, out) -> int:
    return out.iterations


# (layer, owner, attribute, span kind, extra per-call count)
LAYERS = [
    ("core.kron_apply", core.KroneckerOperator, "apply", MATVEC, ("bytes", _kron_bytes)),
    ("core.dense_apply", core.DenseOperator, "apply", MATVEC, None),
    ("core.dense_apply", core.DenseOperator, "apply_conj", MATVEC, None),
    ("minres_h.solve", minres_h, "solve", None, ("iterations", _iterations)),
    ("minres_h.solve", minres_h, "solve_skew", None, ("iterations", _iterations)),
    ("minres_h.lift", minres_h, "lift", None, None),
    ("minres_cs.solve_cs", minres_cs, "solve_cs", None, ("iterations", _iterations)),
    ("minres_cs.lift_cs", minres_cs, "lift_cs", None, None),
    ("pminres.psolve", pminres, "psolve_h", None, ("iterations", _iterations)),
    ("pminres.psolve", pminres, "psolve_cs", None, ("iterations", _iterations)),
    ("pminres.precon_apply", pminres.Preconditioner, "apply", PRECON, None),
    ("pminres.reorth", pminres.ReorthBuffer, "apply", None, None),
    ("pminres.subop_apply", pminres.DenseSubOperator, "apply", SUBOP, None),
    ("pminres.subop_apply", pminres.DenseSubOperator, "apply_adjoint", SUBOP, None),
    ("pminres.subop_apply", pminres.KroneckerSubOperator, "apply", SUBOP, None),
    ("pminres.subop_apply", pminres.KroneckerSubOperator, "apply_adjoint", SUBOP, None),
    ("pminres.subsolve", pminres, "subsolve", None, ("iterations", _iterations)),
    ("pminres.plift", pminres, "plift", None, None),
    ("pminres.sublift", pminres, "sublift", None, None),
    ("baselines.lsqr", baselines, "lsqr", None, ("iterations", _iterations)),
    ("baselines.tsvd", baselines, "tsvd_solve_kronecker", None, None),
    ("imaging.ssim", imaging, "ssim", None, None),
    ("imaging.psnr", imaging, "psnr", None, None),
    ("npc_monitor.attach", npc_monitor, "attach", None, None),
    ("npc_monitor.verify_identities", npc_monitor, "verify_identities", None, None),
    ("npc_monitor.check_monotonicity", npc_monitor, "check_monotonicity", None, None),
    ("oracle.hermitian_eig", oracle, "hermitian_eig", None, None),
    ("oracle.takagi", oracle, "takagi", None, None),
    ("synthetic.rand_matrix", synthetic, "rand_matrix", None, None),
    ("precon_factory.make_npc_matrix", precon_factory, "make_npc_matrix", None, None),
    ("precon_factory.make_npc_suite", precon_factory, "make_npc_suite", None, None),
]


class Tracer:
    """Collects per-layer statistics for one round (a set-up or a pass) at a
    time; ``round()`` returns them and starts the next."""

    def __init__(self):
        self.stats: dict[str, LayerStats] = {}
        self._children: list[float] = []   # child time of each open span
        self._counts = {MATVEC: 0, PRECON: 0, SUBOP: 0}

    def round(self) -> dict[str, LayerStats]:
        done, self.stats = self.stats, {}
        return done

    def _wrap(self, layer, fn, kind, extra):
        counts = self._counts
        children = self._children

        def traced(*args, **kwargs):
            if kind is not None:
                counts[kind] += 1
            before = dict(counts)
            children.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = children.pop()
                if children:
                    children[-1] += dt
            st = self.stats.get(layer)
            if st is None:
                st = self.stats[layer] = LayerStats()
            st.calls += 1
            st.s += dt
            st.self_s += dt - child
            st.matvecs += counts[MATVEC] - before[MATVEC]
            st.precon_applies += counts[PRECON] - before[PRECON]
            st.subop_applies += counts[SUBOP] - before[SUBOP]
            if extra is not None:
                field, measure = extra
                setattr(st, field, getattr(st, field) + measure(args, out))
            return out

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every layer for the duration of the block.

        Module-level functions are replaced wherever a ``pinv_minres``
        module binds them (the package re-exports, and modules that import
        each other's functions by name), so calls made inside the library
        are traced too.  Methods are patched on the owning class.
        """
        undo = []
        modules = [m for name, m in list(sys.modules.items())
                   if name == "pinv_minres" or name.startswith("pinv_minres.")]
        try:
            for layer, owner, attr, kind, extra in LAYERS:
                if isinstance(owner, type):
                    had = attr in owner.__dict__
                    orig = getattr(owner, attr)
                    setattr(owner, attr, self._wrap(layer, orig, kind, extra))
                    undo.append((owner, attr, orig if had else None))
                    continue
                orig = getattr(owner, attr)
                wrapper = self._wrap(layer, orig, kind, extra)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, name, wrapper)
                            undo.append((mod, name, orig))
            yield self
        finally:
            for target, attr, orig in reversed(undo):
                if orig is None:
                    delattr(target, attr)
                else:
                    setattr(target, attr, orig)
