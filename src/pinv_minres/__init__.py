"""Matrix-free MINRES solvers that recover Moore-Penrose pseudo-inverse
solutions of singular Hermitian, skew-Hermitian and complex-symmetric
systems via a one-step lifting correction, with support for singular
positive semi-definite preconditioners."""

from .core import (COMPLEX_SYMMETRIC, HERMITIAN, SKEW_HERMITIAN,
                   CallableOperator, DenseOperator, GaussianBlurToeplitz,
                   KroneckerOperator, LinearOperator, probe_symmetry)
from .minres_h import (SolveOptions, SolveReport, lift, lift_cs, solve,
                       solve_cs, solve_skew)
from .oracle import (OracleDecomposition, check_rank_assumptions,
                     hermitian_eig, lifted_problem_pinv, pinv, takagi)
from .pminres import (DenseSubOperator, KroneckerSubOperator, Preconditioner,
                      ReorthBuffer, SubOperator, plift, psolve_cs, psolve_h,
                      sublift, subsolve)

__all__ = [
    "COMPLEX_SYMMETRIC", "HERMITIAN", "SKEW_HERMITIAN",
    "CallableOperator", "DenseOperator", "GaussianBlurToeplitz",
    "KroneckerOperator", "LinearOperator", "probe_symmetry",
    "SolveOptions", "SolveReport", "solve", "solve_skew", "lift",
    "solve_cs", "lift_cs",
    "OracleDecomposition", "pinv", "takagi", "hermitian_eig",
    "lifted_problem_pinv", "check_rank_assumptions",
    "Preconditioner", "SubOperator", "DenseSubOperator",
    "KroneckerSubOperator", "ReorthBuffer", "psolve_h", "psolve_cs",
    "plift", "subsolve", "sublift",
]

__version__ = "0.1.0"
