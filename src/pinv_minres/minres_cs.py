"""Alias of ``minres_h.solve_cs`` and ``lift_cs``, which the benchmark binds here."""
from .minres_h import lift_cs, solve_cs  # noqa: F401
