"""Per-layer LP numbers from the ``ThroughputResult`` objects the API returns.

An LP solved in a pool worker cannot be timed from the benchmark process;
its result carries the worker-side times (``solve_seconds`` and
``meta["assembly_seconds"]``) and the linprog method that answered.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.throughput import LP_BACKENDS

from perfbench.harness import percentile


def is_fallback(result) -> bool:
    """Whether a later method of the result's backend chain answered."""
    backend = LP_BACKENDS.get(result.meta.get("lp_backend", ""))
    method = result.meta.get("method")
    return backend is not None and method is not None and method != backend.methods[0]


def lp_metrics(results: Sequence, rounds: int) -> Dict[str, float]:
    """LP-layer metrics over ``rounds`` rounds' fresh ``lp`` results.

    Sums are per round; ``lp.solve_p50_s`` and ``lp.solve_max_s`` are over
    every solve.
    """
    rounds = max(rounds, 1)
    solve = [r.solve_seconds for r in results]
    assemble = sum(r.meta.get("assembly_seconds", 0.0) for r in results)
    return {
        "lp.assemble_s": assemble / rounds,
        "lp.solve_s": sum(solve) / rounds,
        "lp.solve_p50_s": percentile(solve, 50),
        "lp.solve_max_s": max(solve, default=0.0),
        "lp.fallbacks": sum(1 for r in results if is_fallback(r)) / rounds,
        "batch.busy_s": (sum(solve) + assemble) / rounds,
    }
