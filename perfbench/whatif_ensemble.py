"""``whatif-ensemble``: a failure / maintenance / degradation ensemble.

One jellyfish network under all-to-all traffic and 28 capacity overlays
drawn from the seed, answered by ``whatif_sweep`` on a serial solver
(``workers=1``).  Model-cache reuse, the parent-dual bound
screens and the hinted LPs do the work; the pool does none.  A round is
one whole ensemble with a fresh result cache and an empty compiled-model
cache.  The instance is sized so a round takes a few seconds and a run
holds several rounds.

The network itself is fixed (:data:`TOPOLOGY_SEED`): it plays the operator's
one data center, and only the failures, maintenance windows and
degradations vary with the seed.  Jellyfish draws of this size differ by
about a quarter in LP cost, which would otherwise swamp run-to-run
comparisons.
"""

from __future__ import annotations

import importlib
import math
import random
import time
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.api import Session
from repro.batch import BatchSolver
from repro.batch.cache import ResultCache, SqliteResultCache
from repro.core import ArcGraph
from repro.throughput.mcf import throughput
from repro.throughput.modelcache import reset_model_cache
from repro.throughput.warmstart import SolveHint
from repro.topologies.jellyfish import jellyfish
from repro.traffic import all_to_all
from repro.whatif import (
    default_rtol,
    maintenance_windows,
    random_failures,
    uniform_degradation,
    whatif_sweep,
)

from perfbench.harness import Context, Round, ratio, span_seconds
from perfbench.lpresults import lp_metrics

# ``repro`` re-exports a function named ``throughput``, which shadows the
# subpackage attribute, so plain ``import repro.throughput.lp as ...`` fails.
lp_module = importlib.import_module("repro.throughput.lp")
modelcache_module = importlib.import_module("repro.throughput.modelcache")

N_SWITCHES = 24
DEGREE = 5
TOPOLOGY_SEED = 0
SETUP_REPEATS = 31
#: Solved scenarios re-solved without a hint after the run.
CHECK_SAMPLE = 1
CHECK_RTOL = 1e-6


@dataclass
class Ensemble:
    topology: object
    graph: ArcGraph
    tm: object
    scenarios: list


def setup(ctx: Context) -> Ensemble:
    span = ctx.tracer.span
    with span("topologies.build"):
        topo = jellyfish(N_SWITCHES, DEGREE, seed=TOPOLOGY_SEED)
    with span("core.compile"):
        ag = topo.compile()
    with span("traffic.tm"):
        tm = all_to_all(topo)
        tm.content_digest()
    with span("whatif.scenarios"):
        scenarios = (
            uniform_degradation(topo, factors=(0.9, 0.75, 0.5, 0.25))
            + random_failures(topo, n_fail=2, samples=8, seed=ctx.seed)
            + random_failures(topo, n_fail=4, samples=8, seed=ctx.seed + 1)
            + maintenance_windows(topo, n_windows=8, drain=0.5)
        )
    return Ensemble(topo, ag, tm, scenarios)


def teardown(state: Ensemble) -> None:
    pass


def input_digests(state: Ensemble) -> List[Tuple[str, str, str]]:
    tm_digest = state.tm.content_digest()
    out = [(state.topology.name, state.graph.digest, tm_digest)]
    for s in state.scenarios:
        overlay = state.graph.with_caps(np.asarray(s.caps, dtype=np.float64))
        out.append((s.name, overlay.digest, tm_digest))
    return out


def targets() -> list:
    return [
        ("batch.solve", BatchSolver, "solve"),
        ("batch.solve_many", BatchSolver, "solve_many"),
        ("cache.get", ResultCache, "get"),
        ("cache.put", ResultCache, "put"),
        ("cache.get", SqliteResultCache, "get"),
        ("cache.put", SqliteResultCache, "put"),
        ("core.overlay", ArcGraph, "with_caps"),
        ("warmstart.hint", SolveHint, "from_result"),
        ("warmstart.screen", SolveHint, "screen_many"),
        ("lp.solve", lp_module, "solve_throughput_lp", True),
        ("modelcache.skeleton_for", modelcache_module, "skeleton_for"),
    ]


def run_round(ctx: Context, state: Ensemble, index: int) -> Round:
    ctx.tracer.set_request(f"ensemble-{index}")
    reset_model_cache()
    cache_dir = ctx.fresh_dir("whatif-cache-")
    t0 = time.perf_counter()
    with Session(workers=1, cache_dir=cache_dir) as session:
        with ctx.tracer.span("whatif.sweep"):
            report = whatif_sweep(
                state.topology, state.tm, state.scenarios, solver=session.solver
            )
    wall = time.perf_counter() - t0
    stats = report.stats
    cache = stats.get("cache", {})
    errors = [f"{o.name}: {o.error}" for o in report.outcomes if not o.ok]
    skips = stats["skipped_by_bound"]
    counts = {
        "lp.solves": stats["solved"],
        "whatif.bound_skips": skips,
        "batch.cache_hits": stats["cache_hits"],
        "modelcache.hits": stats["skeleton_hits"],
        "modelcache.misses": stats["skeleton_misses"],
    }
    hits, misses = stats["skeleton_hits"], stats["skeleton_misses"]
    layer = {
        "lp.solves": stats["solved"],
        "modelcache.hits": hits,
        "modelcache.misses": misses,
        "modelcache.hit_ratio": ratio(hits, hits + misses),
        "whatif.bound_skips": skips,
        "whatif.skip_ratio": ratio(skips, len(state.scenarios)),
        "batch.requests": stats["requests"],
        "batch.solved": stats["solved"],
        "batch.cache_hits": stats["cache_hits"],
        "batch.errors": stats["errors"],
        "cache.hits": cache.get("hits", 0),
        "cache.misses": cache.get("misses", 0),
        "cache.puts": cache.get("puts", 0),
    }
    return Round(
        answers=len(report.outcomes) - len(errors),
        failed=len(errors),
        wall=wall,
        latencies=[wall],
        counts=counts,
        layer=layer,
        errors=errors,
        payload=report,
    )


def reference_value(state: Ensemble, caps) -> float:
    """The overlay's throughput from a full, unhinted LP."""
    overlay = state.graph.with_caps(np.asarray(caps, dtype=np.float64))
    return throughput(overlay, state.tm, engine="lp").value


def check(ctx: Context, state: Ensemble, rounds: Sequence[Round]) -> List[str]:
    """Every bound-skipped answer lies within the what-if tolerance of a full
    LP of its overlay; a seeded sample of solved answers matches an unhinted
    re-solve; every round gives identical values."""
    failures: List[str] = []
    report = rounds[0].payload
    first = [o.value for o in report.outcomes]
    for r in rounds[1:]:
        for o, a in zip(r.payload.outcomes, first):
            if o.ok and not (o.value == a or (math.isnan(a) and math.isnan(o.value))):
                failures.append(f"{o.name}: round values differ ({a!r} vs {o.value!r})")
    rtol = default_rtol()
    solved = []
    for scenario, outcome in zip(state.scenarios, report.outcomes):
        if not outcome.ok:
            continue
        if not outcome.skipped_by_bound:
            solved.append((scenario, outcome))
            continue
        ref = reference_value(state, scenario.caps)
        if not math.isclose(outcome.value, ref, rel_tol=rtol, abs_tol=1e-12):
            failures.append(f"{scenario.name}: bound-skipped {outcome.value!r} != LP {ref!r}")
    rng = random.Random(ctx.seed)
    for scenario, outcome in rng.sample(solved, min(CHECK_SAMPLE, len(solved))):
        ref = reference_value(state, scenario.caps)
        if not math.isclose(outcome.value, ref, rel_tol=CHECK_RTOL, abs_tol=1e-12):
            failures.append(f"{scenario.name}: hinted {outcome.value!r} != unhinted {ref!r}")
    return failures


def layer_metrics(
    ctx: Context, setups: Sequence, setup_spans, traced: Sequence[Round]
) -> Dict[str, float]:
    n = len(traced)
    out = lp_metrics([res for r in traced for name, res in r.results if name == "lp.solve"], n)
    batch_wall = sum(span_seconds(r.spans, "batch.solve_many") for r in traced) / n
    out.update(
        {
            "topologies.build_s": span_seconds(setup_spans, "topologies.build") / len(setups),
            "traffic.tm_s": span_seconds(setup_spans, "traffic.tm") / len(setups),
            "core.compile_s": span_seconds(setup_spans, "core.compile") / len(setups),
            "core.overlay_s": sum(span_seconds(r.spans, "core.overlay") for r in traced) / n,
            "whatif.parent_s": sum(span_seconds(r.spans, "batch.solve") for r in traced) / n,
            "batch.pool_busy_share": ratio(out["batch.busy_s"], batch_wall),
            "batch.overhead_s": batch_wall - out["batch.busy_s"],
            "cache.get_s": sum(span_seconds(r.spans, "cache.get") for r in traced) / n,
            "cache.put_s": sum(span_seconds(r.spans, "cache.put") for r in traced) / n,
        }
    )
    return out


def close(ctx: Context, state: Ensemble) -> None:
    pass
