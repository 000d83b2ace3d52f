"""``paper-sweep``: the paper's core measurement, solved cold.

Every scale-ladder rung of all ten topology families up to
:data:`MAX_SERVERS` servers, under the paper's three TMs (all-to-all,
random matching RM(1), longest matching), solved by the ``lp`` engine
through one ``Session(workers=2)``.  A round is one whole sweep with a
fresh result cache, a fresh session (so fresh pool workers) and an empty
compiled-model cache, so every round does the same work and every LP
assembles cold.

:data:`MAX_SERVERS` keeps the largest LP (a 48-switch BCube) near a quarter
of a round's wall time, so no single LP decides a round's tail; at 64
servers one longhop LP alone takes longer than the rest of the sweep.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.api import Session
from repro.batch import SolveRequest
from repro.batch.cache import ResultCache, SqliteResultCache
from repro.throughput.mcf import throughput
from repro.throughput.modelcache import reset_model_cache
from repro.topologies import FAMILY_ORDER, scale_ladder
from repro.traffic import all_to_all, random_matching
from repro.traffic.worstcase import longest_matching

from perfbench.harness import Context, Round, ratio, span_seconds
from perfbench.lpresults import lp_metrics

MAX_SERVERS = 50
WORKERS = 2
SETUP_REPEATS = 15
#: Instances re-solved with the dual simplex backend after the run.
CHECK_SAMPLE = 3
CHECK_RTOL = 1e-6
TM_KINDS = ("a2a", "rm1", "lm")


@dataclass
class Instance:
    family: str
    topology: object
    kind: str
    tm: object

    @property
    def label(self) -> str:
        return f"{self.topology.name}/{self.kind}"


def setup(ctx: Context) -> List[Instance]:
    """Build every (topology, TM) instance of the sweep from the seed."""
    span = ctx.tracer.span
    instances: List[Instance] = []
    for f_index, family in enumerate(FAMILY_ORDER):
        with span("topologies.build"):
            ladder = scale_ladder(family, MAX_SERVERS, seed=ctx.seed)
        for t_index, topo in enumerate(ladder):
            with span("core.compile"):
                ag = topo.compile()
                ag.digest  # noqa: B018 - computed with the compile
            with span("traffic.tm"):
                rm_seed = (ctx.seed * 100 + f_index) * 100 + t_index
                tms = (
                    all_to_all(topo),
                    random_matching(topo, 1, seed=rm_seed),
                    longest_matching(topo),
                )
                for tm in tms:
                    tm.content_digest()
            instances.extend(
                Instance(family, topo, kind, tm) for kind, tm in zip(TM_KINDS, tms)
            )
    return instances


def teardown(state: List[Instance]) -> None:
    pass


def input_digests(state: List[Instance]) -> List[Tuple[str, str, str]]:
    return [(i.label, i.topology.compile().digest, i.tm.content_digest()) for i in state]


def targets() -> list:
    """Parent-process functions the traced rounds wrap (LPs run in workers)."""
    return [
        ("cache.get", ResultCache, "get"),
        ("cache.put", ResultCache, "put"),
        ("cache.get", SqliteResultCache, "get"),
        ("cache.put", SqliteResultCache, "put"),
    ]


def run_round(ctx: Context, state: List[Instance], index: int) -> Round:
    ctx.tracer.set_request(f"sweep-{index}")
    reset_model_cache()
    cache_dir = ctx.fresh_dir("sweep-cache-")
    t0 = time.perf_counter()
    with Session(workers=WORKERS, cache_dir=cache_dir) as session:
        requests = [
            SolveRequest(i.topology, i.tm, engine="lp", tag=i.label) for i in state
        ]
        with ctx.tracer.span("batch.solve_many"):
            outcomes = session.solver.solve_many(requests)
        ctx.note_children()
        stats = session.solver.stats()
    wall = time.perf_counter() - t0
    results = [o.result for o in outcomes if o.ok]
    errors = [f"{o.tag}: {o.error}" for o in outcomes if not o.ok]
    cache = stats.get("cache", {})
    hits, misses = stats["skeleton_hits"], stats["skeleton_misses"]
    # Skeleton hits are left out of the exact counts: two same-structure
    # requests share a skeleton only when the pool hands both to one
    # worker, which scheduling decides.
    counts = {
        "lp.solves": stats["solved"],
        "batch.cache_hits": stats["cache_hits"],
    }
    layer = {
        "lp.solves": stats["solved"],
        "modelcache.hits": hits,
        "modelcache.misses": misses,
        "modelcache.hit_ratio": ratio(hits, hits + misses),
        "batch.requests": stats["requests"],
        "batch.solved": stats["solved"],
        "batch.cache_hits": stats["cache_hits"],
        "batch.errors": stats["errors"],
        "cache.hits": cache.get("hits", 0),
        "cache.misses": cache.get("misses", 0),
        "cache.puts": cache.get("puts", 0),
    }
    values = [o.result.value if o.ok else None for o in outcomes]
    return Round(
        answers=len(results),
        failed=len(errors),
        wall=wall,
        latencies=[wall],
        counts=counts,
        layer=layer,
        errors=errors,
        payload={"values": values, "results": results},
    )


def reference_value(instance: Instance) -> float:
    """The instance re-solved with the dual simplex backend."""
    return throughput(
        instance.topology, instance.tm, engine="lp", lp_backend="highs-ds"
    ).value


def check(ctx: Context, state: List[Instance], rounds: Sequence[Round]) -> List[str]:
    """Answer checks, run after the timed phase.

    Every round gives bit-identical values; a seeded sample re-solved with
    ``highs-ds`` agrees to ``CHECK_RTOL``; and on every topology the
    longest matching keeps at least half the all-to-all throughput (the
    paper's Theorem 2).
    """
    failures: List[str] = []
    first = rounds[0].payload["values"]
    for r in rounds[1:]:
        for inst, a, b in zip(state, first, r.payload["values"]):
            if a is not None and b is not None and a != b:
                failures.append(f"{inst.label}: round values differ ({a!r} vs {b!r})")
    by_topology: Dict[str, Dict[str, float]] = {}
    for inst, value in zip(state, first):
        if value is not None:
            by_topology.setdefault(inst.topology.name, {})[inst.kind] = value
    for name, values in by_topology.items():
        a2a, lm = values.get("a2a"), values.get("lm")
        if a2a is not None and lm is not None and lm < a2a / 2 * (1 - 1e-9):
            failures.append(f"{name}: T_LM={lm} < T_A2A/2={a2a / 2} (Theorem 2)")
    rng = random.Random(ctx.seed)
    for i in sorted(rng.sample(range(len(state)), min(CHECK_SAMPLE, len(state)))):
        if first[i] is None:
            continue
        ref = reference_value(state[i])
        if not math.isclose(first[i], ref, rel_tol=CHECK_RTOL, abs_tol=1e-12):
            failures.append(f"{state[i].label}: lp {first[i]!r} != highs-ds {ref!r}")
    return failures


def layer_metrics(
    ctx: Context, setups: Sequence, setup_spans, traced: Sequence[Round]
) -> Dict[str, float]:
    n = len(traced)
    out = lp_metrics([res for r in traced for res in r.payload["results"]], n)
    wall = sum(r.wall for r in traced) / n
    out.update(
        {
            "topologies.build_s": span_seconds(setup_spans, "topologies.build") / len(setups),
            "traffic.tm_s": span_seconds(setup_spans, "traffic.tm") / len(setups),
            "core.compile_s": span_seconds(setup_spans, "core.compile") / len(setups),
            "batch.pool_busy_share": out["batch.busy_s"] / (WORKERS * wall),
            "batch.overhead_s": wall - out["batch.busy_s"] / WORKERS,
            "cache.get_s": sum(span_seconds(r.spans, "cache.get") for r in traced) / n,
            "cache.put_s": sum(span_seconds(r.spans, "cache.put") for r in traced) / n,
        }
    )
    return out


def close(ctx: Context, state: List[Instance]) -> None:
    pass

