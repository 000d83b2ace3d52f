"""``service-mixed``: a closed loop of two clients against ``repro serve``.

The service runs as its own process (``repro serve --port 0 --workers
1``) with a fresh result cache.  Set-up boots it, waits for ``/healthz``
and primes a hot set of :data:`HOT_SIZE` instances -- more than the
service's 128-entry instance memo -- mostly small uploaded adjacencies
plus the small named ladder rungs under two engines.  A round is
:data:`ROUND_QUERIES` queries sent by :data:`CLIENTS` keep-alive clients,
each waiting for its reply before sending the next (the repo's own
callers -- ``ServiceClient``, ``run_load``, ``repro query`` -- all wait).
Popularity over the hot set is Zipf-skewed, so most answers are
result-cache reads; a seeded share of fresh jellyfish instances per round
(:data:`FRESH`) makes the ``sim``, ``lp`` and ``mwu`` engines solve and the
cache write.  ``mwu`` runs at epsilon 0.5 so a fresh answer costs tens to
hundreds of milliseconds on every engine.

The mix is set so each reported percentile falls inside one latency band,
not on the edge between two: fresh answers are 1.6% of queries, so the
median is a cache hit, and the slowest 1% are the ``mwu`` answers plus
the slowest ``lp``/``sim`` ones, so p99 lies within the ``lp``/``sim`` band.
A hit that overlaps a solve on the server waits for the interpreter lock;
keeping solves to a small share of the queries keeps such hits off the
median.
"""

from __future__ import annotations

import json
import math
import os
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import ArcGraph
from repro.service import ServiceClient
from repro.service.client import ServiceError
from repro.throughput.mcf import throughput
from repro.topologies import FAMILY_ORDER, scale_ladder
from repro.traffic import TrafficMatrix, all_to_all

from perfbench.harness import ROOT, Context, Round, median, percentile, ratio

CLIENTS = 2
SETUP_REPEATS = 3
ROUND_QUERIES = 1000
#: Fresh (never seen) instances per round, by engine.
FRESH = {"sim": 5, "lp": 5, "mwu": 6}
ENGINE_PARAMS = {"mwu": {"epsilon": 0.5}}
#: Named hot-set entries: ladder rung 0 under this server cap, per engine.
NAMED_MAX_SERVERS = 16
NAMED_ENGINES = ("lp", "sim")
HOT_SIZE = 160
ZIPF_S = 1.0
#: Fresh instances checked against a direct ``throughput()`` call, per engine.
CHECK_FRESH = 2
CHECK_RTOL = 1e-9
BOOT_TIMEOUT = 120.0
REQUEST_TIMEOUT = 120.0


@dataclass
class Server:
    proc: subprocess.Popen
    port: int
    boot_s: float
    prime_s: float = 0.0
    lines: List[str] = field(default_factory=list)
    reader: Optional[threading.Thread] = None


@dataclass
class State:
    server: Server
    hot: List[Dict[str, Any]]
    answers: Dict[str, Tuple[Dict[str, Any], List[float]]] = field(default_factory=dict)


# ----------------------------------------------------------------- inputs
def _upload(rng: np.random.Generator) -> Dict[str, Any]:
    """A connected random graph (ring plus chords) of 6-8 nodes."""
    n = int(rng.integers(6, 9))
    adj = np.zeros((n, n), dtype=int)
    for u in range(n):
        adj[u, (u + 1) % n] = adj[(u + 1) % n, u] = 1
    for _ in range(n):
        u, v = rng.choice(n, size=2, replace=False)
        adj[u, v] = adj[v, u] = 1
    return {"adjacency": adj.tolist(), "tm": {"kind": "uniform"}, "engine": "lp"}


def _named(family: str, engine: str, seed: int) -> Dict[str, Any]:
    return {
        "topology": {
            "family": family,
            "ladder": 0,
            "max_servers": NAMED_MAX_SERVERS,
            "seed": seed,
        },
        "engine": engine,
        "params": dict(ENGINE_PARAMS.get(engine, {})),
    }


def hot_set(seed: int) -> List[Dict[str, Any]]:
    """The primed instances, most popular first."""
    named = [
        _named(family, engine, seed)
        for family in FAMILY_ORDER
        if scale_ladder(family, NAMED_MAX_SERVERS, seed=seed)
        for engine in NAMED_ENGINES
    ]
    rng = np.random.default_rng([seed, 1])
    docs = named + [_upload(rng) for _ in range(HOT_SIZE - len(named))]
    order = np.random.default_rng([seed, 2]).permutation(len(docs))
    return [docs[i] for i in order]


def round_queries(seed: int, index: int, hot: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Round ``index``'s query sequence: Zipf picks over the hot set with
    fresh jellyfish instances (unique seeds) at seeded positions."""
    rng = random.Random(seed * 1_000_003 + index)
    fresh = []
    for engine, count in FRESH.items():
        for j in range(count):
            instance_seed = 10_000_000 + (seed * 1000 + index) * 100 + len(fresh)
            fresh.append(_named("jellyfish", engine, instance_seed))
    weights = [1.0 / (i + 1) ** ZIPF_S for i in range(len(hot))]
    picks = rng.choices(list(hot), weights=weights, k=ROUND_QUERIES - len(fresh))
    for doc, pos in zip(fresh, sorted(rng.sample(range(ROUND_QUERIES), len(fresh)))):
        picks.insert(pos, doc)
    return picks


def _instance(doc: Dict[str, Any]):
    """The (topology, TM) a query names, built here independently."""
    if "adjacency" in doc:
        dense = np.asarray(doc["adjacency"], dtype=np.float64)
        tails, heads = np.nonzero(dense)
        n = dense.shape[0]
        demand = np.full((n, n), 1.0 / (n - 1))
        np.fill_diagonal(demand, 0.0)
        return (
            ArcGraph(n, tails, heads, dense[tails, heads]),
            TrafficMatrix(demand=demand, kind="uniform", meta={"n_nodes": n}),
        )
    topo_doc = doc["topology"]
    topo = scale_ladder(topo_doc["family"], topo_doc["max_servers"], seed=topo_doc["seed"])[
        topo_doc["ladder"]
    ]
    return topo, all_to_all(topo)


def input_digests(state: State) -> List[Tuple[str, str, str]]:
    out = []
    for i, doc in enumerate(state.hot):
        topo, tm = _instance(doc)
        ag = topo if isinstance(topo, ArcGraph) else topo.compile()
        out.append((f"hot-{i}/{doc.get('engine')}", ag.digest, tm.content_digest()))
    return out


# ----------------------------------------------------------------- server
def _start_server(ctx: Context) -> Server:
    cache_dir = ctx.fresh_dir("service-cache-")
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
            "--port", "0", "--workers", "1", "--cache-dir", str(cache_dir),
        ],
        cwd=str(ROOT),
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    server = Server(proc=proc, port=0, boot_s=0.0)
    listening = threading.Event()

    def read() -> None:
        assert proc.stdout is not None
        for line in proc.stdout:
            server.lines.append(line.rstrip())
            if "listening on http://" in line and not listening.is_set():
                server.port = int(line.rsplit(":", 1)[1].strip().rstrip("/"))
                listening.set()
        listening.set()

    server.reader = threading.Thread(target=read, daemon=True)
    server.reader.start()
    if not listening.wait(BOOT_TIMEOUT) or server.port == 0:
        _stop_server(server)
        raise RuntimeError("service did not start:\n" + "\n".join(server.lines[-20:]))
    with ServiceClient(port=server.port, timeout=REQUEST_TIMEOUT) as client:
        deadline = time.monotonic() + BOOT_TIMEOUT
        while True:
            try:
                if client.healthz().get("status") == "ok":
                    break
            except (ServiceError, OSError):
                pass
            if time.monotonic() > deadline:
                _stop_server(server)
                raise RuntimeError("service never became healthy")
            time.sleep(0.01)
    server.boot_s = time.perf_counter() - t0
    return server


def _stop_server(server: Server) -> None:
    if server.proc.poll() is None:
        server.proc.send_signal(signal.SIGTERM)
        try:
            server.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            server.proc.kill()
            server.proc.wait(timeout=30)
    if server.reader is not None:
        server.reader.join(timeout=30)


# ---------------------------------------------------------------- clients
@dataclass
class Reply:
    doc: Dict[str, Any]
    latency: float
    body: Optional[Dict[str, Any]]
    error: Optional[str]


def closed_loop(ctx: Context, port: int, docs: Sequence[Dict[str, Any]], label: str) -> Tuple[List[Reply], float]:
    """Send ``docs`` through ``CLIENTS`` waiting clients; replies in order.

    Every query gets a reply: a refused or failed one carries its error.
    """
    replies: List[Reply] = [None] * len(docs)  # type: ignore[list-item]
    cursor = iter(range(len(docs)))
    lock = threading.Lock()

    def client_loop(k: int) -> None:
        with ServiceClient(port=port, tenant=f"client{k}", timeout=REQUEST_TIMEOUT) as client:
            while True:
                with lock:
                    i = next(cursor, None)
                if i is None:
                    return
                ctx.tracer.set_request(f"{label}-q{i}")
                t0 = time.perf_counter()
                body, error = None, None
                try:
                    with ctx.tracer.span("service.query"):
                        body = client.throughput(docs[i])
                except ServiceError as exc:
                    error = str(exc)
                except Exception as exc:  # noqa: BLE001 - a failed query, counted
                    error = f"{type(exc).__name__}: {exc}"
                replies[i] = Reply(docs[i], time.perf_counter() - t0, body, error)

    threads = [threading.Thread(target=client_loop, args=(k,)) for k in range(CLIENTS)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    return replies, wall


def _stats(port: int) -> Dict[str, Any]:
    with ServiceClient(port=port, timeout=REQUEST_TIMEOUT) as client:
        return client.stats()


def _record(state: State, replies: Sequence[Reply]) -> None:
    for r in replies:
        if r.body is not None:
            entry = state.answers.setdefault(r.body["key"], (r.doc, []))
            entry[1].append(r.body["value"])


# ------------------------------------------------------------------ setup
def setup(ctx: Context) -> State:
    hot = hot_set(ctx.seed)
    server = _start_server(ctx)
    t0 = time.perf_counter()
    replies, _ = closed_loop(ctx, server.port, hot, "prime")
    server.prime_s = time.perf_counter() - t0
    ctx.note_children()
    failed = [r.error for r in replies if r.error is not None]
    if failed:
        _stop_server(server)
        raise RuntimeError(f"priming failed: {failed[0]}")
    state = State(server, hot)
    _record(state, replies)
    return state


def teardown(state: State) -> None:
    _stop_server(state.server)


def targets() -> list:
    return []


# ----------------------------------------------------------------- rounds
def _delta(after: Dict[str, Any], before: Dict[str, Any], *path: str) -> float:
    a, b = after, before
    for key in path:
        a, b = a.get(key, {}), b.get(key, {})
    return float(a or 0) - float(b or 0)


def run_round(ctx: Context, state: State, index: int) -> Round:
    port = state.server.port
    docs = round_queries(ctx.seed, index, state.hot)
    before = _stats(port)
    replies, wall = closed_loop(ctx, port, docs, f"round-{index}")
    after = _stats(port)
    ctx.note_children()
    _record(state, replies)
    ok = [r for r in replies if r.body is not None]
    errors = [f"{r.doc}: {r.error}" for r in replies if r.error is not None]
    hits = [r for r in ok if r.body["from_cache"]]
    misses = [r for r in ok if not r.body["from_cache"]]
    memo_hits = _delta(after, before, "service", "instance_cache", "hits")
    memo_misses = _delta(after, before, "service", "instance_cache", "misses")
    layer: Dict[str, float] = {
        "service.hit_latency_p50_s": percentile([r.latency for r in hits], 50),
        "service.miss_latency_p50_s": percentile([r.latency for r in misses], 50),
        "service.frontend_p50_s": percentile(
            [r.latency - r.body["solve_seconds"] for r in misses], 50
        ),
        "service.memo_hit_ratio": ratio(memo_hits, memo_hits + memo_misses),
        "service.admitted": _delta(after, before, "service", "admission", "admitted"),
        "service.rejected": _delta(after, before, "service", "admission", "rejected"),
        "batch.requests": _delta(after, before, "solver", "requests"),
        "batch.solved": _delta(after, before, "solver", "solved"),
        "batch.cache_hits": _delta(after, before, "solver", "cache_hits"),
        "batch.errors": _delta(after, before, "solver", "errors"),
        "cache.hits": _delta(after, before, "cache", "hits"),
        "cache.misses": _delta(after, before, "cache", "misses"),
        "cache.puts": _delta(after, before, "cache", "puts"),
        "modelcache.hits": _delta(after, before, "service", "model_cache", "hits"),
        "modelcache.misses": _delta(after, before, "service", "model_cache", "misses"),
    }
    layer["modelcache.hit_ratio"] = ratio(
        layer["modelcache.hits"], layer["modelcache.hits"] + layer["modelcache.misses"]
    )
    for engine in ("lp", "mwu", "sim"):
        own = [r.body["solve_seconds"] for r in misses if r.body["engine"] == engine]
        layer[f"{engine}.solves"] = len(own)
        layer[f"{engine}.solve_s"] = sum(own)
        if engine == "lp":
            layer["lp.solve_p50_s"] = percentile(own, 50)
            layer["lp.solve_max_s"] = max(own, default=0.0)
    counts = {
        "service.solved": int(layer["batch.solved"]),
        "batch.cache_hits": int(layer["batch.cache_hits"]),
    }
    return Round(
        answers=len(ok),
        failed=len(errors),
        wall=wall,
        latencies=[r.latency for r in replies],
        counts=counts,
        layer=layer,
        errors=errors,
    )


# ------------------------------------------------------------------ check
def reference_value(doc: Dict[str, Any]) -> float:
    """The query answered by a direct ``throughput()`` call."""
    topo, tm = _instance(doc)
    engine = doc.get("engine") or "lp"
    return throughput(topo, tm, engine=engine, **doc.get("params", {})).value


def check(ctx: Context, state: State, rounds: Sequence[Round]) -> List[str]:
    """Every answer for one instance is the same value; every hot-set
    instance and a seeded sample of fresh ones equal a direct call."""
    _stop_server(state.server)
    failures: List[str] = []
    hot_keys = {_canonical(d) for d in state.hot}
    fresh: Dict[str, List[Tuple[Dict[str, Any], float]]] = {}
    for key, (doc, values) in sorted(state.answers.items()):
        if any(not _same(v, values[0]) for v in values):
            failures.append(f"{key[:12]}: answers disagree {sorted(set(values))}")
        if _canonical(doc) in hot_keys:
            _compare(doc, values[0], failures)
        else:
            fresh.setdefault(doc.get("engine") or "lp", []).append((doc, values[0]))
    rng = random.Random(ctx.seed)
    for engine in sorted(fresh):
        for doc, value in rng.sample(fresh[engine], min(CHECK_FRESH, len(fresh[engine]))):
            _compare(doc, value, failures)
    return failures


def _canonical(doc: Dict[str, Any]) -> str:
    return json.dumps(doc, sort_keys=True)


def _same(a: float, b: float, rel_tol: float = 0.0) -> bool:
    """Equal to ``rel_tol``; NaN (a zero-demand instance) equals NaN."""
    return math.isclose(a, b, rel_tol=rel_tol, abs_tol=1e-12) or (
        math.isnan(a) and math.isnan(b)
    )


def _compare(doc: Dict[str, Any], value: float, failures: List[str]) -> None:
    ref = reference_value(doc)
    if not _same(value, ref, CHECK_RTOL):
        failures.append(f"{_canonical(doc)[:80]}: service {value!r} != direct {ref!r}")


def layer_metrics(
    ctx: Context, setups: Sequence[State], setup_spans, traced: Sequence[Round]
) -> Dict[str, float]:
    return {
        "service.boot_s": median([s.server.boot_s for s in setups]),
        "service.prime_s": median([s.server.prime_s for s in setups]),
    }


def close(ctx: Context, state: State) -> None:
    _stop_server(state.server)
