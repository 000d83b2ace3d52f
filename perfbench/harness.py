"""Workload-independent machinery of the benchmark.

* :class:`Context` — per-run state handed to every workload function: the
  seed, the span :class:`Tracer`, scratch directories inside the checkout,
  and the peak resident memory seen in child processes.
* :class:`Tracer` — in-memory spans (name, start, end, parent, request id)
  recorded around calls into the program's layers, either at the
  benchmark's own call sites (:meth:`Tracer.span`) or by temporarily
  wrapping a layer's public functions (:meth:`Tracer.instrument`).
  :func:`self_times` reduces spans to per-layer self time.
* :class:`Round` — one timed unit of work (a whole sweep, ensemble or
  block of queries) and what it produced.
* :func:`run_rounds` — repeats rounds until the run's time is spent.

Nothing here imports :mod:`repro`; ``run.py`` makes the package importable
and clears inherited ``REPRO_*`` knobs before any workload module loads.
"""

from __future__ import annotations

import gc
import itertools
import os
import shutil
import statistics
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

#: End-to-end metrics every run reports with ``--trace 0`` (name -> unit).
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "answers_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p99_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics every run reports with ``--trace 1`` (name -> unit).
#: A layer a workload does not exercise reports 0.
PER_LAYER: Dict[str, str] = {
    "error_rate": "ratio",
    "topologies.build_s": "s",
    "traffic.tm_s": "s",
    "core.compile_s": "s",
    "core.overlay_s": "s",
    "lp.solves": "count",
    "lp.assemble_s": "s",
    "lp.solve_s": "s",
    "lp.solve_p50_s": "s",
    "lp.solve_max_s": "s",
    "lp.fallbacks": "count",
    "modelcache.hits": "count",
    "modelcache.misses": "count",
    "modelcache.hit_ratio": "ratio",
    "whatif.parent_s": "s",
    "whatif.bound_skips": "count",
    "whatif.skip_ratio": "ratio",
    "batch.requests": "count",
    "batch.solved": "count",
    "batch.cache_hits": "count",
    "batch.errors": "count",
    "batch.busy_s": "s",
    "batch.pool_busy_share": "ratio",
    "batch.overhead_s": "s",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.get_s": "s",
    "cache.puts": "count",
    "cache.put_s": "s",
    "mwu.solves": "count",
    "mwu.solve_s": "s",
    "sim.solves": "count",
    "sim.solve_s": "s",
    "service.boot_s": "s",
    "service.prime_s": "s",
    "service.hit_latency_p50_s": "s",
    "service.miss_latency_p50_s": "s",
    "service.frontend_p50_s": "s",
    "service.memo_hit_ratio": "ratio",
    "service.admitted": "count",
    "service.rejected": "count",
    "topologies.self_s": "s",
    "traffic.self_s": "s",
    "core.self_s": "s",
    "lp.self_s": "s",
    "modelcache.self_s": "s",
    "warmstart.self_s": "s",
    "whatif.self_s": "s",
    "mwu.self_s": "s",
    "sim.self_s": "s",
    "batch.self_s": "s",
    "cache.self_s": "s",
    "service.self_s": "s",
    "trace.overhead_answers_per_s": "1/s",
}

# ------------------------------------------------------------------ spans
#: ``(span name, owner, attribute)`` or ``(span name, owner, attribute, keep)``.
Target = Tuple[Any, ...]


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int
    request: str


class Tracer:
    """Collects spans in memory while enabled; a no-op otherwise.

    Spans nest per thread (each thread keeps its own parent stack) and
    carry the thread's current request id.  Only the process that created
    the tracer records: a forked pool worker inherits installed wrappers,
    but its spans could never be written out, so it skips them.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Span] = []
        self._pid = os.getpid()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        #: ``(span name, return value)`` of wrapped calls whose target
        #: asked to keep results (see :meth:`instrument`).
        self.results: List[Tuple[str, Any]] = []
        self._restore: List[Tuple[Any, str, Any]] = []

    def _active(self) -> bool:
        return self.enabled and os.getpid() == self._pid

    def set_request(self, request: str) -> None:
        """Tag this thread's following spans with ``request``."""
        self._local.request = request

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self._active():
            yield
            return
        stack = self._local.__dict__.setdefault("stack", [])
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            request = getattr(self._local, "request", "")
            with self._lock:
                self.spans.append(Span(sid, name, start, end, parent, request))

    def _wrap(self, fn: Callable, name: str, keep: bool) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if keep and tracer._active():
                with tracer._lock:
                    tracer.results.append((name, result))
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def instrument(self, targets: Sequence[Target]) -> None:
        """Wrap each target's function in a span.

        A target is ``(span name, owner, attribute)`` plus an optional
        ``True`` to keep each call's return value in :attr:`results`.
        ``owner`` is a class (the method is replaced on the class, so every
        caller sees it) or a module (the function is replaced in every
        loaded ``repro`` module that imported it by name).  Undone by
        :meth:`restore`.
        """
        for target in targets:
            name, owner, attr = target[:3]
            keep = len(target) > 3 and bool(target[3])
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped: Any = classmethod(self._wrap(raw.__func__, name, keep))
                else:
                    wrapped = self._wrap(raw, name, keep)
                self._restore.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(original, name, keep)
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, value))
                        setattr(module, key, wrapped)

    def restore(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    @contextmanager
    def tracing(self, targets: Sequence[Target] = ()) -> Iterator[None]:
        """Record spans (and wrap ``targets``) for the ``with`` body."""
        self.instrument(targets)
        self.enabled = True
        try:
            yield
        finally:
            self.enabled = False
            self.restore()


def _covered(intervals: List[Tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Seconds each layer spent in its own spans, children excluded.

    A span's layer is its name up to the first dot; its self time is its
    duration minus the part of that interval its child spans cover.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append((s.start, s.end))
    out: Dict[str, float] = {}
    for s in spans:
        layer = s.name.split(".", 1)[0]
        own = (s.end - s.start) - _covered(children.get(s.sid, []))
        out[layer] = out.get(layer, 0.0) + max(own, 0.0)
    return out


def span_seconds(spans: Sequence[Span], name: str) -> float:
    """Total duration of the spans called ``name``."""
    return sum(s.end - s.start for s in spans if s.name == name)


# ----------------------------------------------------------------- context
class Context:
    """Per-run state shared by the harness and the workload functions."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.tracer = Tracer()
        root = OUT / "tmp"
        root.mkdir(parents=True, exist_ok=True)
        self.scratch = Path(tempfile.mkdtemp(prefix="run-", dir=root))
        self.children_peak_kb = 0

    def fresh_dir(self, prefix: str) -> Path:
        """A new empty directory under this run's scratch directory."""
        return Path(tempfile.mkdtemp(prefix=prefix, dir=self.scratch))

    def note_children(self) -> None:
        """Remember the summed peak RSS of the live child processes."""
        self.children_peak_kb = max(self.children_peak_kb, children_hwm_kb())

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


def _status_kb(path: Path, field_name: str) -> int:
    try:
        for line in path.read_text().splitlines():
            if line.startswith(field_name + ":"):
                return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


def children_hwm_kb() -> int:
    """Summed peak RSS (VmHWM) of this process's live direct children."""
    pids = set()
    for task in Path("/proc/self/task").glob("*"):
        try:
            pids.update((task / "children").read_text().split())
        except OSError:
            continue
    return sum(_status_kb(Path("/proc") / pid / "status", "VmHWM") for pid in pids)


def peak_rss_mb(ctx: Context) -> float:
    """Peak RSS of this process plus the peak summed RSS of its children."""
    own = _status_kb(Path("/proc/self/status"), "VmHWM")
    return (own + ctx.children_peak_kb) / 1024.0


# ------------------------------------------------------------------ rounds
@dataclass
class Round:
    """One timed unit of work and what it produced."""

    answers: int
    failed: int
    wall: float
    latencies: List[float]
    #: Exact counts that must repeat for the same inputs.
    counts: Dict[str, int]
    #: Per-round layer numbers taken from what the program's API returns.
    layer: Dict[str, float] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    payload: Any = None
    traced: bool = False
    spans: List[Span] = field(default_factory=list)
    results: List[Tuple[str, Any]] = field(default_factory=list)


def run_rounds(
    ctx: Context,
    seconds: float,
    run_round: Callable[[int], Round],
    trace: bool,
    targets: Sequence[Target] = (),
) -> List[Round]:
    """Run rounds until ``seconds`` have passed (at least one round).

    With ``trace``, rounds alternate untraced / traced (at least one of
    each) so the tracing overhead compares rounds run side by side.  Each
    round starts after a full garbage collection, so no round pays for
    the garbage of the one before.
    """
    rounds: List[Round] = []
    start = time.perf_counter()
    while True:
        index = len(rounds)
        gc.collect()
        traced = trace and index % 2 == 1
        if traced:
            ctx.tracer.spans, ctx.tracer.results = [], []
            with ctx.tracer.tracing(targets):
                result = run_round(index)
            result.spans = ctx.tracer.spans
            result.results = ctx.tracer.results
        else:
            result = run_round(index)
        result.traced = traced
        rounds.append(result)
        enough = time.perf_counter() - start >= seconds
        if enough and (not trace or len(rounds) >= 2):
            return rounds


def timed_setups(
    ctx: Context,
    repeats: int,
    setup: Callable[[], Any],
    teardown: Callable[[Any], None],
    trace: bool,
) -> Tuple[List[Any], List[float], List[Span]]:
    """Run ``setup`` ``repeats`` times; only the last result stays live.

    Returns every setup's result (all but the last already passed to
    ``teardown``), its wall time, and -- when tracing -- the spans of all
    setups.
    """
    states: List[Any] = []
    times: List[float] = []
    ctx.tracer.spans = []
    for _ in range(repeats):
        if states:
            teardown(states[-1])
        gc.collect()
        ctx.tracer.enabled = trace
        t0 = time.perf_counter()
        try:
            states.append(setup())
        finally:
            times.append(time.perf_counter() - t0)
            ctx.tracer.enabled = False
    spans, ctx.tracer.spans = ctx.tracer.spans, []
    return states, times, spans


# ------------------------------------------------------------------- stats
def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100); 0.0 when empty."""
    data = sorted(values)
    if not data:
        return 0.0
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def rate(rounds: Sequence[Round]) -> float:
    """Answers per second over the summed wall time of ``rounds``."""
    return ratio(sum(r.answers for r in rounds), sum(r.wall for r in rounds))


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def mean_over(rounds: Sequence[Round], key: str) -> float:
    """Mean per round of ``round.layer[key]`` (0.0 with no rounds)."""
    return statistics.fmean(r.layer.get(key, 0.0) for r in rounds) if rounds else 0.0
