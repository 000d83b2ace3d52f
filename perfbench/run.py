"""Repeatable end-to-end benchmark of the repro package.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --report --workload all --seed 1 --seconds 25

One run builds its inputs from ``--seed`` (set-up, repeated and reported as
the median), then repeats rounds of its workload until ``--seconds`` have
passed, checks the answers, and prints every metric by name with its unit
and sample count.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The traced
run alternates untraced and traced rounds; spans are written to
``perfbench/out/trace-<workload>-seed<seed>.json`` and each run's full
record (inputs and their digests, exact counts, environment, metrics with
sample counts, failures) to ``perfbench/out/<workload>-seed<seed>-trace<t>.json``.

Workloads (see each module's docstring):

* ``paper-sweep`` -- all ten families x {A2A, RM(1), LM}, ``lp`` engine,
  ``Session(workers=2)``, cold.
* ``whatif-ensemble`` -- a 28-scenario failure/maintenance/degradation
  ensemble through ``whatif_sweep``, serial.
* ``service-mixed`` -- two closed-loop clients against ``repro serve``.

End-to-end metrics: ``setup_s`` (median set-up), ``answers_per_s`` (answers
over the summed wall time of the untraced rounds), ``latency_p50_s`` and
``latency_p99_s`` (per HTTP query on ``service-mixed``; per whole sweep or
ensemble, the unit a caller waits for, on the batch workloads) and
``peak_rss_mb`` (this process plus its children).  The error rate is
``failed / attempted``: solve errors, non-2xx replies and answers failing a
check all count, and any failure makes the command exit 1.

Per-layer metrics (``--trace 1``) are per round, averaged over the traced
rounds (set-up layers: per set-up), and 0 for a layer the workload does
not exercise.  Spans come from
the benchmark's own files: around its calls into ``topologies``,
``traffic``, ``core`` and ``batch``, and around public functions it wraps
for the traced rounds (result-cache ``get``/``put``; on
``whatif-ensemble`` also ``ArcGraph.with_caps``, ``SolveHint``,
``solve_throughput_lp`` and ``skeleton_for``).  ``<layer>.self_s`` is a
layer's span time minus its child spans.  Layers that run in a pool worker
or the server process are read from what the API returns instead:

* ``lp.*`` on ``paper-sweep`` and ``service-mixed``, and ``mwu.*`` /
  ``sim.*``: ``ThroughputResult.solve_seconds``,
  ``meta["assembly_seconds"]`` and ``meta["method"]`` (a fallback is an
  answer from a later method of the backend's chain), or the
  ``solve_seconds`` and ``engine`` of each service reply;
* ``batch.*`` counts and ``modelcache.*``: ``BatchSolver.stats()`` (its
  skeleton hit/miss counters);
* ``cache.*`` counts, ``service.*`` counts and ``modelcache.*`` on
  ``service-mixed``: ``/stats`` deltas over the round.  The server's
  cache read time is not exposed there, so ``cache.get_s`` is measured on
  the batch workloads only.

``trace.overhead_answers_per_s`` is the traced rounds' ``answers_per_s``
minus the untraced rounds'.

Runs are hermetic: inherited ``REPRO_*`` variables are dropped before the
package loads, every round gets a fresh result-cache directory and an empty
compiled-model cache, and every file the run writes stays under
``perfbench/out``.  A run whose exact counts differ from the previous run of
the same seed and inputs is flagged.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = {
    "paper-sweep": "perfbench.paper_sweep",
    "whatif-ensemble": "perfbench.whatif_ensemble",
    "service-mixed": "perfbench.service_mixed",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--report",
        action="store_true",
        help="run the workload(s) untraced and traced and print every metric",
    )
    args = parser.parse_args(argv)
    if args.workload == "all" and not args.report:
        parser.error("--workload all needs --report")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _prepare() -> list:
    """Make the checkout's package importable, hermetically.

    Returns the inherited ``REPRO_*`` names that were dropped.
    """
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no repro package under {ROOT / 'src'}; run from a checkout")
    dropped = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for name in dropped:
        del os.environ[name]
    out_tmp = ROOT / "perfbench" / "out" / "tmp"
    out_tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(out_tmp)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    return dropped


def _environment(dropped: list) -> dict:
    import numpy
    import scipy
    from repro.utils.envknobs import KNOBS, read_knob

    return {
        "knobs": {name: read_knob(name) or knob.default for name, knob in KNOBS.items()},
        "dropped_env": dropped,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def _metric(value: float, unit: str, n: int) -> dict:
    return {"value": float(value), "unit": unit, "n": int(n)}


def run(workload: str, seed: int, seconds: float, trace: bool, env: dict) -> tuple:
    """One run; returns (record, exit code)."""
    import importlib

    from perfbench import harness as h

    module = importlib.import_module(WORKLOADS[workload])
    ctx = h.Context(seed)
    state = None
    try:
        setups, setup_times, setup_spans = h.timed_setups(
            ctx,
            module.SETUP_REPEATS,
            lambda: module.setup(ctx),
            module.teardown,
            trace,
        )
        state = setups[-1]
        digests = module.input_digests(state)
        inputs_digest = hashlib.sha256(json.dumps(digests).encode()).hexdigest()
        rounds = h.run_rounds(
            ctx,
            seconds,
            lambda i: module.run_round(ctx, state, i),
            trace,
            module.targets(),
        )
        peak_mb = h.peak_rss_mb(ctx)
        failures = [e for r in rounds for e in r.errors]
        check_failures = module.check(ctx, state, rounds)
    finally:
        if state is not None:
            module.close(ctx, state)
        ctx.close()

    attempted = sum(r.answers + r.failed for r in rounds)
    failed = sum(r.failed for r in rounds) + len(check_failures)
    plain = [r for r in rounds if not r.traced]
    traced = [r for r in rounds if r.traced]
    latencies = [x for r in plain for x in r.latencies]
    metrics = {
        "setup_s": _metric(h.median(setup_times), "s", len(setup_times)),
        "answers_per_s": _metric(h.rate(plain), "1/s", len(plain)),
        "latency_p50_s": _metric(h.percentile(latencies, 50), "s", len(latencies)),
        "latency_p99_s": _metric(h.percentile(latencies, 99), "s", len(latencies)),
        "peak_rss_mb": _metric(peak_mb, "MB", 1),
    }
    if trace:
        layer = {name: _metric(0.0, unit, 0) for name, unit in h.PER_LAYER.items()}
        for name in {k for r in traced for k in r.layer}:
            layer[name] = _metric(h.mean_over(traced, name), h.PER_LAYER[name], len(traced))
        for name, value in module.layer_metrics(ctx, setups, setup_spans, traced).items():
            layer[name] = _metric(value, h.PER_LAYER[name], len(traced))
        spans = [s for r in traced for s in r.spans]
        per_run = {k: v / len(traced) for k, v in h.self_times(spans).items()}
        for name, value in h.self_times(setup_spans).items():
            per_run[name] = per_run.get(name, 0.0) + value / len(setups)
        for name, value in per_run.items():
            key = f"{name}.self_s"
            if key in layer:
                layer[key] = _metric(value, "s", len(traced))
        layer["error_rate"] = _metric(h.ratio(failed, attempted), "ratio", attempted)
        layer["trace.overhead_answers_per_s"] = _metric(
            h.rate(traced) - metrics["answers_per_s"]["value"],
            "1/s",
            len(traced),
        )
        trace_path = h.OUT / f"trace-{workload}-seed{seed}.json"
        trace_path.write_text(
            json.dumps([[s.name, s.start, s.end, s.sid, s.parent, s.request] for s in spans])
        )
        metrics = layer

    counts = rounds[0].counts
    flags = []
    if any(r.counts != counts for r in rounds):
        flags.append("exact counts differ between rounds of this run")
    counts_path = h.OUT / "counts" / f"{workload}-seed{seed}.json"
    counts_path.parent.mkdir(parents=True, exist_ok=True)
    if counts_path.is_file():
        previous = json.loads(counts_path.read_text())
        if previous["inputs_digest"] == inputs_digest and previous["counts"] != counts:
            flags.append(f"exact counts changed since the previous run: {previous['counts']}")
    counts_path.write_text(json.dumps({"inputs_digest": inputs_digest, "counts": counts}))

    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "rounds": len(rounds),
        "traced_rounds": len(traced),
        "round_walls": [r.wall for r in rounds],
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": (failures + check_failures)[:50],
        "metrics": metrics,
        "counts": counts,
        "flags": flags,
        "inputs_digest": inputs_digest,
        "inputs": digests,
        "environment": env,
    }
    (h.OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1)
    )
    return record, (0 if failed == 0 else 1)


def _print_record(record: dict, stream) -> None:
    print(
        f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
        f"rounds={record['rounds']} inputs={record['inputs_digest'][:16]} "
        f"counts={json.dumps(record['counts'], sort_keys=True)}",
        file=stream,
    )
    for name, m in record["metrics"].items():
        print(f"{record['workload']:16} {name:32} {m['value']:>14.6g} {m['unit']:6} n={m['n']}", file=stream)
    for flag in record["flags"]:
        print(f"FLAG: {flag}", file=stream)
    for failure in record["failures"]:
        print(f"FAILED: {failure}", file=stream)


def report(args) -> int:
    """Run each selected workload untraced and traced; print every metric."""
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        for trace in (0, 1):
            path = ROOT / "perfbench" / "out" / f"{name}-seed{args.seed}-trace{trace}.json"
            path.unlink(missing_ok=True)
            proc = subprocess.run(
                [
                    sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace),
                ],
                cwd=str(ROOT),
                stdout=subprocess.DEVNULL,
            )
            status = status or proc.returncode
            if path.is_file():
                _print_record(json.loads(path.read_text()), sys.stdout)
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    dropped = _prepare()
    if args.report:
        return report(args)
    record, code = run(args.workload, args.seed, args.seconds, bool(args.trace), _environment(dropped))
    _print_record(record, sys.stdout)
    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]} for name, m in record["metrics"].items()
        },
    }
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
