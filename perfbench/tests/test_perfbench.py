"""Tests of the benchmark itself: names, seeded inputs, failure accounting."""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from perfbench import harness, run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "OUT", tmp_path)
    return tmp_path


def test_benchmark_json_names_match_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_same_seed_gives_same_input_digests(out_dir, monkeypatch):
    from perfbench import paper_sweep, service_mixed, whatif_ensemble

    monkeypatch.setattr(paper_sweep, "MAX_SERVERS", 16)

    def digests(module, seed):
        ctx = harness.Context(seed)
        try:
            return module.input_digests(module.setup(ctx))
        finally:
            ctx.close()

    for module in (paper_sweep, whatif_ensemble):
        assert digests(module, 3) == digests(module, 3)
        assert digests(module, 3) != digests(module, 4)
    hot = service_mixed.hot_set(3)
    assert hot == service_mixed.hot_set(3) != service_mixed.hot_set(4)
    assert service_mixed.round_queries(3, 1, hot) == service_mixed.round_queries(3, 1, hot)


def _small_whatif(monkeypatch):
    from perfbench import whatif_ensemble

    monkeypatch.setattr(whatif_ensemble, "N_SWITCHES", 10)
    monkeypatch.setattr(whatif_ensemble, "DEGREE", 3)
    monkeypatch.setattr(whatif_ensemble, "SETUP_REPEATS", 1)
    return whatif_ensemble


def test_run_is_correct_and_counts_repeat(out_dir, monkeypatch):
    _small_whatif(monkeypatch)
    first, code = run.run("whatif-ensemble", 5, 0.01, False, {})
    assert code == 0 and first["correct"] and first["failed"] == 0
    assert first["attempted"] == 28 and first["flags"] == []
    assert set(first["metrics"]) == set(harness.END_TO_END)
    again, _ = run.run("whatif-ensemble", 5, 0.01, True, {})
    assert again["flags"] == []
    assert set(again["metrics"]) == set(harness.PER_LAYER)
    assert again["metrics"]["whatif.bound_skips"]["value"] == 4


def test_injected_wrong_answer_is_a_failure(out_dir, monkeypatch):
    module = _small_whatif(monkeypatch)
    real = module.reference_value
    monkeypatch.setattr(module, "reference_value", lambda state, caps: real(state, caps) * 1.5)
    record, code = run.run("whatif-ensemble", 5, 0.01, False, {})
    assert code == 1 and not record["correct"]
    assert record["failed"] >= 4  # every bound-skipped answer is re-checked
    assert record["attempted"] == 28


def test_one_failing_request_does_not_abort_the_run(out_dir, monkeypatch):
    from perfbench import service_mixed

    monkeypatch.setattr(service_mixed, "SETUP_REPEATS", 1)
    monkeypatch.setattr(service_mixed, "HOT_SIZE", 24)
    monkeypatch.setattr(service_mixed, "ROUND_QUERIES", 30)
    monkeypatch.setattr(service_mixed, "FRESH", {"sim": 1, "lp": 1})
    queries = service_mixed.round_queries

    def with_bad_query(seed, index, hot):
        return [{"topology": {"family": "no-such-family"}}] + queries(seed, index, hot)

    monkeypatch.setattr(service_mixed, "round_queries", with_bad_query)
    record, code = run.run("service-mixed", 2, 0.01, False, {})
    assert code == 1
    assert record["attempted"] == 31 and record["failed"] == 1
    assert "HTTP 400" in record["failures"][0]


def test_self_times_subtract_child_spans():
    S = harness.Span
    spans = [
        S(1, "batch.solve_many", 0.0, 10.0, 0, "r"),
        S(2, "cache.get", 1.0, 2.0, 1, "r"),
        S(3, "lp.solve", 3.0, 8.0, 1, "r"),
        S(4, "modelcache.skeleton_for", 3.0, 4.0, 3, "r"),
    ]
    assert harness.self_times(spans) == {
        "batch": 4.0, "cache": 1.0, "lp": 4.0, "modelcache": 1.0,
    }


def test_instrument_wraps_and_restores():
    from repro.batch import BatchSolver

    tracer = harness.Tracer()
    original = BatchSolver.__dict__["solve_many"]
    with tracer.tracing([("batch.solve_many", BatchSolver, "solve_many")]):
        with BatchSolver(workers=1) as solver:
            assert solver.solve_many([]) == []
    assert BatchSolver.__dict__["solve_many"] is original
    assert [s.name for s in tracer.spans] == ["batch.solve_many"]
