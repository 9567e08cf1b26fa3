"""Self-tests of the benchmark: determinism, metric coverage, the gates.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run as bench  # noqa: E402  (perfbench/run.py; puts src/ on the path)
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.core.client import Client  # noqa: E402
from repro.core.system import QueryFailedError, SecureXMLSystem  # noqa: E402
from repro.xmldb.serializer import serialize  # noqa: E402

DECLARED = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def _inputs(name: str, seed: int):
    spec = workloads.SPECS[name]
    document = workloads.build_document(spec, seed)
    pool = workloads.read_pool(spec, document)
    stream = workloads.OpStream(
        spec, seed, workloads.read_schedule(spec, pool)
    )
    ops = [stream.op(index) for index in range(300)]
    return serialize(document.root), pool, ops


@pytest.mark.parametrize("name", sorted(workloads.SPECS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    first = _inputs(name, 11)
    assert _inputs(name, 11) == first
    other = _inputs(name, 12)
    assert other[0] != first[0]
    assert other[2] != first[2]


def test_query_mix_is_fixed_across_seeds():
    """The seed changes values and order, never the class mix."""
    spec = workloads.SPECS["cold-mix"]
    sizes = {
        len(workloads.read_pool(spec, workloads.build_document(spec, seed)))
        for seed in (1, 2, 3)
    }
    assert len(sizes) == 1


def test_timed_loop_stops_only_at_a_pass_boundary():
    run = bench.Bench(workloads.SPECS["read-write"], 3)
    try:
        run.setup(1)
        driver = run.phase("a", seconds=0.01)
    finally:
        run.close()
    assert len(driver.read_s) == len(run.schedule)


def test_declared_workloads_match_the_specs():
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.SPECS)


def _declared(kind: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in DECLARED[kind]}


@pytest.mark.parametrize("name", sorted(workloads.SPECS))
def test_tiny_run_emits_every_end_to_end_metric(name):
    outcome = bench.run(name, seed=3, seconds=0.5, trace=False)
    result = outcome["result"]
    assert result["correct"] and result["failed"] == 0
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == _declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    tail = outcome["detail"]["query_tail_ms"]
    assert tail["beyond"] >= bench.TAIL_MIN_BEYOND or tail["percentile"] == 0
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["query_tail_ms"] >= values["query_p50_ms"]
    assert values["write_tail_ms"] >= values["write_p50_ms"]


def test_tiny_traced_run_emits_every_per_layer_metric_and_reconciles():
    outcome = bench.run("read-write", seed=3, seconds=0.5, trace=True)
    result = outcome["result"]
    assert result["correct"] and result["failed"] == 0
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == _declared("per_layer")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["trace.missing_entry_points"] == 0
    assert 0 <= metrics["trace.unattributed_frac"] < 1
    spans = bench.ROOT / outcome["detail"]["spans_file"]
    first = json.loads(spans.read_text().splitlines()[0])
    assert {"name", "start", "end", "parent", "op"} <= set(first)


def test_missing_entry_point_is_reported_not_fatal(monkeypatch):
    gone = tracing.Layer(
        "gone.layer", ("repro.core.client:Client.no_such_method",),
        "gone.layer_s",
    )
    monkeypatch.setattr(tracing, "LAYERS", tracing.LAYERS + (gone,))
    outcome = bench.run("read-write", seed=3, seconds=0.3, trace=True)
    assert outcome["result"]["correct"]
    assert outcome["detail"]["missing_entry_points"] == [
        "repro.core.client:Client.no_such_method"
    ]
    assert outcome["result"]["metrics"]["trace.missing_entry_points"][
        "value"
    ] == 1


def test_injected_wrong_answer_fails_the_run(monkeypatch):
    original = Client.post_process

    def drop_one(self, query, pruned):
        answer = original(self, query, pruned)
        answer.nodes = answer.nodes[1:]
        return answer

    monkeypatch.setattr(Client, "post_process", drop_one)
    outcome = bench.run("read-write", seed=3, seconds=0.3, trace=False)
    assert outcome["result"]["correct"] is False
    assert outcome["detail"]["failures"]["query:wrong-answer"] > 0


def test_untyped_exception_ends_the_run(monkeypatch):
    """A plain bug is not a counted failure: the run stops with it."""

    def broken(self, query, pruned):
        raise AttributeError("injected bug")

    monkeypatch.setattr(Client, "post_process", broken)
    with pytest.raises(AttributeError, match="injected bug"):
        bench.run("read-write", seed=3, seconds=0.3, trace=False)


def test_typed_error_is_counted_and_fails_the_exit_code(monkeypatch, capsys):
    original = SecureXMLSystem.query

    def refuse_one(self, xpath):
        if xpath == "//creditcard":
            raise QueryFailedError("injected")
        return original(self, xpath)

    monkeypatch.setattr(SecureXMLSystem, "query", refuse_one)
    assert bench.main(["--workload", "read-write", "--seed", "3",
                       "--seconds", "0.3"]) == 1
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] > 0
    detail = json.loads(lines[-2])["detail"]
    assert detail["failures"] == {
        "query:QueryFailedError": result["failed"]
    }


def test_ledger_that_misses_the_timed_wall_fails_the_run(monkeypatch):
    """Operation roots that cover more than the driver timed are caught."""
    original = tracing.Recorder.begin_op

    def slow_root(self, kind):
        frame = original(self, kind)
        time.sleep(0.002)
        return frame

    monkeypatch.setattr(tracing.Recorder, "begin_op", slow_root)
    with pytest.raises(RuntimeError, match="misses the timed"):
        bench.run("read-write", seed=3, seconds=0.3, trace=True)


def test_class_best_replaces_each_sample_by_its_class_10th_percentile():
    samples = [5.0, 1.0, 9.0, 3.0, 2.0]
    classes = ["a", "b", "a", "a", "b"]
    assert bench.class_best(samples, classes) == [3.0, 1.0, 3.0, 3.0, 1.0]
    many = [float(value) for value in range(20, 0, -1)]
    assert bench.class_best(many, ["c"] * 20) == [2.0] * 20
    assert bench.class_best([], []) == []


def test_reads_after_a_write_are_classed_cold():
    run = bench.Bench(workloads.SPECS["read-write"], 3)
    try:
        run.setup(1)
        driver = run.client()
        query = run.pool[0]
        driver.execute(("query", query))
        driver.execute(("query", query))
        stream = workloads.OpStream(run.spec, 3, run.schedule)
        driver.execute(stream.write(1))
        driver.execute(("query", query))
    finally:
        run.close()
    assert driver.read_class == [(query, True), (query, False), (query, True)]
    assert driver.write_class == ["update_value:age"]


def test_stray_environment_is_cleared_and_recorded(monkeypatch):
    monkeypatch.setenv("REPRO_SHARDS", "3")
    monkeypatch.setenv("REPRO_BENCH_TRIALS", "1")
    outcome = bench.run("read-write", seed=3, seconds=0.2, trace=False)
    provenance = outcome["detail"]["provenance"]
    assert provenance["shards"] == 1
    assert provenance["cleared_env"] == ["REPRO_BENCH_TRIALS", "REPRO_SHARDS"]


def test_tail_steps_down_until_ten_samples_lie_beyond():
    value, percentile, beyond = bench.tail(
        [float(i) for i in range(1, 101)], 99
    )
    assert (value, percentile, beyond) == (90.0, 90, 10)
    value, percentile, beyond = bench.tail([float(i) for i in range(5000)], 99)
    assert percentile == 99 and beyond == 50
    assert bench.tail([1.0] * 5, 75)[1] == 0


def test_all_runs_every_workload_and_prefixes_its_metrics(capsys):
    assert bench.main(["--workload", "all", "--seed", "3", "--seconds",
                       "0.3"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"]
    assert set(result["metrics"]) == {
        f"{workload}.{metric}"
        for workload in workloads.SPECS
        for metric in _declared("end_to_end")
    }
