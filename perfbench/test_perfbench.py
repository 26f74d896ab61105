"""Tests of the benchmark itself (not of ``repro``).

Run from the repository root::

    python -m pytest perfbench -q

They run short slices of each workload's batch, so they take about a
minute.
"""

from __future__ import annotations

import json
import re
import sys
import tracemalloc
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run, workloads  # noqa: E402
from perfbench.tracing import Tracer, installed_wrappers  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _slice(workload: str, inputs):
    """A short prefix of the batch: the same code paths, in seconds."""
    if workload == "campaign":
        return inputs
    return inputs[:3]


def _traced_counts(workload: str, seed: int, workdir: Path) -> dict[str, float]:
    inputs = _slice(workload, workloads.make_inputs(workload, seed, workdir))
    run.OUT.mkdir(exist_ok=True)
    batch, traced = run.traced_run(workload, seed, inputs)
    assert batch.failed == 0, batch.problems
    no_setups = [dict.fromkeys(("import.core_s", "import.netsim_s", "import.campaign_s"), 0.0)]
    metrics = run.per_layer(batch, traced, no_setups, 0.0)
    return {name: metrics[name] for name in run.COUNTS}


@pytest.fixture(autouse=True)
def _small_runs(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    monkeypatch.setattr(workloads, "PAIRED_FIGURES", ("fig7",))
    monkeypatch.setattr(workloads, "WARM_PASSES", workloads.WARM_GROUP)


@pytest.mark.parametrize("workload", ["packet_mix", "fleet", "campaign"])
def test_counts_repeat_exactly_at_one_seed(workload, tmp_path):
    first = _traced_counts(workload, 5, tmp_path)
    second = _traced_counts(workload, 5, tmp_path)
    assert first == second
    assert any(value > 0 for value in first.values())


@pytest.mark.parametrize("workload", ["packet_mix", "fleet"])
def test_seed_changes_the_inputs(workload, tmp_path):
    assert workloads.make_inputs(workload, 1, tmp_path) != workloads.make_inputs(
        workload, 2, tmp_path
    )
    assert workloads.make_inputs(workload, 1, tmp_path) == workloads.make_inputs(
        workload, 1, tmp_path
    )


def test_seed_changes_the_campaign():
    assert workloads.campaign_document(1) != workloads.campaign_document(2)
    assert workloads.campaign_document(1) == workloads.campaign_document(1)


def test_metric_names_are_well_formed_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert e2e == list(run.END_TO_END)
    assert layer == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for name in [m[0] for m in e2e] + [m[0] for m in layer]:
        assert NAME.fullmatch(name), name


def test_timed_pass_runs_untraced(monkeypatch):
    seen = []

    def probe(workload, inputs, pace):
        pace()
        seen.append((tracemalloc.is_tracing(), installed_wrappers()))
        return workloads.Batch(ops=[(0.0, 1.0, 1)], work=[(0.0, 1.0, 1.0)], attempted=1)

    monkeypatch.setattr(workloads, "run_batch", probe)
    run.timed_run("packet_mix", [], seconds=0.0, pacer=run.Pacer())
    assert seen == [(False, [])]


def test_timed_pass_refuses_instrumentation():
    import repro.netsim.packet.simulation  # noqa: F401

    with Tracer():
        assert installed_wrappers()
        with pytest.raises(RuntimeError, match="wrappers"):
            run.assert_untraced()
    assert installed_wrappers() == []
    tracemalloc.start()
    try:
        with pytest.raises(RuntimeError, match="tracemalloc"):
            run.assert_untraced()
    finally:
        tracemalloc.stop()
    run.assert_untraced()


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = [float(i) for i in range(1, 201)]
    value, percentile = run.tail(samples)
    assert value == 190.0 and percentile == 95.0
    assert sum(s > value for s in samples) == run.TAIL_BEYOND
