"""Tests for the parallel executor."""

import os
import time

import pytest

from repro.campaign import parse_campaign, run_campaign
from repro.runner import (
    ParallelExecutor,
    ResultCache,
    ScenarioSpec,
    content_key,
    register_task,
    run_specs,
)

_EXECUTIONS = []


@register_task("test.record")
def _record(value, seed=None):
    _EXECUTIONS.append(value)
    return value


@register_task("test.fail")
def _fail(seed=None):
    raise RuntimeError("task exploded")


@register_task("test.fail_after")
def _fail_after(delay_s, seed=None):
    time.sleep(delay_s)
    raise RuntimeError("late task exploded")


def _echo_specs(n):
    return [
        ScenarioSpec(task="debug.echo", params={"index": i}, seed=i) for i in range(n)
    ]


class TestParallelExecutor:
    def test_serial_map_preserves_order(self):
        results = ParallelExecutor(jobs=1).map(_echo_specs(5))
        assert [r["index"] for r in results] == list(range(5))
        assert [r["seed"] for r in results] == list(range(5))

    def test_parallel_map_preserves_order(self):
        results = ParallelExecutor(jobs=2).map(_echo_specs(6))
        assert [r["index"] for r in results] == list(range(6))

    def test_parallel_equals_serial(self):
        specs = _echo_specs(4)
        assert ParallelExecutor(jobs=1).map(specs) == ParallelExecutor(jobs=4).map(specs)

    def test_jobs_below_one_means_cpu_count(self):
        assert ParallelExecutor(jobs=0).jobs == (os.cpu_count() or 1)
        assert ParallelExecutor(jobs=None).jobs == (os.cpu_count() or 1)

    def test_run_single_spec(self):
        result = ParallelExecutor(jobs=1).run(
            ScenarioSpec(task="debug.echo", params={"x": 9})
        )
        assert result["x"] == 9

    def test_empty_map(self):
        assert ParallelExecutor(jobs=2).map([]) == []

    def test_task_error_propagates(self):
        with pytest.raises(RuntimeError, match="task exploded"):
            ParallelExecutor(jobs=1).map([ScenarioSpec(task="test.fail")])

    def test_run_specs_convenience(self):
        assert run_specs(_echo_specs(2))[1]["index"] == 1


class TestExecutorCaching:
    def test_cache_skips_execution_on_second_run(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = ScenarioSpec(task="test.record", params={"value": 42})
        _EXECUTIONS.clear()

        first = ParallelExecutor(jobs=1, cache=cache).map([spec])
        assert first == [42]
        assert _EXECUTIONS == [42]

        second = ParallelExecutor(jobs=1, cache=cache).map([spec])
        assert second == [42]
        assert _EXECUTIONS == [42]  # not executed again
        assert cache.hits == 1

    def test_cache_distinguishes_parameters(self, tmp_path):
        cache = ResultCache(tmp_path)
        executor = ParallelExecutor(jobs=1, cache=cache)
        _EXECUTIONS.clear()
        executor.map([ScenarioSpec(task="test.record", params={"value": 1})])
        executor.map([ScenarioSpec(task="test.record", params={"value": 2})])
        assert _EXECUTIONS == [1, 2]

    def test_mixed_hits_and_misses_keep_order(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = _echo_specs(4)
        ParallelExecutor(jobs=1, cache=cache).map(specs[:2])
        results = ParallelExecutor(jobs=1, cache=cache).map(specs)
        assert [r["index"] for r in results] == list(range(4))

    def test_given_keys_are_used_instead_of_hashing(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = _echo_specs(2)
        ParallelExecutor(jobs=1, cache=cache).map(specs, keys=["k0", "k1"])
        assert cache.get("k1") == (True, specs[1].run())
        assert cache.get(content_key(specs[1])) == (False, None)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_finished_results_are_cached_before_a_later_failure(self, tmp_path, jobs):
        cache = ResultCache(tmp_path)
        specs = _echo_specs(3) + [ScenarioSpec(task="test.fail_after", params={"delay_s": 0.5})]
        with pytest.raises(RuntimeError, match="late task exploded"):
            ParallelExecutor(jobs=jobs, cache=cache).map(specs)
        for spec in specs[:3]:
            assert cache.get(content_key(spec)) == (True, spec.run())
        assert cache.get(content_key(specs[3]))[0] is False


class TestCampaignKeys:
    def test_warm_pass_hashes_each_compiled_arm_once(self, tmp_path, monkeypatch):
        campaign = parse_campaign(
            {
                "campaign": "keys",
                "stages": [
                    {"figure": "fig2a", "noise": 0.05, "seeds": [1, 2]},
                    {"figure": "fig2a", "name": "again", "noise": 0.05, "seeds": [1]},
                ],
            }
        )
        run_campaign(campaign, cache=ResultCache(tmp_path))

        calls = []

        def counted(spec):
            calls.append(spec.label)
            return content_key(spec)

        monkeypatch.setattr("repro.campaign.spec.content_key", counted)
        monkeypatch.setattr("repro.runner.executor.content_key", counted)
        warm = run_campaign(campaign, cache=ResultCache(tmp_path))
        assert (warm.cache_hits, warm.cache_misses, warm.unique_arms) == (2, 0, 2)
        assert calls == ["fig2a[seed=1]", "fig2a[seed=2]", "again[seed=1]"]
