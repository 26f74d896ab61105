"""Tests for the benchmark-tracking gate (BENCH_*.json trajectory).

The CI bench job exports per-test wall times to JSON and fails the build
on a >3x regression against the committed ``BENCH_baseline.json``; these
tests pin the comparison logic and the committed baseline's shape.
"""

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE = REPO_ROOT / "BENCH_baseline.json"


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_regression", REPO_ROOT / "benchmarks" / "check_regression.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checker = _load_checker()


class TestCompare:
    def test_within_threshold_passes(self):
        rows = checker.compare({"t": 1.0}, {"t": 0.9})
        assert len(rows) == 1
        assert not rows[0]["regressed"]
        assert rows[0]["ratio"] == pytest.approx(1.0 / 0.9)

    def test_beyond_threshold_fails(self):
        (row,) = checker.compare({"t": 3.1}, {"t": 1.0})
        assert row["regressed"]
        assert row["ratio"] == pytest.approx(3.1)

    def test_noise_floor_shields_fast_tests(self):
        # 10x slower but still sub-half-second: CI jitter, not a signal.
        (row,) = checker.compare({"t": 0.4}, {"t": 0.04})
        assert not row["regressed"]

    def test_one_sided_tests_never_fail_the_gate(self):
        rows = checker.compare({"new": 9.0}, {"old": 1.0})
        assert {row["nodeid"] for row in rows} == {"new", "old"}
        assert not any(row["regressed"] for row in rows)

    def test_custom_threshold(self):
        (row,) = checker.compare({"t": 1.6}, {"t": 1.0}, threshold=1.5)
        assert row["regressed"]

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            checker.compare({}, {}, threshold=1.0)
        with pytest.raises(ValueError):
            checker.compare({}, {}, min_seconds=-1.0)


class TestCli:
    def _write(self, path, timings):
        path.write_text(json.dumps({"schema": 1, "timings": timings}))
        return path

    def test_green_run_exits_zero(self, tmp_path, capsys):
        current = self._write(tmp_path / "current.json", {"t": 1.0})
        baseline = self._write(tmp_path / "baseline.json", {"t": 0.8})
        assert checker.main([str(current), "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "no regression" in out

    def test_regression_exits_nonzero_and_names_the_test(self, tmp_path, capsys):
        current = self._write(tmp_path / "current.json", {"slow": 6.0, "ok": 1.0})
        baseline = self._write(tmp_path / "baseline.json", {"slow": 1.0, "ok": 1.0})
        assert checker.main([str(current), "--baseline", str(baseline)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out
        assert "slow" in out

    def test_missing_baseline_is_not_an_error(self, tmp_path, capsys):
        # First run on a branch that predates the baseline: report, pass.
        current = self._write(tmp_path / "current.json", {"t": 1.0})
        missing = tmp_path / "nope.json"
        assert checker.main([str(current), "--baseline", str(missing)]) == 0
        assert "nothing to compare" in capsys.readouterr().out


class TestThroughputDelta:
    CURRENT = {"bench::fast": {"packets_per_s": 200.0, "events_per_s": 100.0}}
    BASE = {"bench::fast": {"packets_per_s": 100.0, "events_per_s": 100.0}}

    def test_speedup_is_current_over_baseline(self):
        rows = checker.throughput_delta(self.CURRENT, self.BASE)
        by_metric = {row["metric"]: row for row in rows}
        assert by_metric["packets_per_s"]["speedup"] == pytest.approx(2.0)
        assert by_metric["events_per_s"]["speedup"] == pytest.approx(1.0)

    def test_one_sided_rows_have_no_speedup(self):
        rows = checker.throughput_delta(self.CURRENT, {})
        assert all(row["speedup"] is None for row in rows)
        assert all(row["baseline"] is None for row in rows)

    def test_formatting_mentions_the_rates(self):
        out = checker.format_throughput_rows(
            checker.throughput_delta(self.CURRENT, self.BASE)
        )
        assert "2.00x" in out
        assert "bench::fast" in out

    def test_schema1_exports_have_empty_throughput(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"schema": 1, "timings": {"t": 1.0}}))
        assert checker.load_throughput(path) == {}

    def test_github_summary_includes_both_tables(self, tmp_path, monkeypatch):
        out = tmp_path / "summary.md"
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(out))
        timing_rows = checker.compare({"t": 1.0}, {"t": 0.9})
        throughput_rows = checker.throughput_delta(self.CURRENT, self.BASE)
        checker.write_github_summary(timing_rows, throughput_rows)
        text = out.read_text()
        assert "Benchmark timings vs baseline" in text
        assert "Engine throughput vs baseline" in text


class TestCommittedBaseline:
    def test_baseline_exists_with_expected_schema(self):
        payload = json.loads(BASELINE.read_text())
        assert payload["schema"] == 4
        # Schema 4 dropped the tracemalloc-traced memory section.
        assert "memory" not in payload
        assert payload["timings"]
        for nodeid, seconds in payload["timings"].items():
            assert nodeid.startswith("benchmarks/")
            assert "::" in nodeid
            assert seconds > 0.0

    def test_baseline_covers_the_l4s_benchmarks(self):
        payload = json.loads(BASELINE.read_text())
        assert any("test_l4s.py" in nodeid for nodeid in payload["timings"])

    def test_baseline_records_engine_throughput(self):
        payload = json.loads(BASELINE.read_text())
        throughput = payload["throughput"]
        assert any("test_engine_throughput.py" in nodeid for nodeid in throughput)
        # The engine microbenchmarks report the canonical pair; other
        # suites record their own rates (units_per_s, steps_per_s, ...)
        # via record_rates — every entry must carry at least one rate.
        for nodeid, metrics in throughput.items():
            assert metrics and all(name.endswith("_per_s") for name in metrics)
            if "test_engine_throughput.py" in nodeid:
                assert set(metrics) >= {"packets_per_s", "events_per_s"}
        assert any("units_per_s" in metrics for metrics in throughput.values())

    def test_baseline_loads_through_the_checker(self):
        timings = checker.load_timings(BASELINE)
        rows = checker.compare(timings, timings)
        assert rows and all(row["ratio"] == pytest.approx(1.0) for row in rows)
        assert not any(row["regressed"] for row in rows)
        throughput = checker.load_throughput(BASELINE)
        delta = checker.throughput_delta(throughput, throughput)
        assert delta
        assert all(
            row["speedup"] == pytest.approx(1.0)
            for row in delta
            if row["current"]  # churn benchmarks record 0 packets/s
        )
