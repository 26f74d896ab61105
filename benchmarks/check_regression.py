"""Benchmark regression gate: compare a timing export against a baseline.

Usage::

    BENCH_JSON=bench-timings.json python -m pytest benchmarks -q
    python benchmarks/check_regression.py bench-timings.json

Reads the JSON written by the ``BENCH_JSON`` hook in
``benchmarks/conftest.py`` and compares each test's wall time against the
committed repo-root ``BENCH_baseline.json``.  A test fails the gate when
it is more than ``--threshold`` (default 3x) slower than its baseline
*and* slower than the absolute noise floor (``--min-seconds``, default
0.5 s) — sub-second tests jitter far more than 3x on shared CI runners
without telling us anything about the code.

Tests present on only one side are reported but never fail the gate:
new benchmarks have no baseline yet, and removed ones have no current
timing.  Exit status is 1 when any regression is found, 0 otherwise.

Exports carrying a ``throughput`` section (the packet-engine
microbenchmarks' absolute pkts/sec and events/sec) additionally get a
speedup/slowdown delta table against the baseline's throughput —
informational only, so deliberate engine speedups show up in the CI
job summary without inventing a second gate.  When
``GITHUB_STEP_SUMMARY`` points at a file (as it does in GitHub
Actions), both tables are appended to it as markdown.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

#: Fail when current > threshold * baseline ...
DEFAULT_THRESHOLD = 3.0
#: ... but only for tests slower than this (seconds): below it, runner
#: jitter dwarfs any real signal.
DEFAULT_MIN_SECONDS = 0.5

#: The committed perf trajectory this gate compares against.
DEFAULT_BASELINE = Path(__file__).resolve().parent.parent / "BENCH_baseline.json"


def load_timings(path: Path) -> dict[str, float]:
    """Read a timing export, returning ``{nodeid: seconds}``."""
    payload = json.loads(Path(path).read_text())
    timings = payload.get("timings", payload)
    return {str(k): float(v) for k, v in timings.items()}


def load_throughput(path: Path) -> dict[str, dict[str, float]]:
    """Read an export's throughput section: ``{nodeid: {metric: rate}}``.

    Empty for schema-1 exports (written before throughput recording
    existed), so old baselines keep working.
    """
    payload = json.loads(Path(path).read_text())
    section = payload.get("throughput", {}) if isinstance(payload, dict) else {}
    return {
        str(k): {str(m): float(v) for m, v in metrics.items()}
        for k, metrics in section.items()
    }


def throughput_delta(
    current: dict[str, dict[str, float]],
    baseline: dict[str, dict[str, float]],
) -> list[dict]:
    """One row per (nodeid, metric) in either side's throughput section.

    ``speedup`` is current/baseline — above 1 is faster (throughput is a
    higher-is-better rate, the opposite sense of the timing table).
    """
    rows = []
    for nodeid in sorted(set(current) | set(baseline)):
        metrics = sorted(set(current.get(nodeid, {})) | set(baseline.get(nodeid, {})))
        for metric in metrics:
            cur = current.get(nodeid, {}).get(metric)
            base = baseline.get(nodeid, {}).get(metric)
            speedup = None
            if cur is not None and base is not None and base > 0.0:
                speedup = cur / base
            rows.append(
                {
                    "nodeid": nodeid,
                    "metric": metric,
                    "current": cur,
                    "baseline": base,
                    "speedup": speedup,
                }
            )
    return rows


def format_throughput_rows(rows: list[dict]) -> str:
    """Human-readable throughput delta table (higher is better)."""
    lines = [
        f"{'current':>14}  {'baseline':>14}  {'speedup':>8}  benchmark [metric]"
    ]
    for row in rows:
        cur = "-" if row["current"] is None else f"{row['current']:,.0f}/s"
        base = "-" if row["baseline"] is None else f"{row['baseline']:,.0f}/s"
        speedup = "-" if row["speedup"] is None else f"{row['speedup']:.2f}x"
        metric = row["metric"].removesuffix("_per_s")
        lines.append(
            f"{cur:>14}  {base:>14}  {speedup:>8}  {row['nodeid']} [{metric}]"
        )
    return "\n".join(lines)


def write_github_summary(rows: list[dict], throughput_rows: list[dict]) -> None:
    """Append markdown tables to ``$GITHUB_STEP_SUMMARY`` when it is set."""
    out = os.environ.get("GITHUB_STEP_SUMMARY")
    if not out:
        return
    lines = ["## Benchmark timings vs baseline", ""]
    lines += ["| status | current | baseline | ratio | test |", "|---|---|---|---|---|"]
    for row in rows:
        if row["regressed"]:
            status = "**REGRESSED**"
        elif row["current"] is None:
            status = "removed"
        elif row["baseline"] is None:
            status = "new"
        else:
            status = "ok"
        cur = "-" if row["current"] is None else f"{row['current']:.3f}s"
        base = "-" if row["baseline"] is None else f"{row['baseline']:.3f}s"
        ratio = "-" if row["ratio"] is None else f"{row['ratio']:.2f}x"
        lines.append(f"| {status} | {cur} | {base} | {ratio} | `{row['nodeid']}` |")
    if throughput_rows:
        lines += [
            "",
            "## Engine throughput vs baseline (higher is better)",
            "",
            "| current | baseline | speedup | benchmark [metric] |",
            "|---|---|---|---|",
        ]
        for row in throughput_rows:
            cur = "-" if row["current"] is None else f"{row['current']:,.0f}/s"
            base = "-" if row["baseline"] is None else f"{row['baseline']:,.0f}/s"
            speedup = "-" if row["speedup"] is None else f"{row['speedup']:.2f}x"
            metric = row["metric"].removesuffix("_per_s")
            lines.append(
                f"| {cur} | {base} | {speedup} | `{row['nodeid']}` [{metric}] |"
            )
    with open(out, "a", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def compare(
    current: dict[str, float],
    baseline: dict[str, float],
    threshold: float = DEFAULT_THRESHOLD,
    min_seconds: float = DEFAULT_MIN_SECONDS,
) -> list[dict]:
    """Compare two timing maps; return one row per test in either.

    Each row has ``nodeid``, ``current``, ``baseline`` (either may be
    ``None`` for one-sided tests), ``ratio`` (``None`` when one-sided)
    and ``regressed`` (True only for two-sided rows breaching both the
    ratio threshold and the absolute floor).
    """
    if threshold <= 1.0:
        raise ValueError("threshold must be above 1")
    if min_seconds < 0.0:
        raise ValueError("min_seconds must be non-negative")
    rows = []
    for nodeid in sorted(set(current) | set(baseline)):
        cur = current.get(nodeid)
        base = baseline.get(nodeid)
        ratio = None
        regressed = False
        if cur is not None and base is not None and base > 0.0:
            ratio = cur / base
            regressed = ratio > threshold and cur > min_seconds
        rows.append(
            {
                "nodeid": nodeid,
                "current": cur,
                "baseline": base,
                "ratio": ratio,
                "regressed": regressed,
            }
        )
    return rows


def format_rows(rows: list[dict]) -> str:
    """Human-readable comparison table."""
    lines = [f"{'status':>10}  {'current':>9}  {'baseline':>9}  {'ratio':>7}  test"]
    for row in rows:
        if row["regressed"]:
            status = "REGRESSED"
        elif row["current"] is None:
            status = "removed"
        elif row["baseline"] is None:
            status = "new"
        else:
            status = "ok"
        cur = "-" if row["current"] is None else f"{row['current']:.3f}s"
        base = "-" if row["baseline"] is None else f"{row['baseline']:.3f}s"
        ratio = "-" if row["ratio"] is None else f"{row['ratio']:.2f}x"
        lines.append(f"{status:>10}  {cur:>9}  {base:>9}  {ratio:>7}  {row['nodeid']}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", type=Path, help="timing export to check")
    parser.add_argument(
        "--baseline",
        type=Path,
        default=DEFAULT_BASELINE,
        help=f"baseline to compare against (default: {DEFAULT_BASELINE.name})",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help=f"failing slowdown ratio (default: {DEFAULT_THRESHOLD}x)",
    )
    parser.add_argument(
        "--min-seconds",
        type=float,
        default=DEFAULT_MIN_SECONDS,
        help=f"absolute noise floor in seconds (default: {DEFAULT_MIN_SECONDS})",
    )
    args = parser.parse_args(argv)

    if not args.baseline.exists():
        print(f"no baseline at {args.baseline}; nothing to compare against")
        return 0
    rows = compare(
        load_timings(args.current),
        load_timings(args.baseline),
        threshold=args.threshold,
        min_seconds=args.min_seconds,
    )
    print(format_rows(rows))
    throughput_rows = throughput_delta(
        load_throughput(args.current), load_throughput(args.baseline)
    )
    if throughput_rows:
        print("\nengine throughput vs baseline (higher is better):")
        print(format_throughput_rows(throughput_rows))
    write_github_summary(rows, throughput_rows)
    regressions = [row for row in rows if row["regressed"]]
    if regressions:
        print(
            f"\n{len(regressions)} benchmark(s) regressed more than "
            f"{args.threshold:g}x vs {args.baseline.name}"
        )
        return 1
    print(f"\nno regression beyond {args.threshold:g}x vs {args.baseline.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
