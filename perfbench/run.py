"""The repository benchmark: one seeded workload, timed untraced or traced.

Run from the repository root::

    python3 perfbench/run.py --workload packet_mix --seed 1 --seconds 15 --trace 0

``--trace 0`` repeats the workload's batch untraced (no tracemalloc, no
profiler, no wrappers) until ``--seconds`` have passed and prints the
end-to-end metrics.  ``--trace 1`` runs the batch once untraced and once
with span wrappers installed (:mod:`perfbench.tracing`) and prints the
per-layer metrics plus the tracing overhead; it ignores ``--seconds``.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The run exits
non-zero when any output check fails.  Artifacts (run record, spans) go
to ``.perfbench_out/`` under the repository root.
"""

from __future__ import annotations

import argparse
import bisect
import heapq
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"

#: End-to-end metrics, printed by every workload with ``--trace 0``:
#: (name, unit, better, bound).  ``bound`` is the share of the parent's
#: median by which the metric may get worse before a change is rejected.
END_TO_END: tuple[tuple[str, str, str, float], ...] = (
    ("rate_per_s", "1/s", "higher", 0.2),
    ("op_p50_ms", "ms", "lower", 0.2),
    ("op_tail_ms", "ms", "lower", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
)

#: Per-layer metrics, printed by every workload with ``--trace 1``:
#: (name, unit, better).  A layer the workload does not reach (or whose
#: calls run in worker processes the tracer cannot see) reads 0.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("engine.events", "count", "lower"),
    ("engine.events_per_segment", "ratio", "lower"),
    ("engine.ns_per_event", "ns", "lower"),
    ("tcp.self_s", "s", "lower"),
    ("tcp.ns_per_segment", "ns", "lower"),
    ("queue.enqueues", "count", "lower"),
    ("queue.drop_frac", "ratio", "lower"),
    ("queue.ns_per_packet", "ns", "lower"),
    ("pool.reuse_frac", "ratio", "higher"),
    ("network.build_s", "s", "lower"),
    ("network.self_s", "s", "lower"),
    ("fleet.unique_sims", "count", "lower"),
    ("fleet.shard_p50_s", "s", "lower"),
    ("fleet.merge_s", "s", "lower"),
    ("fleet.couple_s", "s", "lower"),
    ("executor.busy_s", "s", "lower"),
    ("executor.wait_s", "s", "lower"),
    ("executor.result_bytes", "bytes", "lower"),
    ("spec.keys", "count", "lower"),
    ("spec.key_us", "us", "lower"),
    ("cache.hits", "count", "higher"),
    ("cache.misses", "count", "lower"),
    ("cache.put_ms", "ms", "lower"),
    ("cache.get_ms", "ms", "lower"),
    ("cache.bytes", "bytes", "lower"),
    ("workload.sessions", "count", "higher"),
    ("workload.generate_s", "s", "lower"),
    ("analysis.metrics", "count", "higher"),
    ("analysis.self_s", "s", "lower"),
    ("fluid.self_s", "s", "lower"),
    ("campaign.load_s", "s", "lower"),
    ("campaign.compile_s", "s", "lower"),
    ("campaign.dedupe_frac", "ratio", "higher"),
    ("import.core_s", "s", "lower"),
    ("import.netsim_s", "s", "lower"),
    ("import.campaign_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("calib.loop_s", "s", "lower"),
)

#: Per-layer metrics that are program counts: they repeat exactly at one seed.
COUNTS = tuple(name for name, unit, _ in PER_LAYER if unit == "count")

SETUP_SAMPLES = 3
#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10
CALIBRATION_SAMPLES = 3
#: The timed pass runs a short calibration loop between ops, at most
#: every PACE_INTERVAL_S.  Wall times on a shared host drift with the
#: neighbours' load (by up to 30 % between runs minutes apart); scaling
#: rates and op times by the loop's speed against its reference time
#: keeps them comparable from run to run.
PACE_INTERVAL_S = 0.1
PACE_ITERATIONS = 2_000
PACE_REPEATS = 3
#: The loop's time on the reference machine (2 cores, Python 3.11).
PACE_REFERENCE_S = 0.0025

#: Traced passes leave these layers unwrapped per workload: fleet shards
#: run in forked workers, which would inherit the wrappers.
TRACE_SKIP = {"fleet": ("netsim.packet",)}
#: Worker processes of each workload's traced pass.  The campaign's
#: workload, analysis and fluid layers run inside its tasks, so its
#: traced pass runs them in this process.
TRACE_JOBS = {"packet_mix": 1, "fleet": 2, "campaign": 1}


class _Event:
    __slots__ = ("seq", "when", "hops")

    def __init__(self, seq: int, when: float) -> None:
        self.seq = seq
        self.when = when
        self.hops = 0


def calibration_loop(iterations: int = 100_000) -> float:
    """Seconds of a fixed pure-Python event loop (heap, small objects,
    dict and attribute traffic, like the simulators but none of their
    code); results divide by it to compare across machines."""
    start = time.perf_counter()
    heap: list[tuple[float, int, _Event]] = []
    live: dict[int, _Event] = {}
    now = 0.0
    for i in range(iterations):
        event = _Event(i, now + (i * 7919 % 1000) * 1e-6)
        heapq.heappush(heap, (event.when, i, event))
        live[i & 1023] = event
        if len(heap) > 256:
            now, _, done = heapq.heappop(heap)
            done.hops += 1
    return time.perf_counter() - start


def tail(samples: list[float]) -> tuple[float, float]:
    """``(value, percentile)`` at the highest percentile with
    :data:`TAIL_BEYOND` samples beyond it (the maximum when too few)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    rank = n - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / n


class Pacer:
    """Times a short calibration loop between operations, at most every
    :data:`PACE_INTERVAL_S`, so the machine's speed is sampled all
    through a timed pass.  Each sample is the fastest of
    :data:`PACE_REPEATS` loops, so a preempted loop does not count."""

    def __init__(self) -> None:
        #: (clock time, loop seconds) per sample, in time order.
        self.samples: list[tuple[float, float]] = []
        self._last = float("-inf")

    def __call__(self) -> None:
        if time.perf_counter() - self._last >= PACE_INTERVAL_S:
            loop_s = min(calibration_loop(PACE_ITERATIONS) for _ in range(PACE_REPEATS))
            self._last = time.perf_counter()
            self.samples.append((self._last, loop_s))

    def speed(self, start: float, end: float) -> float:
        """Machine speed over ``[start, end]`` against the reference: from
        the samples inside it plus the last one before and the first after."""
        times = [t for t, _ in self.samples]
        first = max(bisect.bisect_left(times, start) - 1, 0)
        last = bisect.bisect_right(times, end) + 1
        return PACE_REFERENCE_S / statistics.median(s for _, s in self.samples[first:last])


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def assert_untraced() -> None:
    """Refuse to time anything while instrumentation is attached."""
    from perfbench.tracing import installed_wrappers

    if tracemalloc.is_tracing():
        raise RuntimeError("tracemalloc is tracing during a timed pass")
    if sys.getprofile() is not None or sys.gettrace() is not None:
        raise RuntimeError("a profiler or tracer is attached during a timed pass")
    wrapped = installed_wrappers()
    if wrapped:
        raise RuntimeError(f"tracing wrappers installed during a timed pass: {wrapped}")


def setup_samples(workload: str, seed: int) -> list[dict[str, float]]:
    """Fresh-interpreter set-ups, each timed from outside as ``setup_s``."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        workdir = Path(tempfile.mkdtemp(prefix="setup-", dir=OUT))
        try:
            start = time.perf_counter()
            proc = subprocess.run(
                [
                    sys.executable,
                    str(ROOT / "perfbench" / "setup_probe.py"),
                    "--workload", workload,
                    "--seed", str(seed),
                    "--workdir", str(workdir),
                ],
                capture_output=True,
                text=True,
                timeout=120,
                check=True,
            )
            wall = time.perf_counter() - start
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        sample["setup_s"] = wall
        samples.append(sample)
    return samples


def warm_up(workload: str, inputs: Any) -> None:
    """Let lazy imports and first-call set-up finish before timing."""
    from perfbench import workloads

    if workload == "packet_mix":
        short = [{**arm, "duration_s": arm["warmup_s"] + 0.25} for arm in inputs]
        workloads.packet_mix_batch(short)
    elif workload == "fleet":
        workloads.fleet_batch(inputs[:1])


@dataclass
class Timed:
    """A timed run: raw totals plus rates and op times scaled to the
    reference machine speed."""

    total: Any
    #: Raw and scaled work rate of each batch.
    rates: list[float] = field(default_factory=list)
    scaled_rates: list[float] = field(default_factory=list)
    scaled_ops: list[float] = field(default_factory=list)
    #: Median machine speed and the number of pacer samples behind it.
    speed: float = 1.0
    paces: int = 0
    wall_s: float = 0.0


def timed_run(workload: str, inputs: Any, seconds: float, pacer: Pacer) -> Timed:
    """Repeat the batch untraced until ``seconds`` pass.

    Every op and every span of work is scaled by the machine speed the
    pacer measured around it (:meth:`Pacer.speed`).
    """
    from perfbench.workloads import Batch, run_batch

    assert_untraced()
    total = Batch()
    batches = []
    start = time.perf_counter()
    while True:
        batch = run_batch(workload, inputs, pace=pacer)
        batches.append(batch)
        total.ops.extend(batch.ops)
        total.work.extend(batch.work)
        total.attempted += batch.attempted
        total.failed += batch.failed
        total.problems.extend(batch.problems)
        if time.perf_counter() - start >= seconds:
            break
    pacer()
    timed = Timed(total=total, wall_s=time.perf_counter() - start)
    for batch in batches:
        timed.rates.append(batch.rate())
        units = sum(u for _, _, u in batch.work)
        timed.scaled_rates.append(
            units / sum((e - s) * pacer.speed(s, e) for s, e, _ in batch.work)
        )
    timed.scaled_ops = [(e - s) / n * pacer.speed(s, e) for s, e, n in total.ops]
    timed.speed = PACE_REFERENCE_S / statistics.median(s for _, s in pacer.samples)
    timed.paces = len(pacer.samples)
    return timed


def end_to_end(
    workload: str, timed: Timed, setups: list[dict[str, float]]
) -> tuple[dict[str, float], list[str]]:
    """The end-to-end metrics of a timed run, and their report lines.

    Rates and op times are scaled to the reference machine speed, op by
    op (see :func:`timed_run`); the raw values are printed too.
    """
    from perfbench.workloads import WORKLOADS

    spec = WORKLOADS[workload]
    totals = timed.total
    n = len(totals.ops)
    raw_rate = statistics.median(timed.rates)
    raw_p50 = statistics.median(totals.op_s)
    raw_tail = tail(totals.op_s)[0]
    tail_s, percentile = tail(timed.scaled_ops)
    setup = statistics.median(s["setup_s"] for s in setups)
    rss = peak_rss_mb()
    alias = {
        "packet_mix": ("segments_per_s", "sim_p50", "sim_tail"),
        "fleet": ("units_per_s", "fleet_p50", "fleet_tail"),
        "campaign": ("arms_per_s", "warm_p50", "warm_tail"),
    }[workload]
    metrics = {
        "rate_per_s": statistics.median(timed.scaled_rates),
        "op_p50_ms": statistics.median(timed.scaled_ops) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "peak_rss_mb": rss,
        "setup_s": setup,
    }
    lines = [
        f"  rate_per_s  {metrics['rate_per_s']:14.6g} 1/s  ({alias[0]}, median of "
        f"{len(timed.rates)} batches; raw {raw_rate:.6g} {spec.work_unit}/s)",
        f"  op_p50_ms   {metrics['op_p50_ms']:14.6g} ms   ({alias[1]}: median {spec.op}, "
        f"n={n}; raw {raw_p50 * 1e3:.6g} ms)",
        f"  op_tail_ms  {metrics['op_tail_ms']:14.6g} ms   ({alias[2]}: p{percentile:.1f} "
        f"{spec.op}, n={n}, {min(TAIL_BEYOND, n - 1)} beyond; raw {raw_tail * 1e3:.6g} ms)",
        f"  peak_rss_mb {rss:14.6g} MB   (max ru_maxrss of self and children)",
        f"  setup_s     {setup:14.6g} s    (median of {len(setups)} fresh interpreters)",
        f"  failed_frac {totals.failed / totals.attempted:14.6g} ratio "
        f"({totals.failed} of {totals.attempted} ops)",
        f"  machine speed {timed.speed:.4f} x reference (median of {timed.paces} "
        f"samples; reference loop {PACE_REFERENCE_S * 1e3:.2f} ms)",
    ]
    return metrics, lines


def traced_run(workload: str, seed: int, inputs: Any) -> tuple[Any, dict[str, Any]]:
    """One untraced reference pass, then the same batch traced."""
    from repro.obs.trace import RunTracer

    from perfbench.tracing import Tracer
    from perfbench.workloads import run_batch

    jobs = TRACE_JOBS[workload]
    kwargs: dict[str, Any] = {"jobs": jobs} if workload == "campaign" else {}
    assert_untraced()
    start = time.perf_counter()
    reference = run_batch(workload, inputs, **kwargs)
    reference_s = time.perf_counter() - start

    if workload != "packet_mix":
        kwargs["run_tracer"] = RunTracer(OUT / f"runtrace-{workload}-{seed}", "perfbench")
    tracer = Tracer(skip=TRACE_SKIP.get(workload, ()))
    start = time.perf_counter()
    with tracer:
        traced = run_batch(workload, inputs, tracer=tracer, **kwargs)
    traced_s = time.perf_counter() - start
    if "run_tracer" in kwargs:
        kwargs["run_tracer"].finish()
    tracer.write(OUT / f"spans-{workload}-{seed}.jsonl")
    traced.failed += reference.failed
    traced.attempted += reference.attempted
    traced.problems.extend(reference.problems)
    return traced, {
        "tracer": tracer,
        "jobs": jobs,
        "reference_s": reference_s,
        "traced_s": traced_s,
    }


def _ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return numerator / denominator * scale if denominator else 0.0


def per_layer(
    batch: Any, run: dict[str, Any], setups: list[dict[str, float]], calibration: float
) -> dict[str, float]:
    """The per-layer metrics of a traced pass."""
    from perfbench.workloads import result_bytes

    tracer = run["tracer"]
    counts = batch.counts
    segments = counts.get("segments", 0.0)
    events = counts.get("engine.events", 0.0)
    enqueues = tracer.calls("netsim.packet.queue", "enqueue")
    tcp_s = tracer.self_s("netsim.packet.tcp")
    shard_s = [t.wall_s for t in batch.tasks if t.task == "fleet.shard_arm"]
    busy = float(sum(t.wall_s for t in batch.tasks))
    keys = tracer.calls("runner.spec")
    puts = tracer.calls("runner.cache", "put")
    gets = tracer.calls("runner.cache", "get")
    arms = counts.get("campaign.arms", 0.0)
    compiles = tracer.calls("campaign.compile")
    return {
        "engine.events": events,
        "engine.events_per_segment": _ratio(events, segments),
        # Fleet shards count events in workers the tracer cannot see.
        "engine.ns_per_event": _ratio(tracer.self_s("netsim.packet.engine"), events, 1e9)
        if enqueues else 0.0,
        "tcp.self_s": tcp_s,
        "tcp.ns_per_segment": _ratio(tcp_s, segments, 1e9),
        "queue.enqueues": float(enqueues),
        "queue.drop_frac": _ratio(counts.get("queue.drops", 0.0), enqueues),
        "queue.ns_per_packet": _ratio(tracer.self_s("netsim.packet.queue"), enqueues, 1e9),
        "pool.reuse_frac": _ratio(counts.get("pool.reused", 0.0), counts.get("pool.acquired", 0.0)),
        "network.build_s": tracer.self_s("netsim.packet.network.build"),
        "network.self_s": tracer.self_s("netsim.packet.network"),
        "fleet.unique_sims": counts.get("fleet.unique_sims", 0.0),
        "fleet.shard_p50_s": statistics.median(shard_s) if shard_s else 0.0,
        "fleet.merge_s": tracer.total_s("netsim.fleet.merge"),
        "fleet.couple_s": tracer.total_s("netsim.fleet.couple"),
        "executor.busy_s": busy,
        "executor.wait_s": run["jobs"] * tracer.outer_s("runner.executor") - busy
        if batch.tasks else 0.0,
        "executor.result_bytes": float(result_bytes(batch.tasks)),
        "spec.keys": float(keys),
        "spec.key_us": _ratio(tracer.total_s("runner.spec"), keys, 1e6),
        "cache.hits": counts.get("cache.hits", 0.0),
        "cache.misses": counts.get("cache.misses", 0.0),
        "cache.put_ms": _ratio(tracer.total_s("runner.cache", "put"), puts, 1e3),
        "cache.get_ms": _ratio(tracer.total_s("runner.cache", "get"), gets, 1e3),
        "cache.bytes": counts.get("cache.bytes", 0.0),
        "workload.sessions": float(sum(tracer.sizes.values())),
        "workload.generate_s": tracer.total_s("workload"),
        "analysis.metrics": float(tracer.calls("core.analysis", "analyze_metric")),
        "analysis.self_s": tracer.self_s("core.analysis"),
        "fluid.self_s": tracer.self_s("netsim.fluid"),
        "campaign.load_s": tracer.total_s("campaign.load"),
        "campaign.compile_s": _ratio(tracer.total_s("campaign.compile"), compiles),
        "campaign.dedupe_frac": 1.0 - _ratio(counts.get("campaign.unique_arms", 0.0), arms)
        if arms else 0.0,
        "import.core_s": statistics.median(s["import.core_s"] for s in setups),
        "import.netsim_s": statistics.median(s["import.netsim_s"] for s in setups),
        "import.campaign_s": statistics.median(s["import.campaign_s"] for s in setups),
        "trace.overhead_s": run["traced_s"] - run["reference_s"],
        "calib.loop_s": calibration,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=("packet_mix", "fleet", "campaign"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    OUT.mkdir(exist_ok=True)

    calibration = statistics.median(calibration_loop() for _ in range(CALIBRATION_SAMPLES))
    setups = setup_samples(args.workload, args.seed)

    from perfbench.workloads import make_inputs

    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        inputs = make_inputs(args.workload, args.seed, workdir)
        warm_up(args.workload, inputs)
        if args.trace:
            batch, run = traced_run(args.workload, args.seed, inputs)
            metrics = per_layer(batch, run, setups, calibration)
            units_of = {name: unit for name, unit, _ in PER_LAYER}
            lines = [
                f"  {name:26s} {value:14.6g} {units_of[name]}" for name, value in metrics.items()
            ]
            lines.append(
                f"  (traced {run['traced_s']:.3f} s vs untraced {run['reference_s']:.3f} s "
                f"on the same batch)"
            )
            header = f"untraced and traced pass, {batch.attempted} ops"
        else:
            pacer = Pacer()
            timed = timed_run(args.workload, inputs, args.seconds, pacer)
            batch = timed.total
            metrics, lines = end_to_end(args.workload, timed, setups)
            header = f"timed pass, {len(timed.rates)} batches, {timed.wall_s:.2f} s"
            units_of = {name: unit for name, unit, _, _ in END_TO_END}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"perfbench {args.workload} seed={args.seed}: {header}")
    for line in lines:
        print(line)
    print(f"  calibration loop {calibration:.4f} s (median of {CALIBRATION_SAMPLES})")
    for problem in batch.problems[:20]:
        print(f"  FAILED: {problem}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "calibration_s": calibration,
        "setups": setups,
        "metrics": metrics,
        "counts": batch.counts,
        "pace_samples": [] if args.trace else pacer.samples,
        "op_s": batch.op_s,
        "problems": batch.problems,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8"
    )
    correct = batch.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": batch.attempted,
                "failed": batch.failed,
                "metrics": {
                    name: {"value": value, "unit": units_of[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
