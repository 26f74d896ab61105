"""The benchmark's three workloads: seeded inputs, one batch, output checks.

Each workload is a closed loop: the benchmark process submits one fixed
batch of work, waits for all of it, and (in a timed run) submits the
same batch again until the time is up.  Inputs are a pure function of
the seed; the program only ever sees the generated inputs.

``packet_mix``
    Direct :func:`repro.netsim.packet.simulation.simulate` calls, run
    serially in this process.  Nearly all time goes to
    ``netsim.packet`` (engine, tcp, queue, network, packets), so
    send-path, scheduler, queue and pool changes show here and nowhere
    else.  Arm ``i`` of the mix has a fixed stratum (congestion control,
    queue discipline, MSS, event batching, churn or an extra
    bottleneck), so every seed covers the same mix; the seed draws the
    per-arm sizes (apps, connections, capacity, RTT, buffer).
``fleet``
    :func:`repro.netsim.fleet.run_fleet` at ``jobs=2`` on small fleets
    derived from ``QUICK_FLEET``.  Many small batched packet shards fan
    out over worker processes, so this is where ``runner.executor``
    (pool start, pickling, ``pool.map``) and ``netsim.fleet`` (fluid
    coupling, sketch merges) dominate.
``campaign``
    :func:`repro.api.run_campaign` at ``jobs=2`` on a generated campaign
    of paired-link and fluid-lab stages: one cold pass against a fresh
    cache (every arm a miss and a write), then warm passes that each
    re-open the cache (reads only).  Time goes to ``workload``,
    ``core.analysis``, ``netsim.fluid``, ``campaign`` and
    ``runner.cache``, never to the packet engine.
"""

from __future__ import annotations

import dataclasses
import json
import math
import pickle
import random
import shutil
import tempfile
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

__all__ = ["WORKLOADS", "Batch", "Workload", "make_inputs", "run_batch"]

#: Worker processes of the fleet and campaign workloads (the machine's nproc).
JOBS = 2

CCS = ("reno", "cubic", "bbr")
DISCIPLINES = ("droptail", "red", "codel", "fq_codel", "dualpi2")
PACKET_ARMS = 40
#: Mix arms with dynamic traffic churn / with a second bottleneck in series.
CHURN_ARMS = frozenset({6, 13, 26, 33})
EXTRA_BOTTLENECK_ARMS = frozenset({9, 16, 29, 36})
#: Propagation delays of the mix.  At 40 ms, arms with two to four
#: connections under CoDel or DualPI2 (and small-MSS batched Reno) fell
#: to 79-94 % utilization, so no arm runs there.
RTTS_MS = (10.0, 20.0)
BUFFERS_BDP = (1.0, 1.5, 2.0)
CAPACITY_MBPS = 20.0
#: Connections of the mix's apps; each arm deals the first ``apps`` of
#: them to its apps in seeded order, so the seed changes which app (ECN
#: mode, path, arm) opens how many without changing an arm's total.
CONNECTIONS = (2, 4, 3, 3)
CHURN_PER_S = 6.0
SMALL_MSS = 500
PACKET_DURATION_S = 3.0
PACKET_WARMUP_S = 1.0
#: Long-lived arms must deliver at least this share of the bottleneck rate.
MIN_UTILIZATION = 0.95

FLEET_SPECS = 12
#: Edges of every fleet: two rounds of shards at ``jobs=2``, so every
#: op takes about as long and the median op is not split between sizes.
FLEET_EDGES = 4
FLEET_REGIONS = 3
UNITS_PER_EDGE = 100
RTT_PROFILES_MS = ((10.0, 20.0, 40.0, 80.0), (20.0, 40.0), (30.0,))

PAIRED_FIGURES = ("baseline", "fig5", "fig7", "fig9", "fig10")
LAB_FIGURES = ("fig2a", "fig2b", "fig3")
LAB_REPLICATIONS = 8
WARM_PASSES = 100
#: Warm passes (~2 ms each) are too short to time one by one: they are
#: timed in groups of back-to-back passes, one op per group.
WARM_GROUP = 10


def _idle() -> None:
    """Default ``pace`` hook: nothing to do between operations."""


@dataclass
class Batch:
    """What one pass over a workload's batch did.

    ``ops`` holds the ``(start, end, calls)`` clock times of each timed
    operation (a ``simulate()`` call, a ``run_fleet()`` call, a group of
    ``calls`` back-to-back warm campaign passes); ``work`` holds
    ``(start, end, units)`` of the calls that did the workload's work
    (segments, fleet units, or the arms of a cold campaign pass).  ``counts`` are program counters that repeat
    exactly at one seed.
    """

    ops: list[tuple[float, float, int]] = field(default_factory=list)
    work: list[tuple[float, float, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    #: Executor task runs observed through the runner's tracer hook.
    tasks: list[Any] = field(default_factory=list)

    @property
    def op_s(self) -> list[float]:
        """Wall time of each op, per call."""
        return [(end - start) / calls for start, end, calls in self.ops]

    def rate(self) -> float:
        """Work units per second spent doing them."""
        return sum(units for _, _, units in self.work) / sum(e - s for s, e, _ in self.work)

    def count(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + amount

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


# -- packet_mix --------------------------------------------------------------


def packet_mix_inputs(seed: int) -> list[dict[str, Any]]:
    """Keyword arguments of every ``simulate()`` call in the mix."""
    from repro.netsim.packet.network import PathConfig, QueueConfig
    from repro.netsim.packet.simulation import FlowConfig
    from repro.netsim.traffic import ParetoSizes, PoissonArrivals, TrafficSource

    rng = random.Random(f"perfbench-packet-mix:{seed}")
    arms = []
    for i in range(PACKET_ARMS):
        cc = CCS[i % len(CCS)]
        discipline = DISCIPLINES[i % len(DISCIPLINES)]
        mss = SMALL_MSS if i % 4 == 3 else 1500
        # Small-MSS arms carry three times the segments per Mb/s.
        capacity = CAPACITY_MBPS * rng.uniform(0.98, 1.02) * (0.5 if mss == SMALL_MSS else 1.0)
        extra = i in EXTRA_BOTTLENECK_ARMS
        path = PathConfig(queues=("bottleneck", "edge2")) if extra else None
        if discipline == "dualpi2":
            modes = ("l4s", False)
        elif discipline == "droptail":
            modes = (False,)
        else:
            modes = ("classic", False) if (i // len(DISCIPLINES)) % 2 else (False,)
        apps = 2 + (i // len(DISCIPLINES)) % 3
        connections = rng.sample(CONNECTIONS[:apps], apps)
        flows = tuple(
            FlowConfig(
                flow_id=app,
                cc=cc,
                connections=connections[app],
                ecn=modes[app % len(modes)],
                treated=app % 2 == 0,
                path=path if app % 2 == 0 else None,
            )
            for app in range(apps)
        )
        kwargs: dict[str, Any] = {
            "flows": flows,
            "capacity_mbps": capacity,
            "base_rtt_ms": RTTS_MS[(i // len(CCS)) % len(RTTS_MS)],
            "buffer_bdp": BUFFERS_BDP[(i // 2) % len(BUFFERS_BDP)],
            "mss_bytes": mss,
            "duration_s": PACKET_DURATION_S,
            "warmup_s": PACKET_WARMUP_S,
            "queue_discipline": discipline,
            "event_batching": i % 2 == 1,
            "seed": rng.getrandbits(32),
        }
        if extra:
            kwargs["extra_queues"] = (
                QueueConfig(name="edge2", capacity_mbps=0.8 * capacity, buffer_bdp=1.0),
            )
        if i in CHURN_ARMS:
            kwargs["traffic_sources"] = (
                TrafficSource(
                    arrivals=PoissonArrivals(rate_per_s=CHURN_PER_S),
                    sizes=ParetoSizes(min_bytes=30_000.0),
                    label="churn",
                ),
            )
        arms.append(kwargs)
    return arms


def _long_lived(arm: dict[str, Any]) -> bool:
    return "traffic_sources" not in arm and "extra_queues" not in arm


def segments(result: Any, mss_bytes: int) -> int:
    """MSS segments a simulation sent: measured flows plus churn flows."""
    sent = sum(f.packets_sent for f in result.flows)
    return sent + sum(math.ceil(t.bytes_acked / mss_bytes) for t in result.traffic.values())


def check_packet_result(arm: dict[str, Any], result: Any) -> list[str]:
    """Output checks of one ``simulate()`` call."""
    problems = []
    window_s = arm["duration_s"] - arm["warmup_s"]
    for flow in result.flows:
        delivered = round(flow.throughput_mbps * 1e6 / 8.0 * window_s / arm["mss_bytes"])
        if flow.packets_sent < delivered + flow.packets_lost:
            problems.append(
                f"flow {flow.flow_id}: sent {flow.packets_sent} < delivered "
                f"{delivered} + dropped {flow.packets_lost}"
            )
    if _long_lived(arm):
        utilization = result.total_throughput_mbps() / arm["capacity_mbps"]
        if not utilization >= MIN_UTILIZATION:
            problems.append(f"utilization {utilization:.3f} < {MIN_UTILIZATION}")
    return problems


def packet_mix_batch(
    arms: list[dict[str, Any]], tracer: Any = None, pace: Callable[[], None] = _idle
) -> Batch:
    from repro.netsim.packet.simulation import simulate

    batch = Batch()
    clock = time.perf_counter
    for index, arm in enumerate(arms):
        if tracer is not None:
            tracer.op = index
        pace()
        batch.attempted += 1
        start = clock()
        try:
            result = simulate(**arm)
        except Exception as exc:  # a failing op is counted, not fatal
            batch.fail(f"arm {index}: {type(exc).__name__}: {exc}")
            continue
        end = clock()
        sent = segments(result, arm["mss_bytes"])
        batch.ops.append((start, end, 1))
        batch.work.append((start, end, sent))
        for problem in check_packet_result(arm, result):
            batch.fail(f"arm {index}: {problem}")
        engine = result.engine
        batch.count("segments", sent)
        batch.count("engine.events", engine.events_processed)
        batch.count("pool.acquired", engine.pool_acquired)
        batch.count("pool.reused", engine.pool_reused)
        batch.count("queue.drops", sum(result.queue_drops.values()))
    return batch


# -- fleet ---------------------------------------------------------------------


def fleet_inputs(seed: int) -> list[Any]:
    """Small fleet specs derived from ``QUICK_FLEET``, one per operation."""
    from repro.experiments.lab_fleet import QUICK_FLEET
    from repro.netsim.fleet import GRANULARITIES

    rng = random.Random(f"perfbench-fleet:{seed}")
    specs = []
    for i in range(FLEET_SPECS):
        profile = RTT_PROFILES_MS[i % len(RTT_PROFILES_MS)]
        specs.append(
            dataclasses.replace(
                QUICK_FLEET,
                units=FLEET_EDGES * UNITS_PER_EDGE,
                edges=FLEET_EDGES,
                regions=FLEET_REGIONS,
                granularity=GRANULARITIES[i % len(GRANULARITIES)],
                allocation=(0.25, 0.5, 0.75)[(i // 4) % 3],
                region_oversubscription=(0.7, 1.2)[i % 2],
                # The seed deals the RTTs to edges and draws the assignment
                # and shard seeds; the fleet's size stays fixed per op.
                rtt_profile_ms=tuple(rng.sample(profile, len(profile))),
                seed=rng.getrandbits(32),
            )
        )
    return specs


def fleet_batch(
    specs: list[Any],
    tracer: Any = None,
    run_tracer: Any = None,
    pace: Callable[[], None] = _idle,
) -> Batch:
    from repro.netsim.fleet import run_fleet
    from repro.runner import ParallelExecutor

    batch = Batch()
    clock = time.perf_counter
    for index, spec in enumerate(specs):
        if tracer is not None:
            tracer.op = index
        pace()
        batch.attempted += 1
        executor = ParallelExecutor(jobs=JOBS, tracer=run_tracer)
        start = clock()
        try:
            result = run_fleet(spec, executor=executor)
        except Exception as exc:  # a failing op is counted, not fatal
            batch.fail(f"fleet {index}: {type(exc).__name__}: {exc}")
            continue
        end = clock()
        batch.ops.append((start, end, 1))
        batch.work.append((start, end, spec.units))
        stats = result.stats
        if stats.units != spec.units:
            batch.fail(f"fleet {index}: units {stats.units} != spec.units {spec.units}")
        if stats.shards != spec.edges:
            batch.fail(f"fleet {index}: shards {stats.shards} != edges {spec.edges}")
        batch.count("segments", stats.packets)
        batch.count("engine.events", stats.events_processed)
        batch.count("fleet.unique_sims", result.unique_sims)
    if run_tracer is not None:
        batch.tasks = list(run_tracer.tasks)
    return batch


# -- campaign ------------------------------------------------------------------


def campaign_document(seed: int) -> dict[str, Any]:
    """A campaign of seeded paired-link stages and fluid-lab stages.

    The ``fig5-recheck`` stage repeats arms of ``fig5``: the campaign
    compiler dedupes them by content key.
    """
    rng = random.Random(f"perfbench-campaign:{seed}")
    seeds = sorted(rng.sample(range(10_000), 2))
    stages: list[dict[str, Any]] = [
        {"figure": figure, "seeds": seeds} for figure in PAIRED_FIGURES
    ]
    stages.append({"figure": "fig5", "name": "fig5-recheck", "seeds": seeds[:1]})
    for figure in LAB_FIGURES:
        stages.append(
            {
                "figure": figure,
                "noise": rng.choice((0.02, 0.05, 0.1)),
                "replications": LAB_REPLICATIONS,
                "base_seed": rng.randrange(10_000),
            }
        )
    return {
        "campaign": f"perfbench-{seed}",
        "description": "paired-link and fluid-lab stages over a seed grid",
        "defaults": {"quick": True},
        "stages": stages,
    }


@dataclass
class CampaignInputs:
    path: Path
    campaign: Any
    workdir: Path


def campaign_inputs(seed: int, workdir: Path) -> CampaignInputs:
    """Write the campaign file, load it and compile its arms."""
    from repro.api import load_campaign

    path = workdir / f"campaign-{seed}.json"
    path.write_text(json.dumps(campaign_document(seed), indent=1), encoding="utf-8")
    campaign = load_campaign(path)
    campaign.arms()
    return CampaignInputs(path=path, campaign=campaign, workdir=workdir)


def campaign_batch(
    inputs: CampaignInputs,
    tracer: Any = None,
    run_tracer: Any = None,
    jobs: int = JOBS,
    pace: Callable[[], None] = _idle,
) -> Batch:
    """One cold pass on a fresh cache, then :data:`WARM_PASSES` timed warm
    passes in groups of :data:`WARM_GROUP`."""
    from repro.api import ResultCache, load_campaign, run_campaign

    batch = Batch()
    clock = time.perf_counter
    campaign = inputs.campaign
    if tracer is not None:  # the traced pass times loading the file too
        campaign = load_campaign(inputs.path)
    cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=inputs.workdir))
    try:
        pace()
        batch.attempted += 1
        start = clock()
        cold = run_campaign(campaign, jobs=jobs, cache=ResultCache(cache_dir), tracer=run_tracer)
        batch.work.append((start, clock(), cold.unique_arms))
        batch.count("campaign.arms", len(cold.arms))
        batch.count("campaign.unique_arms", cold.unique_arms)
        batch.count("cache.misses", cold.cache_misses)
        batch.count("cache.bytes", sum(p.stat().st_size for p in cache_dir.glob("*.pkl")))
        for problem in check_cold_campaign(cold):
            batch.fail(problem)
        # The machine's speed is sampled between groups of warm passes, not
        # between single ones, and the output checks wait for the end: at
        # ~2 ms a pass, their garbage would show.  One untimed pass goes
        # first: the first read after the cold pass in this process pays
        # one-time costs no later pass sees.
        pace()
        warms = [run_campaign(campaign, jobs=jobs, cache=ResultCache(cache_dir))]
        for group in range(WARM_PASSES // WARM_GROUP):
            if tracer is not None:
                tracer.op = group + 1
            pace()
            batch.attempted += WARM_GROUP
            start = clock()
            for _ in range(WARM_GROUP):
                warms.append(run_campaign(campaign, jobs=jobs, cache=ResultCache(cache_dir)))
            batch.ops.append((start, clock(), WARM_GROUP))
        pace()
        reference = {arm.key: dict(arm.cells) for arm in cold.arms}
        for index, warm in enumerate(warms):
            batch.count("cache.hits", warm.cache_hits)
            if warm.cache_hits != warm.unique_arms or warm.cache_misses:
                batch.fail(
                    f"warm pass {index}: {warm.cache_hits} hits, "
                    f"{warm.cache_misses} misses of {warm.unique_arms} arms"
                )
            elif {arm.key: dict(arm.cells) for arm in warm.arms} != reference:
                batch.fail(f"warm pass {index}: cells differ from the cold pass")
    except Exception as exc:  # a failing pass is counted, not fatal
        batch.fail(f"campaign: {type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    if run_tracer is not None:
        batch.tasks = list(run_tracer.tasks)
    return batch


def check_cold_campaign(result: Any) -> list[str]:
    """All cells finite; every stage has one cell set across its seeds."""
    problems = []
    for arm in result.arms:
        bad = sorted(name for name, value in arm.cells.items() if not math.isfinite(value))
        if bad:
            problems.append(f"{arm.label}: non-finite cells {bad}")
    for stage in result.campaign.stages:
        cell_sets = {frozenset(arm.cells) for arm in result.stage_arms(stage.name)}
        if len(cell_sets) != 1:
            problems.append(f"stage {stage.name}: {len(cell_sets)} different cell sets")
    return problems


# -- registry ------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """A workload's name, what one unit of its work is, and its one op."""

    name: str
    work_unit: str
    op: str
    why: str


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "packet_mix",
            "segments",
            "simulate() call",
            "seeded mix of direct simulate() calls; time goes to netsim.packet only",
        ),
        Workload(
            "fleet",
            "units",
            "run_fleet() call",
            "small QUICK_FLEET-derived fleets at jobs=2; executor fan-out, fluid coupling and "
            "shard merges dominate",
        ),
        Workload(
            "campaign",
            "arms",
            "warm campaign pass (per pass, in groups of 10)",
            "paired-link and fluid-lab campaign at jobs=2: cold pass writes the cache, "
            "warm passes read it",
        ),
    )
}


def make_inputs(workload: str, seed: int, workdir: Path) -> Any:
    """The workload's batch inputs, a pure function of ``seed``."""
    if workload == "packet_mix":
        return packet_mix_inputs(seed)
    if workload == "fleet":
        return fleet_inputs(seed)
    if workload == "campaign":
        return campaign_inputs(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}")


def run_batch(workload: str, inputs: Any, **kwargs: Any) -> Batch:
    """Run one pass over the workload's batch."""
    runners: dict[str, Callable[..., Batch]] = {
        "packet_mix": packet_mix_batch,
        "fleet": fleet_batch,
        "campaign": campaign_batch,
    }
    return runners[workload](inputs, **kwargs)


def result_bytes(tasks: list[Any]) -> int:
    """Pickled size of every executor task result (what crosses the pool)."""
    return sum(len(pickle.dumps(task.result, protocol=pickle.HIGHEST_PROTOCOL)) for task in tasks)
