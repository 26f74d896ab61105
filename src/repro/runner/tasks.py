"""Built-in runner tasks.

Each task is a module-level function registered with
:func:`repro.runner.spec.register_task`.  Tasks import the simulators
*inside* the function body: this module is imported lazily by the task
registry, and the simulators themselves import the runner, so deferring
the heavy imports keeps the dependency graph acyclic and worker start-up
cheap.

Every task accepts a ``seed`` keyword argument and derives all of its
randomness from it (or ignores it when the underlying computation is
deterministic), so a task's result is a pure function of its spec.

The module also says which specs share a source run (:func:`unit_source`)
and runs such a group as one unit of work (:func:`run_unit`).
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping, Sequence
from typing import Any

from repro.runner.spec import ScenarioSpec, register_task, run_spec

__all__ = [
    "echo",
    "packet_arm",
    "fluid_arm",
    "baseline_table",
    "experiment_table",
    "aa_table",
    "switchback_emulation",
    "event_study_emulation",
    "figure_cells",
    "unit_source",
    "run_unit",
]


@register_task("debug.echo")
def echo(seed: int | None = None, **params: Any) -> dict[str, Any]:
    """Return the spec's own payload; used by tests and smoke checks."""
    return {"seed": seed, **params}


# -- netsim arms ---------------------------------------------------------------


@register_task("netsim.packet_arm")
def packet_arm(
    flows: Sequence[Any],
    capacity_mbps: float,
    base_rtt_ms: float,
    buffer_bdp: float,
    duration_s: float,
    warmup_s: float,
    mss_bytes: int = 1500,
    queue_discipline: str = "droptail",
    queue_params: Mapping[str, Any] | None = None,
    extra_queues: Sequence[Any] | None = None,
    cross_traffic: Sequence[Any] | None = None,
    traffic_sources: Sequence[Any] | None = None,
    seed: int | None = None,
    scheduler: str = "heap",
    event_batching: bool = False,
    batch_segments: int = 8,
    probe: Any = None,
) -> Any:
    """One packet-level simulation arm (a fixed set of flow configs).

    ``queue_discipline``/``queue_params`` select the bottleneck AQM;
    per-flow RTTs, ECN and loss segments travel inside the flow configs;
    ``extra_queues``/``cross_traffic`` describe multi-bottleneck
    topologies and unmeasured background load; ``traffic_sources`` add
    dynamic churn (finite flows spawning and retiring at runtime).
    ``scheduler`` selects the event engine (order-identical, never
    changes results); ``event_batching``/``batch_segments`` enable the
    approximate macro-packet fast path; ``probe`` attaches non-perturbing
    in-sim telemetry (a :class:`repro.obs.probe.ProbeConfig`).
    """
    from repro.netsim.packet.simulation import simulate

    return simulate(
        list(flows),
        capacity_mbps=capacity_mbps,
        base_rtt_ms=base_rtt_ms,
        buffer_bdp=buffer_bdp,
        mss_bytes=mss_bytes,
        duration_s=duration_s,
        warmup_s=warmup_s,
        queue_discipline=queue_discipline,
        queue_params=dict(queue_params) if queue_params else None,
        extra_queues=list(extra_queues) if extra_queues else None,
        cross_traffic=list(cross_traffic) if cross_traffic else None,
        traffic_sources=list(traffic_sources) if traffic_sources else None,
        seed=seed,
        scheduler=scheduler,
        event_batching=event_batching,
        batch_segments=batch_segments,
        probe=probe,
    )


@register_task("fleet.shard_arm")
def fleet_shard_arm(
    treated_mask: Sequence[bool],
    treatment_connections: int,
    control_connections: int,
    capacity_mbps: float,
    rtt_ms: float,
    loss_rate: float,
    buffer_bdp: float,
    duration_s: float,
    warmup_s: float,
    churn_per_s: float = 0.0,
    sketch_compression: int = 100,
    seed: int | None = None,
    probe_interval_s: float = 0.0,
) -> Any:
    """One fleet shard: an edge-bottleneck packet sim reduced to statistics.

    Returns a :class:`~repro.netsim.fleet.aggregate.ShardStats`, never the
    raw simulation result — the O(cells) contract of the fleet engine.
    ``probe_interval_s > 0`` samples queue depth at that sim-time cadence
    and folds it into the stats (still O(cells), never per-flow).
    """
    from repro.netsim.fleet.shard import run_shard

    return run_shard(
        tuple(bool(t) for t in treated_mask),
        treatment_connections=treatment_connections,
        control_connections=control_connections,
        capacity_mbps=capacity_mbps,
        rtt_ms=rtt_ms,
        loss_rate=loss_rate,
        buffer_bdp=buffer_bdp,
        duration_s=duration_s,
        warmup_s=warmup_s,
        churn_per_s=churn_per_s,
        sketch_compression=sketch_compression,
        seed=seed,
        probe_interval_s=probe_interval_s,
    )


@register_task("netsim.fluid_arm")
def fluid_arm(
    applications: Sequence[Any],
    link: Any = None,
    model: Any = None,
    noise: float = 0.0,
    seed: int | None = None,
) -> Any:
    """One fluid lab arm: a fixed application mix sharing the bottleneck."""
    from repro.netsim.fluid.lab import run_lab_experiment

    return run_lab_experiment(
        list(applications), link=link, model=model, noise=noise, seed=seed
    )


# -- paired-link workload tables -----------------------------------------------


@register_task("workload.baseline_table")
def baseline_table(config: Any, days: Sequence[int], seed: int | None = None) -> Any:
    """The untreated baseline week of the paired-link workload."""
    from repro.workload.netflix import PairedLinkWorkload

    return PairedLinkWorkload(config).generate_baseline(tuple(days))


@register_task("workload.experiment_table")
def experiment_table(
    config: Any, design: Any, days: Sequence[int], seed: int | None = None
) -> Any:
    """The main experiment week under a paired-link allocation plan."""
    from repro.workload.netflix import PairedLinkWorkload

    workload = PairedLinkWorkload(config)
    plan = design.allocation_plan(config.links, tuple(days))
    return workload.generate(plan, tuple(days), treatment_active=True)


@register_task("workload.aa_table")
def aa_table(config: Any, days: Sequence[int], seed: int | None = None) -> Any:
    """The post-experiment A/A week (labelled but never capped)."""
    from repro.workload.netflix import PairedLinkWorkload

    return PairedLinkWorkload(config).generate_aa_test(tuple(days))


# -- emulated alternate designs ------------------------------------------------


@register_task("experiments.switchback_emulation")
def switchback_emulation(
    table: Any,
    days: Sequence[int],
    metrics: Sequence[str],
    baselines: Mapping[str, float] | None = None,
    analysis: Any = None,
    seed: int | None = None,
) -> Any:
    """Emulated switchback TTE estimates from paired-link data."""
    from repro.experiments.alternate_designs import emulate_switchback

    return emulate_switchback(
        table,
        days,
        metrics=tuple(metrics),
        baselines=dict(baselines) if baselines else None,
        config=analysis,
    )


@register_task("experiments.event_study_emulation")
def event_study_emulation(
    table: Any,
    days: Sequence[int],
    metrics: Sequence[str],
    baselines: Mapping[str, float] | None = None,
    analysis: Any = None,
    seed: int | None = None,
) -> Any:
    """Emulated event-study TTE estimates from paired-link data."""
    from repro.experiments.alternate_designs import emulate_event_study

    return emulate_event_study(
        table,
        days,
        metrics=tuple(metrics),
        baselines=dict(baselines) if baselines else None,
        config=analysis,
    )


# -- multi-seed figure replication ---------------------------------------------


@register_task("figure.cells")
def figure_cells(
    figure: str,
    quick: bool = False,
    noise: float = 0.0,
    seed: int | None = 0,
) -> dict[str, float]:
    """One replication of a figure, reduced to its scalar cells.

    Returns a flat ``{cell name: value}`` mapping so ``repro sweep`` can
    aggregate mean and confidence intervals across seeds.  Dispatches to
    the figure's reducer in :data:`repro.figures.FIGURES`, which receives
    only the knobs the figure consumes (``noise`` for lab figures,
    ``quick`` for the rest) and the seed only if the figure is seeded.
    A lone arm is a unit of one: it runs the code a shared unit runs.
    """
    from repro.figures import reduce_figures

    return reduce_figures((figure,), quick=quick, noise=noise, seed=seed)[0]


# -- units of work -------------------------------------------------------------


def unit_source(spec: ScenarioSpec) -> Hashable | None:
    """The source run ``spec`` shares with other specs, or ``None``.

    Only ``figure.cells`` arms share one: arms of figures that read the
    same source at equal knobs and seed (the paired-link figures at one
    ``(quick, seed)``).  The executor runs specs with equal sources as
    one unit of work.
    """
    if spec.task != "figure.cells":
        return None
    from repro.figures import shared_source

    return shared_source(seed=spec.seed, **spec.params)


def run_unit(specs: Sequence[ScenarioSpec]) -> list[Any]:
    """Execute one unit of work and return its results in spec order.

    A unit is a single spec, or specs with one :func:`unit_source`,
    whose source runs once.
    """
    if len(specs) == 1:
        return [run_spec(specs[0])]
    from repro.figures import reduce_figures

    params = {name: value for name, value in specs[0].params.items() if name != "figure"}
    figures = [spec.params["figure"] for spec in specs]
    return reduce_figures(figures, seed=specs[0].seed, **params)
