"""The figure registry: every reproducible figure, declared once.

Each :class:`FigureDef` entry of :data:`FIGURES` carries everything the
layers need to know about one figure: its name and ``repro --help`` line,
its family (how ``repro list`` groups it), the knobs it consumes
(``noise`` or ``quick``), whether it consumes the seed, the reducer the
``figure.cells`` runner task calls, and the CLI printer with its
figure-specific arguments.  The runner task, :func:`figure_cells_spec`,
the campaign compiler, the ``repro`` CLI and :mod:`repro.api` all read
this table, so adding a figure means adding one entry.

Figures read off one run declare that run as their ``source`` and a
view over it as their reducer: the paired-link figures all read one
paired-link experiment, so arms of several of them at one seed run it
once (:func:`reduce_figures`; record once, report many).

The module also holds the helpers that turn CLI arguments into a
result cache and a run tracer, which the printers share with the other
``repro`` subcommands.

Reducers and printers import the experiments lazily: worker processes
import this module through the ``figure.cells`` task, and the campaign
layer imports it to compile arms, neither of which should pay for the
simulators until a figure actually runs.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable, Hashable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import partial
from types import MappingProxyType
from typing import TYPE_CHECKING, Any

from repro.reporting import format_table
from repro.runner.cache import ResultCache, default_cache_dir
from repro.runner.spec import ScenarioSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments import PairedLinkExperiment, PairedLinkOutcome
    from repro.experiments.paired_link import CellMeans
    from repro.experiments.lab_common import LabFigure
    from repro.experiments.lab_topology import AqmBiasComparison
    from repro.obs.trace import RunTracer

__all__ = [
    "FigureDef",
    "FAMILIES",
    "FIGURES",
    "get_figure",
    "figure_cells_spec",
    "shared_source",
    "reduce_figures",
    "make_cache",
    "make_tracer",
]

#: Figure families in ``repro list`` order, with each listing's prefix.
FAMILIES: Mapping[str, str] = MappingProxyType(
    {
        "lab": "lab figures:        ",
        "paired": "paired-link figures: ",
        "topology": "topology figures:    ",
        "fleet": "fleet figures:       ",
    }
)

NOISE = frozenset({"noise"})
QUICK = frozenset({"quick"})


@dataclass(frozen=True)
class FigureDef:
    """One reproducible figure.

    Attributes
    ----------
    name:
        Figure name: the CLI subcommand and the ``figure.cells`` target.
    family:
        One of :data:`FAMILIES`.
    help:
        One-line help shown in ``repro --help``.
    knobs:
        The knobs the figure consumes and its arms are keyed by:
        ``noise`` (fluid-lab measurement noise) or ``quick`` (smaller
        workload).  An inapplicable knob never enters a content key.
    seeded:
        Whether the figure consumes the seed.  Unseeded figures are pure
        functions of their knobs, so replications collapse to one
        seed-free arm.
    cells:
        The ``figure.cells`` reducer: returns one replication's flat
        ``{cell name: value}`` mapping.  Without a ``source`` it runs the
        replication, called with the figure's knobs, plus ``seed`` when
        seeded; with one it is a view that reads the source's result.
    show:
        The CLI printer, called with the parsed arguments and the
        figure's subparser (for usage errors).
    add_arguments:
        Adds figure-specific flags to the figure's subparser.
    traced:
        Whether the subcommand takes ``--trace``/``--profile``.
    source:
        The run several figures read (the paired-link experiment),
        called like a reducer.  Arms of figures with the same source,
        knobs and seed run it once (:func:`reduce_figures`).
    """

    name: str
    family: str
    help: str
    knobs: frozenset[str]
    seeded: bool
    cells: Callable[..., dict[str, float]]
    show: Callable[[argparse.Namespace, argparse.ArgumentParser], None]
    add_arguments: Callable[[argparse.ArgumentParser], None] | None = None
    traced: bool = False
    source: Callable[..., Any] | None = None

    def arguments(self, quick: bool, noise: float, seed: int | None) -> dict[str, Any]:
        """What the reducer (or source) consumes: its knobs, plus ``seed`` when seeded."""
        given = {"quick": quick, "noise": noise}
        kwargs: dict[str, Any] = {knob: given[knob] for knob in sorted(self.knobs)}
        if self.seeded:
            kwargs["seed"] = seed
        return kwargs

    def check_knobs(self, names: Iterable[str], allowed: frozenset[str]) -> None:
        """Raise :class:`ValueError` naming any of ``names`` not in ``allowed``."""
        extra = set(names) - allowed
        if extra:
            raise ValueError(
                f"knob(s) {sorted(extra)} do not apply to figure {self.name!r} "
                f"(allowed: {sorted(allowed)})"
            )


def get_figure(name: str) -> FigureDef:
    """The registry entry for ``name``; :class:`KeyError` if there is none."""
    try:
        return FIGURES[name]
    except KeyError:
        raise KeyError(f"unknown figure {name!r}; choose one of {list(FIGURES)}") from None


def figure_cells_spec(
    figure: str,
    quick: bool = False,
    noise: float = 0.0,
    seed: int | None = 0,
    label: str | None = None,
) -> ScenarioSpec:
    """A content-keyed :class:`ScenarioSpec` for one ``figure.cells`` arm.

    Applies the inert-knob rule so equal computations share a content
    key: the spec carries only the knobs the figure consumes, and
    unseeded figures are normalized to ``seed=None`` so replications
    cannot split the cache.  Defaults match the ``figure.cells`` task
    defaults, so a knob left at its default keys identically to one
    never passed at all.
    """
    entry = get_figure(figure)
    params: dict[str, object] = {"figure": figure}
    if "noise" in entry.knobs:
        params["noise"] = float(noise)
    if "quick" in entry.knobs:
        params["quick"] = bool(quick)
    arm_seed = None if not entry.seeded or seed is None else int(seed)
    if label is None:
        label = f"{figure}[seed={arm_seed}]" if entry.seeded else f"{figure}[deterministic]"
    return ScenarioSpec(task="figure.cells", params=params, seed=arm_seed, label=label)


def shared_source(
    figure: str, quick: bool = False, noise: float = 0.0, seed: int | None = 0
) -> Hashable | None:
    """What a ``figure.cells`` arm shares its run by, or ``None`` if it runs alone.

    Arms with equal keys read one run of their figures' source.
    """
    entry = get_figure(figure)
    if entry.source is None:
        return None
    return (entry.source, tuple(entry.arguments(quick, noise, seed).items()))


def reduce_figures(
    figures: Sequence[str], quick: bool = False, noise: float = 0.0, seed: int | None = 0
) -> list[dict[str, float]]:
    """One replication of each of ``figures``, in order.

    Figures with a source must share it (equal :func:`shared_source`
    keys): the source runs once and each figure's view reads the result.
    A figure without a source comes alone and is its own reducer.
    """
    sources = {shared_source(name, quick, noise, seed) for name in figures}
    if len(sources) != 1 or (None in sources and len(figures) != 1):
        raise ValueError(f"figures {list(figures)} do not share a source run")
    entries = [get_figure(name) for name in figures]
    source = entries[0].source
    kwargs = entries[0].arguments(quick, noise, seed)
    if source is None:
        return [entries[0].cells(**kwargs)]
    run = source(**kwargs)
    return [entry.cells(run) for entry in entries]


# -- command-line helpers (shared with the other ``repro`` subcommands) --------


def make_cache(args: argparse.Namespace) -> ResultCache | None:
    """The on-disk result cache for ``--cache``/``--cache-dir``, or ``None``."""
    if not args.cache:
        return None
    return ResultCache(args.cache_dir or default_cache_dir())


def _command_line(args: argparse.Namespace) -> str:
    """Reconstruct a readable command line for the trace metadata."""
    parts = ["repro", args.figure]
    for attribute in ("campaign_file", "target"):
        value = getattr(args, attribute, None)
        if value:
            parts.append(str(value))
    if getattr(args, "quick", False):
        parts.append("--quick")
    if getattr(args, "jobs", 1) != 1:
        parts.append(f"--jobs {args.jobs}")
    probe = getattr(args, "probe", None)
    if probe:
        parts.append(f"--probe {probe:g}")
    if getattr(args, "profile", False):
        parts.append("--profile")
    return " ".join(parts)


def make_tracer(args: argparse.Namespace) -> RunTracer | None:
    """The run tracer for ``--trace DIR``, or ``None``."""
    if not args.trace:
        return None
    from repro.obs.trace import RunTracer

    return RunTracer(args.trace, command=_command_line(args))


def _curve_cells(fig: LabFigure) -> dict[str, float]:
    return {
        "tte_throughput_mbps": fig.tte("throughput_mbps"),
        "tte_retransmit_fraction": fig.tte("retransmit_fraction"),
        "ab_throughput_mbps@0.5": fig.ab_estimate("throughput_mbps", 0.5),
        "spillover_throughput@0.5": fig.spillover("throughput_mbps", 0.5),
    }


# -- fluid-lab figures (Figures 2a, 2b, 3) -------------------------------------


def _lab_experiment(runner: str) -> Callable[..., LabFigure]:
    import repro.experiments

    return getattr(repro.experiments, runner)


def _lab_cells(runner: str, *, noise: float, seed: int | None) -> dict[str, float]:
    return _curve_cells(_lab_experiment(runner)(noise=noise, seed=seed))


def _show_lab(runner: str, args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    figure = _lab_experiment(runner)(jobs=args.jobs, cache=make_cache(args))
    print("\n".join(figure.summary_lines()))


# -- paired-link figures (Section 4.1, Figures 5 and 7-10) ---------------------


def _paired_experiment(quick: bool, seed: int) -> PairedLinkExperiment:
    from repro.experiments import PairedLinkExperiment
    from repro.workload import WorkloadConfig

    return PairedLinkExperiment(
        config=WorkloadConfig(sessions_at_peak=150 if quick else 300, seed=seed)
    )


def _paired_run(*, quick: bool, seed: int | None) -> PairedLinkOutcome:
    """The source of every paired figure: the three workload weeks, analysed."""
    return _paired_experiment(quick, 0 if seed is None else seed).run()


def _show_paired(
    view: Callable[[PairedLinkOutcome, argparse.Namespace], None],
    args: argparse.Namespace,
    parser: argparse.ArgumentParser,
) -> None:
    experiment = _paired_experiment(args.quick, args.seed)
    view(experiment.run(jobs=args.jobs, cache=make_cache(args)), args)


def _baseline_cells(outcome: PairedLinkOutcome) -> dict[str, float]:
    from repro.experiments import compare_links_at_baseline

    return {
        f"rel_diff_pct:{row.metric}": row.relative_percent
        for row in compare_links_at_baseline(outcome.baseline_table)
    }


def _print_baseline(outcome: PairedLinkOutcome, args: argparse.Namespace) -> None:
    from repro.experiments import compare_links_at_baseline

    rows = [
        [r.metric, f"{r.relative_percent:+.1f}%", "yes" if r.significant else "no"]
        for r in compare_links_at_baseline(outcome.baseline_table)
    ]
    print(format_table(["metric", "link1 vs link2", "significant"], rows))


def _fig5_cells(outcome: PairedLinkOutcome) -> dict[str, float]:
    from repro.core.units import SESSION_METRICS

    cells: dict[str, float] = {}
    for estimand in ("ab_0.05", "ab_0.95", "tte", "spillover"):
        for metric in SESSION_METRICS:
            cells[f"{estimand}:{metric}"] = outcome.estimates[estimand][metric].relative_percent
    return cells


def _print_fig5(outcome: PairedLinkOutcome, args: argparse.Namespace) -> None:
    rows = [
        [
            row["metric"],
            f"{row['ab_0.05']:+.1f}%",
            f"{row['ab_0.95']:+.1f}%",
            f"{row['tte']:+.1f}%",
            f"{row['spillover']:+.1f}%",
        ]
        for row in outcome.figure5_rows()
    ]
    print(format_table(["metric", "A/B 5%", "A/B 95%", "TTE", "spillover"], rows))


def _link_cells(cells: CellMeans) -> dict[str, float]:
    return {
        "link1_treated": cells.link1_treated,
        "link1_control": cells.link1_control,
        "link2_treated": cells.link2_treated,
        "link2_control": cells.link2_control,
    }


def _print_link_cells(cells: CellMeans, column: str, fmt: str) -> None:
    rows = [
        ["link 1, capped 95%", format(cells.link1_treated, fmt)],
        ["link 1, uncapped 5%", format(cells.link1_control, fmt)],
        ["link 2, capped 5%", format(cells.link2_treated, fmt)],
        ["link 2, uncapped 95%", format(cells.link2_control, fmt)],
    ]
    print(format_table(["cell", column], rows))


def _fig7_cells(outcome: PairedLinkOutcome) -> dict[str, float]:
    return _link_cells(outcome.figure7_cells())


def _print_fig7(outcome: PairedLinkOutcome, args: argparse.Namespace) -> None:
    _print_link_cells(outcome.figure7_cells(), "throughput (Mb/s)", ".2f")


def _fig8_cells(outcome: PairedLinkOutcome) -> dict[str, float]:
    return _link_cells(outcome.figure8_cells())


def _print_fig8(outcome: PairedLinkOutcome, args: argparse.Namespace) -> None:
    _print_link_cells(outcome.figure8_cells(), "min RTT (normalized)", ".3f")


def _fig9_cells(outcome: PairedLinkOutcome) -> dict[str, float]:
    return {name: 100.0 * value for name, value in outcome.figure9_retransmit_split().items()}


def _print_fig9(outcome: PairedLinkOutcome, args: argparse.Namespace) -> None:
    split = outcome.figure9_retransmit_split()
    rows = [
        ["peak", f"{100 * split['peak']:+.1f}%"],
        ["off-peak", f"{100 * split['off_peak']:+.1f}%"],
        ["overall TTE", f"{100 * split['overall']:+.1f}%"],
    ]
    print(format_table(["period", "retransmit change"], rows))


def _fig10_cells(outcome: PairedLinkOutcome) -> dict[str, float]:
    from repro.core.units import SESSION_METRICS
    from repro.experiments import compare_designs

    comparison = compare_designs(
        outcome.experiment_table,
        outcome.days,
        outcome.estimates["tte"],
        baselines=outcome.baselines,
    )
    cells: dict[str, float] = {}
    for design in comparison.DESIGNS:
        for metric in SESSION_METRICS:
            cells[f"{design}:{metric}"] = getattr(comparison, design)[metric].relative_percent
    return cells


def _print_fig10(outcome: PairedLinkOutcome, args: argparse.Namespace) -> None:
    from repro.core.units import SESSION_METRICS
    from repro.experiments import compare_designs

    comparison = compare_designs(
        outcome.experiment_table,
        outcome.days,
        outcome.estimates["tte"],
        baselines=outcome.baselines,
        jobs=args.jobs,
        cache=make_cache(args),
    )
    rows = [
        [
            row["metric"],
            f"{row['paired_link']:+.1f}%",
            f"{row['switchback']:+.1f}%",
            f"{row['event_study']:+.1f}%",
        ]
        for row in comparison.rows(SESSION_METRICS)
    ]
    print(format_table(["metric", "paired link", "switchback", "event study"], rows))


# -- packet-level topology figures ---------------------------------------------
#
# Apart from topo_churn, these are deterministic packet sims: the seed is
# deliberately not consumed (topo_l4s pins DualPI2's lottery seed to the
# experiment default), so every replication returns the same cells.


def _parse_rtt_spread(text: str, parser: argparse.ArgumentParser) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        values = ()
    if not values or any(v <= 0 for v in values):
        parser.error(f"--rtt-spread needs positive comma-separated ms values, got {text!r}")
    return values


def _parse_disciplines(text: str, parser: argparse.ArgumentParser) -> tuple[str, ...]:
    from repro.netsim.packet.queue import QUEUE_DISCIPLINES

    names = tuple(part.strip() for part in text.split(",") if part.strip())
    unknown = [name for name in names if name not in QUEUE_DISCIPLINES]
    if not names or unknown:
        parser.error(
            f"--disciplines needs comma-separated names from "
            f"{', '.join(sorted(QUEUE_DISCIPLINES))}; got {text!r}"
        )
    return names


def _parse_churn_rates(text: str, parser: argparse.ArgumentParser) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        values = ()
    if not values or any(v < 0 for v in values) or len(set(values)) != len(values):
        parser.error(
            f"--churn-rates needs distinct non-negative comma-separated "
            f"flow-per-second values, got {text!r}"
        )
    return values


def _discipline_cells(comparison: AqmBiasComparison) -> dict[str, float]:
    cells: dict[str, float] = {}
    for discipline, fig in comparison.figures.items():
        cells[f"bias_throughput@0.5:{discipline}"] = comparison.bias(discipline)
        cells[f"tte_throughput_mbps:{discipline}"] = fig.tte("throughput_mbps")
        cells[f"ab_throughput_mbps@0.5:{discipline}"] = fig.ab_estimate("throughput_mbps", 0.5)
    return cells


def _rtt_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--rtt-spread",
        default="10,20,40,80",
        help="per-unit RTT profile, comma-separated ms (default: 10,20,40,80)",
    )


def _rtt_cells(*, quick: bool) -> dict[str, float]:
    from repro.experiments.lab_topology import run_rtt_experiment

    return _curve_cells(run_rtt_experiment(quick=quick))


def _show_rtt(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    from repro.experiments.lab_topology import run_rtt_experiment

    figure = run_rtt_experiment(
        rtt_spread_ms=_parse_rtt_spread(args.rtt_spread, parser),
        quick=args.quick,
        jobs=args.jobs,
        cache=make_cache(args),
    )
    print("\n".join(figure.summary_lines()))


def _aqm_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--disciplines",
        default="droptail,codel",
        help="queue disciplines to compare (default: droptail,codel)",
    )


def _aqm_cells(*, quick: bool) -> dict[str, float]:
    from repro.experiments.lab_topology import run_aqm_experiment

    return _discipline_cells(run_aqm_experiment(quick=quick))


def _show_aqm(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    from repro.experiments.lab_topology import run_aqm_experiment

    comparison = run_aqm_experiment(
        disciplines=_parse_disciplines(args.disciplines, parser),
        quick=args.quick,
        jobs=args.jobs,
        cache=make_cache(args),
    )
    print("\n".join(comparison.summary_lines()))


def _parking_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--segments",
        type=int,
        default=4,
        help="bottleneck segments in the parking-lot chain (default: 4)",
    )


def _parking_cells(*, quick: bool) -> dict[str, float]:
    from repro.experiments.lab_parking_lot import run_parking_lot_experiment

    parking = run_parking_lot_experiment(quick=quick)
    cells = {
        f"bias_throughput@0.5:{topology}": parking.bias(topology) for topology in parking.figures
    }
    cells["remote_spillover_mbps"] = parking.remote_spillover_mbps
    return cells


def _show_parking(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    from repro.experiments.lab_parking_lot import MIN_SEGMENTS, run_parking_lot_experiment

    if args.segments < MIN_SEGMENTS:
        parser.error(
            f"--segments must be at least {MIN_SEGMENTS} (cross-segment "
            "spillover needs two disjoint unit spans)"
        )
    comparison = run_parking_lot_experiment(
        n_segments=args.segments,
        quick=args.quick,
        jobs=args.jobs,
        cache=make_cache(args),
    )
    print("\n".join(comparison.summary_lines()))


def _fq_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--disciplines",
        default=None,
        help="queue disciplines to compare (default: droptail,fq_codel)",
    )


def _fq_cells(*, quick: bool) -> dict[str, float]:
    from repro.experiments.lab_parking_lot import run_fq_experiment

    return _discipline_cells(run_fq_experiment(quick=quick))


def _show_fq(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    from repro.experiments.lab_parking_lot import run_fq_experiment

    # topo_fq has its own discipline default (droptail vs fq_codel);
    # an explicit --disciplines still overrides it.
    if args.disciplines is not None:
        disciplines = _parse_disciplines(args.disciplines, parser)
    else:
        disciplines = ("droptail", "fq_codel")
    comparison = run_fq_experiment(
        disciplines=disciplines,
        quick=args.quick,
        jobs=args.jobs,
        cache=make_cache(args),
    )
    print("\n".join(comparison.summary_lines()))


def _churn_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--churn-rates",
        default="0,2,6",
        help=(
            "churn intensities, comma-separated flow arrivals per "
            "second (default: 0,2,6; include 0 for the static "
            "reference)"
        ),
    )
    parser.add_argument(
        "--traffic-split",
        type=float,
        default=1.0,
        help=(
            "within-interval allocation of the switchback-ramp "
            "scenario, in (0.5, 1]: 1 (default) runs pure 100/0 "
            "intervals, 0.95 the production 95/5 variant (scales the "
            "unit count up so the 5%% arm keeps a unit — markedly "
            "slower)"
        ),
    )


def _churn_cells(*, quick: bool, seed: int | None) -> dict[str, float]:
    # Unlike the other topology figures, churn consumes the seed:
    # arrival times and flow sizes are drawn from it.
    from repro.experiments.lab_churn import run_churn_experiment

    comparison = run_churn_experiment(quick=quick, seed=0 if seed is None else seed)
    cells: dict[str, float] = {}
    for rate in comparison.rates():
        cells[f"bias_throughput@0.5:churn{rate:g}"] = comparison.bias(rate)
        stats = comparison.churn[rate]
        cells[f"churn_flows_completed:churn{rate:g}"] = float(stats.flows_completed)
        # Always emit the FCT cells so replications agree on the cell set
        # (0.0 stands for "no completions", which only zero churn hits).
        cells[f"mean_fct_s:churn{rate:g}"] = 0.0 if stats.mean_fct_s is None else stats.mean_fct_s
        for name, value in (
            ("p50", stats.p50_fct_s),
            ("p95", stats.p95_fct_s),
            ("p99", stats.p99_fct_s),
        ):
            cells[f"fct_{name}_s:churn{rate:g}"] = 0.0 if value is None else value
    return cells


def _show_churn(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    from repro.experiments.lab_churn import run_churn_experiment, run_switchback_ramp_experiment

    if not 0.5 < args.traffic_split <= 1.0:
        parser.error("--traffic-split must be in (0.5, 1.0]")
    cache = make_cache(args)
    comparison = run_churn_experiment(
        churn_rates=_parse_churn_rates(args.churn_rates, parser),
        quick=args.quick,
        jobs=args.jobs,
        cache=cache,
        seed=args.seed,
    )
    print("\n".join(comparison.summary_lines()))
    print()
    ramp = run_switchback_ramp_experiment(
        traffic_split=args.traffic_split,
        quick=args.quick,
        jobs=args.jobs,
        cache=cache,
        seed=args.seed,
    )
    print("\n".join(ramp.summary_lines()))


def _l4s_cells(*, quick: bool) -> dict[str, float]:
    from repro.experiments.lab_l4s import run_l4s_experiment

    comparison = run_l4s_experiment(quick=quick)
    cells = {f"bias_throughput@0.5:{arm}": comparison.bias(arm) for arm in comparison.figures}
    cells["coexistence_ratio"] = comparison.coexistence_ratio
    return cells


def _show_l4s(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    from repro.experiments.lab_l4s import run_l4s_experiment

    comparison = run_l4s_experiment(quick=args.quick, jobs=args.jobs, cache=make_cache(args))
    print("\n".join(comparison.summary_lines()))


# -- the sharded fleet ---------------------------------------------------------


def _fleet_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--units",
        type=int,
        default=None,
        help="fleet size (default: 20000, or 10000 with --quick)",
    )
    parser.add_argument(
        "--edges",
        type=int,
        default=None,
        help="edge bottlenecks (default: 200, or 100 with --quick)",
    )
    parser.add_argument(
        "--granularity",
        choices=["unit", "edge", "region", "all"],
        default="all",
        help="assignment granularity to compare (default: all three)",
    )
    parser.add_argument(
        "--probe",
        type=float,
        metavar="SECONDS",
        default=None,
        help=(
            "sample in-sim queue depth on every fleet shard at this simulated-"
            "time cadence (never changes results)"
        ),
    )


def _fleet_cells(*, quick: bool, seed: int | None) -> dict[str, float]:
    # The fleet consumes the seed: the treatment assignment and every
    # squeezed shard's loss stream derive from it.
    from repro.experiments.lab_fleet import run_fleet_experiment

    comparison = run_fleet_experiment(quick=quick, seed=0 if seed is None else seed)
    cells: dict[str, float] = {"tte_throughput_mbps": comparison.truth_tte}
    for granularity, outcome in comparison.outcomes.items():
        cells[f"ab_throughput_mbps@0.5:{granularity}"] = outcome.ab_estimate()
        cells[f"bias_throughput@0.5:{granularity}"] = comparison.bias(granularity)
        cells[f"p50_treated_mbps:{granularity}"] = outcome.result.quantile(
            "treated", "throughput_mbps", 0.5
        )
    return cells


def _show_fleet(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    from repro.experiments.lab_fleet import run_fleet_experiment
    from repro.netsim.fleet import GRANULARITIES
    from repro.obs.trace import ProgressPrinter, walltime
    from repro.runner import ParallelExecutor

    if args.probe is not None and args.probe <= 0:
        parser.error("--probe needs a positive sampling interval in seconds")
    granularities = GRANULARITIES if args.granularity == "all" else (args.granularity,)
    if args.units is not None and args.units < 1:
        parser.error("--units must be positive")
    if args.edges is not None and args.edges < 1:
        parser.error("--edges must be positive")

    # Observability: a traced/profiled executor plus a live shard
    # progress line (on a terminal, or whenever a trace is requested).
    tracer = make_tracer(args)
    progress: ProgressPrinter | None = None
    if tracer is not None or sys.stderr.isatty():
        progress = ProgressPrinter("shards")
    executor: ParallelExecutor | None = None
    if tracer is not None or args.profile or progress is not None:
        executor = ParallelExecutor(
            jobs=args.jobs,
            cache=make_cache(args),
            tracer=tracer,
            profile=args.profile,
            on_task_done=progress,
        )

    started = walltime()
    comparison = run_fleet_experiment(
        units=args.units,
        edges=args.edges,
        granularities=granularities,
        quick=args.quick,
        jobs=args.jobs,
        cache=make_cache(args) if executor is None else None,
        executor=executor,
        probe_interval_s=args.probe or 0.0,
        seed=args.seed,
    )
    print("\n".join(comparison.summary_lines()))

    if tracer is not None:
        wall = walltime() - started
        fleets = len(comparison.outcomes) + 2
        tracer.add_counters(comparison.counters)
        tracer.finish(
            {
                "figure": "fleet",
                "shards": comparison.spec.edges * fleets,
                "units": comparison.spec.units,
                "units_per_s": comparison.spec.units * fleets / wall if wall > 0 else 0.0,
            }
        )
        print(f"trace written to {args.trace}", file=sys.stderr)


# -- the registry --------------------------------------------------------------

#: Every reproducible figure, in ``repro --help`` and ``repro list`` order.
FIGURES: Mapping[str, FigureDef] = MappingProxyType(
    {
        figure.name: figure
        for figure in (
            FigureDef(
                "fig2a",
                "lab",
                "parallel-connections lab figure (Figure 2a)",
                NOISE,
                seeded=True,
                cells=partial(_lab_cells, "run_connections_experiment"),
                show=partial(_show_lab, "run_connections_experiment"),
            ),
            FigureDef(
                "fig2b",
                "lab",
                "pacing lab figure (Figure 2b)",
                NOISE,
                seeded=True,
                cells=partial(_lab_cells, "run_pacing_experiment"),
                show=partial(_show_lab, "run_pacing_experiment"),
            ),
            FigureDef(
                "fig3",
                "lab",
                "Cubic-vs-BBR lab figure (Figure 3)",
                NOISE,
                seeded=True,
                cells=partial(_lab_cells, "run_cc_experiment"),
                show=partial(_show_lab, "run_cc_experiment"),
            ),
            FigureDef(
                "baseline",
                "paired",
                "Section 4.1 baseline link-similarity table",
                QUICK,
                seeded=True,
                cells=_baseline_cells,
                source=_paired_run,
                show=partial(_show_paired, _print_baseline),
            ),
            FigureDef(
                "fig5",
                "paired",
                "paired-link treatment-effect table (Figure 5)",
                QUICK,
                seeded=True,
                cells=_fig5_cells,
                source=_paired_run,
                show=partial(_show_paired, _print_fig5),
            ),
            FigureDef(
                "fig7",
                "paired",
                "paired-link throughput cells (Figure 7)",
                QUICK,
                seeded=True,
                cells=_fig7_cells,
                source=_paired_run,
                show=partial(_show_paired, _print_fig7),
            ),
            FigureDef(
                "fig8",
                "paired",
                "paired-link min-RTT cells (Figure 8)",
                QUICK,
                seeded=True,
                cells=_fig8_cells,
                source=_paired_run,
                show=partial(_show_paired, _print_fig8),
            ),
            FigureDef(
                "fig9",
                "paired",
                "paired-link retransmission split (Figure 9)",
                QUICK,
                seeded=True,
                cells=_fig9_cells,
                source=_paired_run,
                show=partial(_show_paired, _print_fig9),
            ),
            FigureDef(
                "fig10",
                "paired",
                "switchback / event-study design comparison (Figure 10)",
                QUICK,
                seeded=True,
                cells=_fig10_cells,
                source=_paired_run,
                show=partial(_show_paired, _print_fig10),
            ),
            FigureDef(
                "topo_rtt",
                "topology",
                "A/B bias under heterogeneous RTTs",
                QUICK,
                seeded=False,
                cells=_rtt_cells,
                show=_show_rtt,
                add_arguments=_rtt_arguments,
            ),
            FigureDef(
                "topo_aqm",
                "topology",
                "A/B bias under AQM (CoDel/RED) vs drop-tail",
                QUICK,
                seeded=False,
                cells=_aqm_cells,
                show=_show_aqm,
                add_arguments=_aqm_arguments,
            ),
            FigureDef(
                "topo_parking",
                "topology",
                "parking-lot bias and cross-segment spillover",
                QUICK,
                seeded=False,
                cells=_parking_cells,
                show=_show_parking,
                add_arguments=_parking_arguments,
            ),
            FigureDef(
                "topo_fq",
                "topology",
                "per-flow FQ-CoDel vs drop-tail bias",
                QUICK,
                seeded=False,
                cells=_fq_cells,
                show=_show_fq,
                add_arguments=_fq_arguments,
            ),
            FigureDef(
                "topo_churn",
                "topology",
                "bias under flow churn + switchback-vs-ramp",
                QUICK,
                seeded=True,
                cells=_churn_cells,
                show=_show_churn,
                add_arguments=_churn_arguments,
            ),
            FigureDef(
                "topo_l4s",
                "topology",
                "L4S/DCTCP marking vs classic AQM bias",
                QUICK,
                seeded=False,
                cells=_l4s_cells,
                show=_show_l4s,
            ),
            FigureDef(
                "fleet",
                "fleet",
                "sharded fleet: bias vs assignment cluster size",
                QUICK,
                seeded=True,
                cells=_fleet_cells,
                show=_show_fleet,
                add_arguments=_fleet_arguments,
                traced=True,
            ),
        )
    }
)
