"""Shared machinery for the lab-experiment figures (Figures 2 and 3).

The paper's lab figures all have the same structure: the x-axis sweeps the
A/B-test allocation (how many of the ten units are treated), and for every
allocation the figure shows the treated and control groups' mean throughput
and retransmission rate.  :class:`LabFigure` packages those rows together
with the derived estimands (naive A/B estimates at each allocation, TTE,
spillover) so benchmarks and examples can print them directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar

from repro.core.estimands import LAB_METRICS, AllocationSweep, PotentialOutcomeCurve

__all__ = [
    "LabFigureRow",
    "LabFigure",
    "BiasComparison",
    "sweep_to_figure",
]


@dataclass(frozen=True)
class LabFigureRow:
    """One x-axis point of a lab figure: an A/B test at one allocation."""

    n_treated: int
    n_control: int
    allocation: float
    treatment_throughput_mbps: float | None
    control_throughput_mbps: float | None
    treatment_retransmit: float | None
    control_retransmit: float | None

    @property
    def ab_throughput_effect(self) -> float | None:
        """Naive A/B throughput estimate at this allocation, Mb/s."""
        if self.treatment_throughput_mbps is None or self.control_throughput_mbps is None:
            return None
        return self.treatment_throughput_mbps - self.control_throughput_mbps

    @property
    def ab_retransmit_effect(self) -> float | None:
        """Naive A/B retransmission estimate at this allocation."""
        if self.treatment_retransmit is None or self.control_retransmit is None:
            return None
        return self.treatment_retransmit - self.control_retransmit


@dataclass
class LabFigure:
    """All rows of a lab figure plus the derived causal quantities."""

    name: str
    description: str
    rows: list[LabFigureRow]
    throughput_curve: PotentialOutcomeCurve
    retransmit_curve: PotentialOutcomeCurve

    def tte(self, metric: str) -> float:
        """Total treatment effect for ``throughput_mbps`` or ``retransmit_fraction``."""
        return self._curve(metric).tte()

    def spillover(self, metric: str, allocation: float) -> float:
        """Spillover on control units at the given allocation."""
        return self._curve(metric).spillover(allocation)

    def ab_estimate(self, metric: str, allocation: float) -> float:
        """Naive A/B estimate at the given allocation."""
        return self._curve(metric).ate(allocation)

    def _curve(self, metric: str) -> PotentialOutcomeCurve:
        if metric == "throughput_mbps":
            return self.throughput_curve
        if metric == "retransmit_fraction":
            return self.retransmit_curve
        raise KeyError(f"unknown lab metric {metric!r}; expected one of {LAB_METRICS}")

    def summary_lines(self) -> list[str]:
        """Human-readable summary, one line per allocation plus estimands."""
        lines = [f"{self.name}: {self.description}"]
        header = (
            f"{'treated':>8} {'T thr (Mb/s)':>14} {'C thr (Mb/s)':>14} "
            f"{'T retx':>10} {'C retx':>10}"
        )
        lines.append(header)
        for row in self.rows:
            t = row.treatment_throughput_mbps
            c = row.control_throughput_mbps
            t_thr = "-" if t is None else f"{t:.0f}"
            c_thr = "-" if c is None else f"{c:.0f}"
            t_rtx = "-" if row.treatment_retransmit is None else f"{row.treatment_retransmit:.4f}"
            c_rtx = "-" if row.control_retransmit is None else f"{row.control_retransmit:.4f}"
            lines.append(
                f"{row.n_treated:>8} {t_thr:>14} {c_thr:>14} {t_rtx:>10} {c_rtx:>10}"
            )
        lines.append(
            f"TTE throughput = {self.tte('throughput_mbps'):+.1f} Mb/s, "
            f"TTE retransmit = {self.tte('retransmit_fraction'):+.5f}"
        )
        return lines


def sweep_to_figure(sweep: AllocationSweep, name: str, description: str) -> LabFigure:
    """Convert a fluid or packet allocation sweep into the figure representation."""
    rows: list[LabFigureRow] = []
    for k in sorted(sweep.results):
        result = sweep.results[k]
        n = sweep.n_units
        rows.append(
            LabFigureRow(
                n_treated=k,
                n_control=n - k,
                allocation=k / n,
                treatment_throughput_mbps=(
                    result.group_mean("throughput_mbps", True) if k > 0 else None
                ),
                control_throughput_mbps=(
                    result.group_mean("throughput_mbps", False) if k < n else None
                ),
                treatment_retransmit=(
                    result.group_mean("retransmit_fraction", True) if k > 0 else None
                ),
                control_retransmit=(
                    result.group_mean("retransmit_fraction", False) if k < n else None
                ),
            )
        )
    return LabFigure(
        name=name,
        description=description,
        rows=rows,
        throughput_curve=sweep.curve("throughput_mbps"),
        retransmit_curve=sweep.curve("retransmit_fraction"),
    )


@dataclass
class BiasComparison:
    """One lab figure per arm, each reduced to its A/B-vs-TTE bias.

    ``figures[key]`` is the :class:`LabFigure` of one arm; :meth:`bias`
    reduces it to how far the naive A/B estimate at :attr:`allocation`
    sits from the true total treatment effect.  Subclasses name their
    arms through two ``str.format`` templates, :attr:`HEADING` (the line
    above each arm's figure) and :attr:`ROW` (the arm's label in the bias
    table), and append their own lines to :meth:`summary_lines`.
    """

    HEADING: ClassVar[str]
    ROW: ClassVar[str]

    figures: dict[Any, LabFigure]
    allocation: float = field(default=0.5, kw_only=True)

    def bias(self, key: Any, metric: str = "throughput_mbps") -> float:
        """Naive A/B estimate minus the TTE at :attr:`allocation` (per unit)."""
        figure = self.figures[key]
        return figure.ab_estimate(metric, self.allocation) - figure.tte(metric)

    def summary_lines(self) -> list[str]:
        """Per-arm figure summaries plus the bias comparison."""
        lines: list[str] = []
        for key, figure in self.figures.items():
            lines.append(self.HEADING.format(key))
            lines.extend(figure.summary_lines())
        lines.append("")
        lines.append(
            f"A/B-vs-TTE bias at {self.allocation:.0%} allocation (throughput, Mb/s per unit):"
        )
        for key in self.figures:
            lines.append(f"  {self.ROW.format(key)}: {self.bias(key):+.2f}")
        return lines
