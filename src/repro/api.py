"""Stable Python API facade for driving reproductions programmatically.

Everything a script needs to load, run and validate campaigns without
reaching into submodules::

    from repro import api

    campaign = api.load_campaign("examples/campaign_quick.yaml")
    result = api.run_campaign(campaign, jobs=4, cache=api.ResultCache())
    report = api.validate_run("RUN")

The facade re-exports the frozen spec types (:class:`CampaignSpec`,
:class:`StageSpec`, :class:`ScenarioSpec`, ...) and the runner
primitives they lower onto, plus :func:`list_figures`,
:func:`figure_spec`, :func:`figure_knobs` and :func:`figure_is_seeded`,
which read the figure registry (:data:`repro.figures.FIGURES`).
Import from here rather than from the implementation modules: these
names are the package's compatibility surface.
"""

from __future__ import annotations

from typing import Any

from repro.campaign.loader import CampaignError, load_campaign, parse_campaign
from repro.campaign.run import (
    ArmResult,
    CampaignResult,
    confidence_half_width,
    run_campaign,
    write_run_dir,
)
from repro.campaign.spec import AnalysisSettings, CampaignArm, CampaignSpec, StageSpec
from repro.campaign.validate import ValidationReport, validate_run
from repro.figures import FIGURES, figure_cells_spec, get_figure
from repro.runner.cache import ResultCache, default_cache_dir
from repro.runner.executor import ParallelExecutor
from repro.runner.spec import ScenarioSpec, canonical, content_key

__all__ = [
    "AnalysisSettings",
    "ArmResult",
    "CampaignArm",
    "CampaignError",
    "CampaignResult",
    "CampaignSpec",
    "ParallelExecutor",
    "ResultCache",
    "ScenarioSpec",
    "StageSpec",
    "ValidationReport",
    "canonical",
    "confidence_half_width",
    "content_key",
    "default_cache_dir",
    "figure_is_seeded",
    "figure_knobs",
    "figure_spec",
    "list_figures",
    "load_campaign",
    "parse_campaign",
    "run_campaign",
    "validate_run",
    "write_run_dir",
]


def list_figures() -> tuple[str, ...]:
    """The sweepable figure names campaigns and ``repro sweep`` accept."""
    return tuple(FIGURES)


def figure_knobs(figure: str) -> frozenset[str]:
    """The knob names that apply to (and key) one figure's arms.

    Lab figures consume ``noise`` (their outcomes are otherwise exact);
    every other figure consumes ``quick``.  Keeping inapplicable knobs
    out of a stage keeps them out of the content keys, so an inert knob
    can never split the cache.
    """
    return get_figure(figure).knobs


def figure_is_seeded(figure: str) -> bool:
    """Whether the figure consumes the seed (False ⇒ one seed-free arm)."""
    return get_figure(figure).seeded


def figure_spec(figure: str, **knobs: Any) -> ScenarioSpec:
    """One content-keyed ``figure.cells`` arm for ``figure``.

    Accepts the figure's knobs (``noise=`` for lab figures, ``quick=``
    for the rest) and ``seed=`` for seeded figures; any other keyword
    raises :class:`ValueError` naming the figure's allowed knobs.
    """
    entry = get_figure(figure)
    entry.check_knobs(knobs, entry.knobs | ({"seed"} if entry.seeded else set()))
    return figure_cells_spec(figure, **knobs)
