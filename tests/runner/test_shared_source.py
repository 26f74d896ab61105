"""Units of work: paired-link arms of one seed share one paired-link run.

The paired campaign below runs once per module; the sharing tests read
its cells, its cache and the number of paired-link runs it made.
"""

import pytest

from repro.campaign import parse_campaign, run_campaign
from repro.experiments import PairedLinkExperiment
from repro.figures import FIGURES, figure_cells_spec, reduce_figures
from repro.obs import RunTracer
from repro.runner import ParallelExecutor, ResultCache, ScenarioSpec, run_spec
from repro.runner.executor import _units

PAIRED = tuple(name for name, figure in FIGURES.items() if figure.family == "paired")
SEEDS = (0, 1)


def _paired_campaign():
    return parse_campaign(
        {
            "campaign": "paired",
            "defaults": {"quick": True},
            "stages": [{"figure": figure, "seeds": list(SEEDS)} for figure in PAIRED],
        }
    )


@pytest.fixture(scope="module")
def paired(tmp_path_factory):
    """The paired campaign at ``jobs=1`` on a fresh cache, counting paired-link runs."""
    runs = []
    original = PairedLinkExperiment.run

    def counted(self, *args, **kwargs):
        runs.append(self.config.seed)
        return original(self, *args, **kwargs)

    cache = ResultCache(tmp_path_factory.mktemp("paired-cache"))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PairedLinkExperiment, "run", counted)
        result = run_campaign(_paired_campaign(), jobs=1, cache=cache)
    return result, cache, runs


class TestSharedPairedRun:
    def test_paired_figures_share_the_paired_link_source(self):
        assert PAIRED == ("baseline", "fig5", "fig7", "fig8", "fig9", "fig10")
        assert {FIGURES[name].source for name in PAIRED} != {None}
        assert len({FIGURES[name].source for name in PAIRED}) == 1

    def test_campaign_runs_the_paired_link_experiment_once_per_seed(self, paired):
        result, _, runs = paired
        assert len(result.arms) == len(PAIRED) * len(SEEDS)
        assert sorted(runs) == list(SEEDS)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("figure", PAIRED)
    def test_grouped_cells_equal_lone_cells(self, paired, figure, seed):
        result, _, _ = paired
        (arm,) = [a for a in result.stage_arms(figure) if a.seed == seed]
        lone = run_spec(figure_cells_spec(figure, quick=True, seed=seed))
        assert dict(arm.cells) == lone

    def test_grouped_entries_are_hits_for_lone_specs(self, paired):
        result, cache, runs = paired
        count = len(runs)
        hits = cache.hits
        for figure in PAIRED:
            spec = figure_cells_spec(figure, quick=True, seed=SEEDS[1])
            (cells,) = ParallelExecutor(jobs=1, cache=cache).map([spec])
            (arm,) = [a for a in result.stage_arms(figure) if a.seed == SEEDS[1]]
            assert cells == dict(arm.cells)
        assert cache.hits - hits == len(PAIRED)
        assert len(runs) == count

    def test_views_do_not_depend_on_their_order(self):
        forward = reduce_figures(PAIRED, quick=True, seed=2)
        backward = reduce_figures(PAIRED[::-1], quick=True, seed=2)
        assert forward == backward[::-1]

    def test_figures_without_a_shared_source_run_alone(self):
        with pytest.raises(ValueError, match="do not share a source run"):
            reduce_figures(("fig2a", "fig2b"), noise=0.0, seed=1)
        with pytest.raises(ValueError, match="do not share a source run"):
            reduce_figures(("fig5", "fig2a"), quick=True, seed=1)


class TestUnits:
    def test_shared_specs_form_one_unit_in_first_seen_order(self):
        specs = [
            figure_cells_spec("fig5", quick=True, seed=1),
            figure_cells_spec("fig2a", noise=0.1, seed=1),
            figure_cells_spec("fig7", quick=True, seed=2),
            figure_cells_spec("fig9", quick=True, seed=1),
            figure_cells_spec("fig7", quick=False, seed=1),
            ScenarioSpec(task="debug.echo", params={"figure": "fig7"}, seed=1),
            figure_cells_spec("fig8", quick=True, seed=1),
        ]
        assert _units(specs, range(len(specs))) == [[0, 3, 6], [1], [2], [4], [5]]
        assert _units(specs, [2, 3, 6]) == [[2], [3, 6]]

    def test_a_unit_is_one_span_naming_every_arm(self, tmp_path, monkeypatch):
        calls = []

        def fake_reduce(figures, **kwargs):
            calls.append(tuple(figures))
            return [{"f": 1.0}] * len(figures)

        monkeypatch.setattr("repro.figures.reduce_figures", fake_reduce)
        specs = [figure_cells_spec(name, quick=True, seed=4) for name in ("fig5", "fig9")]
        tracer = RunTracer(tmp_path / "run")
        totals = []
        executor = ParallelExecutor(
            jobs=1, tracer=tracer, on_task_done=lambda done, total, run: totals.append(total)
        )
        assert executor.map(specs) == [{"f": 1.0}, {"f": 1.0}]
        assert calls == [("fig5", "fig9")]
        assert [run.label for run in tracer.tasks] == ["fig5[seed=4], fig9[seed=4]"]
        assert totals == [1]
