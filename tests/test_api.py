"""Tests for the `repro.api` facade — the package's compatibility surface."""

import pytest

from repro import api


class TestSurface:
    def test_every_exported_name_resolves(self):
        for name in api.__all__:
            assert getattr(api, name) is not None

    def test_all_is_sorted_and_duplicate_free(self):
        assert list(api.__all__) == sorted(set(api.__all__))

    def test_facade_names_are_the_canonical_objects(self):
        from repro.campaign import CampaignSpec, load_campaign, run_campaign
        from repro.runner import ResultCache, ScenarioSpec, content_key

        assert api.CampaignSpec is CampaignSpec
        assert api.load_campaign is load_campaign
        assert api.run_campaign is run_campaign
        assert api.ResultCache is ResultCache
        assert api.ScenarioSpec is ScenarioSpec
        assert api.content_key is content_key


class TestHelpers:
    def test_list_figures_matches_the_task_registry(self):
        from repro.figures import FIGURES

        assert api.list_figures() == tuple(FIGURES)
        assert "fig2a" in api.list_figures()
        assert "fleet" in api.list_figures()

    def test_figure_spec_builds_a_keyable_arm(self):
        spec = api.figure_spec("topo_rtt", quick=True)
        assert isinstance(spec, api.ScenarioSpec)
        assert spec.params == {"figure": "topo_rtt", "quick": True}
        assert len(api.content_key(spec)) == 64

    def test_figure_spec_unknown_figure(self):
        with pytest.raises(KeyError, match="unknown figure 'figZ'"):
            api.figure_spec("figZ")

    @pytest.mark.parametrize(
        "figure,knobs,message",
        [
            (
                "topo_rtt",
                {"seed": 3},
                "knob(s) ['seed'] do not apply to figure 'topo_rtt' (allowed: ['quick'])",
            ),
            (
                "fig2a",
                {"quick": True},
                "knob(s) ['quick'] do not apply to figure 'fig2a' (allowed: ['noise', 'seed'])",
            ),
            (
                "fig5",
                {"noise": 0.1},
                "knob(s) ['noise'] do not apply to figure 'fig5' (allowed: ['quick', 'seed'])",
            ),
            (
                "fleet",
                {"label": "x"},
                "knob(s) ['label'] do not apply to figure 'fleet' (allowed: ['quick', 'seed'])",
            ),
        ],
    )
    def test_figure_spec_rejects_inapplicable_knobs(self, figure, knobs, message):
        with pytest.raises(ValueError) as exc_info:
            api.figure_spec(figure, **knobs)
        assert str(exc_info.value) == message

    def test_figure_spec_wording_matches_the_stage_check(self):
        with pytest.raises(ValueError) as from_api:
            api.figure_spec("topo_rtt", noise=0.1)
        with pytest.raises(ValueError) as from_stage:
            api.StageSpec(name="s", figure="topo_rtt", knobs={"noise": 0.1})
        assert str(from_stage.value) == f"stage 's': {from_api.value}"


class TestEndToEnd:
    def test_parse_run_validate_through_the_facade(self, tmp_path):
        campaign = api.parse_campaign(
            {"campaign": "api-e2e", "stages": [{"figure": "topo_rtt", "quick": True}]}
        )
        cache = api.ResultCache(tmp_path / "cache")
        result = api.run_campaign(campaign, jobs=2, cache=cache, rundir=tmp_path / "RUN")
        assert result.unique_arms == 1
        assert result.cache_misses == 1
        report = api.validate_run(tmp_path / "RUN", campaign=campaign)
        assert report.ok
