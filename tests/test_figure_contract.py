"""Behaviour pins for the figure surface: arms, ``repro list`` and ``--help``.

Every literal below is the contract.  A ``figure.cells`` arm's
``(task, params, seed, label)`` decides its content key and its run-dir
label; ``repro list`` and the ``repro --help`` command lines are legacy
CLI stdout.  Refactors of how figures are declared must leave every one
of these byte-identical.  Rows are compared by ``repr`` so a knob's type
is pinned too (``0.0`` is not ``0``, ``True`` is not ``1``).
"""

import pytest

from repro import api
from repro.campaign import StageSpec
from repro.cli import main

T = "figure.cells"

#: ``repro.api.figure_spec(figure, **knobs)`` -> (task, params, seed, label).
FIGURE_SPEC_ARMS = [
    ("fig2a", {}, (T, {"figure": "fig2a", "noise": 0.0}, 0, "fig2a[seed=0]")),
    ("fig2a", {"seed": 3}, (T, {"figure": "fig2a", "noise": 0.0}, 3, "fig2a[seed=3]")),
    ("fig2a", {"noise": 0.1}, (T, {"figure": "fig2a", "noise": 0.1}, 0, "fig2a[seed=0]")),
    ("fig2b", {}, (T, {"figure": "fig2b", "noise": 0.0}, 0, "fig2b[seed=0]")),
    ("fig2b", {"seed": 3}, (T, {"figure": "fig2b", "noise": 0.0}, 3, "fig2b[seed=3]")),
    ("fig2b", {"noise": 0.1}, (T, {"figure": "fig2b", "noise": 0.1}, 0, "fig2b[seed=0]")),
    ("fig3", {}, (T, {"figure": "fig3", "noise": 0.0}, 0, "fig3[seed=0]")),
    ("fig3", {"seed": 3}, (T, {"figure": "fig3", "noise": 0.0}, 3, "fig3[seed=3]")),
    ("fig3", {"noise": 0.1}, (T, {"figure": "fig3", "noise": 0.1}, 0, "fig3[seed=0]")),
    (
        "baseline",
        {},
        (T, {"figure": "baseline", "quick": False}, 0, "baseline[seed=0]"),
    ),
    (
        "baseline",
        {"seed": 3},
        (T, {"figure": "baseline", "quick": False}, 3, "baseline[seed=3]"),
    ),
    (
        "baseline",
        {"quick": True},
        (T, {"figure": "baseline", "quick": True}, 0, "baseline[seed=0]"),
    ),
    ("fig5", {}, (T, {"figure": "fig5", "quick": False}, 0, "fig5[seed=0]")),
    ("fig5", {"seed": 3}, (T, {"figure": "fig5", "quick": False}, 3, "fig5[seed=3]")),
    ("fig5", {"quick": True}, (T, {"figure": "fig5", "quick": True}, 0, "fig5[seed=0]")),
    ("fig7", {}, (T, {"figure": "fig7", "quick": False}, 0, "fig7[seed=0]")),
    ("fig7", {"seed": 3}, (T, {"figure": "fig7", "quick": False}, 3, "fig7[seed=3]")),
    ("fig7", {"quick": True}, (T, {"figure": "fig7", "quick": True}, 0, "fig7[seed=0]")),
    ("fig8", {}, (T, {"figure": "fig8", "quick": False}, 0, "fig8[seed=0]")),
    ("fig8", {"seed": 3}, (T, {"figure": "fig8", "quick": False}, 3, "fig8[seed=3]")),
    ("fig8", {"quick": True}, (T, {"figure": "fig8", "quick": True}, 0, "fig8[seed=0]")),
    ("fig9", {}, (T, {"figure": "fig9", "quick": False}, 0, "fig9[seed=0]")),
    ("fig9", {"seed": 3}, (T, {"figure": "fig9", "quick": False}, 3, "fig9[seed=3]")),
    ("fig9", {"quick": True}, (T, {"figure": "fig9", "quick": True}, 0, "fig9[seed=0]")),
    ("fig10", {}, (T, {"figure": "fig10", "quick": False}, 0, "fig10[seed=0]")),
    ("fig10", {"seed": 3}, (T, {"figure": "fig10", "quick": False}, 3, "fig10[seed=3]")),
    (
        "fig10",
        {"quick": True},
        (T, {"figure": "fig10", "quick": True}, 0, "fig10[seed=0]"),
    ),
    (
        "topo_rtt",
        {},
        (T, {"figure": "topo_rtt", "quick": False}, None, "topo_rtt[deterministic]"),
    ),
    (
        "topo_rtt",
        {"quick": True},
        (T, {"figure": "topo_rtt", "quick": True}, None, "topo_rtt[deterministic]"),
    ),
    (
        "topo_aqm",
        {},
        (T, {"figure": "topo_aqm", "quick": False}, None, "topo_aqm[deterministic]"),
    ),
    (
        "topo_aqm",
        {"quick": True},
        (T, {"figure": "topo_aqm", "quick": True}, None, "topo_aqm[deterministic]"),
    ),
    (
        "topo_parking",
        {},
        (
            T,
            {"figure": "topo_parking", "quick": False},
            None,
            "topo_parking[deterministic]",
        ),
    ),
    (
        "topo_parking",
        {"quick": True},
        (
            T,
            {"figure": "topo_parking", "quick": True},
            None,
            "topo_parking[deterministic]",
        ),
    ),
    (
        "topo_fq",
        {},
        (T, {"figure": "topo_fq", "quick": False}, None, "topo_fq[deterministic]"),
    ),
    (
        "topo_fq",
        {"quick": True},
        (T, {"figure": "topo_fq", "quick": True}, None, "topo_fq[deterministic]"),
    ),
    (
        "topo_churn",
        {},
        (T, {"figure": "topo_churn", "quick": False}, 0, "topo_churn[seed=0]"),
    ),
    (
        "topo_churn",
        {"seed": 3},
        (T, {"figure": "topo_churn", "quick": False}, 3, "topo_churn[seed=3]"),
    ),
    (
        "topo_churn",
        {"quick": True},
        (T, {"figure": "topo_churn", "quick": True}, 0, "topo_churn[seed=0]"),
    ),
    (
        "topo_l4s",
        {},
        (T, {"figure": "topo_l4s", "quick": False}, None, "topo_l4s[deterministic]"),
    ),
    (
        "topo_l4s",
        {"quick": True},
        (T, {"figure": "topo_l4s", "quick": True}, None, "topo_l4s[deterministic]"),
    ),
    ("fleet", {}, (T, {"figure": "fleet", "quick": False}, 0, "fleet[seed=0]")),
    ("fleet", {"seed": 3}, (T, {"figure": "fleet", "quick": False}, 3, "fleet[seed=3]")),
    ("fleet", {"quick": True}, (T, {"figure": "fleet", "quick": True}, 0, "fleet[seed=0]")),
]

#: ``StageSpec(name="s", figure, knobs, seeds).arms()`` at the figure's
#: non-default knob: seeded figures over seeds (0, 3), deterministic
#: figures as their single seed-free arm.
STAGE_ARMS = [
    ("fig2a", {"noise": 0.1}, (0, 3)),
    ("fig2b", {"noise": 0.1}, (0, 3)),
    ("fig3", {"noise": 0.1}, (0, 3)),
    ("baseline", {"quick": True}, (0, 3)),
    ("fig5", {"quick": True}, (0, 3)),
    ("fig7", {"quick": True}, (0, 3)),
    ("fig8", {"quick": True}, (0, 3)),
    ("fig9", {"quick": True}, (0, 3)),
    ("fig10", {"quick": True}, (0, 3)),
    ("topo_rtt", {"quick": True}, ()),
    ("topo_aqm", {"quick": True}, ()),
    ("topo_parking", {"quick": True}, ()),
    ("topo_fq", {"quick": True}, ()),
    ("topo_churn", {"quick": True}, (0, 3)),
    ("topo_l4s", {"quick": True}, ()),
    ("fleet", {"quick": True}, (0, 3)),
]

LIST_STDOUT = (
    "lab figures:        fig2a, fig2b, fig3\n"
    "paired-link figures: baseline, fig5, fig7, fig8, fig9, fig10\n"
    "topology figures:    topo_rtt, topo_aqm, topo_parking, topo_fq, topo_churn, topo_l4s\n"
    "fleet figures:       fleet\n"
    "sweepable figures:   fig2a, fig2b, fig3, baseline, fig5, fig7, fig8, fig9, fig10, "
    "topo_rtt, topo_aqm, topo_parking, topo_fq, topo_churn, topo_l4s, fleet\n"
    "campaigns:           run (repro run campaign.yaml --jobs N --trace RUN), "
    "validate (repro validate RUN)\n"
    "tools:               lint (invariant linter; repro lint --list-rules), "
    "report (render a --trace run directory)\n"
)

#: ``repro --help`` subcommands, in order, with their one-line help.
HELP_COMMANDS = [
    ("list", "enumerate figures, campaign commands and tools"),
    ("sweep", "replicate one figure across seeds and report mean ± CI per cell"),
    ("run", "execute a declarative campaign file (YAML/JSON)"),
    ("validate", "check a campaign run directory (manifest vs results vs package)"),
    ("lint", "AST invariant linter (determinism, content-key and API hygiene)"),
    ("report", "render a report for a traced run directory"),
    ("fig2a", "parallel-connections lab figure (Figure 2a)"),
    ("fig2b", "pacing lab figure (Figure 2b)"),
    ("fig3", "Cubic-vs-BBR lab figure (Figure 3)"),
    ("baseline", "Section 4.1 baseline link-similarity table"),
    ("fig5", "paired-link treatment-effect table (Figure 5)"),
    ("fig7", "paired-link throughput cells (Figure 7)"),
    ("fig8", "paired-link min-RTT cells (Figure 8)"),
    ("fig9", "paired-link retransmission split (Figure 9)"),
    ("fig10", "switchback / event-study design comparison (Figure 10)"),
    ("topo_rtt", "A/B bias under heterogeneous RTTs"),
    ("topo_aqm", "A/B bias under AQM (CoDel/RED) vs drop-tail"),
    ("topo_parking", "parking-lot bias and cross-segment spillover"),
    ("topo_fq", "per-flow FQ-CoDel vs drop-tail bias"),
    ("topo_churn", "bias under flow churn + switchback-vs-ramp"),
    ("topo_l4s", "L4S/DCTCP marking vs classic AQM bias"),
    ("fleet", "sharded fleet: bias vs assignment cluster size"),
]


def _row(spec):
    return repr((spec.task, dict(spec.params), spec.seed, spec.label))


def _case_id(figure, knobs):
    return "-".join([figure, *(f"{k}={v}" for k, v in knobs.items())])


class TestFigureSpecArms:
    @pytest.mark.parametrize(
        "figure,knobs,expected",
        FIGURE_SPEC_ARMS,
        ids=[_case_id(figure, knobs) for figure, knobs, _ in FIGURE_SPEC_ARMS],
    )
    def test_figure_spec_arm_is_pinned(self, figure, knobs, expected):
        assert _row(api.figure_spec(figure, **knobs)) == repr(expected)

    def test_every_figure_is_pinned(self):
        pinned = dict.fromkeys(figure for figure, _, _ in FIGURE_SPEC_ARMS)
        assert api.list_figures() == tuple(pinned)


class TestStageArms:
    @pytest.mark.parametrize(
        "figure,knobs,seeds", STAGE_ARMS, ids=[figure for figure, _, _ in STAGE_ARMS]
    )
    def test_stage_arms_are_pinned(self, figure, knobs, seeds):
        arms = StageSpec(name="s", figure=figure, knobs=knobs, seeds=seeds).arms()
        params = {"figure": figure, **knobs}
        if seeds:
            expected = [(T, params, seed, f"s[seed={seed}]") for seed in seeds]
        else:
            expected = [(T, params, None, "s[deterministic]")]
        assert [_row(arm) for arm in arms] == [repr(row) for row in expected]


class TestCliSurface:
    def test_list_stdout_is_pinned(self, capsys):
        assert main(["list"]) == 0
        assert capsys.readouterr().out == LIST_STDOUT

    def test_help_command_lines_are_pinned(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "200")
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        lines = capsys.readouterr().out.splitlines()
        start = lines.index("  command") + 1
        commands = []
        for line in lines[start:]:
            if not line.startswith("    "):
                break
            if line.startswith("     "):  # help wrapped below a long name
                name, help_text = commands.pop()
                commands.append((name, f"{help_text} {line.strip()}".strip()))
                continue
            name, _, help_text = line.strip().partition(" ")
            commands.append((name, help_text.strip()))
        assert commands == HELP_COMMANDS
