"""Behaviour pin for the nine lab figures: stdout and cells, byte for byte.

The fluid lab figures (``fig2a``, ``fig2b``, ``fig3``) and the packet
topology labs (``topo_rtt``, ``topo_aqm``, ``topo_fq``, ``topo_parking``,
``topo_churn``, ``topo_l4s``) all read an allocation sweep.  This module
pins what they produce:

* the stdout of ``repro <figure> --quick`` (``--jobs`` is inert for
  output; two workers only make the run faster);
* the ``figure.cells`` values at the default knobs, written as ``repr``
  floats so every bit counts.

The golden files under ``golden/`` were captured before the sweep types
of the two substrates were merged.  Refactors of the sweep, figure or
comparison layers must leave them byte-identical.  When a figure's output
is meant to change, regenerate them with
``python tests/experiments/test_lab_outputs_pin.py`` and review the diff.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import pytest

from repro.cli import main
from repro.figures import figure_cells_spec
from repro.runner import ParallelExecutor

LAB_FIGURES = (
    "fig2a",
    "fig2b",
    "fig3",
    "topo_rtt",
    "topo_aqm",
    "topo_fq",
    "topo_parking",
    "topo_churn",
    "topo_l4s",
)

GOLDEN = Path(__file__).parent / "golden"


def quick_stdout(figure: str) -> str:
    """Everything ``repro <figure> --quick --jobs 2`` prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([figure, "--quick", "--jobs", "2"]) == 0
    return out.getvalue()


def default_cells_text() -> str:
    """Every lab figure's default-knob cells, one ``figure cell repr`` line each."""
    specs = [figure_cells_spec(figure) for figure in LAB_FIGURES]
    lines = []
    for figure, cells in zip(LAB_FIGURES, ParallelExecutor(jobs=2).map(specs)):
        lines.extend(f"{figure} {name} {value!r}" for name, value in cells.items())
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("figure", LAB_FIGURES)
def test_quick_stdout_is_pinned(figure):
    assert quick_stdout(figure) == (GOLDEN / f"{figure}.stdout").read_text()


def test_default_cells_are_pinned():
    assert default_cells_text() == (GOLDEN / "cells.txt").read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in LAB_FIGURES:
        (GOLDEN / f"{name}.stdout").write_text(quick_stdout(name))
    (GOLDEN / "cells.txt").write_text(default_cells_text())
