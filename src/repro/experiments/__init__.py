"""Experiment drivers: one per figure of the paper's evaluation (Section 7).

Each ``figN`` module exposes ``run_figN(...) -> FigureResult`` with
scaled-down defaults (so the benchmark suite completes in minutes) and a
``paper_scale=True`` switch that uses the paper's exact parameters
(3,200 machines, 70 clients, 236,222 workload samples).

The benchmarks in ``benchmarks/`` call these drivers and assert each
curve's qualitative *shape* (ARCHITECTURE.md, "Where the paper's figures
are reproduced").
"""

from repro.experiments.common import ExperimentConfig, FigureResult, SeriesPoint
from repro.experiments.fig4 import run_fig4
from repro.experiments.fig5 import run_fig5
from repro.experiments.fig6 import run_fig6
from repro.experiments.fig7 import run_fig7
from repro.experiments.fig8 import run_fig8
from repro.experiments.fig9 import run_fig9

__all__ = [
    "ExperimentConfig",
    "FigureResult",
    "SeriesPoint",
    "run_fig4",
    "run_fig5",
    "run_fig6",
    "run_fig7",
    "run_fig8",
    "run_fig9",
]
