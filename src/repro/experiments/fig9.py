"""Figure 9 — distribution of measured CPU times of PUNCH runs.

The paper histograms 236,222 production runs: a dominant mass of
seconds-scale jobs (the y axis is truncated at ~2,000 to show detail and
"extends to 19756 runs" in the modal bin), with observed CPU times
extending "out to more than 10^6 seconds".  We regenerate the histogram
from the synthetic :class:`~repro.sim.workload.PunchCpuTimeModel`
(lognormal body + Pareto tail) — the substitution for the proprietary
production trace.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import FigureResult, SeriesPoint
from repro.sim.rng import RandomStreams
from repro.sim.workload import PunchCpuTimeModel

__all__ = ["run_fig9"]

PAPER_SAMPLE_COUNT = 236_222


def run_fig9(
    *,
    samples: int = PAPER_SAMPLE_COUNT,
    bin_width_s: float = 1.0,
    x_limit_s: float = 1000.0,
    paper_scale: bool = False,
    seed: int = 0,
) -> FigureResult:
    """With 1-second bins at paper scale, the modal bin of the synthetic
    trace holds ~20k runs — matching the caption's "the Y-axis extends to
    19756 runs" within ~10%."""
    if not paper_scale:
        samples = min(samples, 60_000)
    model = PunchCpuTimeModel()
    rng = RandomStreams(seed=seed).get("fig9.trace")
    hist = model.histogram(rng, size=samples, bin_width_s=bin_width_s,
                           x_limit_s=x_limit_s)
    result = FigureResult(
        figure_id="fig9",
        title="Distribution of measured CPU times for PUNCH runs",
        x_label="CPU time (s)",
        y_label="number of runs",
        notes=(
            f"synthetic trace of {hist.total} runs; modal bin holds "
            f"{hist.max_count} runs; max observed CPU time "
            f"{hist.max_cpu_time:.3g} s"
        ),
    )
    for left, count in zip(hist.edges[:-1], hist.counts):
        result.add("runs", SeriesPoint(
            x=float(left), mean=float(count), count=int(count), failures=0,
        ))
    return result


def shape_facts(result: FigureResult) -> dict:
    """The qualitative facts
    ``benchmarks/test_fig9_cpu_time_distribution.py`` asserts."""
    counts = np.array([p.mean for p in result.series["runs"]])
    xs = np.array([p.x for p in result.series["runs"]])
    total_in_view = counts.sum()
    modal_bin = float(xs[int(counts.argmax())])
    below_100 = counts[xs < 100].sum()
    return {
        "modal_bin_left_edge_s": modal_bin,
        "fraction_below_100s_of_view": float(below_100 / total_in_view),
        "monotone_tail": bool(
            np.all(np.diff(counts[int(counts.argmax()):]) <= counts.max() * 0.02)
        ),
    }


if __name__ == "__main__":  # pragma: no cover
    res = run_fig9()
    print(res.format_table())
    print(shape_facts(res))
