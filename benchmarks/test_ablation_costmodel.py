"""Ablation — cost-model sensitivity of the calibration anchor.

``CostModel.pool_scan_per_machine_s`` (``repro/config.py``) is calibrated
against Figure 6's 3,200-machine point.  This bench verifies the model behaves linearly in
that knob (response time under saturation scales ~proportionally with the
per-machine scan cost), which is what makes the single-point calibration
trustworthy: get the anchor right and every ratio in Figures 4-8 follows
from mechanism, not tuning.
"""

from __future__ import annotations

import dataclasses

from benchmarks.conftest import run_once
from repro.config import CostModel, PipelineConfig
from repro.deploy.simulated import ClientSpec, DeploymentSpec, SimulatedDeployment
from repro.fleet import FleetSpec, build_database


def run_with_scan_cost(scan_s: float) -> float:
    db, _ = build_database(FleetSpec(size=400, stripe_pools=1, seed=7))
    cost = dataclasses.replace(CostModel(), pool_scan_per_machine_s=scan_s)
    cfg = PipelineConfig(cost=cost)
    dep = SimulatedDeployment(db, spec=DeploymentSpec(config=cfg), seed=3)
    dep.precreate_pool("punch.rsrc.pool = p00")
    stats = dep.run_clients(
        ClientSpec(count=24, queries_per_client=8, domain="actyp"),
        lambda ci, it, rng: "punch.rsrc.pool = p00",
    )
    assert stats.failures == 0
    return stats.mean


def test_response_time_linear_in_scan_cost(benchmark):
    base = CostModel().pool_scan_per_machine_s
    means = run_once(
        benchmark,
        lambda: {k: run_with_scan_cost(base * k) for k in (1, 2, 4)},
    )
    print(f"\nscan-cost multiplier -> mean response: "
          f"{ {k: round(v, 4) for k, v in means.items()} }")
    # Under saturation the scan dominates, so response ~ k * base.
    assert 1.6 <= means[2] / means[1] <= 2.4
    assert 1.6 <= means[4] / means[2] <= 2.4
