"""Ablation — linear scan vs indexed pool scheduler.

ARCHITECTURE.md ("The indexed in-pool scheduler"): the paper's Figure 6
slopes exist *because* the prototype used linear search inside pools
("the linear plots are simply a function of the linear search algorithms
employed for scheduling").  Replacing the scan
with an indexed scheduler (logarithmic cost) removes the pool-size
penalty — demonstrating that the pipelined architecture itself is not the
source of the linear growth.
"""

from __future__ import annotations


from benchmarks.conftest import run_once
from repro.config import PipelineConfig, ResourcePoolConfig
from repro.deploy.simulated import ClientSpec, DeploymentSpec, SimulatedDeployment
from repro.fleet import FleetSpec, build_database


def sweep(linear_scan: bool, sizes=(200, 400, 800), clients=16):
    means = {}
    for size in sizes:
        db, _ = build_database(FleetSpec(size=size, stripe_pools=1, seed=7))
        cfg = PipelineConfig(pool=ResourcePoolConfig(linear_scan=linear_scan))
        dep = SimulatedDeployment(db, spec=DeploymentSpec(config=cfg), seed=3)
        dep.precreate_pool("punch.rsrc.pool = p00")
        stats = dep.run_clients(
            ClientSpec(count=clients, queries_per_client=8, domain="actyp"),
            lambda ci, it, rng: "punch.rsrc.pool = p00",
        )
        means[size] = stats.mean
    return means


def test_indexed_scheduler_removes_pool_size_penalty(benchmark):
    linear = run_once(benchmark, sweep, True)
    indexed = sweep(False)
    print(f"\nlinear scan : {linear}")
    print(f"indexed     : {indexed}")

    sizes = sorted(linear)
    # Linear scan: response grows roughly with pool size.
    assert linear[sizes[-1]] / linear[sizes[0]] >= 2.5
    # Indexed: nearly flat across a 4x size range.
    assert indexed[sizes[-1]] / indexed[sizes[0]] <= 1.5
    # And indexed is strictly faster at the largest size.
    assert indexed[sizes[-1]] < linear[sizes[-1]] / 3
