#!/usr/bin/env python
"""WAN federation: the ActYP pipeline across administrative domains.

Reproduces the paper's deployment story in two steps:

 1. a user's query is scheduled by the *pipeline* onto a machine, which
    hands out a *shadow account* on it ("machine accounts not explicitly
    tied to any individual user", Section 2), and the release returns
    both the machine and the account, and
 2. the same workload is replayed on the DES deployment in LAN vs WAN
    configurations (clients local vs across a transatlantic link) to show
    the Figure 4 / Figure 5 contrast.

Run:  python examples/wan_federation.py
"""

from repro.core.pipeline import build_service
from repro.deploy.simulated import ClientSpec, SimulatedDeployment
from repro.fleet import FleetSpec, build_database


def shadow_account_run() -> None:
    print("=== query -> ActYP -> shadow account -> release ===")
    database, shadows = build_database(
        FleetSpec(size=300, domain="purdue"), with_shadows=True)
    service = build_service(database, n_pool_managers=2,
                            shadow_registry=shadows)
    result = service.submit(
        "punch.rsrc.arch = sun\n"
        "punch.rsrc.memory = >=256\n"
        "punch.user.login = kapadia\n"
        "punch.user.accessgroup = ece\n")
    assert result.ok, result.error
    alloc = result.allocation
    accounts = shadows.pool_for(alloc.machine_name)
    print(f"user kapadia   -> {alloc.machine_name}")
    print(f"shadow account : {alloc.shadow_account} "
          f"({accounts.available}/{accounts.capacity} free)")
    service.release(alloc.access_key)
    print(f"released       : {accounts.available}/{accounts.capacity} "
          f"shadow accounts free, machine jobs "
          f"{database.get(alloc.machine_name).active_jobs}\n")


def lan_vs_wan() -> None:
    print("=== the same striped workload, LAN vs WAN clients ===")
    results = {}
    for label, client_domain in (("LAN", "actyp"), ("WAN", "upc-clients")):
        db, _ = build_database(FleetSpec(size=800, stripe_pools=8, seed=7))
        deployment = SimulatedDeployment(db, seed=2)
        for p in range(8):
            deployment.precreate_pool(f"punch.rsrc.pool = p{p:02d}")
        stats = deployment.run_clients(
            ClientSpec(count=16, queries_per_client=15,
                       domain=client_domain),
            lambda ci, it, rng: f"punch.rsrc.pool = "
                                f"p{int(rng.integers(0, 8)):02d}",
        )
        results[label] = stats.summary()
        print(f"{label}: mean={results[label].mean * 1e3:7.2f} ms   "
              f"p95={results[label].p95 * 1e3:7.2f} ms")
    overhead = results["WAN"].mean - results["LAN"].mean
    print(f"WAN latency adds ~{overhead * 1e3:0.1f} ms per query — the "
          "floor that limits the benefit of extra pools in Figure 5.")


def main() -> None:
    shadow_account_run()
    lan_vs_wan()


if __name__ == "__main__":
    main()
