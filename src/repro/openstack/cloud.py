"""Cloud builder: a full simulated OpenStack deployment in one call.

Wires up compute hosts, the reporting path (FOCUS service or broker + DB),
and a scheduler with the matching allocation-candidates backend — the whole
Fig. 6 pipeline, ready for placement requests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.config import FocusConfig
from repro.core.service import FocusService
from repro.mq.broker import Broker
from repro.openstack.compute import ComputeHost
from repro.openstack.libvirt import FakeLibvirt
from repro.openstack.placement import (
    DbAllocationCandidates,
    FocusAllocationCandidates,
)
from repro.openstack.scheduler import Scheduler
from repro.sim.loop import Simulator
from repro.sim.network import Network
from repro.sim.topology import Topology


@dataclass
class OpenStackCloud:
    """A wired-up simulated cloud."""

    sim: Simulator
    network: Network
    scheduler: Scheduler
    hosts: List[ComputeHost]
    mode: str
    focus: Optional[FocusService] = None
    broker: Optional[Broker] = None
    placement_db: Optional[DbAllocationCandidates] = None

    def host(self, host_id: str) -> ComputeHost:
        for host in self.hosts:
            if host.host_id == host_id:
                return host
        raise KeyError(host_id)

    def total_vms(self) -> int:
        return sum(len(h.hypervisor.domains) for h in self.hosts)


def build_openstack_cloud(
    num_hosts: int,
    *,
    mode: str = "focus",
    seed: int = 0,
    config: Optional[FocusConfig] = None,
    host_ram_mb: int = 16384,
    host_disk_gb: int = 100,
    host_vcpus: int = 8,
    push_interval: float = 1.0,
) -> OpenStackCloud:
    """Build a cloud with ``num_hosts`` across the paper's four regions."""
    if mode not in ("focus", "mq"):
        raise ValueError(f"unknown mode {mode!r}")
    sim = Simulator(seed=seed)
    network = Network(sim, Topology())
    regions = [r.name for r in network.topology.regions]
    config = config or FocusConfig()

    focus = broker = placement_db = None
    if mode == "focus":
        focus = FocusService(sim, network, region=regions[0], config=config)
        focus.start()
    else:
        broker = Broker(sim, network, "nova-broker", regions[0])
        broker.start()
        placement_db = DbAllocationCandidates(
            sim, network, "placement-db", regions[0], broker.address
        )
        placement_db.start()

    scheduler = Scheduler(sim, network, "scheduler", regions[0])
    scheduler.start()
    if mode == "focus":
        scheduler.attach_backend(FocusAllocationCandidates(scheduler))
    else:
        scheduler.attach_backend(placement_db)

    hosts = []
    for index in range(num_hosts):
        region = regions[index % len(regions)]
        host = ComputeHost(
            sim,
            network,
            f"host-{index:04d}",
            region,
            mode=mode,
            hypervisor=FakeLibvirt(
                total_ram_mb=host_ram_mb,
                total_disk_gb=host_disk_gb,
                total_vcpus=host_vcpus,
            ),
            focus_address="focus",
            broker_address=broker.address if broker is not None else None,
            config=config,
            static={"arch": "x86", "service_type": "compute"},
            push_interval=push_interval,
        )
        hosts.append(host)
        # Stagger start-up like a rolling deployment.
        sim.schedule(sim.rng.uniform(0.0, 3.0), host.start)

    return OpenStackCloud(
        sim=sim,
        network=network,
        scheduler=scheduler,
        hosts=hosts,
        mode=mode,
        focus=focus,
        broker=broker,
        placement_db=placement_db,
    )
