"""Simulated network substrate.

The paper's pipeline stages communicate over TCP/UDP across administrative
domains; the experiments contrast a LAN deployment with a transatlantic WAN
one.  This package provides:

- :class:`~repro.net.address.Endpoint` — host/port/domain addressing.
- :mod:`~repro.net.latency` — one-way delay models for LAN and WAN links.
- :class:`~repro.net.transport.SimTransport` — a message fabric over the
  DES kernel: ``send`` schedules delivery after the modelled latency; each
  bound endpoint is a mailbox served by a component process.
"""

from repro.net.address import Endpoint
from repro.net.latency import ConstantLatency, DomainLatencyModel, LatencyModel
from repro.net.transport import Message, SimTransport

__all__ = [
    "Endpoint",
    "LatencyModel",
    "ConstantLatency",
    "DomainLatencyModel",
    "Message",
    "SimTransport",
]
