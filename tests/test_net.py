"""Tests for endpoints, latency models and the simulated transport."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import LatencyConfig
from repro.errors import AddressError, ConfigError, TransportError
from repro.net.address import Endpoint
from repro.net.latency import ConstantLatency, DomainLatencyModel
from repro.net.transport import SimTransport
from repro.sim.kernel import Simulator


class TestEndpoint:
    def test_roundtrip_str_parse(self):
        ep = Endpoint("alpha1.ecn.purdue.edu", 7070, "purdue")
        assert Endpoint.parse(str(ep)) == ep

    def test_default_domain(self):
        ep = Endpoint.parse("host1:8000")
        assert ep.domain == "default"

    @pytest.mark.parametrize("bad", [
        "nohost", "host:notaport", ":8000", "host:0", "host:70000",
    ])
    def test_invalid_endpoints(self, bad):
        with pytest.raises(AddressError):
            Endpoint.parse(bad)

    def test_invalid_host_characters(self):
        with pytest.raises(AddressError):
            Endpoint("host with spaces", 8000)

    def test_ordering_is_stable(self):
        a = Endpoint("a", 1)
        b = Endpoint("b", 1)
        assert sorted([b, a]) == [a, b]


class TestLatencyModels:
    def setup_method(self):
        self.rng = np.random.default_rng(0)
        self.purdue = Endpoint("c1", 4000, "purdue")
        self.purdue2 = Endpoint("s1", 9000, "purdue")
        self.upc = Endpoint("s2", 9000, "upc")

    def test_constant(self):
        model = ConstantLatency(0.01)
        assert model.delay(self.purdue, self.upc, self.rng) == 0.01

    def test_negative_constant_rejected(self):
        with pytest.raises(ConfigError):
            ConstantLatency(-1.0)

    def test_intra_domain_is_lan(self):
        model = DomainLatencyModel(LatencyConfig())
        delays = [model.delay(self.purdue, self.purdue2, self.rng)
                  for _ in range(100)]
        assert all(d >= LatencyConfig().lan_base_s for d in delays)
        assert max(delays) < LatencyConfig().wan_base_s

    def test_inter_domain_is_wan(self):
        model = DomainLatencyModel(LatencyConfig())
        d = model.delay(self.purdue, self.upc, self.rng)
        assert d >= LatencyConfig().wan_base_s

    def test_loopback_cheapest(self):
        model = DomainLatencyModel()
        same_host = Endpoint("c1", 5000, "purdue")
        d = model.delay(self.purdue, same_host, self.rng)
        assert d == model.loopback_s
        assert d < LatencyConfig().lan_base_s

    def test_overrides(self):
        model = DomainLatencyModel(
            overrides={("purdue", "upc"): (0.5, 0.0)})
        assert model.delay(self.purdue, self.upc, self.rng) == 0.5
        # Reverse direction falls back to the default WAN parameters.
        back = model.delay(self.upc, self.purdue, self.rng)
        assert back < 0.5


class TestSimTransport:
    def setup_method(self):
        self.sim = Simulator()
        self.transport = SimTransport(self.sim, latency=ConstantLatency(0.01))
        self.a = self.transport.bind(Endpoint("a", 1000))
        self.b = self.transport.bind(Endpoint("b", 1000))

    def test_send_delivers_after_latency(self):
        got = []

        def server():
            msg = yield self.b.receive()
            got.append((self.sim.now, msg.payload))

        self.sim.process(server())
        self.a.send(self.b.endpoint, "ping", {"x": 1})
        self.sim.run()
        assert got == [(pytest.approx(0.01), {"x": 1})]

    def test_call_reply_roundtrip(self):
        def server():
            msg = yield self.b.receive()
            self.b.reply(msg, "pong", msg.payload * 2)

        def client():
            reply = yield from self.a.call(self.b.endpoint, "ping", 21)
            return (self.sim.now, reply.kind, reply.payload)

        self.sim.process(server())
        p = self.sim.process(client())
        t, kind, payload = self.sim.run(until=p)
        assert kind == "pong" and payload == 42
        assert t == pytest.approx(0.02)  # one RTT

    def test_send_to_unbound_raises(self):
        with pytest.raises(TransportError):
            self.a.send(Endpoint("ghost", 1), "ping", None)

    def test_double_bind_rejected(self):
        with pytest.raises(TransportError):
            self.transport.bind(Endpoint("a", 1000))

    def test_unbind_allows_rebind(self):
        self.transport.unbind(Endpoint("a", 1000))
        assert not self.transport.is_bound(Endpoint("a", 1000))
        self.transport.bind(Endpoint("a", 1000))

    def test_message_counter(self):
        def server():
            while True:
                yield self.b.receive()

        self.sim.process(server())
        for _ in range(5):
            self.a.send(self.b.endpoint, "ping", None)
        self.sim.run(until=1.0)
        assert self.transport.messages_sent == 5

    def test_concurrent_calls_do_not_cross(self):
        """Two outstanding calls from one endpoint resolve independently."""
        def server():
            while True:
                msg = yield self.b.receive()
                self.b.reply(msg, "pong", msg.payload)

        results = []

        def caller(tag):
            reply = yield from self.a.call(self.b.endpoint, "ping", tag)
            results.append(reply.payload)

        self.sim.process(server())
        self.sim.process(caller("first"))
        self.sim.process(caller("second"))
        self.sim.run()
        assert sorted(results) == ["first", "second"]

