"""Integration tests for the asyncio live runtime (real TCP on localhost)."""

from __future__ import annotations

import asyncio

import pytest

from repro.core.pipeline import build_service
from repro.errors import RuntimeProtocolError
from repro.fleet import FleetSpec, build_database
from repro.runtime.client import ActYPClient
from repro.runtime.protocol import (
    MAX_FRAME_BYTES,
    decode_frame,
    encode_frame,
)
from repro.runtime.server import ActYPServer
from tests.wire_contract import WireContract


def run(coro):
    return asyncio.run(coro)


@pytest.fixture
def service():
    db, _ = build_database(FleetSpec(size=120, seed=3))
    return build_service(db, n_pool_managers=2)


SUN_QUERY = "punch.rsrc.arch = sun\npunch.rsrc.memory = >=128"


class TestProtocol:
    def test_frame_roundtrip(self):
        frame = {"kind": "query", "payload": "punch.rsrc.arch = sun"}
        encoded = encode_frame(frame)
        assert decode_frame(encoded[4:]) == frame

    def test_oversized_frame_rejected(self):
        with pytest.raises(RuntimeProtocolError):
            encode_frame({"kind": "x", "blob": "a" * (MAX_FRAME_BYTES + 1)})

    def test_malformed_body_rejected(self):
        with pytest.raises(RuntimeProtocolError):
            decode_frame(b"not json")

    def test_frame_must_have_kind(self):
        with pytest.raises(RuntimeProtocolError):
            decode_frame(b'{"no": "kind"}')


class TestServerClient:
    def test_query_release_cycle(self, service):
        async def scenario():
            async with ActYPServer(service) as server:
                async with ActYPClient("127.0.0.1", server.port) as client:
                    result = await client.query(SUN_QUERY)
                    assert result["ok"] is True
                    alloc = result["allocation"]
                    assert alloc["machine_name"].startswith("sun")
                    assert len(alloc["access_key"]) == 32
                    await client.release(alloc["access_key"])
                    stats = await client.stats()
                    assert stats["completed"] == 1
        run(scenario())

    def test_failed_query_is_data_not_error(self, service):
        async def scenario():
            async with ActYPServer(service) as server:
                async with ActYPClient("127.0.0.1", server.port) as client:
                    result = await client.query("punch.rsrc.arch = cray")
                    assert result["ok"] is False
                    assert "error" in result
        run(scenario())

    def test_syntax_error_surfaces_as_protocol_error(self, service):
        async def scenario():
            async with ActYPServer(service) as server:
                async with ActYPClient("127.0.0.1", server.port) as client:
                    with pytest.raises(RuntimeProtocolError):
                        await client.query("not a query at all")
        run(scenario())

    def test_dict_format_over_wire(self, service):
        async def scenario():
            async with ActYPServer(service) as server:
                async with ActYPClient("127.0.0.1", server.port) as client:
                    result = await client.query(
                        {"punch.rsrc.arch": "sun"}, format_name="dict")
                    assert result["ok"] is True
        run(scenario())

    def test_release_unknown_key_errors(self, service):
        async def scenario():
            async with ActYPServer(service) as server:
                async with ActYPClient("127.0.0.1", server.port) as client:
                    with pytest.raises(RuntimeProtocolError):
                        await client.release("bogus")
        run(scenario())

    def test_concurrent_clients(self, service):
        async def one_client(port, n):
            async with ActYPClient("127.0.0.1", port) as client:
                keys = []
                for _ in range(n):
                    result = await client.query(SUN_QUERY)
                    assert result["ok"] is True
                    keys.append(result["allocation"]["access_key"])
                for key in keys:
                    await client.release(key)

        async def scenario():
            async with ActYPServer(service) as server:
                await asyncio.gather(*[
                    one_client(server.port, 5) for _ in range(8)
                ])
                assert server.connections == 8
                assert service.stats()["completed"] == 40
        run(scenario())

    def test_concurrent_first_use_opens_one_connection(self, service):
        """Two coroutines racing the first request on an unconnected
        client share one dial (the request lock covers it)."""
        async def scenario():
            async with ActYPServer(service) as server:
                client = ActYPClient("127.0.0.1", server.port)
                try:
                    first, second = await asyncio.gather(client.stats(),
                                                         client.stats())
                finally:
                    await client.close()
                assert first["kind"] == second["kind"] == "stats"
                assert server.connections == 1
        run(scenario())

    def test_double_start_rejected(self, service):
        async def scenario():
            async with ActYPServer(service) as server:
                with pytest.raises(RuntimeProtocolError):
                    await server.start()
        run(scenario())


class TestWireContract(WireContract):
    """The shared abuse table against the ActYP front end."""

    probe = ({"kind": "stats"}, "stats")
    bodyless = "query"

    def serving(self):
        db, _ = build_database(FleetSpec(size=20, seed=3))
        return ActYPServer(build_service(db))
