"""The wire contract: one abuse table, every frame server.

:class:`WireContract` holds the cases; a test class per server
(``ActYPServer`` in ``test_runtime_asyncio``, ``ShardWorker`` in
``test_shard_service``) subclasses it and says only how to start that
server, which request proves it is alive and which verb needs a body.
The two servers share one accept loop
(:class:`repro.runtime.protocol.FrameServer`), so a row that passes for
one and fails for the other means a server grew its own.
"""

from __future__ import annotations

import asyncio
import json
import logging
import struct
from typing import Any, Dict, Tuple

from repro.runtime.client import FrameConnection
from repro.runtime.protocol import MAX_FRAME_BYTES, read_frame


def _framed(body: bytes) -> bytes:
    return struct.pack(">I", len(body)) + body


#: case -> (bytes a hostile peer sends, what the error message names).
ABUSE: Dict[str, Tuple[bytes, str]] = {
    "oversized": (struct.pack(">I", MAX_FRAME_BYTES + 1) + b"x",
                  "exceeds limit"),
    "malformed_json": (_framed(b"this is not json"), "malformed"),
    "missing_kind": (_framed(json.dumps({"no": "kind"}).encode()), "kind"),
    "empty_continuation": (struct.pack(">I", 0x80000000), "continuation"),
}


class WireContract:
    #: (request, reply kind): a request the server answers without error.
    probe: Tuple[Dict[str, Any], str]
    #: A verb whose request needs a body field; the contract sends it bare.
    bodyless: str

    def serving(self):
        """An async context manager yielding the started server."""
        raise NotImplementedError

    # -- helpers -------------------------------------------------------------

    async def _alive(self, connection: FrameConnection) -> None:
        request, kind = self.probe
        assert (await connection.request(request))["kind"] == kind

    async def _abuse(self, port: int, case: str) -> None:
        """The bytes are answered with a protocol-error frame naming the
        reason, and then the server hangs up."""
        raw, reason = ABUSE[case]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            writer.write(raw)
            await writer.drain()
            reply = await read_frame(reader)
            assert reply["kind"] == "error"
            assert reply["error"] == "RuntimeProtocolError"
            assert reason in reply["message"]
            assert await reader.read() == b""
        finally:
            writer.close()
            await writer.wait_closed()

    def _rejected(self, *cases: str) -> None:
        async def scenario():
            async with self.serving() as server:
                for case in cases:
                    await self._abuse(server.port, case)
                async with FrameConnection("127.0.0.1",
                                           server.port) as connection:
                    await self._alive(connection)
        asyncio.run(scenario())

    def _error_not_hangup(self, *kinds: str) -> None:
        async def scenario():
            async with self.serving() as server:
                async with FrameConnection("127.0.0.1",
                                           server.port) as connection:
                    for kind in kinds:
                        reply = await connection.request({"kind": kind})
                        assert reply["kind"] == "error"
                        assert reply["error"] == "RuntimeProtocolError"
                        assert kind in reply["message"]
                    # Same connection: the next request is still answered.
                    await self._alive(connection)
        asyncio.run(scenario())

    # -- the table -----------------------------------------------------------

    def test_oversized_announced_frame_is_rejected(self):
        self._rejected("oversized")

    def test_malformed_json_is_rejected(self):
        self._rejected("malformed_json")

    def test_missing_kind_is_rejected(self):
        self._rejected("missing_kind")

    def test_empty_continuation_chunk_is_rejected(self):
        self._rejected("empty_continuation")

    def test_worker_stays_healthy_after_protocol_abuse(self):
        self._rejected(*ABUSE)

    def test_unknown_verb_is_an_error_not_a_hangup(self):
        # "scan" was a shard verb once; a retired verb is an unknown verb.
        self._error_not_hangup("frobnicate", "scan")

    def test_malformed_request_is_an_error_not_a_hangup(self):
        self._error_not_hangup(self.bodyless)

    def test_stop_with_idle_client_is_quiet(self, caplog):
        async def scenario():
            async with self.serving() as server:
                connection = FrameConnection("127.0.0.1", server.port)
                await self._alive(connection)
            # The server stopped with this client still connected.
            await connection.close()
        with caplog.at_level(logging.WARNING):
            asyncio.run(scenario())
        assert [r.getMessage() for r in caplog.records
                if r.name == "asyncio"] == []
