"""The asyncio side of the wire: one request/reply connection, and the
ActYP client built on it."""

from __future__ import annotations

import asyncio
from typing import Any, Dict, Optional, Union

from repro.errors import RuntimeProtocolError
from repro.runtime.protocol import read_frame, write_frame

__all__ = ["FrameConnection", "ActYPClient"]


class FrameConnection:
    """A persistent async connection to a
    :class:`~repro.runtime.protocol.FrameServer`.

    One request is in flight at a time (the protocol has no correlation
    ids; open several connections for concurrency, as the paper's
    clients did with parallel connections).  The request lock covers the
    dial as well, so coroutines sharing an unconnected instance open
    exactly one socket between them.
    """

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._lock = asyncio.Lock()

    async def _dial(self) -> None:
        # Caller holds the lock.
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port)

    async def connect(self) -> None:
        """Dial now rather than on the first request (idempotent)."""
        async with self._lock:
            await self._dial()

    async def request(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """Send one frame and return the server's reply frame."""
        async with self._lock:
            await self._dial()
            await write_frame(self._writer, frame)
            return await read_frame(self._reader)

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except ConnectionError:  # pragma: no cover - platform dependent
                pass
            self._reader = self._writer = None

    async def __aenter__(self) -> "FrameConnection":
        await self.connect()
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()


class ActYPClient(FrameConnection):
    """The three verbs of an :class:`~repro.runtime.server.ActYPServer`."""

    async def _expect(self, kind: str, frame: Dict[str, Any]
                      ) -> Dict[str, Any]:
        response = await self.request(frame)
        if response.get("kind") != kind:
            raise RuntimeProtocolError(
                response.get("message", f"{frame['kind']} failed"))
        return response

    async def query(self, payload: Union[str, Dict[str, str]],
                    *, format_name: str = "punch",
                    origin: str = "client") -> Dict[str, Any]:
        """Submit a query; returns the result frame (raises on protocol
        errors, returns ``ok: False`` results as data)."""
        return await self._expect("result", {
            "kind": "query",
            "payload": payload,
            "format": format_name,
            "origin": origin,
        })

    async def release(self, access_key: str) -> None:
        await self._expect("released", {
            "kind": "release",
            "access_key": access_key,
        })

    async def stats(self) -> Dict[str, Any]:
        return await self._expect("stats", {"kind": "stats"})
