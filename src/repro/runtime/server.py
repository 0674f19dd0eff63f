"""The asyncio ActYP server.

Wraps an :class:`~repro.core.pipeline.ActYPService` behind a TCP endpoint
speaking the frame protocol.  Pipeline calls are synchronous and fast
(micro/milliseconds) — pool-creation walks run as compiled plans over
the white pages' attribute indexes, not linear scans — so they run on
the event loop directly.  Listening, the accept loop, error frames and
connection drain are :class:`~repro.runtime.protocol.FrameServer`'s.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict

from repro.core.pipeline import ActYPService
from repro.errors import RuntimeProtocolError
from repro.runtime.protocol import FrameServer, result_to_dict

__all__ = ["ActYPServer"]


class ActYPServer(FrameServer):
    """One TCP endpoint in front of a pipeline deployment."""

    def __init__(self, service: ActYPService):
        super().__init__()
        self.service = service
        self.requests = 0

    async def dispatch(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        self.requests += 1
        kind = frame["kind"]
        if kind == "query":
            return self._handle_query(frame)
        if kind == "release":
            return self._handle_release(frame)
        if kind == "stats":
            return {"kind": "stats", **self.service.stats()}
        raise RuntimeProtocolError(f"unknown request kind {kind!r}")

    def _handle_query(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        payload = frame.get("payload")
        if not isinstance(payload, (str, dict)):
            raise RuntimeProtocolError("query needs a payload")
        return result_to_dict(self.service.submit(
            payload,
            format_name=frame.get("format", "punch"),
            origin=str(frame.get("origin", "tcp")),
            now=asyncio.get_running_loop().time(),
        ))

    def _handle_release(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        access_key = frame.get("access_key")
        if not isinstance(access_key, str):
            raise RuntimeProtocolError("release needs access_key")
        self.service.release(access_key)
        return {"kind": "released", "access_key": access_key}
