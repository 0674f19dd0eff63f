"""Wire protocol of the live runtime: length-prefixed JSON frames.

Frame = 4-byte big-endian length + UTF-8 JSON object.  Every message is
an object with a ``kind`` plus kind-specific fields:

- request  ``{"kind": "query", "payload": <text>, "format": "punch"}``
- request  ``{"kind": "release", "access_key": <hex>}``
- request  ``{"kind": "stats"}``
- response ``{"kind": "result", "ok": true, "allocation": {...}}``
- response ``{"kind": "error", "error": <exception class>,
  "message": <text>}`` — the one error shape every server sends
  (:func:`error_frame`); a client re-raises the named
  :mod:`repro.errors` class, or ``RuntimeProtocolError`` when it does
  not know the name

The protocol is deliberately simple — the paper's pipeline moved queries
as key-value text over TCP/UDP; JSON is the 2020s equivalent.

Continuation frames
-------------------
Queries and allocations are tiny, but the shard service
(:mod:`repro.runtime.shard_worker`) ships bulk ``match`` result sets and
whole v3 snapshots, which can exceed the 1 MiB single-frame bound.  A
logical message larger than :data:`MAX_FRAME_BYTES` is therefore split
into **continuation frames**: the JSON body bytes are chunked, and every
chunk except the last sets the high bit of its length prefix.  A reader
accumulates flagged chunks until the final (unflagged) frame and decodes
the concatenation.  Single-frame messages are byte-identical to the
pre-continuation encoding, so old and new peers interoperate for every
message that fits in one frame; the total reassembled size is capped at
:data:`MAX_MESSAGE_BYTES` so a hostile stream still cannot balloon
memory.

The async helpers (:func:`read_frame` / :func:`write_frame`) serve the
asyncio runtime; the ``_sock`` variants speak the identical encoding
over blocking sockets for synchronous callers (the shard-service client
is called from pool/scheduler code that is not async).

The frame server
----------------
In the paper every pipeline stage is the same kind of object: a process
that "initializes itself and listens to a specified port" (Section
5.2.3) and answers one request per connection turn.  :class:`FrameServer`
is that object, written once: listener lifecycle, the accept loop, the
error crossing, and connection drain.  The ActYP front end, the three
distributed stage servers and the shard worker subclass it and say only
what a request means.
"""

from __future__ import annotations

import asyncio
import json
import logging
import socket
import struct
from typing import Any, Dict, Optional

from repro.core.query import Allocation, QueryResult
from repro.errors import ReproError, RuntimeProtocolError

__all__ = [
    "MAX_FRAME_BYTES",
    "MAX_MESSAGE_BYTES",
    "encode_frame",
    "encode_message",
    "decode_frame",
    "read_frame",
    "write_frame",
    "read_frame_sock",
    "write_frame_sock",
    "HANDLER_ERRORS",
    "error_frame",
    "FrameServer",
    "result_to_dict",
    "allocation_to_dict",
]

#: Upper bound on a single frame body; anything bigger must be split
#: into continuation frames (or indicates a corrupt or hostile stream).
MAX_FRAME_BYTES = 1 << 20

#: Upper bound on a reassembled multi-frame message.  Large enough for a
#: full-shard match result or snapshot at million-record fleets, small
#: enough that a hostile length prefix cannot exhaust memory.
MAX_MESSAGE_BYTES = 1 << 30

logger = logging.getLogger(__name__)

_LEN = struct.Struct(">I")
#: High bit of the length prefix: "another chunk of this message
#: follows".  Legal frame lengths are <= MAX_FRAME_BYTES, so the bit can
#: never be set on a well-formed pre-continuation frame.
_CONT_FLAG = 0x80000000


def encode_frame(obj: Dict[str, Any]) -> bytes:
    """Encode ``obj`` as exactly one frame; raises when it cannot fit.

    Callers that may produce bulk replies should use
    :func:`encode_message`, which splits into continuation frames
    instead of failing.
    """
    body = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise RuntimeProtocolError(
            f"frame of {len(body)} bytes exceeds limit {MAX_FRAME_BYTES}"
        )
    return _LEN.pack(len(body)) + body


def encode_message(obj: Dict[str, Any]) -> bytes:
    """Encode ``obj`` as one frame, or several continuation frames.

    The common case (body <= :data:`MAX_FRAME_BYTES`) produces output
    byte-identical to :func:`encode_frame`.
    """
    body = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    if len(body) <= MAX_FRAME_BYTES:
        return _LEN.pack(len(body)) + body
    if len(body) > MAX_MESSAGE_BYTES:
        raise RuntimeProtocolError(
            f"message of {len(body)} bytes exceeds limit {MAX_MESSAGE_BYTES}"
        )
    out = bytearray()
    for start in range(0, len(body), MAX_FRAME_BYTES):
        chunk = body[start:start + MAX_FRAME_BYTES]
        last = start + MAX_FRAME_BYTES >= len(body)
        header = len(chunk) if last else (len(chunk) | _CONT_FLAG)
        out += _LEN.pack(header)
        out += chunk
    return bytes(out)


def decode_frame(body: bytes) -> Dict[str, Any]:
    try:
        obj = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise RuntimeProtocolError(f"malformed frame: {exc}") from exc
    if not isinstance(obj, dict) or "kind" not in obj:
        raise RuntimeProtocolError("frame must be an object with a 'kind'")
    return obj


def _check_chunk_length(length: int, total_so_far: int) -> int:
    """Validate one chunk's announced length against both caps; returns
    the payload length with the continuation flag stripped."""
    payload = length & ~_CONT_FLAG
    if payload > MAX_FRAME_BYTES:
        raise RuntimeProtocolError(
            f"announced frame of {payload} bytes exceeds limit"
        )
    if length & _CONT_FLAG and payload == 0:
        # encode_message never emits empty continuation chunks; a
        # stream of them would otherwise loop the reader forever
        # without ever tripping the byte caps.
        raise RuntimeProtocolError("empty continuation frame")
    if total_so_far + payload > MAX_MESSAGE_BYTES:
        raise RuntimeProtocolError(
            f"reassembled message exceeds {MAX_MESSAGE_BYTES} byte limit"
        )
    return payload


async def read_frame(reader: asyncio.StreamReader) -> Dict[str, Any]:
    """Read one logical message (reassembling continuation frames)."""
    parts: list = []
    total = 0
    while True:
        header = await reader.readexactly(_LEN.size)
        (length,) = _LEN.unpack(header)
        payload = _check_chunk_length(length, total)
        body = await reader.readexactly(payload)
        parts.append(body)
        total += payload
        if not length & _CONT_FLAG:
            break
    return decode_frame(parts[0] if len(parts) == 1 else b"".join(parts))


async def write_frame(writer: asyncio.StreamWriter, obj: Dict[str, Any]
                      ) -> None:
    writer.write(encode_message(obj))
    await writer.drain()


# -- synchronous (blocking-socket) counterparts ------------------------------


def _recv_exactly(sock: socket.socket, n: int) -> bytes:
    """Read exactly ``n`` bytes or raise on a truncated stream."""
    parts: list = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 16))
        if not chunk:
            raise RuntimeProtocolError(
                f"connection closed mid-frame ({n - remaining} of {n} bytes)")
        parts.append(chunk)
        remaining -= len(chunk)
    return b"".join(parts)


def read_frame_sock(sock: socket.socket) -> Dict[str, Any]:
    """Blocking read of one logical message from ``sock``."""
    parts: list = []
    total = 0
    while True:
        (length,) = _LEN.unpack(_recv_exactly(sock, _LEN.size))
        payload = _check_chunk_length(length, total)
        parts.append(_recv_exactly(sock, payload))
        total += payload
        if not length & _CONT_FLAG:
            break
    return decode_frame(parts[0] if len(parts) == 1 else b"".join(parts))


def write_frame_sock(sock: socket.socket, obj: Dict[str, Any]) -> None:
    """Blocking write of one logical message to ``sock``."""
    sock.sendall(encode_message(obj))


# -- the frame server --------------------------------------------------------

#: What a request handler may raise and have answered with an error
#: frame instead of a dead connection: the library's own errors, and
#: the lookups and conversions that fail on a request that is missing
#: or mistyping a field.
HANDLER_ERRORS = (ReproError, KeyError, TypeError, ValueError)


def error_frame(exc: BaseException, kind: Any = None) -> Dict[str, Any]:
    """The error reply for ``exc``, raised while handling a ``kind``
    request.  A :class:`~repro.errors.ReproError` crosses the wire under
    its own class name; anything else in :data:`HANDLER_ERRORS` means
    the request body itself was malformed."""
    if not isinstance(exc, ReproError):
        exc = RuntimeProtocolError(f"malformed {kind!r} request: {exc}")
    return {"kind": "error", "error": type(exc).__name__,
            "message": str(exc)}


class FrameServer:
    """One listening port answering one request frame per connection turn.

    A subclass overrides :meth:`dispatch` — what a request means.  A
    server whose turn is more than read → dispatch → reply (the shard
    worker clocks the verb, commits its op log and may be told to crash
    mid-reply) overrides :meth:`serve_frame` instead.  Nothing else is a
    hook: lifecycle, the accept loop, the error crossing and connection
    drain are the same for every server.
    """

    def __init__(self) -> None:
        self._server: Optional[asyncio.AbstractServer] = None
        #: Live connections (handler task -> its writer), so stop() can
        #: close them and let the handlers leave through the clean-EOF
        #: path instead of loop teardown cancelling mid-read tasks
        #: (which asyncio logs noisily).
        self._live: Dict[Any, asyncio.StreamWriter] = {}
        #: Connections accepted since construction.
        self.connections = 0

    # -- lifecycle -----------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind the endpoint and begin accepting (``port=0`` picks a
        free port; read it back from :attr:`port`).  Raises
        ``RuntimeProtocolError`` if already started."""
        if self._server is not None:
            raise RuntimeProtocolError(
                f"{type(self).__name__} already started")
        self._server = await asyncio.start_server(self._on_connect,
                                                  host, port)

    @property
    def port(self) -> int:
        """The bound TCP port (raises ``RuntimeProtocolError`` before
        :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeProtocolError(
                f"{type(self).__name__} is not listening")
        return self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Close the listener, then close every live connection and
        wait for its handler to finish — after ``stop()`` returns no
        task of this server is left for loop teardown to cancel."""
        server, self._server = self._server, None
        if server is not None:
            server.close()
        for writer in list(self._live.values()):
            writer.close()
        if self._live:
            await asyncio.gather(*list(self._live), return_exceptions=True)
        if server is not None:
            await server.wait_closed()

    async def __aenter__(self) -> "FrameServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.stop()

    # -- connection handling -------------------------------------------------

    async def _on_connect(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        self.connections += 1
        task = asyncio.current_task()
        self._live[task] = writer
        try:
            while await self.serve_frame(reader, writer):
                pass
        except (asyncio.IncompleteReadError, ConnectionError):
            pass  # the peer hung up; there is nobody to answer
        except RuntimeProtocolError as exc:
            # The decoder refused the bytes: say why, then hang up —
            # the stream position is lost, so no later frame is safe.
            logger.warning("%s: protocol error from %s: %s",
                           type(self).__name__,
                           writer.get_extra_info("peername"), exc)
            try:
                await write_frame(writer, error_frame(exc))
            except (ConnectionError, RuntimeError):
                pass
        finally:
            del self._live[task]
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:  # pragma: no cover - platform dependent
                pass

    async def serve_frame(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> bool:
        """One connection turn: read a request, write its reply.
        Returns ``False`` to end the connection after this reply."""
        frame = await read_frame(reader)
        try:
            reply = await self.dispatch(frame)
        except HANDLER_ERRORS as exc:
            reply = error_frame(exc, frame["kind"])
        await write_frame(writer, reply)
        return True

    async def dispatch(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """The reply to one request frame.  Raising one of
        :data:`HANDLER_ERRORS` answers with :func:`error_frame` and
        keeps the connection open."""
        raise NotImplementedError


def allocation_to_dict(allocation: Allocation) -> Dict[str, Any]:
    return {
        "machine_name": allocation.machine_name,
        "address": allocation.address,
        "execution_unit_port": allocation.execution_unit_port,
        "access_key": allocation.access_key,
        "shadow_account": allocation.shadow_account,
        "pool_name": allocation.pool_name,
        "pool_instance": allocation.pool_instance,
    }


def result_to_dict(result: QueryResult) -> Dict[str, Any]:
    out: Dict[str, Any] = {
        "kind": "result",
        "ok": result.ok,
        "query_id": result.query_id,
        "component_index": result.component_index,
        "component_count": result.component_count,
    }
    if result.allocation is not None:
        out["allocation"] = allocation_to_dict(result.allocation)
    if result.error is not None:
        out["error"] = result.error
    return out
