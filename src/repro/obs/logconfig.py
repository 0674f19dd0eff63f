"""One-call structured logging setup for the ``repro`` namespace.

Four modules (shard worker, service, resharding, scenarios pipeline)
each call ``logging.getLogger(__name__)`` and historically left
configuration to whoever embedded them.  :func:`configure_logging`
is the single switch the CLI's ``repro --log-level/--log-json`` flags
flip: it installs one stderr handler on the ``repro`` parent logger —
plain text by default, one-JSON-object-per-line with ``--log-json``
so worker logs interleave cleanly with the slow-op JSONL in a log
aggregator.  Idempotent: repeat calls reconfigure rather than stack
handlers.
"""

from __future__ import annotations

import json
import logging
import sys

__all__ = ["configure_logging"]

_HANDLER_NAME = "repro-obs-handler"


class _JsonFormatter(logging.Formatter):
    """Render each record as one JSON object per line."""

    def format(self, record: logging.LogRecord) -> str:
        """One compact JSON object: ts, level, logger, message[, exc]."""
        payload = {
            "ts": self.formatTime(record, "%Y-%m-%dT%H:%M:%S"),
            "level": record.levelname,
            "logger": record.name,
            "message": record.getMessage(),
        }
        if record.exc_info:
            payload["exc"] = self.formatException(record.exc_info)
        return json.dumps(payload, separators=(",", ":"))


def configure_logging(level: str = "info", json_mode: bool = False,
                      stream=None) -> logging.Logger:
    """Configure the ``repro`` logger namespace and return it.

    ``level`` is a case-insensitive name (``debug``/``info``/…);
    ``json_mode`` swaps the formatter for one-object-per-line JSON;
    ``stream`` defaults to stderr (injectable for tests).  Any handler
    installed by a previous call is replaced, never duplicated.
    """
    numeric = logging.getLevelName(level.upper())
    if not isinstance(numeric, int):
        raise ValueError(f"unknown log level: {level!r}")
    logger = logging.getLogger("repro")
    for handler in list(logger.handlers):
        if getattr(handler, "name", None) == _HANDLER_NAME:
            logger.removeHandler(handler)
    handler = logging.StreamHandler(stream if stream is not None
                                    else sys.stderr)
    handler.name = _HANDLER_NAME
    if json_mode:
        handler.setFormatter(_JsonFormatter())
    else:
        handler.setFormatter(logging.Formatter(
            "%(asctime)s %(levelname)s %(name)s: %(message)s"))
    logger.addHandler(handler)
    logger.setLevel(numeric)
    logger.propagate = False
    return logger
