"""Minimal HTTP/1.1 on ``asyncio.start_server`` — no web framework.

Just enough protocol for the service's four read-only endpoints:
request line + headers parsed, query strings stripped, ``GET``/``HEAD``
honored, everything else ``405``.  Responses are one-shot
(``Connection: close``); the handler table maps a path to a callable
returning ``(status, content_type, body)``.
"""

from __future__ import annotations

import asyncio
import json
from typing import Callable

__all__ = ["HttpServer", "json_response"]

Handler = Callable[[], tuple[int, str, bytes]]

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
}

_MAX_HEADER_BYTES = 16384


def json_response(payload: object, status: int = 200) -> tuple[int, str, bytes]:
    """A handler return value carrying a JSON document.

    Compact on purpose: ``indent`` would take ``json`` off its C encoder.
    """
    body = json.dumps(payload, separators=(",", ":"), sort_keys=True).encode() + b"\n"
    return status, "application/json", body


class HttpServer:
    """Routes ``GET``s to handler callables over ``asyncio.start_server``."""

    def __init__(
        self,
        routes: dict[str, Handler],
        observe: Callable[[str, int], None] | None = None,
    ) -> None:
        self.routes = dict(routes)
        self._observe = observe
        self._server: asyncio.Server | None = None

    async def start(self, host: str, port: int) -> tuple[str, int]:
        """Bind and serve; returns the actual (host, port) bound."""
        self._server = await asyncio.start_server(self._handle, host, port)
        bound = self._server.sockets[0].getsockname()
        return bound[0], bound[1]

    @property
    def address(self) -> tuple[str, int] | None:
        if self._server is None or not self._server.sockets:
            return None
        bound = self._server.sockets[0].getsockname()
        return bound[0], bound[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                raw = await reader.readuntil(b"\r\n\r\n")
            except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
                return
            if len(raw) > _MAX_HEADER_BYTES:
                await self._respond(writer, "?", 400, "text/plain", b"headers too large\n")
                return
            request_line = raw.split(b"\r\n", 1)[0].decode("latin-1")
            parts = request_line.split()
            if len(parts) != 3:
                await self._respond(writer, "?", 400, "text/plain", b"bad request\n")
                return
            method, target, _version = parts
            path = target.split("?", 1)[0]
            if method not in ("GET", "HEAD"):
                await self._respond(
                    writer, path, 405, "text/plain", b"method not allowed\n"
                )
                return
            handler = self.routes.get(path)
            if handler is None:
                status, ctype, body = json_response(
                    {"error": "not found", "endpoints": sorted(self.routes)}, 404
                )
            else:
                try:
                    status, ctype, body = handler()
                except Exception as error:  # surface, don't kill the server
                    status, ctype, body = json_response({"error": str(error)}, 500)
            await self._respond(
                writer, path, status, ctype, b"" if method == "HEAD" else body,
                content_length=len(body),
            )
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        path: str,
        status: int,
        content_type: str,
        body: bytes,
        content_length: int | None = None,
    ) -> None:
        length = len(body) if content_length is None else content_length
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {length}\r\n"
            f"Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()
        if self._observe is not None:
            self._observe(path, status)
