"""A minimal asyncio client for the serving edge.

One keep-alive connection, JSON in/out, stdlib only — enough for the
load generator, the quickstart example and the tests to speak the
edge's wire protocol without growing an HTTP dependency.  Responses
come back as ``(status, headers, payload)`` so callers can assert on
shed statuses and ``Retry-After`` instead of only happy paths.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, Optional, Tuple

__all__ = ["EdgeClient"]

Response = Tuple[int, Dict[str, str], Dict[str, object]]


class EdgeClient:
    """One persistent connection to one edge server.

    Not safe for concurrent requests on a single instance (HTTP/1.1
    keep-alive is strictly sequential); open one client per in-flight
    request — they are cheap — or serialize through one.
    """

    def __init__(self, host: str, port: int,
                 api_key: Optional[str] = None):
        self.host = host
        self.port = port
        self.api_key = api_key
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._lock = asyncio.Lock()

    async def _connect(self) -> None:
        if self._writer is None or self._writer.is_closing():
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port)

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._writer = None
            self._reader = None

    async def __aenter__(self) -> "EdgeClient":
        await self._connect()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # -- wire ---------------------------------------------------------------

    async def request(self, method: str, path: str,
                      body: Optional[Dict[str, object]] = None,
                      api_key: Optional[str] = None) -> Response:
        """One round trip -> ``(status, headers, json_payload)``.

        ``api_key`` overrides the client default for this request
        (handy for auth tests); the connection is re-established
        transparently if the server closed it.
        """
        async with self._lock:
            await self._connect()
            try:
                return await self._round_trip(method, path, body,
                                              api_key)
            except (ConnectionResetError, BrokenPipeError,
                    asyncio.IncompleteReadError):
                # one reconnect: the server may have idled us out
                await self.close()
                await self._connect()
                return await self._round_trip(method, path, body,
                                              api_key)

    async def _round_trip(self, method: str, path: str,
                          body: Optional[Dict[str, object]],
                          api_key: Optional[str]) -> Response:
        payload = b""
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
        head = [f"{method} {path} HTTP/1.1",
                f"Host: {self.host}:{self.port}",
                f"Content-Length: {len(payload)}",
                "Content-Type: application/json"]
        key = api_key if api_key is not None else self.api_key
        if key is not None:
            head.append(f"X-Api-Key: {key}")
        self._writer.write(("\r\n".join(head) + "\r\n\r\n")
                           .encode("latin-1") + payload)
        await self._writer.drain()

        # a closed connection raises IncompleteReadError: request()
        # reconnects once
        head = await self._reader.readuntil(b"\r\n\r\n")
        lines = head[:-4].decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        raw = await self._reader.readexactly(length) if length else b""
        decoded = json.loads(raw.decode("utf-8")) if raw else {}
        if headers.get("connection", "").lower() == "close":
            await self.close()
        return status, headers, decoded

    # -- convenience --------------------------------------------------------

    async def healthz(self) -> Response:
        return await self.request("GET", "/healthz")

    async def stats(self) -> Response:
        return await self.request("GET", "/stats")

    async def compile(self, source: str, name: str = "module",
                      options: Optional[Dict[str, object]] = None) \
            -> Response:
        body: Dict[str, object] = {"source": source, "name": name}
        if options is not None:
            body["options"] = options
        return await self.request("POST", "/compile", body)

    async def deploy(self, source: str, targets, name: str = "module",
                     flow: str = "split",
                     options: Optional[Dict[str, object]] = None,
                     tolerate_failures: Optional[bool] = None) \
            -> Response:
        body: Dict[str, object] = {"source": source, "name": name,
                                   "targets": list(targets),
                                   "flow": flow}
        if options is not None:
            body["options"] = options
        if tolerate_failures is not None:
            body["tolerate_failures"] = tolerate_failures
        return await self.request("POST", "/deploy", body)
