"""The HTTP/JSON serving edge over :class:`AsyncCompilationService`.

This is the network boundary the ROADMAP's "millions of users" story
needs: a stdlib-only (``asyncio.start_server``) HTTP/1.1 server that
turns wire requests into :class:`CompileRequest`s and runs them
through the full serving stack —

``auth (401/403) -> quota (429) -> coalesce -> admission (503)
-> bounded queue -> worker pool -> AsyncCompilationService``

with adaptive executor routing underneath (cold fan-outs on worker
processes, warm residual compiles on threads) and per-tenant,
per-route, per-queue observability at ``GET /stats``.

Endpoints:

* ``GET  /healthz`` — liveness, never authenticated, never queued;
* ``GET  /stats``   — edge counters + full ``ServiceStats.as_dict()``
  + tier-2 build provenance (``facts_warm`` / ``facts_request``
  count the tables a build had to compute itself);
* ``POST /compile`` — offline half only: body ``{source, name,
  options}`` -> artifact key and cache verdict;
* ``POST /deploy``  — the whole request: body ``{source, name,
  targets, flow, options, tolerate_failures}`` -> deployment
  metadata per target.

Run one with ``pvi-serve`` (console script) or programmatically::

    async with EdgeServer(EdgeConfig(port=0)) as edge:
        ...  # edge.port is the bound port

Identical concurrent requests coalesce in the edge's pending-job map
(duplicates attach to the queued job and consume no extra queue slot)
— the system's only *request*-level dedup, keyed by
``CompilationService.request_key``.  Below it the core's two
single-flights (offline compile, image build) keep overlapping
requests from repeating each other's work: a thundering herd costs
one queue slot, one offline compile and one fan-out.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.service import CompilationService, artifact_key
from repro.service.asyncio import AsyncCompilationService
from repro.service.edge.admission import (
    AdmissionController, LatencyHistogram,
)
from repro.service.edge.auth import Tenant, TenantTable, anonymous_tenant
from repro.service.edge.routing import AdaptiveExecutor
from repro.service.edge.wire import (
    WireError, deploy_result_wire, error_wire, parse_compile_request,
    parse_deploy_request, retry_after_header,
)
from repro.service.executors import Executorish
from repro.service.requests import CompileRequest

__all__ = ["EdgeConfig", "EdgeServer", "main"]

SERVER_NAME = "pvi-edge"

#: header caps — a parser this small refuses pathology instead of
#: handling it gracefully
MAX_REQUEST_LINE = 8 * 1024
MAX_HEADER_BYTES = 32 * 1024


async def _readline(reader: asyncio.StreamReader) -> Optional[bytes]:
    """One line, or ``None`` for a line longer than the stream reader
    will buffer: ``readline`` reports that as ``ValueError`` (it
    converts ``LimitOverrunError``), and the caller refuses it like a
    line past the caps above."""
    try:
        return await reader.readline()
    except ValueError:
        return None


@dataclass
class EdgeConfig:
    """Everything an operator tunes about one edge process."""
    host: str = "127.0.0.1"
    port: int = 8421                    # 0 -> ephemeral (tests/benches)
    #: admission queue bound (queued, not yet in service)
    queue_depth: int = 64
    #: estimated-wait shed threshold; None disables the overload gate
    max_wait_s: Optional[float] = 2.0
    #: concurrent serving tasks draining the queue
    workers: int = 8
    max_body_bytes: int = 1 << 20
    #: the two routes of the owned service's
    #: :class:`AdaptiveExecutor` (cold fan-outs / warm residuals)
    cold_executor: Executorish = "process"
    warm_executor: Executorish = "thread"
    #: API-key table; ``None`` serves an open edge (anonymous tenant,
    #: no quotas) — a dev/bench convenience, never the production shape
    tenants: Optional[TenantTable] = None
    #: keyword arguments for the owned :class:`CompilationService`
    #: (``cache_capacity``, ``persist_dir``, ``cache_shards``, ...)
    service_kwargs: Dict[str, object] = field(default_factory=dict)


class _Job:
    """One admitted unit of queue work, with every identical request
    that arrived while it was pending attached as a waiter."""

    __slots__ = ("kind", "request", "payload", "key", "waiters",
                 "tenants")

    def __init__(self, kind: str, key, request=None, payload=None):
        self.kind = kind                  # "deploy" | "compile"
        self.key = key
        self.request = request            # CompileRequest (deploy)
        self.payload = payload            # dict (compile)
        self.waiters: List[asyncio.Future] = []
        self.tenants: List[Tenant] = []

    def attach(self, tenant: Tenant) -> asyncio.Future:
        future = asyncio.get_running_loop().create_future()
        self.waiters.append(future)
        self.tenants.append(tenant)
        return future

    def resolve(self, result=None, error: Optional[BaseException] = None):
        for future in self.waiters:
            if future.done():
                continue
            if error is not None:
                future.set_exception(error)
            else:
                future.set_result(result)


class EdgeStats:
    """Edge-level counters (event-loop only — no locks)."""

    def __init__(self):
        self.requests = 0            # work requests past auth parsing
        self.accepted = 0
        self.coalesced = 0
        self.shed_quota = 0
        self.shed_queue = 0
        self.shed_overload = 0
        self.auth_unauthorized = 0
        self.auth_forbidden = 0
        self.bad_requests = 0
        self.failed = 0              # served but errored
        self.latency = LatencyHistogram()
        self.started_at = time.monotonic()

    @property
    def shed(self) -> int:
        return self.shed_quota + self.shed_queue + self.shed_overload

    def as_dict(self) -> Dict[str, object]:
        return {
            "uptime_s": round(time.monotonic() - self.started_at, 3),
            "requests": self.requests,
            "accepted": self.accepted,
            "coalesced": self.coalesced,
            "shed": {"quota": self.shed_quota,
                     "queue_full": self.shed_queue,
                     "overload": self.shed_overload,
                     "total": self.shed},
            "auth_failures": {"unauthorized": self.auth_unauthorized,
                              "forbidden": self.auth_forbidden},
            "bad_requests": self.bad_requests,
            "failed": self.failed,
            "latency": self.latency.as_dict(),
        }


class EdgeServer:
    """One serving-edge process: HTTP front, admission middle,
    :class:`AsyncCompilationService` back.

    Construct with an :class:`EdgeConfig` (and optionally an existing
    :class:`CompilationService` to share caches with in-process
    callers); ``await start()`` binds the socket and spins up the
    worker pool; ``await close()`` drains and releases everything the
    server owns.
    """

    def __init__(self, config: Optional[EdgeConfig] = None,
                 service: Optional[CompilationService] = None):
        self.config = config or EdgeConfig()
        self._owns_core = service is None
        if service is None:
            service = CompilationService(
                executor=AdaptiveExecutor(self.config.cold_executor,
                                          self.config.warm_executor),
                **self.config.service_kwargs)
        self.core = service
        self.router: Optional[AdaptiveExecutor] = \
            service.pool.executor if isinstance(
                service.pool.executor, AdaptiveExecutor) else None
        self.tenants = self.config.tenants
        self._anonymous = anonymous_tenant()
        self.stats = EdgeStats()
        self.admission = AdmissionController(
            capacity=self.config.queue_depth,
            max_wait_s=self.config.max_wait_s,
            workers=self.config.workers)
        self.service = AsyncCompilationService(self.core)
        # loop-bound state, created in start()
        self._queue: Optional[asyncio.Queue] = None
        self._pending: Dict[object, _Job] = {}
        self._workers: List[asyncio.Task] = []
        self._server: Optional[asyncio.base_events.Server] = None

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> "EdgeServer":
        self._queue = asyncio.Queue(maxsize=self.config.queue_depth)
        self._workers = [
            asyncio.create_task(self._worker(), name=f"edge-worker-{i}")
            for i in range(self.config.workers)]
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host,
            self.config.port)
        return self

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` ephemeral binds)."""
        return self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for worker in self._workers:
            worker.cancel()
        await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers = []
        if self._owns_core:
            self.core.shutdown()

    async def __aenter__(self) -> "EdgeServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # -- HTTP plumbing ------------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                parsed = await self._read_request(reader)
                if parsed is None:
                    break
                method, path, headers, body, parse_error = parsed
                keep_alive = headers.get(
                    "connection", "keep-alive").lower() != "close"
                if parse_error is not None:
                    await self._respond(writer, parse_error.status,
                                        parse_error.body(),
                                        keep_alive=False,
                                        retry_after=parse_error
                                        .retry_after)
                    break
                status, payload, retry_after = \
                    await self._dispatch(method, path, headers, body)
                await self._respond(writer, status, payload,
                                    keep_alive=keep_alive,
                                    retry_after=retry_after)
                if not keep_alive:
                    break
        except (ConnectionResetError, asyncio.IncompleteReadError,
                BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        """One HTTP/1.1 request -> (method, path, headers, body,
        error-or-None); ``None`` on a cleanly closed connection."""
        try:
            line = await _readline(reader)
        except ConnectionResetError:
            return None
        if line == b"":
            return None
        if line is None or len(line) > MAX_REQUEST_LINE:
            return ("GET", "/", {}, b"",
                    WireError(431, "request_too_large",
                              "request line too long"))
        try:
            method, path, _version = \
                line.decode("latin-1").strip().split(" ", 2)
        except ValueError:
            return ("GET", "/", {}, b"",
                    WireError(400, "bad_request",
                              "malformed HTTP request line"))
        headers: Dict[str, str] = {}
        header_bytes = 0
        while True:
            line = await _readline(reader)
            header_bytes += len(line or b"")
            if line is None or header_bytes > MAX_HEADER_BYTES:
                return (method, path, headers, b"",
                        WireError(431, "request_too_large",
                                  "headers too large"))
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        body = b""
        length = headers.get("content-length")
        if length is not None:
            try:
                n = int(length)
            except ValueError:
                return (method, path, headers, b"",
                        WireError(400, "bad_request",
                                  "malformed Content-Length"))
            if n > self.config.max_body_bytes:
                return (method, path, headers, b"",
                        WireError(413, "payload_too_large",
                                  f"body exceeds "
                                  f"{self.config.max_body_bytes} "
                                  f"bytes"))
            body = await reader.readexactly(n)
        return method.upper(), path, headers, body, None

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       payload: Dict[str, object], *,
                       keep_alive: bool = True,
                       retry_after: Optional[float] = None) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        reason = {200: "OK", 400: "Bad Request", 401: "Unauthorized",
                  403: "Forbidden", 404: "Not Found",
                  405: "Method Not Allowed", 413: "Payload Too Large",
                  422: "Unprocessable Entity",
                  429: "Too Many Requests", 431: "Headers Too Large",
                  500: "Internal Server Error",
                  503: "Service Unavailable"}.get(status, "Status")
        head = [f"HTTP/1.1 {status} {reason}",
                f"Server: {SERVER_NAME}",
                "Content-Type: application/json",
                f"Content-Length: {len(body)}",
                f"Connection: {'keep-alive' if keep_alive else 'close'}"]
        if status in (429, 503) or retry_after is not None:
            head.append(f"Retry-After: "
                        f"{retry_after_header(retry_after)}")
        writer.write(("\r\n".join(head) + "\r\n\r\n")
                     .encode("latin-1") + body)
        await writer.drain()

    # -- dispatch -----------------------------------------------------------

    async def _dispatch(self, method: str, path: str,
                        headers: Dict[str, str], body: bytes) \
            -> Tuple[int, Dict[str, object], Optional[float]]:
        try:
            if path == "/healthz":
                if method != "GET":
                    raise WireError(405, "method_not_allowed",
                                    "/healthz is GET")
                return 200, self._healthz(), None
            if path == "/stats":
                if method != "GET":
                    raise WireError(405, "method_not_allowed",
                                    "/stats is GET")
                self._authenticate(headers)
                return 200, self.stats_snapshot(), None
            if path in ("/deploy", "/compile"):
                if method != "POST":
                    raise WireError(405, "method_not_allowed",
                                    f"{path} is POST")
                return await self._serve_work(path, headers, body)
            raise WireError(404, "not_found",
                            f"no such endpoint {path!r}; have "
                            f"/healthz /stats /compile /deploy")
        except WireError as exc:
            self._count_wire_error(exc)
            return exc.status, exc.body(), exc.retry_after

    def _count_wire_error(self, exc: WireError) -> None:
        if exc.status == 401:
            self.stats.auth_unauthorized += 1
        elif exc.status == 403:
            self.stats.auth_forbidden += 1
        elif exc.status == 429:
            self.stats.shed_quota += 1
        elif exc.status == 400:
            self.stats.bad_requests += 1

    def _authenticate(self, headers: Dict[str, str]) -> Tenant:
        key = headers.get("x-api-key")
        if key is None:
            bearer = headers.get("authorization", "")
            if bearer.lower().startswith("bearer "):
                key = bearer[7:].strip()
        if self.tenants is None:
            return self._anonymous
        return self.tenants.authenticate(key)

    # -- the work path ------------------------------------------------------

    async def _serve_work(self, path: str, headers: Dict[str, str],
                          body: bytes) \
            -> Tuple[int, Dict[str, object], Optional[float]]:
        tenant = self._authenticate(headers)
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (ValueError, UnicodeDecodeError):
            raise WireError(400, "bad_request",
                            "request body is not valid JSON")
        if path == "/deploy":
            request = parse_deploy_request(payload)
            key = ("deploy", CompilationService.request_key(request))
            job_args = {"request": request}
        else:
            fields = parse_compile_request(payload)
            try:
                key = ("compile",
                       artifact_key(fields["source"], fields["name"],
                                    fields["options"]))
            except ValueError as exc:     # unknown offline options
                raise WireError(400, "bad_request", str(exc))
            job_args = {"payload": fields}
        tenant.stats.requests += 1
        self.stats.requests += 1
        tenant.charge()                   # 429 on an empty bucket
        arrived = time.monotonic()
        kind = path.lstrip("/")

        # -- coalesce: attach to an identical pending job ------------------
        job = self._pending.get(key)
        coalesced = job is not None
        if not coalesced:
            decision = self.admission.evaluate()
            if not decision.admitted:
                return self._shed(tenant, decision)
            job = _Job(kind, key, **job_args)
            self._pending[key] = job
            self.admission.on_enqueue()
            self._queue.put_nowait(job)   # never full: gate == bound
        future = job.attach(tenant)
        tenant.stats.accepted += 1
        self.stats.accepted += 1
        if coalesced:
            tenant.stats.coalesced += 1
            self.stats.coalesced += 1
        try:
            result = await asyncio.shield(future)
        except WireError as exc:
            tenant.stats.failed += 1
            self.stats.failed += 1
            raise exc
        except Exception as exc:
            tenant.stats.failed += 1
            self.stats.failed += 1
            return self._server_error(exc)
        elapsed = time.monotonic() - arrived
        self.stats.latency.observe(elapsed)
        tenant.stats.latency.observe(elapsed)
        return 200, result, None

    def _shed(self, tenant: Tenant, decision) \
            -> Tuple[int, Dict[str, object], float]:
        if decision.reason == "queue_full":
            tenant.stats.shed_queue += 1
            self.stats.shed_queue += 1
        else:
            tenant.stats.shed_overload += 1
            self.stats.shed_overload += 1
        wait = max(decision.estimated_wait_s,
                   self.admission.ewma_service_s, 0.05)
        body = error_wire(
            decision.reason,
            "admission control shed this request "
            f"({decision.reason}); retry after backoff",
            retry_after=wait,
            queue_depth=decision.queue_depth,
            queue_capacity=self.admission.capacity,
            estimated_wait_s=round(decision.estimated_wait_s, 4))
        return 503, body, wait

    def _server_error(self, exc: Exception) \
            -> Tuple[int, Dict[str, object], Optional[float]]:
        from repro.analysis.lint import AdmissionError
        from repro.lang.errors import CompilerError
        if isinstance(exc, CompilerError):
            return 422, error_wire(
                "compile_error",
                f"{type(exc).__name__}: {exc}"), None
        if isinstance(exc, AdmissionError):
            return 422, error_wire(
                "lint_rejected",
                f"artifact failed the admission lint: {exc}"), None
        return 500, error_wire(
            "internal_error", f"{type(exc).__name__}: {exc}"), None

    async def _worker(self) -> None:
        """One queue drainer: serve jobs through the async facade,
        resolve every attached waiter, feed the EWMA."""
        while True:
            job = await self._queue.get()
            self.admission.on_start()
            started = time.monotonic()
            try:
                if job.kind == "deploy":
                    result = deploy_result_wire(
                        await self.service.submit(job.request))
                else:
                    outcome = await self.service.compile(
                        job.payload["source"], job.payload["name"],
                        **(job.payload["options"] or {}))
                    result = {"artifact_key": outcome.key,
                              "name": job.payload["name"],
                              "cache_hit": outcome.cache_hit,
                              "latency_s": outcome.latency}
            except BaseException as exc:
                job.resolve(error=exc)
                if isinstance(exc, asyncio.CancelledError):
                    raise          # shutdown mid-job: really stop
            else:
                job.resolve(result=result)
            finally:
                self._pending.pop(job.key, None)
                self.admission.on_finish(time.monotonic() - started)
                self._queue.task_done()

    # -- observability ------------------------------------------------------

    def _healthz(self) -> Dict[str, object]:
        return {
            "status": "ok",
            "uptime_s": round(
                time.monotonic() - self.stats.started_at, 3),
            "queue_depth": self.admission.queued,
            "workers": self.config.workers,
        }

    def stats_snapshot(self) -> Dict[str, object]:
        """The ``/stats`` payload: edge + queue + tenants + routing +
        the full service-core snapshot + tier-2 build provenance."""
        from repro.targets import dispatch
        from repro.vm import threaded
        edge = self.stats.as_dict()
        edge["queue"] = self.admission.as_dict()
        edge["tenants"] = (self.tenants.stats_dict()
                           if self.tenants is not None else
                           {self._anonymous.name:
                            self._anonymous.stats.as_dict()})
        edge["routes"] = (self.router.route_counters()
                          if self.router is not None else None)
        return {
            "edge": edge,
            "service": self.core.stats().as_dict(),
            "tier2": {"vm": threaded.tier2_build_stats(),
                      "sim": dispatch.tier2_build_stats()},
        }


# ---------------------------------------------------------------------------
# the pvi-serve console script
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pvi-serve",
        description="Serve the PVI compilation service over HTTP/JSON "
                    "with multi-tenant admission control.")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8421)
    parser.add_argument("--tenants", type=Path, default=None,
                        help="JSON tenant table ({'tenants': [{'name', "
                             "'api_key', 'rate', 'burst'}, ...]}); "
                             "omitted -> open server, no quotas")
    parser.add_argument("--queue-depth", type=int, default=64)
    parser.add_argument("--max-wait", type=float, default=2.0,
                        help="estimated-wait shed threshold, seconds")
    parser.add_argument("--workers", type=int, default=8)
    parser.add_argument("--cold-executor", default="process",
                        help="route for cold fan-outs "
                             "(process/thread/inline)")
    parser.add_argument("--warm-executor", default="thread",
                        help="route for warm residual compiles")
    parser.add_argument("--persist-dir", type=Path, default=None,
                        help="artifact cache directory (a warm "
                             "start skips the offline compile)")
    parser.add_argument("--cache-capacity", type=int, default=256)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    tenants = None
    if args.tenants is not None:
        tenants = TenantTable.from_config(
            json.loads(args.tenants.read_text()))
    service_kwargs: Dict[str, object] = {
        "cache_capacity": args.cache_capacity}
    if args.persist_dir is not None:
        service_kwargs["persist_dir"] = args.persist_dir
    config = EdgeConfig(
        host=args.host, port=args.port,
        queue_depth=args.queue_depth, max_wait_s=args.max_wait,
        workers=args.workers,
        cold_executor=args.cold_executor,
        warm_executor=args.warm_executor,
        tenants=tenants, service_kwargs=service_kwargs)

    async def serve() -> None:
        async with EdgeServer(config) as edge:
            mode = "multi-tenant" if tenants is not None else "open"
            print(f"pvi-serve: {mode} edge on "
                  f"http://{config.host}:{edge.port} "
                  f"(queue={config.queue_depth}, "
                  f"workers={config.workers})", flush=True)
            # SIGTERM (how a container runtime stops a service) leaves
            # through the same ``async with`` unwind as SIGINT, so the
            # process pool's workers are joined either way.
            stop = asyncio.Event()
            asyncio.get_running_loop().add_signal_handler(
                signal.SIGTERM, stop.set)
            await stop.wait()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        pass
    print("pvi-serve: shutting down")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
