"""The HTTP/JSON serving edge over :class:`AsyncCompilationService`.

This is the network boundary the ROADMAP's "millions of users" story
needs: a stdlib-only (``asyncio.start_server``) HTTP/1.1 server that
turns wire requests into :class:`CompileRequest`s and runs them
through the full serving stack —

``auth (401/403) -> quota (429) -> coalesce -> resident (200)
-> admission (503) -> bounded queue -> worker pool
-> AsyncCompilationService``

with adaptive executor routing underneath (a cold request's offline
compile and fan-out on worker processes, warm residual compiles on
threads) and per-tenant, per-route, per-queue observability at
``GET /stats``.  A ``/deploy`` whose artifact and images are all in
memory is answered on its connection's task
(``CompilationService.serve_resident``): it takes no queue slot.

Endpoints:

* ``GET  /healthz`` — liveness, never authenticated, never queued;
* ``GET  /stats``   — edge counters (totals and one row per tenant,
  two reads of the same counts) + the full
  ``CompilationService.stats()`` + tier-2 build provenance
  (``facts_warm`` / ``facts_request`` count the tables a build had to
  compute itself);
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
import re
import signal
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.service import CompilationService, artifact_key
from repro.service.asyncio import AsyncCompilationService
from repro.service.edge.admission import AdmissionController
from repro.service.edge.auth import Tenant, TenantTable, anonymous_tenant
from repro.service.edge.routing import AdaptiveExecutor
from repro.service.edge.wire import (
    WireError, deploy_result_wire, error_wire, parse_compile_request,
    parse_deploy_request, retry_after_header,
)
from repro.service.executors import Executorish
from repro.telemetry import Counters, LatencyHistogram

__all__ = ["EdgeConfig", "EdgeServer", "main"]

SERVER_NAME = "pvi-edge"

#: request caps — a parser this small refuses pathology instead of
#: handling it gracefully
MAX_REQUEST_LINE = 8 * 1024
MAX_HEADER_BYTES = 32 * 1024
MAX_BODY_BYTES = 1 << 20


#: a header field name: an RFC 9110 token, so no whitespace before
#: the colon
_FIELD_NAME = re.compile(r"[-!#$%&'*+.^_`|~0-9A-Za-z]+")


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
    #: the two routes of the owned service's
    #: :class:`AdaptiveExecutor` (cold offline compiles and fan-outs /
    #: warm residuals)
    cold_executor: Executorish = "process"
    warm_executor: Executorish = "thread"
    #: API-key table; ``None`` serves an open edge (anonymous tenant,
    #: no quotas) — a dev/bench convenience, never the production shape
    tenants: Optional[TenantTable] = None
    #: keyword arguments for the owned :class:`CompilationService`
    #: (``cache_capacity``, ``persist_dir``, ...)
    service_kwargs: Dict[str, object] = field(default_factory=dict)


class _Job:
    """One admitted unit of queue work, with every identical request
    that arrived while it was pending attached as a waiter; each
    waiter is handed the outcome, a result or an exception, as a
    value."""

    __slots__ = ("key", "work", "waiters")

    def __init__(self, key, work):
        self.key = key                    # ("deploy" | "compile", ...)
        self.work = work                  # CompileRequest | dict
        self.waiters: List[asyncio.Future] = []

    def attach(self) -> asyncio.Future:
        future = asyncio.get_running_loop().create_future()
        self.waiters.append(future)
        return future

    def resolve(self, outcome) -> None:
        for future in self.waiters:
            if not future.done():
                future.set_result(outcome)


#: what each status of a refused request counts as
_REFUSALS = {400: "bad_requests", 401: "auth_unauthorized",
             403: "auth_forbidden", 429: "shed_quota"}


def _tally(counts: Dict[str, int],
           latency: LatencyHistogram) -> Dict[str, object]:
    """One ``/stats`` row (the edge's totals or one tenant's)."""
    shed = {"quota": counts["shed_quota"],
            "queue_full": counts["shed_queue"],
            "overload": counts["shed_overload"]}
    shed["total"] = sum(shed.values())
    return {"requests": counts["requests"],
            "accepted": counts["accepted"],
            "coalesced": counts["coalesced"],
            "shed": shed,
            "bad_requests": counts["bad_requests"],
            "failed": counts["failed"],
            "latency": latency.as_dict()}


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
        #: the edge's books, one count per event.  Every event of a
        #: work request carries its ``tenant`` label — ``requests``
        #: (past auth and parsing), then ``shed_quota`` (429),
        #: ``shed_queue`` / ``shed_overload`` (503) or ``accepted``,
        #: of which ``coalesced`` joined a pending job and ``failed``
        #: errored; ``bad_requests`` (400) failed parsing.  401 / 403
        #: name no tenant and are counted without one.
        self.counts = Counters("requests", "accepted", "coalesced",
                               "shed_quota", "shed_queue",
                               "shed_overload", "bad_requests", "failed",
                               "auth_unauthorized", "auth_forbidden")
        #: tenant name -> latency of its served requests
        self._latency: Dict[str, LatencyHistogram] = \
            defaultdict(LatencyHistogram)
        self._started = time.monotonic()
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
                try:
                    parsed = await self._read_request(reader)
                except WireError as exc:   # answered once, then closed
                    await self._respond(writer, exc.status, exc.body(),
                                        keep_alive=False,
                                        retry_after=exc.retry_after)
                    break
                if parsed is None:
                    break
                method, path, headers, body = parsed
                keep_alive = headers.get(
                    "connection", "keep-alive").lower() != "close"
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
        """One HTTP/1.1 request -> ``(method, path, headers, body)``,
        or ``None`` once the peer has closed (mid-head included).  The
        head is one ``readuntil`` split in memory; a head this parser
        refuses raises the :class:`WireError` to answer."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, ConnectionResetError):
            return None
        except asyncio.LimitOverrunError:     # past the reader's limit
            raise WireError(431, "request_too_large",
                            "request head too large")
        text = head[:-4].decode("latin-1")
        lines = text.split("\r\n")
        if len(lines[0]) + 2 > MAX_REQUEST_LINE:
            raise WireError(431, "request_too_large",
                            "request line too long")
        try:
            method, path, _version = lines[0].split(" ", 2)
        except ValueError:
            raise WireError(400, "bad_request",
                            "malformed HTTP request line")
        if len(head) - len(lines[0]) - 2 > MAX_HEADER_BYTES:
            raise WireError(431, "request_too_large", "headers too large")
        # every CR and LF is one of the CRLFs split on: a bare one
        # would end a line for one reader and not for another
        if text.count("\r") + text.count("\n") != 2 * (len(lines) - 1):
            raise WireError(400, "bad_request", "bare CR or LF in head")
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            name, colon, value = line.partition(":")
            if not colon or not _FIELD_NAME.fullmatch(name):
                raise WireError(400, "bad_request",
                                "malformed header field")
            name, value = name.lower(), value.strip(" \t")
            if name == "content-length" and \
                    headers.get(name, value) != value:
                raise WireError(400, "bad_request",
                                "conflicting Content-Length headers")
            headers[name] = value
        if "transfer-encoding" in headers:
            # Only Content-Length framing is read: an unread chunked
            # body would be parsed as the next request.
            raise WireError(501, "not_implemented",
                            "Transfer-Encoding is not supported; "
                            "send a Content-Length body")
        length = headers.get("content-length", "0")
        # Plain ASCII digits only: ``int`` would also take a sign,
        # underscores and non-ASCII digits, and refuses a string of
        # thousands of digits.
        if not (length.isascii() and length.isdigit()):
            raise WireError(400, "bad_request", "malformed Content-Length")
        n = int(length) if len(length) < 20 else MAX_BODY_BYTES + 1
        if n > MAX_BODY_BYTES:
            raise WireError(413, "payload_too_large",
                            f"body exceeds {MAX_BODY_BYTES} bytes")
        return method.upper(), path, headers, await reader.readexactly(n)

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
                  500: "Internal Server Error", 501: "Not Implemented",
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
                tenant = self._authenticate(headers)
                try:
                    return await self._serve_work(path, tenant, body)
                except WireError as exc:
                    self._count_refusal(exc, tenant=tenant.name)
                    return exc.status, exc.body(), exc.retry_after
            raise WireError(404, "not_found",
                            f"no such endpoint {path!r}; have "
                            f"/healthz /stats /compile /deploy")
        except WireError as exc:
            self._count_refusal(exc)
            return exc.status, exc.body(), exc.retry_after

    def _count_refusal(self, exc: WireError, **labels) -> None:
        name = _REFUSALS.get(exc.status)
        if name is not None:
            self.counts.add(name, **labels)

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

    async def _serve_work(self, path: str, tenant: Tenant,
                          body: bytes) \
            -> Tuple[int, Dict[str, object], Optional[float]]:
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (ValueError, UnicodeDecodeError):
            raise WireError(400, "bad_request",
                            "request body is not valid JSON")
        # Keying a request validates its offline options, so a bad one
        # is a 400 here, before anything is queued or shipped.
        try:
            if path == "/deploy":
                work = parse_deploy_request(payload)
                key = ("deploy", CompilationService.request_key(work))
            else:
                work = parse_compile_request(payload)
                key = ("compile", artifact_key(
                    work["source"], work["name"], work["options"]))
        except ValueError as exc:         # a bad offline option
            raise WireError(400, "bad_request", str(exc))
        who = tenant.name
        self.counts.add("requests", tenant=who)
        tenant.charge()                   # 429 on an empty bucket
        arrived = time.monotonic()

        # -- a resident /deploy: answered here, never gated or queued -----
        job = self._pending.get(key)
        if job is None and key[0] == "deploy":
            try:
                resident = self.core.serve_resident(work)
                result = resident and deploy_result_wire(resident)
            except Exception as exc:
                result = exc
            if result is not None:
                self.counts.add("accepted", tenant=who)
                return self._answer(who, arrived, result)

        # -- coalesce onto an identical pending job, or queue one ----------
        if job is None:
            decision = self.admission.evaluate()
            if not decision.admitted:
                return self._shed(who, decision)
            job = self._pending[key] = _Job(key, work)
            self.admission.on_enqueue()
            self._queue.put_nowait(job)   # never full: gate == bound
        else:
            self.counts.add("coalesced", tenant=who)
        future = job.attach()
        self.counts.add("accepted", tenant=who)
        return self._answer(who, arrived, await asyncio.shield(future))

    def _answer(self, who: str, arrived: float, result) \
            -> Tuple[int, Dict[str, object], Optional[float]]:
        """An accepted request's reply: an exception is counted
        ``failed``, a result's latency is observed."""
        if isinstance(result, BaseException):
            self.counts.add("failed", tenant=who)
            return self._server_error(result)
        self._latency[who].observe(time.monotonic() - arrived)
        return 200, result, None

    def _shed(self, who: str, decision) \
            -> Tuple[int, Dict[str, object], float]:
        self.counts.add("shed_queue" if decision.reason == "queue_full"
                        else "shed_overload", tenant=who)
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
        if isinstance(exc, WireError):
            return exc.status, exc.body(), exc.retry_after
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
                if job.key[0] == "deploy":
                    result = deploy_result_wire(
                        await self.service.submit(job.work))
                else:
                    outcome = await self.service.compile(
                        job.work["source"], job.work["name"],
                        **(job.work["options"] or {}))
                    result = {"artifact_key": outcome.key,
                              "name": job.work["name"],
                              "cache_hit": outcome.cache_hit,
                              "latency_s": outcome.latency}
            except BaseException as exc:
                job.resolve(exc)
                if isinstance(exc, asyncio.CancelledError):
                    raise          # shutdown mid-job: really stop
            else:
                job.resolve(result)
            finally:
                self._pending.pop(job.key, None)
                self.admission.on_finish(time.monotonic() - started)
                self._queue.task_done()

    # -- observability ------------------------------------------------------

    def _healthz(self) -> Dict[str, object]:
        return {
            "status": "ok",
            "uptime_s": round(time.monotonic() - self._started, 3),
            "queue_depth": self.admission.queued,
            "workers": self.config.workers,
        }

    def stats_snapshot(self) -> Dict[str, object]:
        """The ``/stats`` payload: edge totals + queue + one row per
        tenant + routing + the full service-core snapshot + tier-2
        build provenance."""
        from repro.targets import dispatch
        from repro.vm import threaded
        totals = self.counts.snapshot()
        rows = self.counts.split("tenant")
        idle = dict.fromkeys(totals, 0)
        tenants = self.tenants if self.tenants is not None \
            else (self._anonymous,)
        edge = _tally(totals, LatencyHistogram.merged(
            self._latency.values()))
        edge.update(
            uptime_s=round(time.monotonic() - self._started, 3),
            auth_failures={"unauthorized": totals["auth_unauthorized"],
                           "forbidden": totals["auth_forbidden"]},
            queue=self.admission.as_dict(),
            tenants={tenant.name: _tally(
                rows.get(tenant.name, idle),
                self._latency.get(tenant.name) or LatencyHistogram())
                for tenant in tenants},
            routes=(self.router.route_counters()
                    if self.router is not None else None))
        return {
            "edge": edge,
            "service": self.core.stats(),
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
                        help="route for offline compiles and cold "
                             "fan-outs (process/thread/inline)")
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
