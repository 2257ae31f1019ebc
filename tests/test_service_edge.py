"""The serving edge: wire schema, tenancy, admission, routing.

Unit tests cover the pure pieces (token buckets with an injected
clock, the admission gate's arithmetic, the latency histogram, wire
validation); integration tests boot a real :class:`EdgeServer` on an
ephemeral port and talk to it with :class:`EdgeClient`, asserting on
the exact HTTP statuses and structured error codes remote clients
would see — 401 vs 403 vs 429 vs 503 are the edge's contract, not
implementation detail.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.service.edge import (
    AdaptiveExecutor, AdmissionController, EdgeClient, EdgeConfig,
    EdgeServer, Tenant, TenantTable, TokenBucket, WireError,
    parse_compile_request, parse_deploy_request,
)
from repro.service.edge.server import MAX_BODY_BYTES
from repro.telemetry import LatencyHistogram
from repro.workloads import TABLE1
from tests.support import timeless

SAXPY = TABLE1["saxpy_fp"].source
SUM_U8 = TABLE1["sum_u8"].source


class FakeClock:
    def __init__(self, now: float = 100.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ---------------------------------------------------------------------------
# token buckets
# ---------------------------------------------------------------------------

class TestTokenBucket:
    def test_burst_then_empty(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=3, clock=clock)
        assert [bucket.try_take() for _ in range(4)] == \
            [True, True, True, False]

    def test_refill_timing_is_exact(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=2, clock=clock)
        assert bucket.try_take() and bucket.try_take()
        assert not bucket.try_take()
        # 2 tokens/s: after 0.4s there is still < 1 token
        clock.advance(0.4)
        assert not bucket.try_take()
        # ...and at 0.5s exactly one token has accrued
        clock.advance(0.1)
        assert bucket.try_take()
        assert not bucket.try_take()

    def test_refill_caps_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=100.0, burst=2, clock=clock)
        clock.advance(3600)
        assert bucket.available == pytest.approx(2.0)

    def test_retry_after_names_the_deficit(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=4.0, burst=1, clock=clock)
        assert bucket.try_take()
        # empty; one token accrues in 1/4 s
        assert bucket.retry_after() == pytest.approx(0.25)
        clock.advance(0.25)
        assert bucket.retry_after() == pytest.approx(0.0)

    def test_unlimited_bucket_never_refuses(self):
        bucket = TokenBucket(rate=None)
        assert all(bucket.try_take() for _ in range(1000))
        assert bucket.retry_after() == 0.0

    def test_invalid_shapes_rejected(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0)


# ---------------------------------------------------------------------------
# admission arithmetic
# ---------------------------------------------------------------------------

class TestAdmissionController:
    def test_queue_bound(self):
        gate = AdmissionController(capacity=2, max_wait_s=None,
                                   workers=1)
        assert gate.evaluate().admitted
        gate.on_enqueue()
        gate.on_enqueue()
        decision = gate.evaluate()
        assert not decision.admitted
        assert decision.reason == "queue_full"
        assert decision.queue_depth == 2

    def test_estimated_wait_gate(self):
        gate = AdmissionController(capacity=100, max_wait_s=1.0,
                                   workers=2)
        # no completions yet: EWMA is 0, only the depth bound applies
        gate.on_enqueue()
        assert gate.evaluate().admitted
        # one completion at 0.5s seeds the EWMA
        gate.on_start()
        gate.on_finish(0.5)
        # backlog of 3 queued + 1 in service at 0.5s each over 2
        # workers -> 1.0s estimated wait, still admitted (gate is >)
        for _ in range(4):
            gate.on_enqueue()
        gate.on_start()
        assert gate.estimated_wait_s() == pytest.approx(1.0)
        assert gate.evaluate().admitted
        gate.on_enqueue()
        decision = gate.evaluate()
        assert not decision.admitted
        assert decision.reason == "overload"
        assert decision.estimated_wait_s > 1.0

    def test_ewma_tracks_recent_service_times(self):
        gate = AdmissionController(capacity=10, max_wait_s=5.0,
                                   workers=1)
        gate.on_enqueue(); gate.on_start(); gate.on_finish(1.0)
        assert gate.ewma_service_s == pytest.approx(1.0)
        gate.on_enqueue(); gate.on_start(); gate.on_finish(2.0)
        assert gate.ewma_service_s == pytest.approx(1.2)


class TestLatencyHistogram:
    def test_percentiles_bracket_the_data(self):
        hist = LatencyHistogram()
        for _ in range(99):
            hist.observe(0.010)
        hist.observe(1.0)
        assert 0.005 <= hist.percentile(0.50) <= 0.020
        assert hist.percentile(0.99) <= 1.1
        assert hist.percentile(0.99) > hist.percentile(0.50)
        snapshot = hist.as_dict()
        assert snapshot["count"] == 100
        assert snapshot["max_ms"] == pytest.approx(1000.0)

    def test_empty_histogram(self):
        hist = LatencyHistogram()
        assert hist.percentile(0.99) == 0.0
        assert hist.as_dict()["count"] == 0


# ---------------------------------------------------------------------------
# wire validation
# ---------------------------------------------------------------------------

class TestWireValidation:
    def test_deploy_roundtrip(self):
        request = parse_deploy_request(
            {"source": SAXPY, "name": "m", "targets": ["x86", "arm"],
             "flow": "split", "tolerate_failures": True})
        assert request.name == "m"
        assert request.targets == ["x86", "arm"]
        assert request.tolerate_failures is True

    @pytest.mark.parametrize("payload,code", [
        ([1, 2], "bad_request"),                       # not an object
        ({"source": ""}, "bad_request"),               # empty source
        ({"source": "x"}, "bad_request"),              # no targets
        ({"source": "x", "targets": []}, "bad_request"),
        ({"source": "x", "targets": ["x86"],
          "tolerate_failures": "yes"}, "bad_request"),
        ({"source": "x", "targets": ["x86"],
          "typo_field": 1}, "bad_request"),
        ({"source": "x", "targets": ["vax"]}, "unknown_target"),
        ({"source": "x", "targets": ["x86"],
          "flow": "warp"}, "unknown_flow"),
        ({"source": "x", "targets": ["x86"], "flow": 3}, "bad_request"),
        ({"source": "x", "targets": ["x86"], "name": ""}, "bad_request"),
        ({"source": "x", "targets": ["x86"], "options": [1]},
         "bad_request"),
    ])
    def test_deploy_rejections(self, payload, code):
        with pytest.raises(WireError) as exc_info:
            parse_deploy_request(payload)
        assert exc_info.value.status == 400
        assert exc_info.value.code == code

    def test_retry_after_is_whole_seconds_and_at_least_one(self):
        from repro.service.edge.wire import retry_after_header
        assert [retry_after_header(s) for s in (None, 0, 0.2, 1.5)] == \
            [1, 1, 1, 2]

    def test_compile_rejects_deploy_fields(self):
        with pytest.raises(WireError) as exc_info:
            parse_compile_request({"source": "x", "targets": ["x86"]})
        assert "targets" in exc_info.value.message


# ---------------------------------------------------------------------------
# tenancy
# ---------------------------------------------------------------------------

class TestTenantTable:
    def table(self, clock=None):
        clock = clock or FakeClock()
        return TenantTable([
            Tenant("acme", api_key="k-acme", rate=10, burst=5,
                   clock=clock),
            Tenant("evil", api_key="k-evil", enabled=False,
                   clock=clock),
        ])

    def test_missing_key_is_401(self):
        with pytest.raises(WireError) as exc_info:
            self.table().authenticate(None)
        assert exc_info.value.status == 401

    def test_unknown_key_is_401(self):
        with pytest.raises(WireError) as exc_info:
            self.table().authenticate("nope")
        assert exc_info.value.status == 401

    def test_disabled_tenant_is_403(self):
        with pytest.raises(WireError) as exc_info:
            self.table().authenticate("k-evil")
        assert exc_info.value.status == 403

    def test_known_key_resolves(self):
        assert self.table().authenticate("k-acme").name == "acme"

    def test_charge_raises_429_with_retry_after(self):
        clock = FakeClock()
        tenant = Tenant("t", api_key="k", rate=2.0, burst=1,
                        clock=clock)
        tenant.charge()
        with pytest.raises(WireError) as exc_info:
            tenant.charge()
        assert exc_info.value.status == 429
        assert exc_info.value.retry_after == pytest.approx(0.5)

    def test_from_config_rejects_unknown_fields(self):
        with pytest.raises(ValueError):
            TenantTable.from_config(
                {"tenants": [{"name": "a", "api_key": "k",
                              "rait": 10}]})

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError):
            TenantTable([Tenant("a", api_key="k"),
                         Tenant("b", api_key="k")])

    def test_every_table_refusal(self):
        with pytest.raises(ValueError, match="needs an api_key"):
            TenantTable([Tenant("a", api_key=None)])
        with pytest.raises(ValueError, match="duplicate tenant name 'a'"):
            TenantTable([Tenant("a", api_key="k1"),
                         Tenant("a", api_key="k2")])

    @pytest.mark.parametrize("wrap", [lambda e: {"tenants": e},
                                      lambda e: e],
                             ids=["object", "list"])
    def test_from_config_builds_each_tenant(self, wrap):
        """The ``--tenants`` file, as an object or a bare list: every
        field it may name lands on the tenant."""
        clock = FakeClock()
        table = TenantTable.from_config(wrap([
            {"name": "a", "api_key": "ka", "rate": 2, "burst": 1},
            {"name": "b", "api_key": "kb", "enabled": False},
        ]), clock=clock)
        assert len(table) == 2
        a = table.authenticate("ka")
        a.charge()
        with pytest.raises(WireError) as info:
            a.charge()
        assert info.value.retry_after == pytest.approx(0.5)
        with pytest.raises(WireError) as info:
            table.authenticate("kb")
        assert info.value.status == 403


# ---------------------------------------------------------------------------
# the server, over real sockets
# ---------------------------------------------------------------------------

def edge_config(**overrides) -> EdgeConfig:
    """Inline executors: tests exercise routing/admission, not pools."""
    defaults = dict(port=0, workers=2, queue_depth=8,
                    cold_executor="inline", warm_executor="inline")
    defaults.update(overrides)
    return EdgeConfig(**defaults)


def run_edge(config: EdgeConfig, scenario):
    """Boot an EdgeServer, run ``await scenario(edge)``, tear down."""
    async def main():
        async with EdgeServer(config) as edge:
            return await scenario(edge)
    return asyncio.run(main())


class TestEdgeServer:
    def test_healthz_needs_no_auth(self):
        table = TenantTable([Tenant("a", api_key="k")])
        async def scenario(edge):
            async with EdgeClient("127.0.0.1", edge.port) as client:
                return await client.healthz()
        status, _, body = run_edge(edge_config(tenants=table),
                                   scenario)
        assert status == 200
        assert body["status"] == "ok"

    def test_auth_failures_on_the_wire(self):
        table = TenantTable([
            Tenant("a", api_key="k-a"),
            Tenant("off", api_key="k-off", enabled=False)])
        async def scenario(edge):
            results = {}
            async with EdgeClient("127.0.0.1", edge.port) as client:
                results["missing"] = await client.deploy(
                    SAXPY, ["x86"])
            async with EdgeClient("127.0.0.1", edge.port,
                                  api_key="bogus") as client:
                results["unknown"] = await client.stats()
            async with EdgeClient("127.0.0.1", edge.port,
                                  api_key="k-off") as client:
                results["disabled"] = await client.deploy(
                    SAXPY, ["x86"])
            return results
        results = run_edge(edge_config(tenants=table), scenario)
        status, _, body = results["missing"]
        assert (status, body["error"]["code"]) == (401, "unauthorized")
        status, _, body = results["unknown"]
        assert (status, body["error"]["code"]) == (401, "unauthorized")
        status, _, body = results["disabled"]
        assert (status, body["error"]["code"]) == (403, "forbidden")

    def test_quota_429_carries_retry_after(self):
        table = TenantTable([Tenant("a", api_key="k-a", rate=0.001,
                                    burst=1)])
        async def scenario(edge):
            async with EdgeClient("127.0.0.1", edge.port,
                                  api_key="k-a") as client:
                first = await client.deploy(SAXPY, ["x86"], name="m")
                second = await client.deploy(SAXPY, ["x86"], name="m")
                _, _, stats = await client.request(
                    "GET", "/stats")
            return first, second, stats
        # the stats call itself would be charged too — but its bucket
        # is already empty, so fetch stats through a second tenant?
        # No: /stats auth succeeds but charge() only guards work
        # endpoints, so the empty bucket does not block it.
        first, second, stats = run_edge(edge_config(tenants=table),
                                        scenario)
        assert first[0] == 200
        status, headers, body = second
        assert status == 429
        assert body["error"]["code"] == "quota_exhausted"
        assert int(headers["retry-after"]) >= 1
        tenant = stats["edge"]["tenants"]["a"]
        assert tenant["shed"]["quota"] == 1
        assert tenant["accepted"] == 1

    def test_tenant_isolation(self):
        """Tenant A saturating its own quota never sheds tenant B."""
        table = TenantTable([
            Tenant("a", api_key="k-a", rate=0.001, burst=1),
            Tenant("b", api_key="k-b", rate=1000, burst=1000)])
        async def scenario(edge):
            async with EdgeClient("127.0.0.1", edge.port,
                                  api_key="k-a") as a, \
                    EdgeClient("127.0.0.1", edge.port,
                               api_key="k-b") as b:
                a_statuses = []
                for index in range(5):
                    status, _, _ = await a.deploy(
                        SAXPY, ["x86"], name=f"a{index}")
                    a_statuses.append(status)
                b_statuses = []
                for index in range(5):
                    status, _, _ = await b.deploy(
                        SAXPY, ["x86"], name="b")
                    b_statuses.append(status)
                _, _, stats = await b.stats()
            return a_statuses, b_statuses, stats
        a_statuses, b_statuses, stats = run_edge(
            edge_config(tenants=table), scenario)
        assert a_statuses == [200, 429, 429, 429, 429]
        assert b_statuses == [200] * 5
        tenants = stats["edge"]["tenants"]
        assert tenants["a"]["shed"]["quota"] == 4
        assert tenants["b"]["shed"]["total"] == 0
        assert tenants["b"]["accepted"] == 5

    def test_bounded_queue_sheds_under_herd(self):
        """Distinct requests past the queue bound get structured
        503 queue_full with Retry-After; admitted ones complete."""
        async def scenario(edge):
            real_submit = edge.service.submit
            async def slow_submit(request):
                await asyncio.sleep(0.25)
                return await real_submit(request)
            edge.service.submit = slow_submit

            async def one(index):
                async with EdgeClient("127.0.0.1",
                                      edge.port) as client:
                    return await client.deploy(
                        SAXPY, ["x86"], name=f"m{index}")
            results = await asyncio.gather(*(one(i) for i in range(8)))
            _, _, stats = await EdgeClient(
                "127.0.0.1", edge.port).stats()
            return results, stats
        results, stats = run_edge(
            edge_config(workers=1, queue_depth=2, max_wait_s=None),
            scenario)
        statuses = [status for status, _, _ in results]
        accepted = [r for r in results if r[0] == 200]
        shed = [r for r in results if r[0] == 503]
        assert len(accepted) >= 1
        assert len(shed) >= 1
        assert len(accepted) + len(shed) == 8
        for status, headers, body in shed:
            assert body["error"]["code"] == "queue_full"
            assert int(headers["retry-after"]) >= 1
            assert body["error"]["queue_capacity"] == 2
        for status, _, body in accepted:
            assert body["deployments"]["x86"]["ok"]
        assert stats["edge"]["shed"]["queue_full"] == len(shed)

    def test_identical_herd_coalesces_onto_one_queue_slot(self):
        """A thundering herd of *identical* requests consumes one
        queue slot and one compile; every caller gets the result."""
        async def scenario(edge):
            real_submit = edge.service.submit
            async def slow_submit(request):
                await asyncio.sleep(0.2)
                return await real_submit(request)
            edge.service.submit = slow_submit

            async def one():
                async with EdgeClient("127.0.0.1",
                                      edge.port) as client:
                    return await client.deploy(SAXPY, ["x86"],
                                               name="same")
            results = await asyncio.gather(*(one() for _ in range(6)))
            _, _, stats = await EdgeClient(
                "127.0.0.1", edge.port).stats()
            return results, stats
        results, stats = run_edge(
            edge_config(workers=1, queue_depth=1, max_wait_s=None),
            scenario)
        assert [status for status, _, _ in results] == [200] * 6
        edge_stats = stats["edge"]
        assert edge_stats["accepted"] == 6
        assert edge_stats["coalesced"] == 5
        assert edge_stats["shed"]["total"] == 0

    def test_failure_policy_is_part_of_coalescing_identity(self):
        """Two concurrent /deploy requests identical except for
        ``tolerate_failures`` must NOT share an edge job: the strict
        one is promised an error on the first failing target, the
        tolerant one a partial result with the error recorded — one
        served job cannot honor both contracts."""
        from repro.service import CompilationService, CompileRequest
        core = CompilationService(executor="inline")

        def failing(artifact, target, flow):
            raise MemoryError("JIT always fails in this test")

        core.pool._compile = failing
        strict = CompileRequest(source=SAXPY, name="m", targets=["x86"])
        tolerant = CompileRequest(source=SAXPY, name="m",
                                  targets=["x86"],
                                  tolerate_failures=True)
        assert CompilationService.request_key(strict) != \
            CompilationService.request_key(tolerant)

        async def scenario():
            async with EdgeServer(edge_config(workers=1,
                                              max_wait_s=None),
                                  service=core) as edge:
                # hold the one worker so both requests are pending
                # together: identical keys would coalesce here
                real_submit = edge.service.submit
                async def slow_submit(request):
                    await asyncio.sleep(0.2)
                    return await real_submit(request)
                edge.service.submit = slow_submit

                async def one(tolerate):
                    async with EdgeClient("127.0.0.1",
                                          edge.port) as client:
                        return await client.deploy(
                            SAXPY, ["x86"], name="m",
                            tolerate_failures=tolerate)
                results = await asyncio.gather(one(False), one(True))
                return results, edge.stats_snapshot()
        try:
            (strict_reply, tolerant_reply), stats = \
                asyncio.run(scenario())
        finally:
            core.shutdown()
        assert stats["edge"]["accepted"] == 2
        assert stats["edge"]["coalesced"] == 0
        # the strict caller got its promised error...
        assert strict_reply[0] == 500
        assert "MemoryError" in strict_reply[2]["error"]["message"]
        # ...the tolerant caller its promised partial result
        assert tolerant_reply[0] == 200
        deployment = tolerant_reply[2]["deployments"]["x86"]
        assert not deployment["ok"]
        assert deployment["error"]["type"] == "MemoryError"
        # each ran its own fan-out; the offline halves still shared
        # one artifact compile, as identical sources should
        executor = stats["service"]["deploy"]["executors"]["inline"]
        assert executor["submitted"] == 2 and executor["failed"] == 2
        assert stats["service"]["artifact"]["stores"] == 1

    def test_oversized_request_and_header_lines_are_431(self):
        """A request line or a header line longer than the stream
        reader will buffer is answered 431 and closed; the handler
        survives and the server keeps serving."""
        async def raw(edge, head: bytes):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", edge.port)
            writer.write(head)
            await writer.drain()
            reply = await reader.read()         # until the server closes
            writer.close()
            head, _, body = reply.partition(b"\r\n\r\n")
            return head.decode("latin-1"), json.loads(body)

        async def scenario(edge):
            long_line = await raw(
                edge, b"GET /" + b"a" * 100_000 + b" HTTP/1.1\r\n\r\n")
            long_header = await raw(
                edge, b"GET /healthz HTTP/1.1\r\nX-Junk: " +
                b"b" * 100_000 + b"\r\n\r\n")
            async with EdgeClient("127.0.0.1", edge.port) as client:
                health = await client.healthz()
            return long_line, long_header, health
        long_line, long_header, health = run_edge(edge_config(),
                                                  scenario)
        for head, body in (long_line, long_header):
            assert head.startswith("HTTP/1.1 431 ")
            assert "Connection: close" in head
            assert body["error"]["code"] == "request_too_large"
        assert health[0] == 200

    def test_stats_shape(self):
        async def scenario(edge):
            async with EdgeClient("127.0.0.1", edge.port) as client:
                await client.deploy(SAXPY, ["x86", "arm"], name="m")
                return await client.stats()
        _, _, stats = run_edge(edge_config(), scenario)
        edge_stats = stats["edge"]
        assert edge_stats["requests"] == 1
        assert edge_stats["latency"]["count"] == 1
        assert edge_stats["queue"]["capacity"] == 8
        assert edge_stats["routes"]["policy"] == "first-fanout-cold"
        assert stats["service"]["artifact"]["disk_hits"] == 0
        assert "vm" in stats["tier2"] and "sim" in stats["tier2"]

    def test_counters_are_conserved(self):
        """A mixed run — quota 429s, queue-full 503s, a coalesced
        herd, a compile error, an unauthenticated call — leaves books
        that balance: every request is accepted or shed, every
        accepted one is served or failed, the edge totals are the sum
        of the tenant rows, and nothing is left in flight."""
        table = TenantTable([
            Tenant("tiny", api_key="k-tiny", rate=0.001, burst=1),
            Tenant("big", api_key="k-big", rate=1000, burst=1000)])

        async def scenario(edge):
            real_submit = edge.service.submit

            async def slow_submit(request):
                await asyncio.sleep(0.2)
                return await real_submit(request)
            edge.service.submit = slow_submit

            async def deploy(key, source, name):
                async with EdgeClient("127.0.0.1", edge.port,
                                      api_key=key) as client:
                    return (await client.deploy(source, ["x86"],
                                                name=name))[0]

            statuses = [await deploy("k-tiny", SAXPY, "t")
                        for _ in range(3)]
            herd = [asyncio.create_task(deploy("k-big", SAXPY, "herd"))
                    for _ in range(4)]
            await asyncio.sleep(0.05)       # the herd holds the worker
            distinct = [asyncio.create_task(
                deploy("k-big", SUM_U8, f"d{index}"))
                for index in range(3)]
            statuses += await asyncio.gather(*herd, *distinct)
            statuses.append(await deploy("k-big", "this is ( not dsl",
                                         "bad"))
            statuses.append(await deploy(None, SAXPY, "anon"))
            return statuses, edge.stats_snapshot(), edge

        statuses, stats, edge = run_edge(
            edge_config(tenants=table, workers=1, queue_depth=1,
                        max_wait_s=None), scenario)
        assert sorted(set(statuses)) == [200, 401, 422, 429, 503]
        totals, tenants = stats["edge"], stats["edge"]["tenants"]
        assert totals["shed"]["quota"] == 2
        assert totals["shed"]["queue_full"] >= 1
        assert totals["coalesced"] == 3
        assert totals["failed"] == 1
        assert totals["auth_failures"]["unauthorized"] == 1

        for row in (totals, *tenants.values()):
            assert row["requests"] == row["accepted"] + \
                row["shed"]["total"]
            assert row["accepted"] == row["latency"]["count"] + \
                row["failed"]

        def counts(row, prefix=()):
            """Every count of a row, by key path (latencies left out:
            a percentile does not sum)."""
            flat = {}
            for key, value in row.items():
                if isinstance(value, dict):
                    flat.update(counts(value, prefix + (key,)))
                elif not key.endswith("_ms"):
                    flat[prefix + (key,)] = value
            return flat

        edge_counts = counts(totals)
        rows = [counts(row) for row in tenants.values()]
        for path in rows[0]:
            assert edge_counts[path] == sum(row[path] for row in rows), \
                path
        assert edge._pending == {}
        assert edge.admission.queued == edge.admission.in_service == 0
        router = stats["edge"]["routes"]
        executors = [stats["service"]["deploy"]["executors"]["adaptive"],
                     router["cold"]["stats"], router["warm"]["stats"]]
        assert [e["in_flight"] for e in executors] == [0, 0, 0]

    def test_malformed_json_and_bad_routes(self):
        async def scenario(edge):
            async with EdgeClient("127.0.0.1", edge.port) as client:
                results = {}
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", edge.port)
                writer.write(b"POST /deploy HTTP/1.1\r\n"
                             b"Content-Length: 9\r\n\r\nnot json!")
                await writer.drain()
                line = await reader.readline()
                results["bad_json"] = int(
                    line.decode().split(" ")[1])
                writer.close()
                results["not_found"] = (await client.request(
                    "GET", "/nope"))[0]
                results["bad_method"] = (await client.request(
                    "POST", "/healthz"))[0]
            return results
        results = run_edge(edge_config(), scenario)
        assert results["bad_json"] == 400
        assert results["not_found"] == 404
        assert results["bad_method"] == 405

    def test_bad_content_length_is_answered(self):
        """A length that is not plain ASCII digits is a 400 and one
        past the cap a 413, each answered before the connection
        closes; the next connection is served."""
        rows = [(b"-5", 400), (b"abc", 400),
                (str(MAX_BODY_BYTES + 1).encode(), 413)]

        async def scenario(edge):
            seen = []
            for length, _ in rows:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", edge.port)
                writer.write(b"POST /deploy HTTP/1.1\r\n"
                             b"Content-Length: " + length + b"\r\n\r\n")
                await writer.drain()
                line = await reader.readline()
                writer.close()
                async with EdgeClient("127.0.0.1", edge.port) as client:
                    health = (await client.request("GET", "/healthz"))[0]
                seen.append((line.split(b" ")[1:2], health))
            return seen
        seen = run_edge(edge_config(), scenario)
        assert seen == [([str(status).encode()], 200)
                        for _, status in rows]

    @pytest.mark.parametrize("fields", [
        b"NoColonHere\r\n",
        b"Content-Length : 2\r\n",
        b"Content-Length: 2\r\nContent-Length: 0\r\n",
        b"X-One: a\nX-Two: b\r\n",
    ], ids=["no-colon", "space-before-colon", "two-lengths",
            "bare-lf-in-field"])
    def test_malformed_header_fields_are_400(self, fields):
        """RFC 9112 §5: a field line with no colon, whitespace between
        a field name and its colon, two differing Content-Lengths (the
        last one would frame the body) and a bare LF inside the head
        are each one 400 and a close; the next connection is
        served."""
        async def scenario(edge):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", edge.port)
            writer.write(b"GET /healthz HTTP/1.1\r\n" + fields +
                         b"\r\n{}")
            await writer.drain()
            reply = await reader.read()         # until the server closes
            writer.close()
            async with EdgeClient("127.0.0.1", edge.port) as client:
                return reply, (await client.healthz())[0]
        reply, health = run_edge(edge_config(), scenario)
        head, _, body = reply.partition(b"\r\n\r\n")
        head = head.decode("latin-1")
        assert head.startswith("HTTP/1.1 400 Bad Request\r\n")
        assert "Connection: close" in head
        assert json.loads(body)["error"]["code"] == "bad_request"
        assert health == 200

    def test_bare_lf_head_is_not_a_request(self):
        """The head is read up to CRLF CRLF, so a head whose lines end
        in bare LF never completes: the peer's close drops it with no
        answer, and the server keeps serving."""
        async def scenario(edge):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", edge.port)
            writer.write(b"GET /healthz HTTP/1.1\nHost: x\n\n")
            writer.write_eof()
            reply = await reader.read()
            writer.close()
            async with EdgeClient("127.0.0.1", edge.port) as client:
                return reply, (await client.healthz())[0]
        assert run_edge(edge_config(), scenario) == (b"", 200)

    def test_chunked_body_is_refused_in_one_response(self):
        """A ``Transfer-Encoding`` body is not read: the request gets
        one 501 and the connection closes, so the chunk bytes are
        never parsed as a second request."""
        async def scenario(edge):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", edge.port)
            body = json.dumps({"source": SAXPY, "name": "m"}).encode()
            writer.write(b"POST /compile HTTP/1.1\r\n"
                         b"Transfer-Encoding: chunked\r\n\r\n"
                         + b"%x\r\n" % len(body) + body
                         + b"\r\n0\r\n\r\n")
            await writer.drain()
            reply = await reader.read()         # until the server closes
            writer.close()
            return reply
        reply = run_edge(edge_config(), scenario)
        head, _, body = reply.partition(b"\r\n\r\n")
        head = head.decode("latin-1")
        assert head.startswith("HTTP/1.1 501 Not Implemented\r\n")
        assert "Connection: close" in head
        assert json.loads(body)["error"]["code"] == "not_implemented"
        assert b"HTTP/1.1" not in body      # exactly one response

    def test_source_errors_are_422_not_500(self):
        async def scenario(edge):
            async with EdgeClient("127.0.0.1", edge.port) as client:
                return await client.deploy("this is ( not dsl",
                                           ["x86"])
        status, _, body = run_edge(edge_config(), scenario)
        assert status == 422
        assert body["error"]["code"] == "compile_error"

    @pytest.mark.parametrize("source", [
        "this is ( not dsl",                        # parse error
        "int f(int a) { return b; }",               # semantic error
    ])
    def test_source_errors_read_the_same_on_both_routes(self, source):
        """A compile error raised in a worker process answers what the
        same error raised in the serving process answers."""
        def reply(cold: str):
            async def scenario(edge):
                async with EdgeClient("127.0.0.1", edge.port) as client:
                    return await client.deploy(source, ["x86"])
            status, _, body = run_edge(
                edge_config(cold_executor=cold, warm_executor="thread"),
                scenario)
            return status, body

        inline = reply("inline")
        assert inline[0] == 422
        assert inline[1]["error"]["code"] == "compile_error"
        assert reply("process") == inline

    def test_unknown_offline_option_is_400_on_both_paths(self):
        """Keying a request validates its offline options: an unknown
        one, or one of the wrong type, is a 400 on ``/deploy`` as on
        ``/compile``, before anything is queued or compiled."""
        rows = [({"bogus": 1}, "bogus"), ({"hotness": "x"}, "hotness"),
                ({"hotness": {"saxpy": "hot"}}, "hotness"),
                ({"pipeline": 5}, "pipeline"),
                ({"pipeline": {"passes": 5}}, "pipeline"),
                ({"pipeline": {"passes": ["nope"]}}, "nope"),
                ({"pipeline": {"vectorize": "false"}}, "vectorize"),
                ({"pipeline": {"unroll": 2.7}}, "unroll"),
                ({"do_vectorize": False}, "do_vectorize")]

        async def scenario(edge):
            replies = []
            async with EdgeClient("127.0.0.1", edge.port) as client:
                for bogus, named in rows:
                    for reply in (
                            await client.deploy(SAXPY, ["x86"],
                                                options=bogus),
                            await client.compile(SAXPY, options=bogus)):
                        replies.append((named, reply))
            return replies, edge.stats_snapshot()

        replies, stats = run_edge(edge_config(), scenario)
        for named, (status, _, body) in replies:
            assert status == 400, named
            assert body["error"]["code"] == "bad_request"
            assert named in body["error"]["message"]
        assert stats["edge"]["bad_requests"] == 2 * len(rows)
        assert stats["edge"]["accepted"] == 0
        assert stats["service"]["requests"] == 0


    def test_compile_answers_its_key_then_hits_the_cache(self):
        """``/compile`` answers the artifact key and whether the cache
        held it: a cold compile, then the same source from the cache
        under the same key."""
        async def scenario(edge):
            async with EdgeClient("127.0.0.1", edge.port) as client:
                cold = await client.compile(SAXPY, "m")
                warm = await client.compile(SAXPY, "m")
            return cold, warm, edge.stats_snapshot()

        cold, warm, stats = run_edge(edge_config(), scenario)
        assert cold[0] == warm[0] == 200
        assert cold[2]["name"] == warm[2]["name"] == "m"
        assert cold[2]["artifact_key"] == warm[2]["artifact_key"]
        assert len(cold[2]["artifact_key"]) == 64
        assert (cold[2]["cache_hit"], warm[2]["cache_hit"]) == (False, True)
        assert cold[2]["latency_s"] >= 0
        assert stats["edge"]["accepted"] == 2



class TestClientReconnects:
    """The client's side of a connection that ends."""

    def test_one_reconnect_after_the_server_drops_it(self):
        """A server that reads the first request and hangs up: the
        client connects again once and gets its answer there."""
        async def main():
            served = []

            async def handle(reader, writer):
                await reader.readuntil(b"\r\n\r\n")
                served.append(len(served))
                if len(served) > 1:
                    writer.write(b"HTTP/1.1 200 OK\r\n"
                                 b"Content-Length: 2\r\n\r\n{}")
                    await writer.drain()
                writer.close()

            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                client = EdgeClient("127.0.0.1", port)
                reply = await client.request("GET", "/healthz")
                await client.close()
                return reply, served
            finally:
                server.close()
                await server.wait_closed()

        (status, _, body), served = asyncio.run(main())
        assert (status, body, served) == (200, {}, [0, 1])

    def test_server_close_and_a_reset_on_close(self):
        """``Connection: close`` from the server closes the client's
        side; a reset while closing is not an error."""
        class Resetting:
            def close(self):
                pass

            def is_closing(self):
                return False

            async def wait_closed(self):
                raise ConnectionResetError

        async def scenario(edge):
            client = EdgeClient("127.0.0.1", edge.port)
            status, headers, _ = await client.request(
                "POST", "/compile", {"source": "x" * MAX_BODY_BYTES})
            closed = client._writer is None
            client._writer = Resetting()
            await client.close()
            return status, headers["connection"], closed, client._writer

        assert run_edge(edge_config(), scenario) == \
            (413, "close", True, None)


class TestEdgeFaults:
    """What the edge answers when something past the parser fails, and
    how a connection ends: by the client's ``Connection: close``, or by
    a peer that resets it."""

    def test_bearer_key_and_connection_close(self):
        table = TenantTable([Tenant("a", api_key="k-a")])

        async def scenario(edge):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", edge.port)
            writer.write(b"GET /stats HTTP/1.1\r\n"
                         b"Authorization: Bearer  k-a \r\n"
                         b"Connection: close\r\n\r\n")
            await writer.drain()
            reply = await reader.read()       # to the server's close
            writer.close()
            return reply

        reply = run_edge(edge_config(tenants=table), scenario)
        assert reply.startswith(b"HTTP/1.1 200 ")
        assert b"\r\nConnection: close\r\n" in reply

    def test_a_peer_that_resets_is_dropped_quietly(self):
        """The answer's write and the close both meet a reset: the
        connection handler returns without raising."""
        class Resetting:
            def write(self, data):
                pass

            async def drain(self):
                raise ConnectionResetError

            def close(self):
                pass

            async def wait_closed(self):
                raise ConnectionResetError

        async def scenario(edge):
            reader = asyncio.StreamReader()
            reader.feed_data(b"GET /healthz HTTP/1.1\r\n\r\n")
            await edge._handle_connection(reader, Resetting())
            return edge.stats_snapshot()["edge"]["accepted"]

        assert run_edge(edge_config(), scenario) == 0

    def test_failed_analysis_is_a_lint_rejection(self, monkeypatch):
        """An analysis that raises leaves the function unanalyzed (the
        facts plane's one handler), which the admission lint refuses:
        the deploy is a 422, not a 500."""
        from repro.analysis import passes

        def broken(func, cfg):
            raise RuntimeError("analysis bug")

        monkeypatch.setattr(passes, "int_value_ranges", broken)

        async def scenario(edge):
            async with EdgeClient("127.0.0.1", edge.port) as client:
                return await client.deploy(SAXPY + "\n", ["x86"])

        status, _, body = run_edge(edge_config(), scenario)
        assert status == 422
        assert body["error"]["code"] == "lint_rejected"
        assert "analysis-failed" in body["error"]["message"]

    def test_a_wire_error_from_a_job_keeps_its_status(self):
        from repro.service.edge.wire import WireError

        async def refuse(*args, **kwargs):
            raise WireError(503, "unavailable", "no compiler today")

        async def scenario(edge):
            edge.service.compile = refuse
            async with EdgeClient("127.0.0.1", edge.port) as client:
                return await client.compile(SAXPY, "refused")

        status, _, body = run_edge(edge_config(), scenario)
        assert (status, body["error"]["code"]) == (503, "unavailable")

    def test_a_worker_cancelled_mid_job_stops(self):
        """Shutdown cancels a worker in the middle of a job: the job's
        waiter is answered and the worker really stops."""
        async def scenario(edge):
            started = asyncio.Event()

            async def hang(*args, **kwargs):
                started.set()
                await asyncio.Event().wait()

            edge.service.compile = hang
            async with EdgeClient("127.0.0.1", edge.port) as client:
                reply = asyncio.ensure_future(
                    client.compile(SAXPY, "held"))
                await started.wait()
                busy = [w for w in edge._workers if not w.done()]
                for worker in busy:
                    worker.cancel()
                done = await asyncio.gather(*busy, return_exceptions=True)
                status, _, body = await reply
            return done, status, body

        done, status, body = run_edge(edge_config(workers=1), scenario)
        assert [type(d).__name__ for d in done] == ["CancelledError"]
        assert (status, body["error"]["code"]) == (500, "internal_error")


# ---------------------------------------------------------------------------
# adaptive routing
# ---------------------------------------------------------------------------

class TestAdaptiveRouting:
    def test_first_fanout_cold_then_warm(self):
        """The whole first fan-out is cold, even on settled routes
        where its first image lands before its second target is
        submitted; the offline compile before it is cold too."""
        from repro.service import CompilationService
        executor = AdaptiveExecutor(cold="inline", warm="inline")
        service = CompilationService(executor=executor)
        try:
            artifact = service.compile(SAXPY, "m").artifact
            service.deploy_many(artifact, ["x86", "arm", "dsp"])
            after_first = executor.route_counters()
            # new targets on a now-warm artifact ride the warm route
            service.deploy_many(artifact, ["ppc", "sparc"])
            after_second = executor.route_counters()
        finally:
            service.shutdown()
        assert after_first["cold"]["submitted"] == 3
        assert after_first["warm"]["submitted"] == 0
        assert after_first["cold"]["stats"]["offline_submitted"] == 1
        assert after_second["warm"]["submitted"] == 2
        assert after_second["known_artifacts"] == 1

    def test_distinct_artifacts_classify_independently(self):
        executor = AdaptiveExecutor(cold="inline", warm="inline")
        from repro.service import CompilationService
        service = CompilationService(executor=executor)
        try:
            first = service.compile(SAXPY, "m1").artifact
            second = service.compile(SUM_U8, "m2").artifact
            service.deploy(first, "x86")
            assert executor.classify(second) == "cold"
            assert executor.classify(first) == "warm"
        finally:
            service.shutdown()

    def test_memo_hits_never_reach_the_executor(self):
        from repro.service import CompilationService
        executor = AdaptiveExecutor(cold="inline", warm="inline")
        service = CompilationService(executor=executor)
        try:
            artifact = service.compile(SAXPY, "m").artifact
            service.deploy_many(artifact, ["x86"])
            before = executor.route_counters()
            service.deploy_many(artifact, ["x86"])    # memoized
            after = executor.route_counters()
        finally:
            service.shutdown()
        total = lambda c: (c["cold"]["submitted"] +
                           c["warm"]["submitted"])
        assert total(after) == total(before)


# ---------------------------------------------------------------------------
# the resident path: a request served from memory stays on the loop
# ---------------------------------------------------------------------------

class TestResidentPath:
    def test_loop_never_compiles_reads_disk_or_waits(self, tmp_path,
                                                     monkeypatch):
        """Cold, resident, evicted-then-revived-from-disk and resident
        again: the compilers, the disk read and the single-flight run
        only on threads, a resident ``/deploy`` makes no thread hop,
        and the evicted artifact falls back to the thread path and
        still answers what the resident request answered."""
        from repro.service import ArtifactCache, deployment, executors
        from repro.service.singleflight import SingleFlight

        ran = []                            # (what, thread id)

        def spy(owner, name):
            original = getattr(owner, name)

            def spied(*args, **kwargs):
                ran.append((name, threading.get_ident()))
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, name, spied)

        spy(executors, "offline_compile")     # inline offline jobs
        spy(deployment, "compile_for_target")
        spy(ArtifactCache, "_load_persisted")
        spy(SingleFlight, "fly")
        hops = []
        to_thread = asyncio.to_thread

        async def counted(fn, *args, **kwargs):
            hops.append(fn.__name__)
            return await to_thread(fn, *args, **kwargs)
        monkeypatch.setattr(asyncio, "to_thread", counted)

        async def scenario(edge):
            replies, hop_counts = [], []
            async with EdgeClient("127.0.0.1", edge.port) as client:
                for evict in (False, False, True, False):
                    if evict:
                        edge.core.cache.clear()
                    before = len(hops)
                    replies.append(await client.deploy(
                        SAXPY, ["x86", "arm"], name="m"))
                    hop_counts.append(len(hops) - before)
            return threading.get_ident(), replies, hop_counts, \
                edge.stats_snapshot()

        loop_thread, replies, hop_counts, stats = run_edge(
            edge_config(service_kwargs={"persist_dir": tmp_path}),
            scenario)
        assert [status for status, _, _ in replies] == [200] * 4
        cold, resident, revived, again = [body for _, _, body in replies]
        assert hop_counts == [1, 0, 1, 0]
        assert {name for name, _ in ran} == {
            "offline_compile", "compile_for_target", "_load_persisted",
            "fly"}
        assert [name for name, thread in ran if thread == loop_thread] \
            == []
        assert not cold["fully_cached"] and resident["fully_cached"]
        assert timeless(revived) == timeless(resident) == timeless(again)
        assert stats["service"]["artifact"]["disk_hits"] == 1

    def test_resident_answer_takes_no_queue_slot(self):
        """With the one worker held and the one queue slot taken, a
        resident ``/deploy`` is still answered while a distinct cold
        one is shed; resident answers feed no EWMA, a raising one is
        counted failed, and the books balance afterwards."""
        async def scenario(edge):
            async def deploy(name):
                async with EdgeClient("127.0.0.1",
                                      edge.port) as client:
                    return await client.deploy(SAXPY, ["x86"],
                                               name=name)

            async def until(ready):
                deadline = time.monotonic() + 10
                while not ready() and time.monotonic() < deadline:
                    await asyncio.sleep(0.005)

            assert (await deploy("hot"))[0] == 200    # now resident
            real_submit = edge.service.submit

            async def slow_submit(request):
                await asyncio.sleep(0.3)
                return await real_submit(request)
            edge.service.submit = slow_submit
            admission = edge.admission
            ewma = admission.ewma_service_s
            held = asyncio.create_task(deploy("cold-a"))
            await until(lambda: admission.in_service == 1)
            queued = asyncio.create_task(deploy("cold-b"))
            await until(lambda: admission.queued == 1)
            burst = [await deploy("hot") for _ in range(3)]
            shed = await deploy("cold-c")
            during = (admission.in_service, admission.queued,
                      admission.ewma_service_s)
            burst += await asyncio.gather(held, queued)

            def broken(request):
                raise RuntimeError("resident lookup failed")
            edge.core.serve_resident = broken
            failed = await deploy("hot")
            return burst, shed, during, ewma, failed, \
                edge.stats_snapshot(), edge

        burst, shed, during, ewma, failed, stats, edge = run_edge(
            edge_config(workers=1, queue_depth=1, max_wait_s=None),
            scenario)
        assert [status for status, _, _ in burst] == [200] * 5
        assert all(body["fully_cached"] for _, _, body in burst[:3])
        assert (shed[0], shed[2]["error"]["code"]) == (503, "queue_full")
        assert during == (1, 1, ewma) and ewma > 0
        assert failed[0] == 500
        assert "resident lookup failed" in \
            failed[2]["error"]["message"]
        totals = stats["edge"]
        assert (totals["requests"], totals["accepted"],
                totals["shed"]["queue_full"], totals["failed"]) == \
            (8, 7, 1, 1)
        for row in (totals, *totals["tenants"].values()):
            assert row["requests"] == row["accepted"] + \
                row["shed"]["total"]
            assert row["accepted"] == row["latency"]["count"] + \
                row["failed"]
        assert edge._pending == {}
        assert edge.admission.queued == edge.admission.in_service == 0

    def test_resident_deploy_hashes_the_source_once(self, monkeypatch):
        """A resident ``/deploy`` hashes its source once (the edge's
        coalescing key and the service's lookup share the digest),
        digests no flow (``Flow.cache_key`` is memoized) and resolves
        each name twice: the wire's validation and
        ``CompileRequest.resolved``, which the service reuses."""
        from repro.flows import Flow
        from repro.registry import Registry
        from repro.service import cache

        calls = {"artifact_key": 0, "to_dict": 0, "by_name": 0}
        original_key, original_to_dict = cache.artifact_key, Flow.to_dict
        original_get = Registry.get

        def get(self, name):
            calls["by_name"] += isinstance(name, str)
            return original_get(self, name)

        def artifact_key(*args, **kwargs):
            calls["artifact_key"] += 1
            return original_key(*args, **kwargs)

        def to_dict(self):
            calls["to_dict"] += 1
            return original_to_dict(self)

        # every module that imported the function holds its own name
        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and \
                    vars(module).get("artifact_key") is original_key:
                monkeypatch.setattr(module, "artifact_key", artifact_key)
        monkeypatch.setattr(Flow, "to_dict", to_dict)
        monkeypatch.setattr(Registry, "get", get)

        async def scenario(edge):
            async with EdgeClient("127.0.0.1", edge.port) as client:
                await client.deploy(SAXPY, ["x86", "arm"], name="m")
                calls.update(artifact_key=0, to_dict=0, by_name=0)
                reply = await client.deploy(SAXPY, ["x86", "arm"],
                                            name="m")
            return reply, dict(calls)

        (status, _, body), counted = run_edge(edge_config(), scenario)
        assert status == 200 and body["fully_cached"]
        assert counted == {"artifact_key": 1, "to_dict": 0,
                           "by_name": 2 * (1 + 2)}    # flow + targets


# ---------------------------------------------------------------------------
# the contract with the benchmark harness
# ---------------------------------------------------------------------------

E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"

#: every ``/stats`` key path the harness and its siblings read: a
#: rename fails here, not in the benchmark gate
STATS_READS = {
    "benchmarks/e2e/layers.py::_edge_stats": [
        ("edge", "requests"), ("edge", "coalesced"),
        ("edge", "shed", "total"), ("edge", "queue", "ewma_service_ms"),
        ("edge", "routes", "cold", "submitted"),
        ("edge", "routes", "warm", "submitted"),
        ("service", "artifact", "hit_rate"),
        ("service", "deploy", "hit_rate"),
        ("service", "coalesced_requests"), ("service", "requests")],
    "benchmarks/bench_service_edge.py": [
        ("edge", "shed", "total"), ("edge", "shed", "queue_full"),
        ("edge", "shed", "overload"), ("edge", "coalesced"),
        ("edge", "queue", "ewma_service_ms"),
        ("service", "coalesced_requests"), ("edge", "routes", "policy"),
        ("edge", "routes", "cold", "executor"),
        ("edge", "routes", "warm", "executor"),
        ("edge", "routes", "cold", "submitted"),
        ("edge", "routes", "warm", "submitted")],
    "examples/edge_client.py": [
        ("edge", "accepted"), ("edge", "coalesced"), ("edge", "shed"),
        ("edge", "tenants", "acme", "accepted"),
        ("edge", "tenants", "acme", "shed", "total"),
        ("edge", "routes", "cold", "submitted"),
        ("edge", "routes", "warm", "submitted"),
        ("service", "artifact", "stores")],
}


def _load_e2e(name: str):
    """One harness module by file (``trace`` would otherwise be the
    standard library's)."""
    import importlib.util
    spec = importlib.util.spec_from_file_location(
        f"e2e_{name}", E2E / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_harness_contract():
    """The e2e harness cannot change with the code it measures, so
    what it reads must keep resolving: the ``/stats`` key paths, the
    callables its tracer wraps (methods on the class itself — it
    replaces ``cls.__dict__`` entries) and the ``repro`` names the
    harness modules import."""
    import ast
    import importlib

    table = TenantTable([Tenant("acme", api_key="k")])

    async def scenario(edge):
        async with EdgeClient("127.0.0.1", edge.port,
                              api_key="k") as client:
            status, _, _ = await client.deploy(SAXPY, ["x86"])
            return status, (await client.stats())[2]
    status, stats = run_edge(edge_config(tenants=table), scenario)
    assert status == 200
    for reader, reads in STATS_READS.items():
        for path in reads:
            node = stats
            for key in path:
                assert isinstance(node, dict) and key in node, \
                    f"{reader} reads /stats {'.'.join(path)}"
                node = node[key]

    for point in _load_e2e("trace").TRACE_POINTS:
        module = importlib.import_module(point.module)
        owner, _, method = point.attr.rpartition(".")
        if owner:
            assert method in vars(getattr(module, owner)), point
        else:
            assert callable(getattr(module, point.attr)), point
    assert importlib.import_module("repro.service.edge.server").json

    for path in sorted(E2E.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and \
                    (node.module or "").startswith("repro"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), \
                        f"{path.name}: {node.module}.{alias.name}"


# ---------------------------------------------------------------------------
# the ``pvi-serve`` process
# ---------------------------------------------------------------------------

def group_members(pgid: int):
    """Live (non-zombie) pids of process group ``pgid``, from /proc."""
    members = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                fields = (entry / "stat").read_text() \
                    .rsplit(")", 1)[1].split()
            except OSError:
                continue            # exited while we looked
            if int(fields[2]) == pgid and fields[0] != "Z":
                members.append(int(entry.name))
    return members


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="needs /proc to list a process group")
def test_sigterm_unwinds_like_sigint():
    """SIGTERM is how a container runtime stops a service: the server
    must exit 0 through the ``EdgeServer`` unwind and leave no pool
    worker behind."""
    src = Path(__file__).resolve().parents[1] / "src"
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.service.edge.server",
         "--port", "0"],
        env={**os.environ, "PYTHONPATH": str(src)},
        stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        port = int(re.search(r":(\d+) ", server.stdout.readline())
                   .group(1))

        async def cold_deploy():
            async with EdgeClient("127.0.0.1", port) as client:
                return await client.deploy(SAXPY, ["x86", "arm"])

        status, _, _ = asyncio.run(cold_deploy())
        assert status == 200
        assert len(group_members(server.pid)) > 1, \
            "the cold route must have started pool workers"
        server.send_signal(signal.SIGTERM)
        assert server.wait(timeout=30) == 0
        deadline = time.monotonic() + 5
        while group_members(server.pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert group_members(server.pid) == []
    finally:
        try:
            os.killpg(server.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        server.wait()
        server.stdout.close()
