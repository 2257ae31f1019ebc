#!/usr/bin/env python
"""The serving edge, end to end: boot it, speak HTTP to it.

The edge is the network boundary of the compilation service — the
piece that turns the split-compilation story into something
"millions of users" can actually call.  This demo boots a real
:class:`EdgeServer` on an ephemeral port (the same thing
``pvi-serve`` runs) and walks the wire contract:

1. **auth** — a missing key is a 401; the tenant's key opens the door;
2. **deploy** — POST /deploy compiles once offline and fans out to
   two targets, all metadata on the wire;
3. **coalescing** — a herd of identical concurrent requests collapses
   onto one queue slot and one compilation;
4. **quota** — a token-bucket tenant runs dry and gets a structured
   429 with Retry-After;
5. **observability** — GET /stats shows per-tenant counters, queue
   state and executor routing.

Run:  python examples/edge_client.py
"""

import asyncio
import json

from repro.service.edge import (
    EdgeClient, EdgeConfig, EdgeServer, Tenant, TenantTable,
)
from repro.workloads import ALL_KERNELS

SAXPY = ALL_KERNELS["saxpy_fp"].source


async def main():
    tenants = TenantTable([
        Tenant("acme", api_key="key-acme", rate=1000, burst=100),
        Tenant("tiny", api_key="key-tiny", rate=0.001, burst=2),
    ])
    config = EdgeConfig(port=0, workers=4, queue_depth=16,
                        cold_executor="inline",
                        warm_executor="inline", tenants=tenants)

    async with EdgeServer(config) as edge:
        print(f"== edge up on 127.0.0.1:{edge.port} " + "=" * 30)

        # 1. auth: no key -> 401, structured error body
        async with EdgeClient("127.0.0.1", edge.port) as anon:
            status, _, body = await anon.deploy(SAXPY, ["x86"])
            print(f"no API key       -> {status} "
                  f"{body['error']['code']}")

        async with EdgeClient("127.0.0.1", edge.port,
                              api_key="key-acme") as client:
            # 2. deploy: one offline compile, two targets
            status, _, body = await client.deploy(
                SAXPY, ["x86", "arm"], name="saxpy")
            print(f"deploy saxpy     -> {status} "
                  f"artifact={body['artifact_key'][:12]}... "
                  f"targets={sorted(body['deployments'])}")

            # 3. coalescing: 6 identical requests, one compilation
            results = await asyncio.gather(*(
                client_n.deploy(SAXPY, ["dsp"], name="herd")
                for client_n in [EdgeClient("127.0.0.1", edge.port,
                                            api_key="key-acme")
                                 for _ in range(6)]))
            statuses = [status for status, _, _ in results]
            print(f"herd of 6        -> {statuses}")

        # 4. quota: the tiny tenant has burst=2 and ~no refill
        async with EdgeClient("127.0.0.1", edge.port,
                              api_key="key-tiny") as tiny:
            for index in range(3):
                status, headers, body = await tiny.deploy(
                    SAXPY, ["x86"], name=f"t{index}")
                note = "" if status == 200 else \
                    f" ({body['error']['code']}, retry after " \
                    f"{headers.get('retry-after')}s)"
                print(f"tiny request {index}   -> {status}{note}")

        # 5. stats: the whole serving story in one JSON document
        async with EdgeClient("127.0.0.1", edge.port,
                              api_key="key-acme") as client:
            _, _, stats = await client.stats()
        edge_stats = stats["edge"]
        print("== /stats " + "=" * 52)
        print(f"accepted={edge_stats['accepted']} "
              f"coalesced={edge_stats['coalesced']} "
              f"shed={edge_stats['shed']}")
        print("tenants:", json.dumps(
            {name: {"accepted": t["accepted"],
                    "shed": t["shed"]["total"]}
             for name, t in edge_stats["tenants"].items()}))
        print("routing:", json.dumps(
            {route: edge_stats["routes"][route]["submitted"]
             for route in ("cold", "warm")}))
        print(f"service: artifact stores="
              f"{stats['service']['artifact']['stores']}")


if __name__ == "__main__":
    asyncio.run(main())
