#!/usr/bin/env python3
"""Serving demo: the async min-cut service on a mixed cold/warm workload.

Starts an in-process :class:`repro.serve.MinCutService` (the same engine
``repro serve`` exposes over TCP) and fires two waves at it:

* a **cold** wave -- 12 distinct graphs, submitted concurrently, fused
  by the micro-batcher into one ``minimum_cut_many`` sweep;
* a **warm** wave -- 48 repeat requests over the same graphs.  Result
  dedup is disabled for the demo, so every repeat re-solves through the
  byte-budgeted packing cache: Theorem 12 is skipped, the 2-respecting
  oracle re-runs on the cached packing.

The serving metrics are then read back out of ``service.stats()`` --
batch sizes, packing-cache hit rate and bytes, latency -- and every
served result is checked bit-identical to a direct
``repro.minimum_cut`` call before anything is reported.

Run:  python examples/serving_demo.py
"""

import asyncio
import time

import repro
from repro.graphs import csr_random_connected_gnm
from repro.serve import MinCutService, ServeConfig

REQUESTS = 60
DISTINCT = 12
N = 24


async def demo() -> None:
    uniques = [
        (csr_random_connected_gnm(N, int(2.5 * N), seed=s), s)
        for s in range(DISTINCT)
    ]
    repeats = [uniques[i % DISTINCT] for i in range(REQUESTS - DISTINCT)]

    serve = ServeConfig(batch_ms=2.0, result_cache_size=0)
    async with MinCutService(serve=serve) as service:
        start = time.perf_counter()
        cold = await asyncio.gather(
            *(service.submit(g, seed=s) for g, s in uniques)
        )
        cold_seconds = time.perf_counter() - start

        start = time.perf_counter()
        warm = await asyncio.gather(
            *(service.submit(g, seed=s) for g, s in repeats)
        )
        warm_seconds = time.perf_counter() - start
        stats = service.stats()

    for (graph, seed), result in zip(uniques + repeats, cold + warm):
        direct = repro.minimum_cut(
            graph, seed=seed, solver="oracle", compute_congest=False
        )
        assert result.value == direct.value
        assert result.partition == direct.partition
        assert result.stats["accountant"] == direct.stats["accountant"]

    cache = stats["packing_cache"]
    batcher = stats["batcher"]
    cache_lookups = cache["hits"] + cache["misses"]

    print(f"serving demo: {REQUESTS} requests over {DISTINCT} distinct "
          f"gnm(n={N}) graphs, batch window {serve.batch_ms}ms")
    print(f"  cold wave            : {len(cold)} requests in "
          f"{cold_seconds:.3f}s ({len(cold) / cold_seconds:,.0f} qps), "
          f"batches of mean {batcher['mean_batch']:.1f}")
    print(f"  warm wave            : {len(warm)} requests in "
          f"{warm_seconds:.3f}s ({len(warm) / warm_seconds:,.0f} qps), "
          f"{stats['warm_solves']} solved from cached packings")
    print("  packing cache        : "
          f"{cache['hits']}/{cache_lookups} hits "
          f"(hit rate {cache['hit_rate']:.0%}, "
          f"{cache['hit_bytes']:,} B served warm)")
    print(f"  in-flight dedup      : {stats['inflight_hits']} requests "
          "coalesced onto running solves")
    print(f"  latency (service)    : p50 {stats['latency']['p50_ms']}ms  "
          f"p99 {stats['latency']['p99_ms']}ms")
    print(f"  batcher              : {batcher['batches']} batches, "
          f"largest {batcher['max_batch_seen']}")
    print("  all results bit-identical to direct minimum_cut() -- verified")


if __name__ == "__main__":
    asyncio.run(demo())
