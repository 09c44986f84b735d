"""The serving tier: packing cache, micro-batcher, service, TCP front end.

The acceptance bar mirrors the session suite's: every result the service
hands back -- cold fused batch, warm cached packing, result-cache hit, or
in-flight coalesce -- is bit-identical to a direct ``minimum_cut`` call
(value, witness, partition, round ledger) and passes ``result.verify()``.

Run alone with ``pytest -m serve``.
"""

from __future__ import annotations

import asyncio

import pytest

import repro
from repro.core.mincut import MinCutResult
from repro.core.session import SweepFailure
from repro.graphs import CSR_FAMILY_BUILDERS, CSRGraph
from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    OverloadedError,
    ServiceClosedError,
)
from repro.serve import (
    AdmissionController,
    Batcher,
    ChaosPlan,
    CircuitBreaker,
    Deadline,
    MinCutServer,
    MinCutService,
    PackingCache,
    ResilienceConfig,
    RetryPolicy,
    ServeClient,
    ServeConfig,
    graph_from_wire,
    graph_to_wire,
    make_workload,
    packing_nbytes,
    run_loadgen,
)

pytestmark = pytest.mark.serve


def build(family: str, n: int, seed: int) -> CSRGraph:
    return CSR_FAMILY_BUILDERS[family](n, seed)


def assert_served_bit_identical(result, graph, seed, solver="oracle"):
    """The serving contract: indistinguishable from a direct solve."""
    assert isinstance(result, MinCutResult)
    reference = repro.minimum_cut(
        graph, seed=seed, solver=solver, compute_congest=False
    )
    assert result.value == reference.value
    assert result.partition == reference.partition
    assert result.cut_edges == reference.cut_edges
    assert result.candidate.edges == reference.candidate.edges
    assert result.best_tree_index == reference.best_tree_index
    assert result.ma_rounds == reference.ma_rounds
    assert result.stats["accountant"] == reference.stats["accountant"]
    assert result.verify(graph).ok


def run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# PackingCache
# ----------------------------------------------------------------------
class TestPackingCache:
    def packed(self, n=18, seed=0):
        session = repro.MinCutSolver(repro.SolverConfig(solver="oracle"))
        handle = session.pack(build("gnm", n, seed), seed=seed)
        handle.packing  # materialize so nbytes is meaningful
        return handle

    def test_put_get_round_trip(self):
        cache = PackingCache(budget_bytes=1 << 30)
        handle = self.packed()
        nbytes = cache.put("k", handle)
        assert nbytes == packing_nbytes(handle) > 0
        assert cache.get("k") is handle
        assert cache.nbytes == nbytes
        assert len(cache) == 1

    def test_byte_budget_enforced_lru_first(self):
        handles = [self.packed(seed=s) for s in range(4)]
        sizes = [packing_nbytes(h) for h in handles]
        # Room for exactly three of the four entries.
        cache = PackingCache(budget_bytes=sum(sizes[1:]))
        for index, handle in enumerate(handles):
            cache.put(index, handle)
        assert cache.nbytes <= cache.budget_bytes
        assert cache.keys() == [1, 2, 3]  # 0 was LRU, evicted
        assert cache.evictions == 1
        assert cache.get(0) is None

    def test_get_refreshes_lru_order(self):
        handles = [self.packed(seed=s) for s in range(3)]
        cache = PackingCache(
            budget_bytes=sum(packing_nbytes(h) for h in handles)
        )
        for index, handle in enumerate(handles):
            cache.put(index, handle)
        assert cache.get(0) is handles[0]  # 0 becomes MRU
        cache.put(3, self.packed(seed=3))  # overflow evicts 1, not 0
        assert 0 in cache and 1 not in cache

    def test_oversized_entry_rejected_not_thrashed(self):
        handle = self.packed()
        cache = PackingCache(budget_bytes=packing_nbytes(handle) - 1)
        assert cache.put("big", handle) == 0
        assert len(cache) == 0 and cache.rejected == 1

    def test_hit_miss_metrics(self):
        cache = PackingCache(budget_bytes=1 << 30)
        handle = self.packed()
        nbytes = cache.put("k", handle)
        assert cache.get("missing") is None
        assert cache.get("k") is handle
        assert cache.get("k") is handle
        stats = cache.stats()
        assert stats["hits"] == 2
        assert stats["misses"] == 1
        assert stats["hit_rate"] == pytest.approx(2 / 3)
        assert stats["hit_bytes"] == 2 * nbytes
        assert stats["miss_bytes"] == nbytes

    def test_evicted_then_refetched_bit_identical(self):
        """Eviction costs a repack, never correctness."""
        graph, seed = build("gnm", 20, 5), 5
        session = repro.MinCutSolver(
            repro.SolverConfig(solver="oracle", compute_congest=False)
        )

        def fresh():
            handle = session.pack(graph, seed=seed)
            handle.packing
            return handle

        cache = PackingCache(budget_bytes=1 << 30)
        cache.put("k", fresh())
        first = cache.get("k").solve()
        cache.clear()  # the eviction
        assert cache.get("k") is None
        cache.put("k", fresh())  # refetched: packed from scratch
        second = cache.get("k").solve()
        assert first.value == second.value
        assert first.partition == second.partition
        assert first.cut_edges == second.cut_edges
        assert first.stats["accountant"] == second.stats["accountant"]
        assert_served_bit_identical(second, graph, seed)


# ----------------------------------------------------------------------
# Batcher
# ----------------------------------------------------------------------
class TestBatcher:
    def test_window_coalesces_concurrent_puts(self):
        batches = []

        async def flush(batch):
            batches.append(list(batch))

        async def scenario():
            batcher = Batcher(flush, batch_ms=20.0, max_batch=64)
            await batcher.start()
            await asyncio.gather(*(batcher.put(i) for i in range(5)))
            await batcher.stop()
            return batcher.stats()

        stats = run(scenario())
        assert batches == [[0, 1, 2, 3, 4]]
        assert stats["batches"] == 1 and stats["max_batch_seen"] == 5

    def test_max_batch_splits(self):
        batches = []

        async def flush(batch):
            batches.append(list(batch))

        async def scenario():
            batcher = Batcher(flush, batch_ms=20.0, max_batch=3)
            await batcher.start()
            await asyncio.gather(*(batcher.put(i) for i in range(7)))
            await batcher.stop()

        run(scenario())
        assert [len(b) for b in batches] == [3, 3, 1]
        assert [i for b in batches for i in b] == list(range(7))

    def test_zero_window_still_drains_backlog(self):
        batches = []

        async def flush(batch):
            batches.append(list(batch))
            await asyncio.sleep(0.01)  # backlog builds while flushing

        async def scenario():
            batcher = Batcher(flush, batch_ms=0.0, max_batch=64)
            await batcher.start()
            await asyncio.gather(*(batcher.put(i) for i in range(6)))
            await batcher.stop()

        run(scenario())
        assert [i for b in batches for i in b] == list(range(6))
        # The first item flushes alone; the backlog coalesces behind it.
        assert len(batches) < 6

    def test_stop_flushes_pending(self):
        seen = []

        async def flush(batch):
            seen.extend(batch)

        async def scenario():
            batcher = Batcher(flush, batch_ms=10_000.0)
            await batcher.start()
            await batcher.put("x")
            await batcher.stop()  # must not wait the 10 s window out

        run(asyncio.wait_for(scenario(), timeout=5))
        assert seen == ["x"]


# ----------------------------------------------------------------------
# MinCutService
# ----------------------------------------------------------------------
class TestMinCutService:
    CONFIG = ServeConfig(batch_ms=2.0)

    def test_cold_batch_bit_identical_and_verified(self):
        graphs = [(build("gnm", 24, s), s) for s in range(5)]

        async def scenario():
            async with MinCutService(serve=self.CONFIG) as service:
                results = await asyncio.gather(
                    *(service.submit(g, seed=s) for g, s in graphs)
                )
                return results, service.stats()

        results, stats = run(scenario())
        for (graph, seed), result in zip(graphs, results):
            assert_served_bit_identical(result, graph, seed)
        assert stats["solved"] == 5
        assert stats["batcher"]["max_batch_seen"] > 1  # they really fused

    def test_mixed_families_and_sizes_in_one_batch(self):
        graphs = [
            (build("gnm", 24, 0), 0),
            (build("cycle", 12, 1), 1),
            (build("grid", 25, 2), 2),
            (build("gnm", 18, 3), 3),
        ]

        async def scenario():
            async with MinCutService(serve=self.CONFIG) as service:
                return await asyncio.gather(
                    *(service.submit(g, seed=s) for g, s in graphs)
                )

        for (graph, seed), result in zip(graphs, run(scenario())):
            assert_served_bit_identical(result, graph, seed)

    def test_result_cache_and_inflight_dedup(self):
        graph = build("gnm", 24, 7)

        async def scenario():
            async with MinCutService(serve=self.CONFIG) as service:
                first = await asyncio.gather(
                    *(service.submit_info(graph, seed=7) for _ in range(4))
                )
                again, source = await service.submit_info(graph, seed=7)
                return first, again, source, service.stats()

        first, again, source, stats = run(scenario())
        sources = sorted(src for _, src in first)
        assert sources.count("solved") == 1
        assert sources.count("inflight") == 3
        assert source == "result-cache"
        # One actual solve served five requests.
        assert stats["solved"] == 1 and stats["requests"] == 5
        values = {r.value for r, _ in first} | {again.value}
        assert len(values) == 1
        assert again is first[0][0]  # the literal same result object

    def test_warm_packing_path_bit_identical(self):
        """Dedup off: repeats re-solve from the cached packing."""
        graphs = [(build("gnm", 24, s), s) for s in range(3)]
        serve = ServeConfig(batch_ms=1.0, result_cache_size=0)

        async def scenario():
            async with MinCutService(serve=serve) as service:
                for graph, seed in graphs:
                    await service.submit(graph, seed=seed)
                warm = [
                    await service.submit_info(graph, seed=seed)
                    for graph, seed in graphs
                ]
                return warm, service.stats()

        warm, stats = run(scenario())
        for (graph, seed), (result, source) in zip(graphs, warm):
            assert source == "solved"  # no result cache -- it re-solved
            assert result.stats["served_warm"] is True
            assert_served_bit_identical(result, graph, seed)
            # The warm solve ran on the packing adopted from the cold sweep.
            packing = result.packing
            assert len(packing.tree_edge_arrays) == len(packing.trees)
        assert stats["warm_solves"] == 3
        assert stats["packing_cache"]["hits"] == 3

    def test_failure_isolated_from_batch_mates(self):
        good = [(build("gnm", 24, s), s) for s in range(3)]
        disconnected = CSRGraph(4, [0, 2], [1, 3], [1.0, 1.0])

        async def scenario():
            async with MinCutService(serve=self.CONFIG) as service:
                submissions = [service.submit(g, seed=s) for g, s in good]
                submissions.append(service.submit(disconnected, seed=9))
                return await asyncio.gather(*submissions), service.stats()

        results, stats = run(scenario())
        for (graph, seed), result in zip(good, results):
            assert_served_bit_identical(result, graph, seed)
        failure = results[-1]
        assert isinstance(failure, SweepFailure)
        assert failure.ok is False
        assert failure.graph_hash == disconnected.canonical_hash()
        assert stats["failures"] == 1 and stats["solved"] == 3

    def test_failures_are_not_cached(self):
        disconnected = CSRGraph(4, [0, 2], [1, 3], [1.0, 1.0])

        async def scenario():
            async with MinCutService(serve=self.CONFIG) as service:
                first = await service.submit(disconnected, seed=0)
                second, source = await service.submit_info(disconnected, seed=0)
                return first, second, source

        first, second, source = run(scenario())
        assert isinstance(first, SweepFailure)
        assert isinstance(second, SweepFailure)
        assert source == "solved"  # re-attempted, not served from cache

    def test_per_request_solver_override(self):
        graph, seed = build("gnm", 20, 4), 4

        async def scenario():
            async with MinCutService(serve=self.CONFIG) as service:
                return await asyncio.gather(
                    service.submit(graph, seed=seed),
                    service.submit(graph, seed=seed, solver="stoer-wagner"),
                )

        oracle, baseline = run(scenario())
        assert_served_bit_identical(oracle, graph, seed)
        assert baseline.solver == "stoer-wagner"
        assert baseline.value == oracle.value
        assert baseline.verify(graph).ok

    def test_unknown_solver_raises_at_submit(self):
        async def scenario():
            async with MinCutService(serve=self.CONFIG) as service:
                with pytest.raises(ValueError):
                    await service.submit(build("gnm", 12, 0), solver="nope")

        run(scenario())

    def test_submit_before_start_raises(self):
        async def scenario():
            service = MinCutService(serve=self.CONFIG)
            with pytest.raises(RuntimeError):
                await service.submit(build("gnm", 12, 0))

        run(scenario())

    def test_networkx_input_converted_at_boundary(self):
        csr = build("gnm", 20, 2)

        async def scenario():
            async with MinCutService(serve=self.CONFIG) as service:
                via_nx, src_nx = await service.submit_info(
                    csr.to_networkx(), seed=2
                )
                via_csr, src_csr = await service.submit_info(csr, seed=2)
                return via_nx, src_nx, via_csr, src_csr

        via_nx, _src, via_csr, src_csr = run(scenario())
        assert_served_bit_identical(via_nx, csr, 2)
        # The converted graph hashes equal to its CSR twin -> dedup hit.
        assert src_csr == "result-cache"
        assert via_csr is via_nx

    def test_serve_config_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_BATCH_MS", "7.5")
        monkeypatch.setenv("REPRO_SERVE_CACHE_BYTES", str(1 << 20))
        config = ServeConfig.from_env()
        assert config.batch_ms == 7.5
        assert config.cache_bytes == 1 << 20
        assert ServeConfig.from_env(batch_ms=1.0).batch_ms == 1.0
        monkeypatch.setenv("REPRO_SERVE_BATCH_MS", "garbage")
        assert ServeConfig.from_env().batch_ms is None

    def test_latency_histogram_percentiles(self):
        from repro.serve import LatencyHistogram

        histogram = LatencyHistogram(boundaries=(0.001, 0.01, 0.1))
        assert histogram.percentile(0.5) is None
        for _ in range(98):
            histogram.observe(0.0005)
        histogram.observe(0.05)
        histogram.observe(0.2)
        assert histogram.percentile(0.50) == 0.001
        assert histogram.percentile(0.99) == 0.1
        snapshot = histogram.as_dict()
        assert snapshot["count"] == 100
        assert snapshot["max_ms"] == pytest.approx(200.0)


# ----------------------------------------------------------------------
# TCP front end + loadgen
# ----------------------------------------------------------------------
class TestWireFormat:
    def test_graph_round_trip(self):
        graph = build("gnm", 20, 3)
        again = graph_from_wire(graph_to_wire(graph))
        assert again.canonical_hash() == graph.canonical_hash()

    def test_bad_graph_rejected(self):
        with pytest.raises(ValueError):
            graph_from_wire({"n": 3})

    def test_make_workload_distinct_and_repeats(self):
        workload = make_workload(count=10, n=16, distinct=3)
        assert len(workload) == 10
        hashes = [g.canonical_hash() for g, _ in workload]
        assert len(set(hashes)) == 3
        assert hashes[0] == hashes[3] == hashes[6]
        with pytest.raises(ValueError):
            make_workload(family="nope")


class TestMinCutServer:
    def test_tcp_solve_matches_direct(self):
        graph, seed = build("gnm", 24, 1), 1

        async def scenario():
            async with MinCutServer(port=0) as server:
                async with ServeClient(port=server.port) as client:
                    assert await client.ping()
                    response = await client.solve(graph, seed=seed)
                    repeat = await client.solve(graph, seed=seed)
                    stats = await client.stats()
            return response, repeat, stats

        response, repeat, stats = run(scenario())
        reference = repro.minimum_cut(
            graph, seed=seed, solver="oracle", compute_congest=False
        )
        assert response["ok"] is True
        assert response["value"] == reference.value
        assert response["source"] == "solved"
        assert response["graph_hash"] == graph.canonical_hash()
        assert sorted(response["partition_sizes"]) == sorted(
            len(side) for side in reference.partition
        )
        assert repeat["source"] == "result-cache"
        assert repeat["value"] == reference.value
        assert stats["requests"] == 2

    def test_bad_request_keeps_connection_alive(self):
        async def scenario():
            async with MinCutServer(port=0) as server:
                async with ServeClient(port=server.port) as client:
                    bad = await client.request({"op": "solve", "graph": None})
                    worse = await client.request({"op": "launch-missiles"})
                    good = await client.solve(build("gnm", 16, 0))
            return bad, worse, good

        bad, worse, good = run(scenario())
        assert bad["ok"] is False and bad["error"] == "bad-request"
        assert worse["ok"] is False
        assert good["ok"] is True

    def test_solve_failure_reported_structurally(self):
        disconnected = CSRGraph(4, [0, 2], [1, 3], [1.0, 1.0])

        async def scenario():
            async with MinCutServer(port=0) as server:
                async with ServeClient(port=server.port) as client:
                    return await client.solve(disconnected)

        response = run(scenario())
        assert response["ok"] is False
        assert response["stage"] == "validate"
        assert response["graph_hash"] == disconnected.canonical_hash()

    def test_loadgen_end_to_end_batches_and_caches(self):
        async def scenario():
            async with MinCutServer(port=0) as server:
                summary = await run_loadgen(
                    port=server.port, count=12, n=24, distinct=4,
                    concurrency=4, repeat=2,
                )
                return summary, server.service.stats()

        summary, stats = run(scenario())
        assert summary["failures"] == 0
        assert summary["requests"] == 24
        assert summary["qps"] > 0
        # 4 distinct graphs -> 4 real solves; everything else was dedup.
        assert stats["solved"] == 4
        assert sum(summary["sources"].values()) == 24
        assert summary["sources"].get("result-cache", 0) >= 16

# ----------------------------------------------------------------------
# Resilience primitives (unit level)
# ----------------------------------------------------------------------
class TestResiliencePrimitives:
    def test_deadline_budget_and_expiry(self):
        clock = [100.0]
        deadline = Deadline(50.0, clock=lambda: clock[0])
        assert deadline.remaining_s(clock[0]) == pytest.approx(0.05)
        assert not deadline.expired(clock[0])
        clock[0] += 0.06
        assert deadline.expired(clock[0])
        error = deadline.error(clock[0], "while queued")
        assert isinstance(error, DeadlineExceededError)
        assert error.deadline_ms == 50.0
        assert error.elapsed_ms == pytest.approx(60.0)
        assert "while queued" in str(error)
        with pytest.raises(ValueError):
            Deadline(0.0)

    def test_admission_depth_budget(self):
        admission = AdmissionController(
            ResilienceConfig(max_queue=2, retry_after_ms=10.0)
        )
        admission.admit(100)
        admission.admit(100)
        with pytest.raises(OverloadedError) as excinfo:
            admission.admit(100)
        assert excinfo.value.retry_after_ms >= 10.0
        admission.release(100)
        admission.admit(100)  # freed slot admits again
        stats = admission.stats()
        assert stats["admitted"] == 3
        assert stats["shed"] == 1
        assert stats["peak_depth"] == 2

    def test_admission_byte_budget_and_oversized_idle_rule(self):
        admission = AdmissionController(
            ResilienceConfig(max_queue_bytes=1000)
        )
        # A single request bigger than the whole budget is admitted when
        # the queue is idle (it would otherwise be unservable forever).
        admission.admit(5000)
        with pytest.raises(OverloadedError):
            admission.admit(10)  # now over budget, and not idle
        admission.release(5000)
        admission.admit(10)

    def test_circuit_breaker_state_machine(self):
        clock = [0.0]
        breaker = CircuitBreaker(
            threshold=2, reset_ms=100.0, clock=lambda: clock[0]
        )
        breaker.allow("x")
        breaker.record_failure()
        breaker.allow("x")  # one failure: still closed
        breaker.record_failure()
        assert breaker.state == "open"
        with pytest.raises(CircuitOpenError) as excinfo:
            breaker.allow("x")
        assert 0 < excinfo.value.retry_after_ms <= 100.0
        clock[0] += 0.2  # past the cooldown: half-open probe admitted
        breaker.allow("x")
        assert breaker.state == "half-open"
        breaker.record_failure()  # probe failed: straight back open
        assert breaker.state == "open"
        clock[0] += 0.2
        breaker.allow("x")
        breaker.record_success()
        assert breaker.state == "closed"
        stats = breaker.stats()
        assert stats["opens"] == 2
        assert stats["rejected"] == 1
        assert stats["probes"] == 2

    def test_circuit_breaker_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"  # never 3 *consecutive*

    def test_retry_policy_backoff_grows_capped_and_seeded(self):
        policy = RetryPolicy(
            attempts=5, base_ms=10.0, cap_ms=80.0, multiplier=2.0,
            jitter=1.0, seed=7,
        )
        delays = [policy.delay_ms(a, policy.rng()) for a in range(5)]
        assert delays == [10.0, 20.0, 40.0, 80.0, 80.0]  # capped
        jittered = RetryPolicy(seed=7)
        assert [jittered.delay_ms(a, jittered.rng()) for a in range(3)] == [
            jittered.delay_ms(a, jittered.rng()) for a in range(3)
        ]  # same seed -> same jitter stream

    def test_retry_policy_honors_server_hint(self):
        policy = RetryPolicy(base_ms=1.0, cap_ms=500.0, seed=0)
        assert policy.delay_ms(0, retry_after_ms=200.0) == 200.0
        # ... but never beyond the client's own cap.
        assert policy.delay_ms(0, retry_after_ms=9000.0) == 500.0

    def test_resilience_config_validation_and_env(self, monkeypatch):
        with pytest.raises(ValueError):
            ResilienceConfig(deadline_ms=-1)
        with pytest.raises(ValueError):
            ResilienceConfig(max_queue=0)
        monkeypatch.setenv("REPRO_SERVE_DEADLINE_MS", "250")
        monkeypatch.setenv("REPRO_SERVE_MAX_QUEUE", "32")
        config = ResilienceConfig.from_env()
        assert config.deadline_ms == 250.0
        assert config.max_queue == 32
        assert ResilienceConfig.from_env(max_queue=8).max_queue == 8
        monkeypatch.setenv("REPRO_SERVE_DEADLINE_MS", "garbage")
        monkeypatch.setenv("REPRO_SERVE_MAX_QUEUE", "-3")
        config = ResilienceConfig.from_env()
        assert config.deadline_ms is None
        assert config.max_queue is None

    def test_chaos_plan_parse_and_validation(self):
        from repro.errors import FaultPlanError

        plan = ChaosPlan.parse("seed=7,drop_before=0.05,worker=0.2")
        assert plan.seed == 7
        assert plan.drop_before_rate == 0.05
        assert plan.worker_exception_rate == 0.2
        assert ChaosPlan.parse("9").seed == 9
        assert not ChaosPlan.parse("").is_calm()  # default mixed plan
        assert ChaosPlan().is_calm()
        with pytest.raises(FaultPlanError):
            ChaosPlan.parse("nonsense=1")
        with pytest.raises(FaultPlanError):
            ChaosPlan(drop_before_rate=1.5)

    def test_chaos_injector_is_deterministic(self):
        plan = ChaosPlan(
            seed=3, drop_before_rate=0.3, drop_after_rate=0.3,
            slow_read_rate=0.3, worker_exception_rate=0.3,
        )
        a, b = plan.injector(), plan.injector()
        fates = [(a.connection_fate(), a.slow_read_s(), a.worker_error())
                 for _ in range(50)]
        again = [(b.connection_fate(), b.slow_read_s(), b.worker_error())
                 for _ in range(50)]
        assert fates == again
        assert a.stats() == b.stats()


# ----------------------------------------------------------------------
# Batcher edge cases (satellite: every pending future must resolve)
# ----------------------------------------------------------------------
class TestBatcherEdgeCases:
    def test_stop_racing_open_window_still_flushes(self):
        flushed = []

        async def flush(batch):
            flushed.append(list(batch))

        async def scenario():
            batcher = Batcher(flush, batch_ms=200.0, max_batch=8)
            await batcher.start()
            await batcher.put("a")  # opens a 200 ms window ...
            stranded = await batcher.stop()  # ... stop lands inside it
            return stranded

        stranded = run(scenario())
        assert stranded == []
        assert flushed == [["a"]]

    def test_items_enqueued_during_drain_are_flushed(self):
        flushed = []
        first_flush_started = asyncio.Event()

        async def flush(batch):
            flushed.append(list(batch))
            if len(flushed) == 1:
                first_flush_started.set()
                await asyncio.sleep(0.05)  # hold the collector busy

        async def scenario():
            batcher = Batcher(flush, batch_ms=1.0, max_batch=8)
            await batcher.start()
            await batcher.put("a")
            await first_flush_started.wait()
            await batcher.put("b")  # queued while the flush is running
            await batcher.put("c")
            stranded = await batcher.stop()
            return stranded

        stranded = run(scenario())
        assert stranded == []
        assert flushed[0] == ["a"]
        assert [i for batch in flushed[1:] for i in batch] == ["b", "c"]

    def test_raising_flush_routed_to_on_error_collector_survives(self):
        flushed, errored = [], []

        async def flush(batch):
            if "bad" in batch:
                raise ValueError("injected flush failure")
            flushed.append(list(batch))

        async def on_error(batch, exc):
            errored.append((list(batch), exc))

        async def scenario():
            batcher = Batcher(
                flush, batch_ms=1.0, max_batch=8, on_error=on_error
            )
            await batcher.start()
            await batcher.put("bad")
            await asyncio.sleep(0.02)
            await batcher.put("good")  # the collector must still be alive
            await batcher.stop()
            return batcher.stats()

        stats = run(scenario())
        assert errored and errored[0][0] == ["bad"]
        assert isinstance(errored[0][1], ValueError)
        assert flushed == [["good"]]
        assert stats["flush_errors"] == 1

    def test_hard_stop_returns_stranded_items(self):
        release = asyncio.Event()

        async def flush(batch):
            await release.wait()

        async def scenario():
            batcher = Batcher(flush, batch_ms=0.0, max_batch=1)
            await batcher.start()
            await batcher.put("a")  # max_batch=1: flushes (and blocks)
            await asyncio.sleep(0.02)
            await batcher.put("b")  # still queued behind the stuck flush
            await batcher.put("c")
            stranded = await batcher.stop(flush=False)
            release.set()
            return stranded

        assert run(scenario()) == ["b", "c"]

    def test_put_after_stop_fails_fast(self):
        async def flush(batch):
            pass

        async def scenario():
            batcher = Batcher(flush, batch_ms=1.0)
            await batcher.start()
            await batcher.stop()
            with pytest.raises(RuntimeError):
                await batcher.put("late")

        run(scenario())


# ----------------------------------------------------------------------
# Service-level overload protection
# ----------------------------------------------------------------------
def register_sleepy_solver(name="sleepy", sleep_s=0.3):
    """A registered solver that wedges its worker thread for a while."""
    import time as _time

    from repro.core.session import GraphPacking, SolveContext  # noqa: F401

    def sleepy(packed, ctx):
        _time.sleep(sleep_s)
        return packed.finalize_partition(frozenset([0]), ctx)

    repro.register_solver(name, sleepy, uses_packing=False)
    return name


class TestServiceResilience:
    CONFIG = ServeConfig(batch_ms=2.0)

    def test_admission_sheds_when_worker_is_busy(self):
        name = register_sleepy_solver("sleepy-shed", sleep_s=0.25)
        try:
            resilience = ResilienceConfig(max_queue=1, retry_after_ms=15.0)

            async def scenario():
                async with MinCutService(
                    serve=self.CONFIG, resilience=resilience
                ) as service:
                    slow = asyncio.ensure_future(
                        service.submit(build("gnm", 16, 0), solver=name)
                    )
                    await asyncio.sleep(0.05)  # it is admitted and solving
                    with pytest.raises(OverloadedError) as excinfo:
                        await service.submit(build("gnm", 16, 1))
                    shed_error = excinfo.value
                    first = await slow
                    # The slot freed: the same graph is admitted now.
                    second = await service.submit(build("gnm", 16, 1))
                    return first, second, shed_error, service.stats()

            first, second, shed_error, stats = run(scenario())
            assert isinstance(first, MinCutResult)
            assert shed_error.retry_after_ms >= 15.0
            assert_served_bit_identical(second, build("gnm", 16, 1), 0)
            assert stats["resilience"]["shed"] == 1
            assert stats["resilience"]["admission"]["shed"] == 1
        finally:
            repro.unregister_solver("sleepy-shed")

    def test_cache_hits_are_never_shed(self):
        resilience = ResilienceConfig(max_queue=1)

        async def scenario():
            async with MinCutService(
                serve=self.CONFIG, resilience=resilience
            ) as service:
                graph = build("gnm", 16, 2)
                await service.submit(graph, seed=2)
                # Saturate the admission slot with a live request ...
                name = register_sleepy_solver("sleepy-hit", sleep_s=0.2)
                try:
                    slow = asyncio.ensure_future(
                        service.submit(build("gnm", 16, 3), solver=name)
                    )
                    await asyncio.sleep(0.05)
                    # ... and the cached repeat still answers instantly.
                    result, source = await service.submit_info(graph, seed=2)
                    await slow
                    return result, source
                finally:
                    repro.unregister_solver("sleepy-hit")

        result, source = run(scenario())
        assert source == "result-cache"
        assert isinstance(result, MinCutResult)

    def test_breaker_opens_on_consecutive_solve_failures_then_recovers(self):
        def crashing(packed, ctx):
            raise RuntimeError("poisoned family")

        repro.register_solver("crashy", crashing, uses_packing=False)
        try:
            resilience = ResilienceConfig(
                breaker_threshold=2, breaker_reset_ms=80.0
            )

            async def scenario():
                async with MinCutService(
                    serve=self.CONFIG, resilience=resilience
                ) as service:
                    first = await service.submit(
                        build("gnm", 16, 0), solver="crashy"
                    )
                    second = await service.submit(
                        build("gnm", 16, 1), solver="crashy"
                    )
                    with pytest.raises(CircuitOpenError) as excinfo:
                        await service.submit(
                            build("gnm", 16, 2), solver="crashy"
                        )
                    rejection = excinfo.value
                    await asyncio.sleep(0.15)  # past the cooldown
                    # The half-open probe reaches the (fixed) solver.
                    repro.register_solver(
                        "crashy",
                        lambda packed, ctx: packed.finalize_partition(
                            frozenset([0]), ctx
                        ),
                        uses_packing=False,
                    )
                    probe = await service.submit(
                        build("gnm", 16, 3), solver="crashy"
                    )
                    return first, second, rejection, probe, service.stats()

            first, second, rejection, probe, stats = run(scenario())
            assert isinstance(first, SweepFailure) and first.stage == "solve"
            assert isinstance(second, SweepFailure)
            assert rejection.retry_after_ms > 0
            assert isinstance(probe, MinCutResult)
            breaker = stats["resilience"]["breakers"]["crashy"]
            assert breaker["state"] == "closed"
            assert breaker["opens"] == 1
            assert breaker["rejected"] == 1
            assert breaker["probes"] == 1
        finally:
            repro.unregister_solver("crashy")

    def test_validate_failures_do_not_trip_the_breaker(self):
        disconnected = CSRGraph(4, [0, 2], [1, 3], [1.0, 1.0])
        resilience = ResilienceConfig(breaker_threshold=2)

        async def scenario():
            async with MinCutService(
                serve=self.CONFIG, resilience=resilience
            ) as service:
                for seed in range(3):
                    failure = await service.submit(disconnected, seed=seed)
                    assert isinstance(failure, SweepFailure)
                    assert failure.stage == "validate"
                # Three bad inputs in a row: the circuit must stay shut.
                good = await service.submit(build("gnm", 16, 0))
                return good, service.stats()

        good, stats = run(scenario())
        assert isinstance(good, MinCutResult)
        breaker = stats["resilience"]["breakers"]["oracle"]
        assert breaker["state"] == "closed"
        assert breaker["opens"] == 0

    def test_watchdog_fails_batch_and_degrades_batch_mates(self):
        name = register_sleepy_solver("sleepy-watchdog", sleep_s=0.5)
        try:
            fast_graph = build("gnm", 20, 1)

            async def scenario():
                async with MinCutService(serve=self.CONFIG) as service:
                    stuck = asyncio.ensure_future(service.submit(
                        build("gnm", 16, 0), solver=name, deadline_ms=80.0
                    ))
                    fast = asyncio.ensure_future(
                        service.submit(fast_graph, seed=1)
                    )
                    outcomes = await asyncio.gather(
                        stuck, fast, return_exceptions=True
                    )
                    return outcomes, service.stats()

            (stuck, fast), stats = run(scenario())
            # The wedged member died typed; its batch-mate was
            # individually re-solved, bit-identically.
            assert isinstance(stuck, DeadlineExceededError)
            assert_served_bit_identical(fast, fast_graph, 1)
            assert fast.stats["served_degraded"] is True
            assert stats["resilience"]["watchdog_trips"] == 1
            assert stats["resilience"]["degraded"] >= 1
            assert stats["resilience"]["expired"] >= 1
        finally:
            repro.unregister_solver("sleepy-watchdog")

    def test_watchdog_ms_bounds_deadlineless_batches(self):
        name = register_sleepy_solver("sleepy-floor", sleep_s=0.5)
        try:
            resilience = ResilienceConfig(watchdog_ms=60.0)

            async def scenario():
                async with MinCutService(
                    serve=self.CONFIG, resilience=resilience
                ) as service:
                    import time as _time
                    started = _time.perf_counter()
                    result = await service.submit(
                        build("gnm", 16, 0), solver=name
                    )
                    return result, _time.perf_counter() - started

            result, elapsed = run(scenario())
            # No deadline: the watchdog trips, the degraded individual
            # solve (still sleepy) eventually succeeds.
            assert isinstance(result, MinCutResult)
            assert result.stats.get("served_degraded") is True
        finally:
            repro.unregister_solver("sleepy-floor")


# ----------------------------------------------------------------------
# Shutdown ordering (satellite: drain vs hard stop)
# ----------------------------------------------------------------------
class TestServiceShutdown:
    CONFIG = ServeConfig(batch_ms=2.0)

    def test_graceful_drain_finishes_inflight_work(self):
        graphs = [(build("gnm", 16, s), s) for s in range(3)]

        async def scenario():
            service = MinCutService(serve=self.CONFIG)
            await service.start()
            submissions = [
                asyncio.ensure_future(service.submit(g, seed=s))
                for g, s in graphs
            ]
            await asyncio.sleep(0)  # let them reach the batcher queue
            await service.stop()  # drain: they must all resolve
            results = await asyncio.gather(*submissions)
            with pytest.raises(ServiceClosedError):
                await service.submit(build("gnm", 16, 9))
            return results, service.stats()

        results, stats = run(scenario())
        for (graph, seed), result in zip(graphs, results):
            assert_served_bit_identical(result, graph, seed)
        assert stats["resilience"]["closed_rejections"] == 1

    def test_hard_stop_rejects_stragglers_typed_and_fast(self):
        name = register_sleepy_solver("sleepy-stop", sleep_s=0.3)
        try:
            async def scenario():
                import time as _time

                service = MinCutService(serve=self.CONFIG)
                await service.start()
                stuck = asyncio.ensure_future(
                    service.submit(build("gnm", 16, 0), solver=name)
                )
                await asyncio.sleep(0.05)  # wedged inside the worker
                queued = [
                    asyncio.ensure_future(
                        service.submit(build("gnm", 16, s))
                    )
                    for s in (1, 2)
                ]
                await asyncio.sleep(0.02)
                started = _time.perf_counter()
                await service.stop(drain=False)
                elapsed = _time.perf_counter() - started
                outcomes = await asyncio.gather(
                    stuck, *queued, return_exceptions=True
                )
                return outcomes, elapsed, service.stats()

            outcomes, elapsed, stats = run(scenario())
            assert all(
                isinstance(outcome, ServiceClosedError)
                for outcome in outcomes
            )
            assert elapsed < 0.25  # did not wait out the wedged solve
            assert stats["resilience"]["closed_rejections"] == 3
        finally:
            repro.unregister_solver("sleepy-stop")

    def test_stop_is_idempotent_and_restartable(self):
        async def scenario():
            service = MinCutService(serve=self.CONFIG)
            await service.start()
            await service.stop()
            await service.stop()  # second stop: no-op, no error
            await service.start()  # restart admits again
            result = await service.submit(build("gnm", 16, 4), seed=4)
            await service.stop()
            return result

        result = run(scenario())
        assert isinstance(result, MinCutResult)


# ----------------------------------------------------------------------
# Server hardening (satellite: disconnect during drain)
# ----------------------------------------------------------------------
class TestServerHardening:
    def test_disconnect_during_drain_keeps_server_alive(self, monkeypatch):
        graph = build("gnm", 16, 0)
        original_drain = asyncio.StreamWriter.drain
        tripped = []

        async def scenario():
            async with MinCutServer(port=0) as server:
                async def flaky_drain(writer_self):
                    sockname = writer_self.transport.get_extra_info(
                        "sockname"
                    )
                    if (
                        not tripped
                        and sockname
                        and sockname[1] == server.port
                    ):
                        tripped.append(True)
                        raise ConnectionResetError("client vanished")
                    return await original_drain(writer_self)

                monkeypatch.setattr(
                    asyncio.StreamWriter, "drain", flaky_drain
                )
                async with ServeClient(port=server.port) as client:
                    # The response bytes may still reach the client, but
                    # the server treats the drain failure as a dead peer
                    # and closes the connection ...
                    await client.solve(graph, seed=0)
                    with pytest.raises(ConnectionError):
                        await client.ping()
                # ... without dying itself: a fresh connection works,
                # and the interrupted request was not leaked in-flight.
                async with ServeClient(port=server.port) as client:
                    response = await client.solve(graph, seed=0)
                return (
                    response,
                    server.resets,
                    dict(server.service._inflight),
                )

        response, resets, inflight = run(scenario())
        assert tripped == [True]
        assert response["ok"] is True
        # The dropped request had already been solved and cached.
        assert response["source"] == "result-cache"
        assert resets == 1
        assert inflight == {}
