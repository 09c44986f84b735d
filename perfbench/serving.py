"""Open-loop serving workload: ``serve-mixed``.

One asyncio process drives an in-process ``MinCutService`` (oracle
solver, one worker thread) from a seeded arrival schedule at a fixed
offered rate.  Each request is timed from the moment it was *due*, so a
stall also charges the requests queued behind it.  Every pass serves the
same mix of request kinds, in seeded order, on seeded graphs:

* ``hit``   -- a repeat of an earlier (graph, seed) pair: a result-cache
  read, or an in-flight dedup when the original is still being solved;
* ``cold``  -- a fresh single graph (gnm, n in 64/96/128): a cold solve
  that fills both caches;
* ``burst`` -- several fresh small graphs due at the same instant, which
  the batcher fuses into one ``minimum_cut_many`` sweep.

The TCP front end (``repro.serve.server``) is deliberately not timed.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass

from repro import SolverConfig
from repro.serve import MinCutService, ServeConfig
from repro.serve.resilience import ResilienceConfig

from common import (
    HEAVY_GRAPHS,
    Outcome,
    Pass,
    TraceWindow,
    check,
    describe,
    fresh_copy,
    heavy_graph,
    make_graph,
    reference_value,
)

#: the slots of one pass; "burst" slots carry BURST requests.
CYCLE = ("hit",) * 2 + ("burst",) + ("cold",) * 10
COLD_SIZES = (64,) * 6 + (96,) * 2 + (128,) * 2
BURST, BURST_N = 2, 16
SLOT_RATE = 5.0  # slots per second: ~5.4 requests/s offered
JITTER = 0.1  # of a slot interval: slots never overlap a cold solve
LATENCY_LIMIT_S = 0.25  # a request slower than this misses goodput
SMOKE_COLD, SMOKE_BURST_N, SMOKE_RATE = (12,) * 6 + (16,) * 2 + (20,) * 2, 8, 40.0
WARM_SIZES = (16, 64, 128)
WARM_SEED = 10 ** 6


@dataclass
class Request:
    kind: str
    graph: object
    seed: int
    reference: float


@dataclass
class Slot:
    due_s: float
    requests: list


def schedule(seed: int, cold_sizes, burst_n: int, rate: float) -> list:
    """A seeded arrival schedule: CYCLE in seeded order, repeats last so
    that they have something to repeat, one slot every ``1 / rate``
    seconds with seeded jitter."""
    rng = random.Random(seed)
    issued: list = []  # fresh requests already scheduled
    counter = 0

    def fresh(kind: str, n: int) -> Request:
        nonlocal counter
        counter += 1
        graph = make_graph("gnm", n, seed * 1000 + counter)
        request = Request(kind, graph, counter, reference_value(graph))
        issued.append(request)
        return request

    kinds = sorted(rng.sample(CYCLE, len(CYCLE)), key=lambda kind: kind == "hit")
    sizes = rng.sample(cold_sizes, len(cold_sizes))
    slots = []
    for index, kind in enumerate(kinds):
        due = (index + 0.5 + rng.uniform(-JITTER, JITTER)) / rate
        if kind == "hit":
            old = rng.choice(issued)
            requests = [Request("hit", old.graph, old.seed, old.reference)]
        elif kind == "burst":
            requests = [fresh("burst", burst_n) for _ in range(BURST)]
        else:
            requests = [fresh("cold", sizes.pop())]
        slots.append(Slot(due, requests))
    return slots


class ServeWorkload:
    """One pass serves one cycle (2.6 s) on a fresh service, so that the
    calibration samples between passes follow the machine's drift."""

    latency_limit_s = LATENCY_LIMIT_S
    pass_seconds = len(CYCLE) / SLOT_RATE

    def __init__(self, name: str, seed: int, smoke: bool):
        self.seed = seed
        self.smoke = smoke
        self.passes: list = []  # one schedule per pass
        self.loop = asyncio.new_event_loop()
        self.service: MinCutService | None = None
        self.service_used = False

    def _config(self, traced: bool) -> SolverConfig:
        return SolverConfig(solver="oracle", compute_congest=False, trace=traced)

    # -- untimed ---------------------------------------------------------
    def build_inputs(self, passes: int) -> None:
        cold, burst_n, rate = (
            (SMOKE_COLD, SMOKE_BURST_N, SMOKE_RATE)
            if self.smoke
            else (COLD_SIZES, BURST_N, SLOT_RATE)
        )
        self.passes = [
            schedule(self.seed * 100 + index, cold, burst_n, rate)
            for index in range(passes)
        ]

    # -- timed as set-up -------------------------------------------------
    def warm_up(self) -> None:
        self.service = self.loop.run_until_complete(self._started(False))

    async def _started(self, traced: bool) -> MinCutService:
        service = MinCutService(
            self._config(traced),
            serve=ServeConfig(batch_ms=2.0),
            resilience=ResilienceConfig(max_queue=64),
        )
        await service.start()
        for i, n in enumerate(WARM_SIZES):
            await service.submit(make_graph("gnm", n, WARM_SEED + i), seed=i)
        return service

    # -- timed -----------------------------------------------------------
    def measure(self, index: int, traced: bool) -> Pass:
        if self.service_used or traced:
            # a served schedule leaves its answers cached: start afresh
            self.loop.run_until_complete(self.service.stop())
            self.service = self.loop.run_until_complete(self._started(traced))
        self.service_used = True
        drive = self._drive(self.service, self.passes[index])
        if not traced:
            return self.loop.run_until_complete(drive)
        with TraceWindow() as window:
            result = self.loop.run_until_complete(drive)
        result.extra["trace"] = window
        return result

    async def _drive(self, service: MinCutService, plan: list) -> Pass:
        # new graph objects per pass, as a client that just deserialized
        # them would hold: no memoized hash carries over between passes
        slots = [
            (slot.due_s, [(request, fresh_copy(request.graph)) for request in slot.requests])
            for slot in plan
        ]
        lateness: list = []
        tasks: list = []
        start = time.perf_counter()
        for due_s, requests in slots:
            due = start + due_s
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            lateness.append(max(0.0, time.perf_counter() - due))
            for request, graph in requests:
                tasks.append(asyncio.create_task(self._one(service, request, graph, due)))
        outcomes = list(await asyncio.gather(*tasks))
        wall = time.perf_counter() - start
        extra = {"lateness": lateness, "stats": service.stats()}
        return Pass(outcomes, wall, extra, paced=True)

    async def _one(self, service, request: Request, graph, due: float) -> Outcome:
        outcome = Outcome(request.kind, graph, request.reference)
        try:
            outcome.result = await service.submit(graph, seed=request.seed)
        except Exception as exc:  # shed / expired / closed: a failure
            outcome.error = describe(exc)
        else:
            outcome.latency_s = time.perf_counter() - due
        return outcome

    # -- untimed ---------------------------------------------------------
    def heavy_probe(self) -> list:
        async def probe():
            errors = []
            for i in range(HEAVY_GRAPHS):
                graph = heavy_graph(self.seed * 100 + i)
                try:
                    result = await self.service.submit(graph, seed=i)
                except Exception as exc:  # a typed rejection
                    errors.append(describe(exc))
                else:
                    errors.append(check(graph, result, reference_value(graph)))
            return errors

        return self.loop.run_until_complete(probe())

    def close(self) -> None:
        if self.service is not None:
            self.loop.run_until_complete(self.service.stop())
            self.service = None
        self.loop.close()
