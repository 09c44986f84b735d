"""Closed-loop solver workloads: ``oracle-ladder`` and ``ma-recursion``.

One client solves a fixed, seeded, size-interleaved list of graphs, one
after the other.  Each solve is timed from outside in two calls --
``MinCutSolver.pack(g, seed).packing`` (tree packing) and
``GraphPacking.solve(name)`` (the exact solver) -- whose sum is the
graph's latency.  The traced pass repeats a list through a
``SolverConfig(trace=True)`` session and aggregates the recorded spans
with the profile builder.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass

from repro import MinCutSolver, SolverConfig
from repro.graphs import CSRGraph

from common import (
    FAMILIES,
    HEAVY_GRAPHS,
    Outcome,
    Pass,
    TraceWindow,
    calibration_kernel,
    describe,
    check,
    fresh_copy,
    heavy_graph,
    make_graph,
    reference_value,
)


@dataclass(frozen=True)
class Spec:
    solver: str
    sizes: tuple  # one pass solves every family at every size
    pass_seconds: float  # about one pass's solve time on the reference VM
    latency_limit_s: float  # a graph slower than this misses goodput


# Many items near the median steady latency_p50_ms: oracle-ladder lists
# its middle size twice, ma-recursion's sizes cost about the same.
SPECS = {
    "oracle-ladder": Spec("oracle", (125, 250, 250, 500), 9.0, 10.0),
    "ma-recursion": Spec("minor-aggregation", (28, 32, 36), 6.0, 30.0),
}
SMOKE_SIZES = (12, 16, 20)
WARM_N = 16
WARM_SEED = 10 ** 6


@dataclass
class Item:
    family: str
    seed: int
    graph: CSRGraph
    reference: float = 0.0


def ladder(sizes, seed: int, index: int) -> list:
    """Pass ``index``'s list: every family at every size, with the sizes
    rotated across families so that they alternate through the pass and
    slow drift weighs on every size alike."""
    order = [
        (family, sizes[(slot + j) % len(sizes)])
        for slot in range(len(sizes))
        for j, family in enumerate(FAMILIES)
    ]
    base = (seed * 100 + index) * 100
    return [(family, n, base + k) for k, (family, n) in enumerate(order)]


class SolverWorkload:
    def __init__(self, name: str, seed: int, smoke: bool):
        spec = SPECS[name]
        self.solver = spec.solver
        self.pass_seconds = spec.pass_seconds
        self.latency_limit_s = spec.latency_limit_s
        self.seed = seed
        self.sizes = SMOKE_SIZES if smoke else spec.sizes
        self.passes: list = []  # one input list per pass
        self.session: MinCutSolver | None = None

    # -- untimed ---------------------------------------------------------
    def build_inputs(self, passes: int) -> None:
        self.passes = [
            [
                Item(family, graph_seed, make_graph(family, n, graph_seed))
                for family, n, graph_seed in ladder(self.sizes, self.seed, index)
            ]
            for index in range(passes)
        ]
        for items in self.passes:
            for item in items:
                item.reference = reference_value(item.graph)

    # -- timed as set-up -------------------------------------------------
    def warm_up(self) -> None:
        self.session = MinCutSolver(SolverConfig(solver=self.solver, trace=False))
        for i, family in enumerate(FAMILIES):
            graph = make_graph(family, WARM_N, WARM_SEED + i)
            self.session.solve(graph, seed=WARM_SEED + i)

    # -- timed -----------------------------------------------------------
    def _fresh(self, index: int) -> list:
        """Pass ``index``'s list on new graph objects, so that no pass sees
        state an earlier pass memoized on a graph."""
        return [(item, fresh_copy(item.graph)) for item in self.passes[index]]

    def measure(self, index: int, traced: bool) -> Pass:
        """One closed-loop pass.  A calibration sample runs before each
        item, outside its timing, so the pass's scale follows drift
        within the pass too."""
        session = self.session
        if traced:
            session = MinCutSolver(SolverConfig(solver=self.solver, trace=True))
            session.solve(make_graph("gnm", WARM_N, WARM_SEED), seed=WARM_SEED)
        outcomes, calibration, busy = [], [], 0.0
        inputs = self._fresh(index)
        with (TraceWindow() if traced else nullcontext()) as window:
            for item, graph in inputs:
                calibration.append(calibration_kernel())
                outcome = Outcome(item.family, graph, item.reference)
                t0 = time.perf_counter()
                try:
                    packed = session.pack(graph, seed=item.seed)
                    packed.packing  # noqa: B018 -- the Theorem 12 packing
                    t1 = time.perf_counter()
                    outcome.result = packed.solve(self.solver)
                except Exception as exc:  # counted as a failure, never a crash
                    outcome.error = describe(exc)
                t2 = time.perf_counter()
                busy += t2 - t0
                if outcome.ok:
                    outcome.latency_s = t2 - t0
                    outcome.parts = {"pack": t1 - t0, "solve": t2 - t1}
                outcomes.append(outcome)
        return Pass(outcomes, busy, {"trace": window, "calibration": calibration})

    # -- untimed ---------------------------------------------------------
    def heavy_probe(self) -> list:
        """Solve the heavy-weight slice; returns one error string (or
        ``None`` when correct) per heavy graph."""
        errors = []
        for i in range(HEAVY_GRAPHS):
            graph = heavy_graph(self.seed * 100 + i)
            try:
                result = self.session.solve(graph, seed=i)
            except Exception as exc:  # the known numerics defect
                errors.append(describe(exc))
            else:
                errors.append(check(graph, result, reference_value(graph)))
        return errors

    def close(self) -> None:
        self.session = None
