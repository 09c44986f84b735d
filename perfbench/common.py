"""Shared pieces of the benchmark: seeded graph builders, the heavy-weight
numerics slice, correctness checks, trace aggregation and summary stats.

Everything here runs *outside* the timed regions.  Imported only after
``run.py`` has started its set-up clock, because it imports ``repro``.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from repro.baselines.stoer_wagner import stoer_wagner_min_cut
from repro.certify import certify_result
from repro.graphs import (
    CSRGraph,
    csr_delaunay_planar_graph,
    csr_grid_graph,
    csr_random_connected_gnm,
)
from repro.obs import build_profile
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

FAMILIES = ("gnm", "grid", "delaunay")

#: relative tolerance when comparing a cut value with the reference.
VALUE_RTOL = 1e-9

#: graphs in the heavy-weight slice (ROADMAP numerics defect).
HEAVY_GRAPHS = 2

#: the calibration kernel's median time on the reference machine (2-core
#: x86-64 VM, Xeon at 2.0 GHz); timings are reported at this speed.
CALIBRATION_REF_S = 0.04
CALIBRATION_SAMPLES = 5


def make_graph(family: str, n: int, seed: int) -> CSRGraph:
    """One seeded input graph of about ``n`` nodes."""
    if family == "gnm":
        return csr_random_connected_gnm(n, 3 * n, seed=seed)
    if family == "grid":
        rows = max(2, int(math.sqrt(n)))
        return csr_grid_graph(rows, max(2, round(n / rows)), seed=seed)
    if family == "delaunay":
        return csr_delaunay_planar_graph(n, seed=seed)
    raise ValueError(f"unknown family {family!r}")


def fresh_copy(graph: CSRGraph) -> CSRGraph:
    """A new graph object with the same edge table (no memoized state),
    as a client that just deserialized the request would hold."""
    return CSRGraph(
        graph.n, graph.edge_u, graph.edge_v, graph.edge_w, canonical=True
    )


def heavy_graph(seed: int) -> CSRGraph:
    """Two gnm(20, 80) blocks with weights from U[1e8, 1e9], joined by
    3 light edges from U[1e-3, 1]: the exact solvers' float64 prefix-sum
    differencing loses the light cut in the heavy blocks' rounding."""
    rng = np.random.default_rng(seed)
    left = csr_random_connected_gnm(20, 80, seed=2 * seed)
    right = csr_random_connected_gnm(20, 80, seed=2 * seed + 1)
    u = np.concatenate([left.edge_u, right.edge_u + 20, rng.integers(0, 20, 3)])
    v = np.concatenate([left.edge_v, right.edge_v + 20, rng.integers(20, 40, 3)])
    w = np.concatenate([
        rng.uniform(1e8, 1e9, left.m),
        rng.uniform(1e8, 1e9, right.m),
        rng.uniform(1e-3, 1.0, 3),
    ])
    return CSRGraph(40, u, v, w)


def reference_value(graph: CSRGraph) -> float:
    """The Stoer-Wagner reference cut value."""
    value, _sides = stoer_wagner_min_cut(graph)
    return float(value)


def check(graph: CSRGraph, result, reference: float) -> "str | None":
    """``None`` when ``result`` is a correct min-cut of ``graph``, else why not."""
    if not hasattr(result, "partition"):  # a SweepFailure record
        return f"{result.error}: {result.message}"
    if abs(result.value - reference) > VALUE_RTOL * max(1.0, abs(reference)):
        return f"value {result.value} != reference {reference}"
    certificate = certify_result(graph, result)
    if not certificate.ok:
        return "certificate failed: " + "; ".join(certificate.failures)
    return None


def describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


@dataclass
class Outcome:
    """One timed item: a graph solve or a served request."""

    kind: str
    graph: CSRGraph
    reference: float
    latency_s: float = math.inf
    result: object = None
    error: "str | None" = None
    parts: dict = field(default_factory=dict)  # outside timings per layer

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class Pass:
    """Everything one pass over a workload's fixed input list produced."""

    outcomes: list
    wall_s: float
    extra: dict = field(default_factory=dict)
    #: CALIBRATION_REF_S over the calibration kernel's median time around
    #: this pass: multiplying a timing by it removes machine-speed drift.
    scale: float = 1.0
    #: an open-loop pass, whose wall time the arrival schedule sets
    paced: bool = False


def verify(outcomes) -> float:
    """Check every outcome against its reference; returns certify seconds."""
    total = 0.0
    for outcome in outcomes:
        if outcome.error is not None:
            continue
        started = time.perf_counter()
        outcome.error = check(outcome.graph, outcome.result, outcome.reference)
        total += time.perf_counter() - started
    return total


class TraceWindow:
    """Collects the spans and metric counters of one traced pass and
    aggregates them with the existing profile builder."""

    def __enter__(self) -> "TraceWindow":
        obs_trace.clear()
        obs_metrics.reset()
        self._mark = obs_trace.mark()
        return self

    def __exit__(self, *_exc) -> bool:
        self.spans = obs_trace.records_since(self._mark)
        self.counters = obs_metrics.snapshot()["counters"]
        self.dropped = obs_trace.dropped()
        self.profile = build_profile(self.spans, dropped=self.dropped)
        return False

    def by_name(self) -> dict:
        """Summed ``(count, seconds, self_seconds)`` per span name."""
        table: dict[str, list] = {}

        def walk(node):
            row = table.setdefault(node["name"], [0, 0.0, 0.0])
            row[0] += node["count"]
            row[1] += node["seconds"]
            row[2] += node["self_seconds"]
            for child in node["children"]:
                walk(child)

        for root in self.profile["tree"]:
            walk(root)
        return {name: tuple(row) for name, row in table.items()}

    def counter(self, name: str) -> float:
        value = self.counters.get(name, 0.0)
        return float(value) if isinstance(value, (int, float)) else 0.0


def calibration_kernel() -> float:
    """Seconds for a fixed mix of interpreter-bound dict work, cache-sized
    numpy work and memory-bound numpy work, like the solvers' own mix,
    touching no ``repro`` code."""
    started = time.perf_counter()
    table: dict = {}
    for i in range(60_000):
        table[i % 1009] = table.get(i % 1009, 0) + i
    values = np.arange(100_000, dtype=np.float64)
    for _ in range(30):
        values = np.sqrt(values * 1.0001 + 1.0)
    big = np.ones(2_000_000)
    for _ in range(4):
        big = big * 1.0001
    return time.perf_counter() - started


def calibration_samples() -> list:
    return [calibration_kernel() for _ in range(CALIBRATION_SAMPLES)]


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def mean(values) -> float:
    values = list(values)
    return float(sum(values) / len(values)) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def packing_rounds(result) -> float:
    ledger = result.stats.get("accountant", {}).get("by_label", {})
    return float(sum(v for k, v in ledger.items() if k.startswith("packing:")))
