"""Turn one run's passes into the end-to-end and per-layer metrics.

Every metric is a ``name -> (value, unit)`` pair; ``lines`` collects the
human-readable report (counts, sample sizes, the per-layer table) that
``run.py`` prints before the JSON result.
"""

from __future__ import annotations

import math
import time

from common import (
    fresh_copy,
    mean,
    median,
    packing_rounds,
    peak_rss_mb,
    percentile,
    verify,
)

MS = 1000.0

#: span names reported as ``<name>.self_s`` (seconds of self time per item).
SELF_TIME_SPANS = (
    "pack.approx_min_cut",
    "pack.boruvka",
    "oracle.chunk",
    "session.finalize",
    "ma.two_respecting",
)

#: the serving tier's per-layer metrics and their units.
SERVE_UNITS = {
    "serve.hit_p50_ms": "ms",
    "serve.cold_p50_ms": "ms",
    "serve.burst_p50_ms": "ms",
    "serve.latency_p90_ms": "ms",
    "serve.batch.mean_size": "count",
    "serve.result_cache.hit_ratio": "ratio",
    "serve.inflight_hits": "count",
    "serve.packing_cache.hit_ratio": "ratio",
    "serve.packing_cache.evictions": "count",
    "serve.shed": "count",
    "serve.expired": "count",
    "serve.degraded": "count",
    "serve.worker_busy_share": "ratio",
    "loadgen.late_p90_ms": "ms",
}


def rescale(run) -> None:
    """Express a pass's timings at the reference machine speed."""
    run.raw_wall_s = run.wall_s
    if not run.paced:
        run.wall_s *= run.scale
    for outcome in run.outcomes:
        outcome.latency_s *= run.scale
        outcome.parts = {key: t * run.scale for key, t in outcome.parts.items()}


def latencies(outcomes) -> list:
    """Failed items count as infinitely slow."""
    return [o.latency_s if o.ok else math.inf for o in outcomes]


class Report:
    """``plains`` are the untraced passes, ``traceds`` the traced passes
    over the same lists (``--trace 1`` only), ``heavy`` the heavy-slice
    tally.  Pass timings are rescaled to the reference machine speed
    (``Pass.scale``); the graph probes and ``certify.s`` are raw."""

    def __init__(self, name, workload, plains, traceds, heavy):
        self.workload = workload
        self.plains = plains
        self.traceds = traceds
        self.heavy = heavy
        self.lines: list = []
        self.outcomes = [o for run in plains for o in run.outcomes]
        certify_s = verify(self.outcomes)
        self.certify_s = certify_s / max(1, sum(o.ok for o in self.outcomes))
        for run in traceds:
            verify(run.outcomes)
        passes = plains + traceds
        for run in passes:
            rescale(run)
        self.attempted = sum(len(run.outcomes) for run in passes)
        self.failed = sum(not o.ok for run in passes for o in run.outcomes)
        self.lines.append(
            f"workload {name}: attempted={self.attempted} "
            f"correct={self.attempted - self.failed} failed={self.failed}"
        )
        for run in passes:
            for outcome in run.outcomes:
                if not outcome.ok:
                    self.lines.append(f"  FAILED {outcome.kind}: {outcome.error}")
        bad = [error for error in heavy if error is not None]
        self.lines.append(
            f"heavy slice (ROADMAP numerics defect, outside the timed lists): "
            f"{len(heavy) - len(bad)}/{len(heavy)} correct"
            + (f"; first error: {bad[0][:120]}" if bad else "")
        )
        for kind, group in (("untraced", plains), ("traced", traceds)):
            for index, run in enumerate(group):
                self.lines.append(
                    f"{kind} pass {index}: wall {run.raw_wall_s:.3f} s raw, "
                    f"scale {run.scale:.4f}, {len(run.outcomes)} items"
                )

    # ------------------------------------------------------------------
    def end_to_end(self, setup_s: float, setup_samples: int) -> dict:
        """Every timed item of every untraced pass, pooled."""
        limit = self.workload.latency_limit_s
        ok = [o for o in self.outcomes if o.ok]
        samples = latencies(self.outcomes)
        wall = sum(run.wall_s for run in self.plains)
        metrics = {
            "setup_s": (setup_s, "s"),
            "latency_p50_ms": (median(samples) * MS, "ms"),
            "graphs_per_s": (len(ok) / wall, "1/s"),
            "goodput_rps": (sum(o.latency_s <= limit for o in ok) / wall, "1/s"),
            "correct_share": (len(ok) / len(self.outcomes), "ratio"),
            "paper_rounds": (mean(o.result.ma_rounds for o in ok), "rounds"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        self.lines.append(
            f"setup_s: median of {setup_samples} set-ups; latency_p50_ms over "
            f"{len(samples)} samples; goodput limit {limit * MS:.0f} ms"
        )
        if len(samples) >= 100:
            self.lines.append(
                f"latency_p90_ms = {percentile(samples, 90) * MS:.3f} "
                f"(n={len(samples)})"
            )
        kinds: dict = {}
        for outcome in self.outcomes:
            kinds.setdefault(outcome.kind, []).append(outcome)
        for kind, group in sorted(kinds.items()):
            self.lines.append(
                f"  {kind:<9} p50 {median(latencies(group)) * MS:10.3f} ms "
                f"(n={len(group)})"
            )
        self._print(metrics)
        return metrics

    # ------------------------------------------------------------------
    def per_layer(self) -> dict:
        items = len(self.outcomes)
        ok = [o for o in self.outcomes if o.ok]
        solver = getattr(self.workload, "solver", None)
        parts = lambda key: mean(o.parts.get(key, 0.0) for o in ok)  # noqa: E731
        windows = [run.extra["trace"] for run in self.traceds]
        spans: dict = {}
        for run, window in zip(self.traceds, windows):
            for name, (count, seconds, self_s) in window.by_name().items():
                row = spans.setdefault(name, [0, 0.0, 0.0])
                row[0] += count
                row[1] += seconds * run.scale
                row[2] += self_s * run.scale
        counter = lambda name: sum(w.counter(name) for w in windows) / items  # noqa: E731

        metrics = {
            "pack.s": (parts("pack"), "s"),
            "oracle.solve_s": (parts("solve") if solver == "oracle" else 0.0, "s"),
            "ma.solve_s": (
                parts("solve") if solver == "minor-aggregation" else 0.0, "s"
            ),
        }
        for name in SELF_TIME_SPANS:
            metrics[f"{name}.self_s"] = (spans.get(name, (0, 0, 0.0))[2] / items, "s")
        metrics.update({
            "pack.trees": (mean(len(o.result.packing.trees) for o in ok), "count"),
            "pack.rounds": (mean(packing_rounds(o.result) for o in ok), "rounds"),
            "oracle.chunks": (spans.get("oracle.chunk", (0,))[0] / items, "count"),
            "ma.rounds": (counter("ma.rounds"), "count"),
            "ma.rounds.compiled": (counter("ma.rounds.compiled"), "count"),
            "ma.rounds.fallback": (counter("ma.rounds.fallback"), "count"),
        })
        metrics.update(self._graph_timings())
        metrics["certify.s"] = (self.certify_s, "s")
        metrics.update(self._serve_layers(windows))
        traced = [o for run in self.traceds for o in run.outcomes if o.ok]
        metrics["obs.trace_overhead"] = (
            sum(o.latency_s for o in traced) / sum(o.latency_s for o in ok),
            "ratio",
        )
        metrics["latency.samples"] = (float(items), "count")
        metrics["numerics.heavy_failed"] = (
            float(sum(error is not None for error in self.heavy)), "count"
        )
        self._layer_table(spans, windows, items)
        self._print(metrics)
        return metrics

    def _print(self, metrics) -> None:
        for name, (value, unit) in metrics.items():
            self.lines.append(f"  {name:<30} {value:>16.6f} {unit}")

    def _graph_timings(self) -> dict:
        """``CSRGraph.diameter`` and ``canonical_hash`` timed from outside,
        on fresh copies so no memoized state is shared with the solves."""
        graphs = {id(o.graph): o.graph for o in self.outcomes}.values()
        diameter = canonical = 0.0
        for graph in graphs:
            copy = fresh_copy(graph)
            started = time.perf_counter()
            copy.diameter()
            diameter += time.perf_counter() - started
            copy = fresh_copy(graph)
            started = time.perf_counter()
            copy.canonical_hash()
            canonical += time.perf_counter() - started
        count = max(1, len(graphs))
        return {
            "graphs.diameter_ms": (diameter / count * MS, "ms"),
            "graphs.canonical_hash_ms": (canonical / count * MS, "ms"),
        }

    def _serve_layers(self, windows) -> dict:
        """Serving-tier layers, summed over the passes' services; zero on
        workloads that bypass the service."""
        if "stats" not in self.plains[0].extra:
            return {name: (0.0, unit) for name, unit in SERVE_UNITS.items()}
        stats = [run.extra["stats"] for run in self.plains]
        total = lambda *path: sum(_dig(s, path) for s in stats)  # noqa: E731
        by_kind = lambda kind: median(  # noqa: E731
            latencies([o for o in self.outcomes if o.kind == kind])
        ) * MS
        lookups = total("packing_cache", "hits") + total("packing_cache", "misses")
        lateness = [late for run in self.plains for late in run.extra["lateness"]]
        busy = sum(w.by_name().get("serve.batch", (0, 0.0))[1] for w in windows)
        values = {
            "serve.hit_p50_ms": by_kind("hit"),
            "serve.cold_p50_ms": by_kind("cold"),
            "serve.burst_p50_ms": by_kind("burst"),
            "serve.latency_p90_ms": percentile(latencies(self.outcomes), 90) * MS,
            "serve.batch.mean_size": (
                total("batcher", "items") / max(1, total("batcher", "batches"))
            ),
            "serve.result_cache.hit_ratio": (
                total("result_cache", "hits") / max(1, total("requests"))
            ),
            "serve.inflight_hits": total("inflight_hits"),
            "serve.packing_cache.hit_ratio": (
                total("packing_cache", "hits") / max(1, lookups)
            ),
            "serve.packing_cache.evictions": total("packing_cache", "evictions"),
            "serve.shed": total("resilience", "shed"),
            "serve.expired": total("resilience", "expired"),
            "serve.degraded": total("resilience", "degraded"),
            # both raw: a share of the traced passes' own wall time
            "serve.worker_busy_share": (
                busy / sum(run.raw_wall_s for run in self.traceds)
            ),
            "loadgen.late_p90_ms": percentile(lateness, 90) * MS,
        }
        self.lines.append(
            f"serve.latency_p90_ms over {len(self.outcomes)} samples; "
            f"loadgen.late_p90_ms over {len(lateness)} slots"
        )
        return {
            name: (float(values[name]), unit) for name, unit in SERVE_UNITS.items()
        }

    def _layer_table(self, spans, windows, items: int) -> None:
        """Self time per span name as a share of the traced time."""
        total = sum(
            w.profile["total_seconds"] * run.scale
            for run, w in zip(self.traceds, windows)
        ) or 1.0
        count = sum(w.profile["span_count"] for w in windows)
        dropped = sum(w.dropped for w in windows)
        self.lines.append(
            f"traced passes: {total:.3f} s in spans over {items} items "
            f"({count} spans, {dropped} dropped)"
        )
        self.lines.append(
            f"  {'span':<28} {'count/item':>10} {'self s/item':>12} {'share':>7}"
        )
        for name, (count, _seconds, self_s) in sorted(
            spans.items(), key=lambda kv: -kv[1][2]
        ):
            self.lines.append(
                f"  {name:<28} {count / items:>10.2f} {self_s / items:>12.5f} "
                f"{self_s / total:>7.1%}"
            )


def _dig(stats: dict, path) -> float:
    for key in path:
        stats = stats[key]
    return float(stats or 0)
