"""Latency statistics and the per-layer metric table of a traced run."""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path
from typing import Dict, Mapping, Sequence, Tuple

from perfbench.tracer import LAYERS, REQUEST, self_times

__all__ = [
    "TAIL_BEYOND",
    "tail_percentile",
    "request_tail",
    "layer_metrics",
    "metric_units",
]

#: Requests that must lie beyond the tail percentile.
TAIL_BEYOND = 10


def tail_percentile(count: int) -> Tuple[int, int]:
    """The highest whole nearest-rank percentile with ``TAIL_BEYOND`` samples beyond it.

    Parameters
    ----------
    count : int
        Number of latency samples.

    Returns
    -------
    (percentile, rank)
        ``rank`` is the 1-based nearest rank ``ceil(percentile / 100 * count)``
        and ``count - rank >= TAIL_BEYOND``.

    Raises
    ------
    ValueError
        If fewer than ``TAIL_BEYOND + 1`` samples exist.
    """
    for percentile in range(99, 0, -1):
        rank = math.ceil(percentile * count / 100)
        if rank >= 1 and count - rank >= TAIL_BEYOND:
            return percentile, rank
    raise ValueError(
        f"a tail percentile needs at least {TAIL_BEYOND + 1} samples, got {count}"
    )


def request_tail(latencies: Sequence[float]) -> Tuple[float, int]:
    """``(latency, percentile)`` of :func:`tail_percentile` over *latencies*."""
    percentile, rank = tail_percentile(len(latencies))
    return sorted(latencies)[rank - 1], percentile


ROOT = Path(__file__).resolve().parent.parent


def metric_units(section: str) -> Dict[str, str]:
    """Name and unit of every metric of *section* (``"end_to_end"`` or
    ``"per_layer"``) in ``BENCHMARK.json``, in the file's order.

    ``BENCHMARK.json`` is the one list of metric names and units; per-layer
    values are means per request over the run where the unit says ``/req``.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def layer_metrics(
    spans,
    labels,
    counts: Mapping[str, float],
    *,
    requests: int,
    runner: Mapping[str, float],
    untraced_wall: float,
    scale: float = 1.0,
) -> Dict[str, float]:
    """The per-layer metric values of one traced run.

    Parameters
    ----------
    spans, labels
        The tracer's span list and label table.
    counts : mapping
        The tracer's work counters.
    requests : int
        Requests the traced run completed (the per-request divisor).
    runner : mapping
        Run-level totals from the runner reports: ``shards``, ``cached``,
        ``failed``, ``retries`` and ``store_bytes``.
    untraced_wall : float
        Summed latency of the same requests without tracing, in reference
        seconds.
    scale : float, optional
        Factor from this run's wall seconds to reference seconds
        (:func:`perfbench.speed.speed_factor`), applied to every time.

    Returns
    -------
    dict
        Every per-layer metric of ``BENCHMARK.json``, in its order.
        ``traced_wall_s`` equals the
        sum of every ``*.self_s`` value plus ``unattributed_s``.
    """
    totals = self_times(spans, labels)
    per = 1.0 / requests

    def self_s(layer: str) -> float:
        return totals.get(layer, {}).get("self_s", 0.0) * per * scale

    def calls(layer: str) -> float:
        return totals.get(layer, {}).get("calls", 0) * per

    traced_wall = scale * sum(
        end - start
        for _span_id, _parent, label, start, end in spans
        if labels[label][0] == REQUEST
    )
    ball_calls = totals.get("topology.ball", {}).get("calls", 0)
    pairs = counts.get("simulation.pairs", 0.0)
    shards = runner.get("shards", 0)
    values = {f"{layer}.self_s": self_s(layer) for layer in LAYERS}
    values.update(
        {
            "permutations.calls": calls("permutations"),
            "permutations.rows": counts.get("permutations.rows", 0.0) * per,
            "topology.ball.calls": calls("topology.ball"),
            "topology.ball.nodes": counts.get("topology.ball.nodes", 0.0) * per,
            "topology.ball.truncated_frac": (
                counts.get("topology.ball.truncated", 0.0) / ball_calls
                if ball_calls
                else 0.0
            ),
            "topology.bfs.calls": calls("topology.bfs"),
            "topology.bfs.nodes": counts.get("topology.bfs.nodes", 0.0) * per,
            "embedding.calls": calls("embedding"),
            "embedding.edges": counts.get("embedding.edges", 0.0) * per,
            "simd.compile.calls": calls("simd.compile"),
            "simd.plan.calls": calls("simd.plan"),
            "simd.unit_routes": counts.get("simd.unit_routes", 0.0) * per,
            "algorithms.calls": calls("algorithms"),
            "simulation.trials": counts.get("simulation.trials", 0.0) * per,
            "simulation.pairs": pairs * per,
            "simulation.decided_frac": (
                counts.get("simulation.decided", 0.0) / pairs if pairs else 0.0
            ),
            "experiments.store_hit_ratio": (
                runner.get("cached", 0) / shards if shards else 0.0
            ),
            "experiments.store_bytes": runner.get("store_bytes", 0) * per,
            "experiments.failed": float(runner.get("failed", 0)),
            "experiments.retries": float(runner.get("retries", 0)),
            "traced_wall_s": traced_wall * per,
            "unattributed_s": self_s(REQUEST),
            "trace_overhead_frac": (
                traced_wall / untraced_wall - 1.0 if untraced_wall > 0 else 0.0
            ),
        }
    )
    names = metric_units("per_layer")
    missing = set(names) - set(values)
    if missing:
        raise RuntimeError(f"per-layer metrics not computed: {sorted(missing)}")
    return {name: values[name] for name in names}


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence."""
    return float(statistics.median(values))
