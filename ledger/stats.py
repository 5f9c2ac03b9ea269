"""Pure arithmetic of the LEDGER benchmark: percentiles and span self times.

Nothing here touches the serving stack, so the self-tests in
``test_ledger.py`` pin these rules down exactly.
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Iterable, Optional, Sequence

#: a tail percentile is only reported when at least this many samples lie beyond it
MIN_BEYOND = 10


def _rank(q: float, n: int) -> int:
    # rounded first so that 0.99 * 1000 ranks 990, not 991
    return math.ceil(round(q * n, 9))


def nearest_rank(sorted_values: Sequence[float], q: float) -> float:
    """The nearest-rank ``q`` quantile (0 < q <= 1) of already-sorted values."""
    if not sorted_values:
        raise ValueError("no samples")
    index = min(max(_rank(q, len(sorted_values)) - 1, 0), len(sorted_values) - 1)
    return sorted_values[index]


@dataclass(frozen=True)
class Tail:
    """A tail latency together with the percentile it really is."""

    quantile: float
    value: float
    samples: int
    beyond: int

    @property
    def label(self) -> str:
        return f"p{self.quantile * 100:.4g} of {self.samples} ({self.beyond} beyond)"


def tail_percentile(
    values: Iterable[float], target: float = 0.99, min_beyond: int = MIN_BEYOND
) -> Tail:
    """``target`` percentile when at least ``min_beyond`` samples lie beyond it;
    otherwise the highest percentile that has them.

    With ``n`` samples the nearest-rank ``q`` percentile has
    ``n - ceil(q * n)`` samples beyond it, so the fallback is
    ``q = (n - min_beyond) / n``.  Fewer than ``min_beyond + 1`` samples
    support no tail at all.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= min_beyond:
        raise ValueError(f"{n} samples cannot support a tail percentile")
    beyond = n - _rank(target, n)
    if beyond >= min_beyond:
        return Tail(target, nearest_rank(ordered, target), n, beyond)
    quantile = (n - min_beyond) / n
    return Tail(quantile, ordered[n - min_beyond - 1], n, min_beyond)


def windowed_tail(
    values: Sequence[float], windows: int, target: float = 0.99, min_beyond: int = MIN_BEYOND
) -> tuple[float, list[Tail]]:
    """The median over consecutive slices of each slice's tail.

    ``values`` are in arrival order.  There are at most ``windows`` slices,
    and fewer when a slice would be too small for its tail to be the
    ``target`` percentile.  A burst of scheduler stalls on a shared host
    then moves one slice's tail instead of the reported value.
    """
    windows = max(1, min(windows, int(len(values) * (1.0 - target) / min_beyond + 1e-9)))
    size = len(values) // windows
    tails = [
        tail_percentile(values[i * size : (i + 1) * size], target, min_beyond)
        for i in range(windows)
    ]
    return median([tail.value for tail in tails]), tails


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


# ----------------------------------------------------------------------
# span self times
# ----------------------------------------------------------------------


def merge_intervals(intervals: Iterable[tuple[float, float]]) -> list[tuple[float, float]]:
    """Union of closed intervals as a sorted list of disjoint intervals."""
    merged: list[list[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(start, end) for start, end in merged]


def measure(merged: Sequence[tuple[float, float]]) -> float:
    return sum(end - start for start, end in merged)


def overlap(a: Sequence[tuple[float, float]], b: Sequence[tuple[float, float]]) -> float:
    """Length of the intersection of two merged interval lists."""
    total = 0.0
    i = j = 0
    while i < len(a) and j < len(b):
        start = max(a[i][0], b[j][0])
        end = min(a[i][1], b[j][1])
        if end > start:
            total += end - start
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


@dataclass(frozen=True)
class FlatSpan:
    name: str
    start_ms: float
    end_ms: float
    parent: Optional[int]


def flatten_trace(trace: dict[str, Any]) -> list[FlatSpan]:
    """One span tree (``Span.to_dict`` form) as spans on one time axis.

    Child offsets are relative to their root.  A fleet router trace carries
    the workers' root spans under ``worker_spans``; each is placed by its
    wall-clock ``started_at`` relative to the router root's and attached to
    the router ``forward`` span that contains its start (else the root).
    """
    spans: list[FlatSpan] = []

    def walk(node: dict[str, Any], parent: Optional[int], base_ms: float) -> None:
        start = base_ms + float(node.get("offset_ms", 0.0))
        end = start + float(node.get("duration_ms", 0.0))
        index = len(spans)
        spans.append(FlatSpan(node["name"], start, end, parent))
        for child in node.get("children", ()):
            walk(child, index, base_ms)

    walk(trace, None, 0.0)
    for worker_root in trace.get("worker_spans", ()):
        start = (float(worker_root["started_at"]) - float(trace["started_at"])) * 1000.0
        parent = 0
        for index, span in enumerate(spans):
            if span.name == "forward" and span.start_ms <= start <= span.end_ms:
                parent = index
        walk(worker_root, parent, start)
    return spans


def stage_times(trace: dict[str, Any]) -> dict[str, dict[str, float]]:
    """Per span name: ``total`` covered time and ``self`` time, in ms.

    A stage's self time is the time its spans cover minus the part their
    child spans cover.  Spans of one name are merged first, so the 32
    overlapping ``decode`` children of one batch-wire envelope count once.
    """
    spans = flatten_trace(trace)
    own: dict[str, list[tuple[float, float]]] = defaultdict(list)
    children: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        own[span.name].append((span.start_ms, span.end_ms))
        if span.parent is not None:
            children[spans[span.parent].name].append((span.start_ms, span.end_ms))
    result: dict[str, dict[str, float]] = {}
    for name, intervals in own.items():
        merged = merge_intervals(intervals)
        total = measure(merged)
        covered = overlap(merged, merge_intervals(children.get(name, ())))
        result[name] = {"total": total, "self": max(total - covered, 0.0)}
    return result
