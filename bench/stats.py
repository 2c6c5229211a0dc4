"""Small statistics helpers shared by the benchmark's processes."""

from __future__ import annotations

import math

# Report p99 when it has at least this many samples beyond it, else the
# highest percentile that does.
TAIL_BEYOND = 10


def tail_rank(n: int) -> tuple[int, float]:
    """0-based rank in the sorted samples and the percentile it stands for.

    The reported tail is p99 (nearest rank) when at least TAIL_BEYOND
    samples lie beyond it, otherwise the sample with exactly TAIL_BEYOND
    samples beyond it.  Needs n > TAIL_BEYOND.
    """
    if n <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} samples for a tail, got {n}")
    rank = math.ceil(0.99 * n) - 1
    if n - 1 - rank < TAIL_BEYOND:
        rank = n - 1 - TAIL_BEYOND
    return rank, 100.0 * (rank + 1) / n


def latency_summary(values, weights) -> dict:
    """Median and tail of per-operation latency, in microseconds.

    values[i] is a latency in ns and weights[i] the operations it stands
    for: a call that did many operations (a table of rows) counts once per
    operation, at its mean.
    """
    s = sorted(zip(values, weights))
    n = sum(weights)
    rank, pct = tail_rank(n)
    return {"p50_us": (_at(s, (n - 1) // 2) + _at(s, n // 2)) / 2e3,
            "tail_us": _at(s, rank) / 1e3, "tail_percentile": pct,
            "samples": n, "beyond_tail": n - 1 - rank}


def _at(s: list[tuple[int, int]], rank: int) -> float:
    """Value at a 0-based rank of the expanded sorted samples."""
    seen = 0
    for value, k in s:
        seen += k
        if rank < seen:
            return value
    raise IndexError(rank)
