"""Runtime histograms (Figure 2: 0.1-second bins over the top 30 teams)."""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

#: Figure 2's bin width, seconds.
BIN_WIDTH = 0.1
#: Runtimes at or past this many seconds share the ASCII histogram's tail
#: row, so a 2-minute outlier does not print a thousand empty lines.
COLLAPSE_AFTER = 2.0
#: Bar width of the ASCII histogram, characters.
BAR_WIDTH = 40


def bin_runtimes(times: Sequence[float],
                 max_time: float = None) -> Tuple[np.ndarray, np.ndarray]:
    """Histogram ``times`` into :data:`BIN_WIDTH` bins starting at 0.

    Returns ``(edges, counts)`` with ``len(edges) == len(counts) + 1``.
    """
    times = np.asarray(list(times), dtype=float)
    if times.size and (times < 0).any():
        raise ValueError("runtimes must be non-negative")
    top = max_time if max_time is not None else \
        (float(times.max()) if times.size else BIN_WIDTH)
    n_bins = max(1, int(np.ceil(top / BIN_WIDTH + 1e-9)))
    edges = np.arange(n_bins + 1) * BIN_WIDTH
    counts, _ = np.histogram(times, bins=edges)
    return edges, counts


def runtime_histogram(times: Sequence[float]) -> List[dict]:
    """Figure 2 rows: one dict per non-empty bin."""
    edges, counts = bin_runtimes(times)
    rows = []
    for i, count in enumerate(counts):
        if count > 0:
            rows.append({
                "lo": float(edges[i]),
                "hi": float(edges[i + 1]),
                "teams": int(count),
            })
    return rows


def ascii_histogram(times: Sequence[float]) -> str:
    """Terminal rendering of the Figure 2 histogram, its tail past
    :data:`COLLAPSE_AFTER` seconds merged into one row."""
    times = list(times)
    if not times:
        return "(no data)"
    width, collapse_after = BAR_WIDTH, COLLAPSE_AFTER
    head = [t for t in times if t < collapse_after]
    tail = [t for t in times if t >= collapse_after]
    edges, counts = bin_runtimes(head, max_time=collapse_after)
    peak = max(int(counts.max()) if counts.size else 1, 1)
    lines = []
    for i, count in enumerate(counts):
        bar = "█" * max(0, round(width * count / peak))
        lines.append(f"{edges[i]:5.1f}-{edges[i + 1]:4.1f}s "
                     f"|{bar:<{width}}| {count}")
    if tail:
        lines.append(f" >{collapse_after:4.1f}s  "
                     f"|{'█' * max(1, round(width * len(tail) / peak)):<{width}}| "
                     f"{len(tail)}  (slowest {max(tail):.1f}s)")
    return "\n".join(lines)
