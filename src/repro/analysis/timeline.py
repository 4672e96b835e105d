"""Submission timelines (Figure 4: submissions per hour, last two weeks)."""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

HOUR = 3600.0


def hourly_counts(times: Sequence[float], start: float,
                  end: float) -> Tuple[np.ndarray, np.ndarray]:
    """Count events per hour over ``[start, end)``.

    Returns ``(hour_starts, counts)``.
    """
    if end <= start:
        raise ValueError("end must be after start")
    times = np.asarray(list(times), dtype=float)
    n_hours = int(np.ceil((end - start) / HOUR))
    edges = start + np.arange(n_hours + 1) * HOUR
    counts, _ = np.histogram(times, bins=edges)
    return edges[:-1], counts


def peak_hour(times: Sequence[float], start: float, end: float) -> dict:
    starts, counts = hourly_counts(times, start, end)
    if counts.size == 0:
        return {"start": start, "count": 0}
    idx = int(np.argmax(counts))
    return {"start": float(starts[idx]), "count": int(counts[idx])}


_BLOCKS = " ▁▂▃▄▅▆▇█"


def ascii_timeline(times: Sequence[float], start: float,
                   end: float) -> str:
    """One text row per day, one character per hour (Figure 4 as a
    day × hour heat strip)."""
    starts, counts = hourly_counts(times, start, end)
    peak = max(int(counts.max()) if counts.size else 1, 1)
    lines = []
    for row_start in range(0, len(counts), 24):
        row = counts[row_start:row_start + 24]
        day = int((starts[row_start] - start) // (24 * HOUR))
        cells = "".join(
            _BLOCKS[min(len(_BLOCKS) - 1,
                        int(round((len(_BLOCKS) - 1) * c / peak)))]
            for c in row)
        lines.append(f"day {day:2d} |{cells}| {int(row.sum()):5d}")
    lines.append(f"peak: {peak} submissions/hour; "
                 f"total: {int(counts.sum())}")
    return "\n".join(lines)
