"""Unit tests for histogram/timeline/report helpers."""

import numpy as np
import pytest

from repro.analysis import (
    ascii_histogram,
    ascii_timeline,
    bin_runtimes,
    format_bytes,
    format_duration,
    hourly_counts,
    peak_hour,
    render_table,
    runtime_histogram,
)

HOUR = 3600.0


class TestHistogram:
    def test_fixed_width_bins(self):
        edges, counts = bin_runtimes([0.05, 0.15, 0.17, 0.45])
        assert edges[1] == pytest.approx(0.1)
        assert counts[0] == 1 and counts[1] == 2 and counts[4] == 1

    def test_figure2_style_rows(self):
        rows = runtime_histogram([0.45, 0.41, 0.48, 0.44, 0.49, 1.2])
        first = rows[0]
        assert first["lo"] == pytest.approx(0.4)
        assert first["teams"] == 5   # "5 teams between 0.4 and 0.5"

    def test_empty_input(self):
        edges, counts = bin_runtimes([])
        assert counts.sum() == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bin_runtimes([-1.0])

    def test_ascii_collapses_tail(self):
        text = ascii_histogram([0.3, 0.4, 125.0])
        assert "slowest 125.0s" in text
        assert text.count("\n") < 30

    def test_ascii_empty(self):
        assert ascii_histogram([]) == "(no data)"


class TestTimeline:
    def test_hourly_counts(self):
        times = [0.5 * HOUR, 0.7 * HOUR, 5 * HOUR]
        starts, counts = hourly_counts(times, 0, 6 * HOUR)
        assert counts[0] == 2 and counts[5] == 1
        assert len(starts) == 6

    def test_peak_hour(self):
        times = [0.5 * HOUR] * 3 + [2.5 * HOUR] * 7
        peak = peak_hour(times, 0, 4 * HOUR)
        assert peak["count"] == 7
        assert peak["start"] == pytest.approx(2 * HOUR)

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            hourly_counts([], 10, 10)

    def test_ascii_one_row_per_day(self):
        times = list(np.linspace(0, 2 * 24 * HOUR - 1, 500))
        text = ascii_timeline(times, 0, 2 * 24 * HOUR)
        assert "day  0" in text and "day  1" in text
        assert "total: 500" in text


class TestReport:
    def test_render_table_aligns(self):
        text = render_table(["a", "bb"], [[1, 2], [333, 4]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "333" in text

    def test_format_bytes(self):
        assert format_bytes(512) == "512 B"
        assert format_bytes(100 * 1024 ** 3) == "100.0 GB"

    def test_format_duration(self):
        assert format_duration(0.05) == "50 ms"
        assert format_duration(90) == "90.0 s"
        assert format_duration(1800) == "30.0 min"
        assert format_duration(3 * 86400) == "3.0 days"
