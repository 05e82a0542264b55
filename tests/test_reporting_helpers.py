"""Tests for the benchmark reporting helpers and activity records."""

import pytest

from benchmarks.bench_util import (
    SCHEME_HEADERS,
    fmt_cell,
    render_table,
    scheme_row,
)
from repro.simulator.events import Activity, EventKind
from repro.simulator.metrics import SimulationMetrics

from tests.conftest import make_job


class TestFormatting:
    def test_fmt_cell_none(self):
        assert fmt_cell(None) == "NA"

    def test_fmt_cell_large_float_groups_thousands(self):
        assert fmt_cell(12345.6) == "12,346"

    def test_fmt_cell_small_float_two_decimals(self):
        assert fmt_cell(0.1234) == "0.12"

    def test_fmt_cell_passthrough_strings_and_ints(self):
        assert fmt_cell("lyra") == "lyra"
        assert fmt_cell(7) == "7"

    def test_render_table_alignment(self):
        text = render_table(
            "T", ["name", "value"], [["a", 1], ["long-name", 12345.0]]
        )
        lines = text.splitlines()
        assert lines[0].startswith("=== T")
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5
        # all data rows share the header's width
        assert len(lines[3]) == len(lines[1])

    def test_render_table_empty_rows(self):
        text = render_table("T", ["a", "b"], [])
        assert "a" in text and "b" in text


class TestSchemeRow:
    def test_row_matches_headers(self):
        job = make_job()
        job.record_placement("s", 2, flexible=False)
        job.mark_started(10.0)
        job.mark_finished(110.0)
        metrics = SimulationMetrics(jobs={job.job_id: job})
        metrics.submissions = 1
        row = scheme_row("x", metrics)
        assert len(row) == len(SCHEME_HEADERS)
        assert row[0] == "x"
        assert row[4] == pytest.approx(110.0)  # jct mean


class TestActivity:
    def test_frozen(self):
        activity = Activity(1.0, EventKind.START, 5)
        with pytest.raises(AttributeError):
            activity.time = 2.0  # type: ignore[misc]

    def test_all_event_kinds_distinct(self):
        values = [kind.value for kind in EventKind]
        assert len(values) == len(set(values))

    def test_detail_payload_optional(self):
        activity = Activity(0.0, EventKind.LOAN, detail=["s1", "s2"])
        assert activity.job_id is None
        assert activity.detail == ["s1", "s2"]
