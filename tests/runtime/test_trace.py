"""Tests for execution traces and Gantt rendering."""

import pytest

from repro.apps import build_octree_application
from repro.core import Chunk
from repro.obs import Span, format_gantt
from repro.runtime import SimulatedPipelineExecutor
from repro.soc import get_platform
from repro.soc.pu import BIG, GPU, MEDIUM


@pytest.fixture(scope="module")
def traced_run():
    platform = get_platform("pixel7a")
    app = build_octree_application(n_points=20_000)
    executor = SimulatedPipelineExecutor(
        app,
        [Chunk(0, 3, BIG), Chunk(3, 4, GPU), Chunk(4, 7, MEDIUM)],
        platform,
    )
    return executor.run(6, record_trace=True)


class TestSpanRecording:
    def test_one_span_per_chunk_task(self, traced_run):
        assert len(traced_run.spans) == 3 * 6

    def test_spans_ordered_within_chunk(self, traced_run):
        for chunk in range(3):
            spans = sorted(
                (s for s in traced_run.spans if s.chunk_index == chunk),
                key=lambda s: s.task_id,
            )
            for a, b in zip(spans, spans[1:]):
                assert a.end_s <= b.start_s + 1e-12

    def test_task_flows_downstream_in_order(self, traced_run):
        by_key = {
            (s.chunk_index, s.task_id): s for s in traced_run.spans
        }
        for task in range(6):
            for chunk in range(2):
                assert (
                    by_key[(chunk, task)].end_s
                    <= by_key[(chunk + 1, task)].start_s + 1e-12
                )

    def test_durations_positive(self, traced_run):
        assert all(s.duration_s > 0 for s in traced_run.spans)

    def test_tracing_off_by_default(self):
        platform = get_platform("pixel7a")
        app = build_octree_application(n_points=20_000)
        result = SimulatedPipelineExecutor(
            app, [Chunk(0, 7, BIG)], platform
        ).run(3)
        assert result.spans == []

    def test_tracing_does_not_change_timing(self):
        platform = get_platform("pixel7a")
        app = build_octree_application(n_points=20_000)
        chunks = [Chunk(0, 4, BIG), Chunk(4, 7, GPU)]
        plain = SimulatedPipelineExecutor(app, chunks, platform).run(8)
        traced = SimulatedPipelineExecutor(app, chunks, platform).run(
            8, record_trace=True
        )
        assert plain.completion_times_s == traced.completion_times_s


class TestGantt:
    def test_renders_all_chunks(self, traced_run):
        text = format_gantt(traced_run.spans)
        assert "chunk 0 big" in text
        assert "chunk 1 gpu" in text
        assert "chunk 2 medium" in text
        assert "ms" in text

    def test_empty_trace(self):
        assert "empty" in format_gantt([])

    def test_respects_width(self, traced_run):
        text = format_gantt(traced_run.spans, width=40)
        rows = [line for line in text.splitlines() if "|" in line]
        assert all(len(row) <= 60 for row in rows)

    def test_handmade_spans(self):
        spans = [
            Span(0, "big", 0, 0.0, 1.0),
            Span(0, "big", 1, 1.0, 2.0),
            Span(1, "gpu", 0, 1.0, 2.0),
        ]
        text = format_gantt(spans, width=20)
        assert text.count("|") == 4


class TestGanttClipping:
    """Regression tests: span clipping at pathological scale factors.

    The renderer used to multiply by a precomputed ``width / t_end``
    scale, so ``t_end * (width / t_end)`` could round *down* a hair
    below ``width`` and draw right-edge spans into the last real
    column, overwriting whichever task legitimately ended there.
    """

    def test_zero_duration_span_at_right_edge_does_not_overwrite(self):
        # task 1 is a zero-duration span exactly at t_end: it must not
        # stomp the final column of task 0's full-width bar.
        spans = [
            Span(0, "big", 0, 0.0, 1e-9),
            Span(0, "big", 1, 1e-9, 1e-9),
        ]
        text = format_gantt(spans, width=8)
        row = next(l for l in text.splitlines() if "|" in l)
        assert row.split("|")[1] == "0" * 8

    @pytest.mark.parametrize("t_end", [1e-9, 1e-6, 1.0, 3.0, 1e6])
    def test_full_width_span_fills_exactly_width_cells(self, t_end):
        # x / x * width must land on exactly `width` for any scale.
        text = format_gantt([Span(0, "big", 0, 0.0, t_end)], width=10)
        row = next(l for l in text.splitlines() if "|" in l)
        assert row.split("|")[1] == "0" * 10

    def test_sub_column_span_still_visible(self):
        # A span much narrower than one column widens to one cell
        # instead of vanishing.
        spans = [
            Span(0, "big", 0, 0.0, 1.0),
            Span(1, "gpu", 0, 0.25, 0.2500001),
        ]
        text = format_gantt(spans, width=16)
        gpu_row = next(l for l in text.splitlines() if "gpu" in l)
        assert "0" in gpu_row

    def test_sub_column_span_at_right_edge_clamped(self):
        # Widening a right-edge sliver must not write past the chart.
        spans = [
            Span(0, "big", 0, 0.0, 1.0),
            Span(1, "gpu", 0, 1.0 - 1e-12, 1.0),
        ]
        text = format_gantt(spans, width=12)
        gpu_row = next(l for l in text.splitlines() if "gpu" in l)
        cells = gpu_row.split("|")[1]
        assert len(cells) == 12
        assert cells[-1] == "0"

    def test_negative_start_clamps_without_wraparound(self):
        spans = [
            Span(0, "big", 0, -0.5, 0.25),
            Span(0, "big", 1, 0.25, 1.0),
        ]
        text = format_gantt(spans, width=8)
        row = next(l for l in text.splitlines() if "|" in l)
        cells = row.split("|")[1]
        assert len(cells) == 8
        assert cells[0] == "0"  # clamped to column 0, not width-1

    def test_narrow_width_axis_label_does_not_crash(self):
        # Axis padding used to go negative for width < len(label).
        text = format_gantt([Span(0, "big", 0, 0.0, 1.0)], width=4)
        assert "ms" in text


class TestMultiTenantGantt:
    """Tenant-tagged spans must render one section per tenant."""

    def interleaved_spans(self):
        # Two tenants' windows genuinely interleave in virtual time.
        return [
            Span(0, "big", 0, 0.0, 1.0, tenant="tenant-a"),
            Span(0, "gpu", 0, 0.5, 1.5, tenant="tenant-b"),
            Span(0, "big", 1, 1.0, 2.0, tenant="tenant-a"),
            Span(0, "gpu", 1, 1.5, 2.5, tenant="tenant-b"),
            Span(1, "little", 0, 1.0, 2.0, tenant="tenant-a"),
        ]

    def test_one_section_per_tenant(self):
        text = format_gantt(self.interleaved_spans(), width=30)
        assert text.count("tenant tenant-a:") == 1
        assert text.count("tenant tenant-b:") == 1
        # tenant-a has two chunk rows, tenant-b one.
        a_section = text.split("tenant tenant-b:")[0]
        assert a_section.count("|") == 4

    def test_sections_sorted_by_tenant(self):
        text = format_gantt(self.interleaved_spans(), width=30)
        assert (text.index("tenant tenant-a:")
                < text.index("tenant tenant-b:"))

    def test_sections_share_the_time_axis(self):
        spans = self.interleaved_spans()
        text = format_gantt(spans, width=40)
        # One trailing axis line, scaled to the global end time.
        assert text.count("ms") == 1
        assert "2500.00 ms" in text

    def test_untagged_spans_render_last(self):
        spans = self.interleaved_spans() + [
            Span(0, "medium", 7, 0.0, 0.5)
        ]
        text = format_gantt(spans, width=30)
        assert "(untagged)" in text
        assert (text.index("tenant tenant-b:")
                < text.index("(untagged)"))

    def test_untagged_only_trace_has_no_sections(self, traced_run):
        assert "tenant" not in format_gantt(traced_run.spans)
