"""Tests for the experiment harness and table rendering."""

import pytest

from repro.analysis.experiments import (
    PAPER_TABLE1,
    compositional_row,
    figure4_curves,
    table1_row,
)
from repro.analysis.stats import ctmdp_alternating_statistics
from repro.analysis.tables import (
    format_bytes,
    render_compositional,
    render_figure4,
    render_table1,
)
from repro.core.ctmdp import CTMDP


class TestStats:
    def test_rate_function_deduplication(self):
        # Two transitions with identical rate functions: one Markov state.
        ctmdp = CTMDP.from_transitions(
            2,
            [
                (0, "a", {1: 1.0}),
                (0, "b", {1: 1.0}),
                (1, "c", {0: 1.0}),
            ],
        )
        stats = ctmdp_alternating_statistics(ctmdp)
        assert stats.interactive_states == 2
        assert stats.interactive_transitions == 3
        assert stats.markov_states == 2
        assert stats.markov_transitions == 2

    def test_as_row_keys(self):
        ctmdp = CTMDP.from_transitions(1, [(0, "a", {0: 1.0})])
        row = ctmdp_alternating_statistics(ctmdp).as_row()
        assert set(row) == {
            "inter_states",
            "markov_states",
            "inter_transitions",
            "markov_transitions",
            "memory_bytes",
        }


class TestTable1:
    def test_row_contents(self):
        row = table1_row(1, time_bounds=(50.0, 100.0), solve_bounds=(50.0,))
        assert row.n == 1
        assert row.stats.markov_states == PAPER_TABLE1[1][1]
        assert 50.0 in row.runtime_seconds
        assert 100.0 not in row.runtime_seconds
        assert set(row.iterations) == {50.0, 100.0}
        assert 0.0 < row.probability[50.0] < 1.0

    def test_predicted_iterations_match_solved(self):
        row = table1_row(1, time_bounds=(75.0,), solve_bounds=(75.0,))
        predicted = table1_row(1, time_bounds=(75.0,), solve_bounds=())
        assert row.iterations[75.0] == predicted.iterations[75.0]

    def test_render_includes_paper_columns(self):
        rows = [table1_row(1, time_bounds=(100.0,), solve_bounds=(100.0,))]
        text = render_table1(rows)
        assert "paper Inter.st" in text
        assert "110" in text  # the paper's N=1 state count

    def test_render_without_comparison(self):
        rows = [table1_row(1, time_bounds=(100.0,), solve_bounds=())]
        text = render_table1(rows, compare_paper=False)
        assert "paper" not in text


class TestFigure4:
    def test_curves_shape_and_overestimation(self):
        curves = figure4_curves(1, time_points=(0.0, 100.0, 200.0), gamma=10.0)
        assert curves.time_points.shape == (3,)
        assert curves.ctmdp_min is not None
        # Monotone and bounded.
        assert list(curves.ctmdp_max) == sorted(curves.ctmdp_max)
        assert (curves.ctmdp_max <= 1.0).all()
        # inf <= sup <= CTMC for t > 0 (the paper's Figure 4 shape).
        assert (curves.ctmdp_min[1:] <= curves.ctmdp_max[1:] + 1e-12).all()
        assert (curves.ctmc[1:] >= curves.ctmdp_max[1:]).all()

    def test_min_curve_optional(self):
        curves = figure4_curves(1, time_points=(50.0,), include_min=False)
        assert curves.ctmdp_min is None

    def test_render(self):
        curves = figure4_curves(1, time_points=(0.0, 50.0), gamma=10.0)
        text = render_figure4(curves)
        assert "CTMDP sup" in text
        assert "N=1" in text

    def test_ctmdp_built_exactly_once(self, monkeypatch):
        # Both sweeps (sup and inf over all time points) must share one
        # registered model; only the CTMC approximation adds a second build.
        from repro.models import ftwc_direct

        calls = {"ctmdp": 0}
        real_build = ftwc_direct.build_ctmdp

        def counting_build(*args, **kwargs):
            calls["ctmdp"] += 1
            return real_build(*args, **kwargs)

        monkeypatch.setattr(ftwc_direct, "build_ctmdp", counting_build)
        curves = figure4_curves(
            1, time_points=(0.0, 50.0, 100.0, 150.0), include_min=True
        )
        assert calls["ctmdp"] == 1
        assert curves.ctmdp_min is not None
        assert curves.ctmdp_max.shape == (4,)


class TestCompositionalRow:
    def test_row(self):
        row = compositional_row(1)
        assert row.n == 1
        assert row.ctmdp_states > 0
        assert row.peak_states > row.final_imc_states
        assert row.direct_ctmdp_states > 0
        assert 0.0 < row.probability_100h < 1.0
        assert row.probability_100h == pytest.approx(
            row.direct_probability_100h, rel=1e-12, abs=0.0
        )

    def test_render(self):
        text = render_compositional([compositional_row(1)])
        assert "CTMDP states" in text
        assert "Peak product" in text


class TestFormatBytes:
    @pytest.mark.parametrize(
        "size, expected",
        [(512, "512 B"), (14_540, "14.2 KB"), (6_300_000, "6.0 MB")],
    )
    def test_formats(self, size, expected):
        assert format_bytes(size) == expected
