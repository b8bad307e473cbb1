"""Smoke tests for the experiment harness on fast configurations.

Full-fidelity runs live in benchmarks/; here we check that each module
produces structured, well-formed output quickly (tiny presets or reduced
parameters).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import (
    case_studies,
    fig4_controlled,
    fig9_footprints,
    table1_datasets,
)
from repro.experiments import __main__ as harness
from repro.experiments.common import format_rows


class TestHarness:
    """``--list`` labels and ``--all-cheap``, over stub runners (no experiment runs)."""

    @pytest.fixture
    def ran(self, monkeypatch):
        ran: list[str] = []
        stubs = {
            name: (lambda name=name: ran.append(name) or name, cheap)
            for name, (_, cheap) in harness._RUNNERS.items()
        }
        monkeypatch.setattr(harness, "_RUNNERS", stubs)
        return ran

    def test_list_labels_fast_or_slow(self, capsys):
        assert harness.main(["--list"]) == 0
        labels = dict(line.split() for line in capsys.readouterr().out.splitlines())
        assert set(labels) == set(harness._RUNNERS)
        assert set(labels.values()) == {"(fast)", "(slow)"}
        assert labels["table1"] == "(slow)"
        assert labels["table4"] == labels["table7"] == "(fast)"

    def test_all_cheap_leaves_table1_out(self, ran):
        assert harness.main(["--all-cheap"]) == 0
        assert "table1" not in ran
        assert ran == [name for name, (_, cheap) in harness._RUNNERS.items() if cheap]
        assert "table4" in ran and "table7" in ran


class TestFormatRows:
    def test_alignment_and_header(self):
        text = format_rows(["a", "long-header"], [["x", 1], ["yy", 22]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert set(lines[1]) <= {"-", " "}

    def test_handles_empty(self):
        text = format_rows(["a"], [])
        assert "a" in text


class TestTable1:
    def test_tiny_rows(self):
        rows = table1_datasets.run(datasets=("JP-ditl", "B-post-ditl"), preset="tiny")
        assert [r.name for r in rows] == ["JP-ditl", "B-post-ditl"]
        for row in rows:
            assert row.queries_reverse > 0
            assert row.qps_all > row.qps_reverse
        text = table1_datasets.format_table(rows)
        assert "JP-ditl" in text and "qps" in text


class TestCaseStudies:
    def test_tiny_cases(self):
        cases = case_studies.run(preset="tiny")
        assert cases, "no case studies found in tiny JP-ditl"
        for case in cases:
            assert abs(sum(case.static.values()) - 1.0) < 1e-9
            assert np.isfinite(list(case.dynamic.values())).all()
        static_text = case_studies.format_static(cases)
        dynamic_text = case_studies.format_dynamic(cases)
        assert "case" in static_text and "queries/querier" in dynamic_text


class TestFig4:
    def test_small_sweep(self):
        result = fig4_controlled.run(
            fractions=(1e-5, 1e-3), trials_per_fraction=1, world_scale=0.3, seed=5
        )
        assert len(result.trials) == 2
        small, large = result.trials
        assert large.final_queriers > small.final_queriers
        assert np.isfinite(result.power)
        assert "power-law" in fig4_controlled.format_table(result)

    def test_detection_fraction_none_when_all_small(self):
        result = fig4_controlled.run(
            fractions=(1e-7,), trials_per_fraction=1, world_scale=0.2, seed=5
        )
        if result.detection_fraction is not None:
            assert result.detection_fraction == 1e-7


class TestFig9:
    def test_tiny_curves(self):
        curves = fig9_footprints.run(datasets=("JP-ditl",), preset="tiny")
        curve = curves[0]
        assert curve.originators > 0
        assert len(curve.x) == len(curve.survival)
        assert "tail exponent" in fig9_footprints.format_table(curves)

    def test_tail_index_on_pareto(self):
        rng = np.random.default_rng(0)
        sizes = (20 * (1 + rng.pareto(1.5, size=4000))).astype(int)
        estimate = fig9_footprints.tail_index(sizes, threshold=20)
        assert 1.2 < estimate < 1.9
