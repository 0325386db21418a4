"""Tests for ASCII plots and trace export."""

import pytest

from repro.analysis.plots import ascii_plot
from repro.sim.trace import TraceLevel, Tracer


class TestAsciiPlot:
    def test_markers_and_legend(self):
        text = ascii_plot([1, 2, 3], {"a": [1, 2, 3], "b": [3, 2, 1]})
        assert "o = a" in text and "x = b" in text
        assert "o" in text and "x" in text

    def test_axis_labels(self):
        text = ascii_plot([5, 120], {"y": [0, 10]}, x_label="delay")
        assert "delay" in text
        assert "5" in text and "120" in text
        assert "10" in text  # y max

    def test_monotone_series_renders_monotone(self):
        xs = list(range(10))
        text = ascii_plot(xs, {"up": [float(x) for x in xs]}, width=20, height=10)
        rows = [line.split("|", 1)[1] for line in text.splitlines() if "|" in line]
        cols = []
        for r, row in enumerate(rows):
            for c, ch in enumerate(row):
                if ch == "o":
                    cols.append((c, r))
        cols.sort()
        # increasing x -> decreasing row index (higher on the canvas)
        rows_in_x_order = [r for _c, r in cols]
        assert rows_in_x_order == sorted(rows_in_x_order, reverse=True)

    def test_constant_series(self):
        text = ascii_plot([1, 2, 3], {"flat": [5, 5, 5]})
        # 3 markers on one row (plus the 'o' in the legend's "o = flat")
        canvas_rows = [line for line in text.splitlines() if "|" in line]
        marked = [r for r in canvas_rows if "o" in r]
        assert len(marked) == 1
        assert marked[0].count("o") == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            ascii_plot([], {"a": []})
        with pytest.raises(ValueError):
            ascii_plot([1, 2], {"a": [1]})
        with pytest.raises(ValueError):
            ascii_plot([1], {"a": [1]}, width=2, height=2)


class TestTracePersistence:
    def test_roundtrip(self, tmp_path):
        tr = Tracer(lambda: 1.5, TraceLevel.DEBUG)
        tr.protocol("clc_commit", cluster=0, sn=3, ddv=(3, 0))
        tr.debug("log_search", cluster=1, entries=4)
        path = tmp_path / "trace.jsonl"
        assert tr.save_jsonl(path) == 2
        records = Tracer.load_jsonl(path)
        assert len(records) == 2
        assert records[0].kind == "clc_commit"
        assert records[0]["cluster"] == 0
        assert records[0].time == 1.5
        assert records[1].level == TraceLevel.DEBUG

    def test_non_json_values_stringified(self, tmp_path):
        from repro.core.hc3i import Piggyback

        tr = Tracer(lambda: 0.0, TraceLevel.DEBUG)
        tr.debug("send", piggyback=Piggyback(sn=1, epoch=0))
        path = tmp_path / "trace.jsonl"
        tr.save_jsonl(path)
        records = Tracer.load_jsonl(path)
        assert "Piggyback" in records[0]["piggyback"]

    def test_federation_trace_exportable(self, tmp_path):
        from tests.conftest import make_federation

        fed = make_federation(clc_period=100.0, total_time=300.0, chatty=True)
        fed.run()
        path = tmp_path / "run.jsonl"
        count = fed.tracer.save_jsonl(path)
        assert count == len(fed.tracer)
        assert len(Tracer.load_jsonl(path)) == count
