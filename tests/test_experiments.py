"""Tests for the experiment harnesses: table plumbing, shape checks,
and small-scale smoke runs of each artifact."""

import pytest

from repro.experiments.common import (
    KB,
    ExperimentTable,
    run_collective,
    run_separate_files,
    scaled_file_size,
    speedup,
)


class TestExperimentTable:
    def test_add_and_column(self):
        table = ExperimentTable(title="t", columns=["a", "b"])
        table.add_row(1, 2.0)
        table.add_row(3, 4.0)
        assert table.column("a") == [1, 3]
        assert table.column("b") == [2.0, 4.0]

    def test_row_arity_checked(self):
        table = ExperimentTable(title="t", columns=["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_render_contains_everything(self):
        table = ExperimentTable(title="My Table", columns=["x", "y"])
        table.add_row(7, 1.2345)
        table.notes.append("a note")
        text = table.render()
        assert "My Table" in text
        assert "x" in text and "y" in text
        assert "7" in text and "1.23" in text
        assert "note: a note" in text

    def test_unknown_column(self):
        table = ExperimentTable(title="t", columns=["a"])
        with pytest.raises(ValueError):
            table.column("zzz")

    def test_to_jsonable_round_trips(self, tmp_path):
        import json

        table = ExperimentTable(title="t", columns=["a", "b"])
        table.add_row(1, 2.5)
        table.notes.append("a note")
        expected = {
            "title": "t",
            "columns": ["a", "b"],
            "rows": [[1, 2.5]],
            "notes": ["a note"],
        }
        assert table.to_jsonable() == expected
        assert json.loads(table.to_json()) == expected
        path = tmp_path / "t.json"
        table.write_json(path)
        assert json.loads(path.read_text()) == expected


class TestCommonHelpers:
    def test_scaled_file_size(self):
        assert scaled_file_size(64 * KB, 8, 16) == 64 * KB * 8 * 16

    def test_speedup(self):
        assert speedup(4.0, 2.0) == 2.0
        assert speedup(1.0, 0.0) == float("inf")

    def test_run_collective_smoke(self):
        report = run_collective(
            request_size=64 * KB,
            file_size=scaled_file_size(64 * KB, 4, 4),
            n_compute=4,
            n_io=4,
            rounds=4,
        )
        assert report.total_bytes == 64 * KB * 4 * 4
        assert report.collective_bandwidth_mbps > 0

    def test_run_collective_with_prefetch_reports_stats(self):
        report = run_collective(
            request_size=64 * KB,
            file_size=scaled_file_size(64 * KB, 4, 4),
            compute_delay=0.05,
            n_compute=4,
            n_io=4,
            rounds=4,
            prefetch=True,
        )
        assert report.prefetch is not None
        assert report.prefetch.issued > 0

    def test_run_separate_files_smoke(self):
        report = run_separate_files(
            request_size=64 * KB,
            file_size_per_node=4 * 64 * KB,
            n_compute=4,
            n_io=4,
        )
        assert report.total_bytes == 4 * 4 * 64 * KB


class TestShapeCheckers:
    def test_figure2_checker_detects_unix_win(self):
        from repro.experiments.figure2 import check_figure2_shape

        table = ExperimentTable(
            title="t",
            columns=["request_kb", "M_UNIX", "M_LOG", "M_SYNC", "M_RECORD", "M_ASYNC"],
        )
        table.add_row(64, 10.0, 1.0, 1.0, 1.0, 1.0)  # M_UNIX wins: wrong
        assert check_figure2_shape(table) is not None

    def test_figure2_checker_accepts_paper_shape(self):
        from repro.experiments.figure2 import check_figure2_shape

        table = ExperimentTable(
            title="t",
            columns=["request_kb", "M_UNIX", "M_LOG", "M_SYNC", "M_RECORD", "M_ASYNC"],
        )
        table.add_row(64, 1.0, 1.1, 8.0, 9.0, 8.5)
        table.add_row(1024, 2.4, 2.5, 12.0, 15.0, 16.0)
        assert check_figure2_shape(table) is None

    def test_figure2_checker_rejects_a_falling_curve(self):
        from repro.experiments.figure2 import check_figure2_shape

        table = ExperimentTable(
            title="t",
            columns=["request_kb", "M_UNIX", "M_LOG", "M_SYNC", "M_RECORD", "M_ASYNC"],
        )
        table.add_row(64, 1.0, 1.1, 10.0, 9.0, 8.5)
        table.add_row(1024, 2.4, 2.5, 6.0, 15.0, 16.0)  # M_SYNC falls by 40%
        assert check_figure2_shape(table) == "M_SYNC does not grow with request size"

    def test_table1_checker_flags_big_divergence(self):
        from repro.experiments.table1 import check_table1_shape

        table = ExperimentTable(
            title="t",
            columns=["request_kb", "file_mb", "bw_no_prefetch_mbps", "bw_prefetch_mbps", "ratio"],
        )
        table.add_row(64, 8, 10.0, 5.0, 0.5)  # halved: not "comparable"
        assert check_table1_shape(table) is not None

    def test_table2_checker_requires_monotone_times(self):
        from repro.experiments.table2 import check_table2_shape

        table = ExperimentTable(title="t", columns=["request_kb", "min_access_s", "mean_access_s"])
        table.add_row(64, 0.05, 0.06)
        table.add_row(128, 0.04, 0.05)  # decreased: wrong
        assert check_table2_shape(table) is not None

    def test_table2_checker_validates_anchor(self):
        from repro.experiments.table2 import check_table2_shape

        table = ExperimentTable(title="t", columns=["request_kb", "min_access_s", "mean_access_s"])
        table.add_row(512, 0.1, 0.2)
        table.add_row(1024, 0.2, 5.0)  # way off the 0.4s anchor
        assert check_table2_shape(table) is not None

    def test_table4_checker_requires_group8_win(self):
        from repro.experiments.table4 import check_table4_shape

        def make(speedups):
            table = ExperimentTable(
                title="t",
                columns=["request_kb", "file_mb", "bw_sgroup=1", "bw_sgroup=8", "speedup_R2/R1"],
            )
            for i, sp in enumerate(speedups):
                table.add_row(64 * (i + 1), 8, 1.0, sp, sp)
            return table

        good_with, good_without = make([4.0, 5.0]), make([4.2, 5.0])
        assert check_table4_shape(good_with, good_without) is None
        bad = make([0.9, 5.0])  # group 8 loses at one size
        assert check_table4_shape(bad, good_without) is not None


class TestArtifactSmokeRuns:
    """Tiny-parameter runs of each experiment module (fast end-to-end)."""

    def test_figure2_small(self):
        from repro.experiments.figure2 import run_figure2

        table = run_figure2(
            request_sizes_kb=(64,),
            rounds=4,
            n_compute=2,
            n_io=2,
            include_separate_files=False,
        )
        assert len(table.rows) == 1
        assert all(v > 0 for v in table.rows[0][1:])

    def test_table1_small(self):
        from repro.experiments.table1 import run_table1

        table = run_table1(request_sizes_kb=(64,), rounds=4, n_compute=2, n_io=2)
        assert len(table.rows) == 1
        assert table.column("ratio")[0] > 0

    def test_table2_small(self):
        from repro.experiments.table2 import run_table2

        table = run_table2(request_sizes_kb=(64, 128), rounds=4, n_compute=2, n_io=2)
        assert table.column("min_access_s")[0] > 0

    def test_figure45_small(self):
        from repro.experiments.figure45 import run_figure45

        panels = run_figure45(request_sizes_kb=(64,), delays_s=(0.0, 0.1), max_rounds=4)
        assert 64 in panels
        assert len(panels[64].rows) == 2

    def test_table3_small(self):
        from repro.experiments.table3 import run_table3

        table = run_table3(
            request_sizes_kb=(64,),
            stripe_units_kb=(64,),
            rounds=4,
            n_compute=2,
            n_io=2,
        )
        assert table.column("bw_su=64KB")[0] > 0

    def test_table4_small(self):
        from repro.experiments.table4 import run_table4

        table = run_table4(request_sizes_kb=(64,), rounds=4, n_compute=2, n_io=8)
        assert table.column("speedup_R2/R1")[0] > 1.0

    def test_runall_writes_files(self, tmp_path, monkeypatch):
        # Patch the heavy runners with trivial stand-ins; verify plumbing.
        import json

        import repro.experiments.runall as runall

        tiny = ExperimentTable(title="tiny", columns=["a"])
        tiny.add_row(1)
        monkeypatch.setattr(runall, "_run_all", lambda: [("tiny", tiny.render(), None, [tiny])])
        rc = runall.main([str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "tiny.txt").read_text().startswith("tiny")
        artifact = json.loads((tmp_path / "tiny.json").read_text())
        assert artifact["shape_problem"] is None
        assert artifact["tables"] == [tiny.to_jsonable()]

    def test_runall_reports_shape_failures(self, monkeypatch, capsys):
        import repro.experiments.runall as runall

        monkeypatch.setattr(runall, "_run_all", lambda: [("x", "rendering", "broken", [])])
        rc = runall.main([])
        assert rc == 1
        assert "SHAPE PROBLEM" in capsys.readouterr().out
