"""The head-to-head policy bench and its acceptance criteria.

A quick in-process sweep checks the report shape and the two verdicts
(no paper-cell regression, strict win on a new family); the committed
``BENCH_8.json`` is then held to the same acceptance bar for the
contender it names, and its columns are re-derived from today's
policies.
"""

import json
import pathlib

import pytest

from repro.experiments.policy_bench import (
    CONTENDER,
    EPS,
    FAMILIES,
    POLICIES,
    WIN_MARGIN,
    _round,
    compare,
    render_ascii,
    run_policy_bench,
)

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def quick_report():
    return run_policy_bench(quick=True)


class TestQuickSweep:
    def test_report_shape(self, quick_report):
        report = quick_report
        assert report["bench"] == "policy-head-to-head"
        names = {p["name"] for p in report["policies"]}
        assert names == {name for name, _ in POLICIES}
        assert CONTENDER in names
        families = {c["family"] for c in report["cells"]}
        assert families == {"paper", "strided", "deep-seq"}
        for cell in report["cells"]:
            assert set(cell["bandwidth_mbps"]) == names
            for bw in cell["bandwidth_mbps"].values():
                assert bw > 0

    def test_acceptance_verdicts_hold_in_process(self, quick_report):
        cmp_block = quick_report["comparison"]
        assert cmp_block["tuned_policy"] == CONTENDER
        assert cmp_block["paper_ok"] is True
        assert cmp_block["strict_win_by_family"]["strided"] is True
        assert cmp_block["new_family_strict_win"] is True

    def test_static_cells_match_the_stride_contender_on_paper(self, quick_report):
        """On paper cells the stride detector agrees with the record
        arithmetic -- bit-identical bandwidth, not merely >=."""
        for cell in quick_report["cells"]:
            if cell["family"] != "paper":
                continue
            bw = cell["bandwidth_mbps"]
            assert abs(bw[CONTENDER] - bw["static"]) <= EPS

    def test_render_covers_every_policy_and_family(self, quick_report):
        out = render_ascii(quick_report)
        for name, _ in POLICIES:
            assert name in out
        for family in ("paper", "strided", "deep-seq"):
            assert family in out

    def test_rerun_is_deterministic(self, quick_report):
        again = run_policy_bench(quick=True)
        assert json.dumps(again, sort_keys=True) == json.dumps(
            quick_report, sort_keys=True
        )


class TestCompare:
    def _cell(self, family, static, tuned):
        return {
            "family": family,
            "request_kb": 64,
            "delay_s": 0.0,
            "bandwidth_mbps": {"static": static, CONTENDER: tuned},
        }

    def test_paper_regression_flips_paper_ok(self):
        good = compare([self._cell("paper", 10.0, 10.0)])
        assert good["paper_ok"] is True
        bad = compare([self._cell("paper", 10.0, 9.0)])
        assert bad["paper_ok"] is False

    def test_strict_win_requires_the_margin(self):
        margin_shy = compare([self._cell("strided", 10.0, 10.0 * (1 + WIN_MARGIN))])
        assert margin_shy["strict_win_by_family"]["strided"] is False
        clear = compare([self._cell("strided", 10.0, 10.0 * (1 + 2 * WIN_MARGIN))])
        assert clear["strict_win_by_family"]["strided"] is True
        assert clear["new_family_strict_win"] is True

    def test_every_cell_in_a_family_must_win(self):
        cells = [
            self._cell("strided", 10.0, 20.0),
            self._cell("strided", 10.0, 10.0),
        ]
        assert compare(cells)["strict_win_by_family"]["strided"] is False


class TestCommittedBench:
    """BENCH_8.json ships with the acceptance criteria already met."""

    @pytest.fixture(scope="class")
    def committed(self):
        path = ROOT / "BENCH_8.json"
        if not path.exists():
            pytest.skip("BENCH_8.json not generated yet")
        return json.loads(path.read_text())

    def test_policy_block_present(self, committed):
        assert "policies" in committed
        assert committed["policies"]["bench"] == "policy-head-to-head"

    def test_acceptance_criteria(self, committed):
        block = committed["policies"]
        cmp_block = block["comparison"]
        assert cmp_block["tuned_policy"] in {p["name"] for p in block["policies"]}
        assert cmp_block["paper_ok"] is True, cmp_block["paper_cells"]
        assert cmp_block["new_family_strict_win"] is True
        assert cmp_block["strict_win_by_family"]["strided"] is True

    def test_paper_grid_is_the_full_sweep(self, committed):
        settings = committed["policies"]["settings"]
        assert settings["quick"] is False
        assert settings["paper_sizes_kb"] == [64, 256]
        assert len(settings["paper_delays_s"]) >= 5

    def test_verdicts_recompute_from_the_committed_cells(self, committed):
        """The stored comparison block is not hand-editable: recomputing
        it from the stored cells gives the same verdicts."""
        block = committed["policies"]
        contender = block["comparison"]["tuned_policy"]
        assert compare(block["cells"], contender) == block["comparison"]

    def test_todays_policies_reproduce_the_committed_columns(self, committed):
        """The full grid, re-run: ``static`` and ``depth-4`` match their
        committed columns, and the ``stride`` contender (depth-k at
        depth 1 with the default stride detector) matches the removed
        adaptive controller's column on every cell."""
        block = committed["policies"]
        rounds = block["settings"]["rounds"]
        committed_column = {"static": "static", "depth-4": "depth-4", "stride": "adaptive"}
        for name, kw in POLICIES:
            column = committed_column[name]
            for cell in block["cells"]:
                args = (cell["request_kb"], cell["delay_s"], rounds, kw)
                bw = _round(FAMILIES[cell["family"]](*args))
                assert bw == cell["bandwidth_mbps"][column], (name, cell)
