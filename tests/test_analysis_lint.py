"""Golden-fixture tests for the determinism lint suite (repro.analysis).

Each rule gets a bad fixture (must fire, with the right rule id) and a
good fixture (must stay silent); suppressions and the SARIF-lite JSON
shape are covered separately.
"""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.analysis import (
    lint_paths,
    lint_source,
    render_json,
    render_text,
    rule_catalogue,
    to_sarif,
)
from repro.analysis.cli import main


def lint(source: str, path: str = "src/repro/example.py"):
    return lint_source(textwrap.dedent(source), path)


def rule_ids(findings):
    return [f.rule_id for f in findings]


class TestR001WallClock:
    def test_time_time_flagged(self):
        findings = lint(
            """
            import time

            def measure():
                return time.time()
            """
        )
        assert rule_ids(findings) == ["R001"]
        assert "env.now" in findings[0].message

    def test_aliased_import_resolved(self):
        findings = lint(
            """
            from time import perf_counter as tick

            def measure():
                return tick()
            """
        )
        assert rule_ids(findings) == ["R001"]

    def test_datetime_now_flagged(self):
        findings = lint(
            """
            from datetime import datetime

            stamp = datetime.now()
            """
        )
        assert rule_ids(findings) == ["R001"]

    def test_env_now_clean(self):
        findings = lint(
            """
            def measure(env):
                return env.now
            """
        )
        assert findings == []

    def test_time_sleep_not_flagged(self):
        # Only clock *reads* are wall-clock hazards for results.
        findings = lint(
            """
            import time

            def pause():
                time.sleep(0.1)
            """
        )
        assert findings == []


class TestR002UnseededRandom:
    def test_module_level_random_flagged(self):
        findings = lint(
            """
            import random

            def jitter():
                return random.random()
            """
        )
        assert rule_ids(findings) == ["R002"]

    def test_numpy_random_flagged(self):
        findings = lint(
            """
            import numpy as np

            def shuffle(xs):
                np.random.shuffle(xs)
            """
        )
        assert rule_ids(findings) == ["R002"]

    def test_unseeded_random_instance_flagged(self):
        findings = lint(
            """
            import random

            rng = random.Random()
            """
        )
        assert rule_ids(findings) == ["R002"]

    def test_seeded_random_instance_clean(self):
        findings = lint(
            """
            import random

            rng = random.Random(1234)
            draw = rng.random()
            """
        )
        assert findings == []

    def test_system_random_flagged(self):
        findings = lint(
            """
            from random import SystemRandom

            rng = SystemRandom()
            """
        )
        assert rule_ids(findings) == ["R002"]


class TestR003UnorderedIteration:
    SCHEDULING_SET_LOOP = """
        def fan_out(env, waiters):
            for waiter in set(waiters):
                env.schedule(waiter)
        """

    def test_set_iteration_at_scheduling_site_flagged(self):
        findings = lint(self.SCHEDULING_SET_LOOP)
        assert rule_ids(findings) == ["R003"]
        assert "fan_out" in findings[0].message

    def test_values_iteration_in_merge_flagged(self):
        findings = lint(
            """
            def merge_stats(per_rank):
                total = 0
                for stats in per_rank.values():
                    total += stats
                return total
            """
        )
        assert rule_ids(findings) == ["R003"]

    def test_sorted_iteration_clean(self):
        findings = lint(
            """
            def fan_out(env, waiters):
                for waiter in sorted(waiters):
                    env.schedule(waiter)

            def merge_stats(per_rank):
                return [per_rank[k] for k in sorted(per_rank)]
            """
        )
        assert findings == []

    def test_set_iteration_outside_sensitive_site_clean(self):
        findings = lint(
            """
            def describe(names):
                return [n for n in set(names)]
            """
        )
        assert findings == []

    def test_nested_function_scopes_are_separate(self):
        # The scheduling call lives in the *inner* function; the outer
        # set loop is therefore not a scheduling site.
        findings = lint(
            """
            def outer(env, xs):
                def inner(e):
                    e.schedule(None)
                for x in set(xs):
                    pass
            """
        )
        assert findings == []


class TestR004ObservabilityPurity:
    def test_obs_file_scheduling_flagged(self):
        findings = lint(
            """
            def sample(env):
                env.schedule(None)
            """,
            path="src/repro/obs/sampler.py",
        )
        assert rule_ids(findings) == ["R004"]

    def test_obs_file_resource_request_flagged(self):
        findings = lint(
            """
            def sample(node):
                req = node.cpu.request()
                node.cpu.release(req)
            """,
            path="src/repro/obs/sampler.py",
        )
        assert "R004" in rule_ids(findings)

    def test_obs_file_reads_clean(self):
        findings = lint(
            """
            def sample(env, resource):
                return (env.now, len(resource.queue))
            """,
            path="src/repro/obs/sampler.py",
        )
        assert findings == []

    def test_same_code_outside_obs_clean(self):
        findings = lint(
            """
            def sample(env):
                env.schedule(None)
            """,
            path="src/repro/pfs/client.py",
        )
        assert findings == []


class TestSuppressions:
    BAD = """
        import time

        def measure():
            return time.time(){comment}
        """

    def test_same_line_suppression(self):
        findings = lint(self.BAD.format(comment="  # sim-ok: R001 -- host-side benchmark timer"))
        assert findings == []

    def test_line_above_suppression(self):
        findings = lint(
            """
            import time

            def measure():
                # sim-ok: R001 -- host-side benchmark timer
                return time.time()
            """
        )
        assert findings == []

    def test_wildcard_suppression(self):
        findings = lint(self.BAD.format(comment="  # sim-ok: * -- fixture exercises everything"))
        assert findings == []

    def test_wrong_rule_does_not_suppress(self):
        findings = lint(self.BAD.format(comment="  # sim-ok: R002 -- wrong rule id"))
        assert rule_ids(findings) == ["R001"]

    def test_missing_justification_reported(self):
        findings = lint(self.BAD.format(comment="  # sim-ok: R001"))
        ids = rule_ids(findings)
        assert ids == ["S000"]  # original finding silenced, S000 raised
        assert "justification" in findings[0].message

    def test_unjustified_comment_without_finding_still_reported(self):
        # (assembled so this test file's own lines never parse as a
        # bare suppression comment)
        bare = "# sim-ok:" + " R001"
        findings = lint_source(f"{bare}\nx = 1\n", "src/repro/example.py")
        assert rule_ids(findings) == ["S000"]


class TestReporting:
    BAD_SOURCE = """
        import time

        def measure():
            return time.time()
        """

    def test_sarif_shape(self):
        findings = lint(self.BAD_SOURCE)
        doc = to_sarif(findings)
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro.analysis"
        listed = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {"R001", "R002", "R003", "R004"} <= listed
        result = run["results"][0]
        assert result["ruleId"] == "R001"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "src/repro/example.py"
        assert location["region"]["startLine"] == findings[0].line

    def test_render_json_round_trips(self):
        findings = lint(self.BAD_SOURCE)
        assert json.loads(render_json(findings)) == to_sarif(findings)

    def test_render_text_mentions_location_and_count(self):
        findings = lint(self.BAD_SOURCE)
        text = render_text(findings)
        assert "src/repro/example.py:" in text
        assert "1 finding(s)" in text
        assert render_text([]) == "clean: no findings"

    def test_syntax_error_becomes_finding(self):
        findings = lint_source("def broken(:\n", "bad.py")
        assert rule_ids(findings) == ["E999"]


class TestCLI:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert main([str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import time\nt = time.time()\n")
        assert main([str(tmp_path)]) == 1
        assert "R001" in capsys.readouterr().out

    def test_json_flag(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import time\nt = time.time()\n")
        assert main(["--json", str(tmp_path)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["runs"][0]["results"][0]["ruleId"] == "R001"

    def test_missing_path_exits_two(self, tmp_path):
        assert main([str(tmp_path / "nope")]) == 2

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in rule_catalogue():
            assert rule.rule_id in out


class TestShippedTree:
    def test_src_and_tests_are_clean(self):
        # The gate CI enforces: the shipped tree has no findings.
        import pathlib

        root = pathlib.Path(__file__).resolve().parent.parent
        assert lint_paths([str(root / "src"), str(root / "tests")]) == []

    @pytest.mark.parametrize("rule_id", ["R001", "R002", "R003", "R004"])
    def test_catalogue_covers_rule(self, rule_id):
        assert rule_id in {r.rule_id for r in rule_catalogue()}
