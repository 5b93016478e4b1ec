"""Golden-fixture tests for the whole-program analysis layer.

Covers the call-graph engine (module naming, symbol resolution through
aliases / re-exports / the class-attribute type heuristic, conservative
handling of higher-order calls), the interprocedural rules (R003v2,
R006) against seeded violations and clean fixtures, the
incremental summary cache, SARIF 2.1.0 codeFlows, the CLI flags, and the
baseline ratchet.  The shipped tree itself must be interprocedurally
clean (the self-check satellite of the analysis suite).
"""

from __future__ import annotations

import json
import textwrap
from typing import Dict, List

from repro.analysis import to_sarif
from repro.analysis.cache import summarize_paths
from repro.analysis.callgraph import Project, module_name_for
from repro.analysis.cli import collect_findings, main
from repro.analysis.findings import Finding
from repro.analysis.interproc import analyze_project


def write_tree(tmp_path, files: Dict[str, str]) -> str:
    """Materialise {relpath: source} under tmp_path; returns the root."""
    for rel, text in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(text))
    return str(tmp_path)


def analyze(tmp_path, files: Dict[str, str], max_hops: int = 3) -> List[Finding]:
    root = write_tree(tmp_path, files)
    summaries, _stats = summarize_paths([root])
    return analyze_project(summaries, max_hops=max_hops)


def project_for(tmp_path, files: Dict[str, str]) -> Project:
    root = write_tree(tmp_path, files)
    summaries, _stats = summarize_paths([root])
    return Project(summaries)


def rule_ids(findings):
    return [f.rule_id for f in findings]


class TestModuleNaming:
    def test_package_path_resolves_to_dotted_name(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/sub/__init__.py": "",
                "pkg/sub/mod.py": "x = 1\n",
            },
        )
        assert module_name_for(str(tmp_path / "pkg/sub/mod.py")) == "pkg.sub.mod"
        assert module_name_for(str(tmp_path / "pkg/sub/__init__.py")) == "pkg.sub"

    def test_flat_file_is_its_stem(self, tmp_path):
        write_tree(tmp_path, {"lone.py": "x = 1\n"})
        assert module_name_for(str(tmp_path / "lone.py")) == "lone"


class TestCallGraphShapes:
    def test_bare_name_and_aliased_calls_resolve(self, tmp_path):
        project = project_for(
            tmp_path,
            {
                "util.py": """
                    def helper():
                        return 1
                    """,
                "app.py": """
                    from util import helper as h

                    def run():
                        return h()
                    """,
            },
        )
        edges = project.edges["app:run"]
        assert [e.callee for e in edges] == ["util:helper"]

    def test_package_reexport_resolves(self, tmp_path):
        project = project_for(
            tmp_path,
            {
                "pkg/__init__.py": "from pkg.impl import helper\n",
                "pkg/impl.py": """
                    def helper():
                        return 1
                    """,
                "main.py": """
                    from pkg import helper

                    def run():
                        return helper()
                    """,
            },
        )
        assert [e.callee for e in project.edges["main:run"]] == ["pkg.impl:helper"]

    def test_method_calls_via_self_annotation_and_constructor(self, tmp_path):
        project = project_for(
            tmp_path,
            {
                "mod.py": """
                    class Engine:
                        def start(self):
                            return self.spin()

                        def spin(self):
                            return 1

                    class Node:
                        def __init__(self, engine: Engine):
                            self.engine = engine

                        def via_attr(self):
                            self.engine.spin()

                        def via_local(self):
                            eng = self.engine
                            eng.spin()

                        def via_ctor(self):
                            fresh = Engine()
                            fresh.spin()

                    def via_param(engine: Engine):
                        engine.spin()
                    """,
            },
        )
        assert [e.callee for e in project.edges["mod:Engine.start"]] == ["mod:Engine.spin"]
        for fid in ("mod:Node.via_attr", "mod:Node.via_local", "mod:Node.via_ctor"):
            assert [e.callee for e in project.edges[fid]] == ["mod:Engine.spin"], fid
        assert [e.callee for e in project.edges["mod:via_param"]] == ["mod:Engine.spin"]

    def test_inherited_method_resolves_through_base(self, tmp_path):
        project = project_for(
            tmp_path,
            {
                "mod.py": """
                    class Base:
                        def act(self):
                            return 1

                    class Child(Base):
                        def go(self):
                            self.act()
                    """,
            },
        )
        assert [e.callee for e in project.edges["mod:Child.go"]] == ["mod:Base.act"]

    def test_higher_order_callback_stays_unresolved(self, tmp_path):
        project = project_for(
            tmp_path,
            {
                "mod.py": """
                    def helper():
                        return 1

                    def run():
                        cb = helper
                        return cb()
                    """,
            },
        )
        assert project.edges["mod:run"] == ()

    def test_conflicting_local_types_stay_unresolved(self, tmp_path):
        project = project_for(
            tmp_path,
            {
                "mod.py": """
                    class A:
                        def act(self):
                            return 1

                    class B:
                        def act(self):
                            return 2

                    def run(flag):
                        obj = A()
                        if flag:
                            obj = B()
                        obj.act()
                    """,
            },
        )
        assert project.edges["mod:run"] == ()

    def test_reachable_is_bounded_and_chains_are_shortest(self, tmp_path):
        project = project_for(
            tmp_path,
            {
                "mod.py": """
                    def a():
                        b()

                    def b():
                        c()

                    def c():
                        pass
                    """,
            },
        )
        one_hop = project.reachable("mod:a", 1)
        assert set(one_hop) == {"mod:b"}
        two_hops = project.reachable("mod:a", 2)
        assert set(two_hops) == {"mod:b", "mod:c"}
        assert [e.callee for e in two_hops["mod:c"]] == ["mod:b", "mod:c"]


class TestR003v2:
    def test_helper_iteration_reached_from_scheduler_flagged(self, tmp_path):
        findings = analyze(
            tmp_path,
            {
                "mod.py": """
                    def tally(stats):
                        for key in stats.keys():
                            print(key)

                    def dispatch(env, stats):
                        env.schedule(0)
                        tally(stats)
                    """,
            },
        )
        assert rule_ids(findings) == ["R003v2"]
        finding = findings[0]
        assert "tally" in finding.message
        assert "dispatch" in finding.message
        assert finding.line == 3
        assert [step.function for step in finding.chain] == ["mod.dispatch", "mod.tally"]

    def test_iterator_reaching_scheduler_flagged(self, tmp_path):
        findings = analyze(
            tmp_path,
            {
                "mod.py": """
                    def kick(env):
                        env.schedule(0)

                    def fan_out(env, targets):
                        for t in set(targets):
                            kick(env)
                    """,
            },
        )
        assert rule_ids(findings) == ["R003v2"]
        assert "reaches scheduling site" in findings[0].message

    def test_indirect_hazard_via_reaching_definition_flagged(self, tmp_path):
        findings = analyze(
            tmp_path,
            {
                "mod.py": """
                    def dispatch(env, items):
                        pending = set(items)
                        for item in pending:
                            env.schedule(item)
                    """,
            },
        )
        assert rule_ids(findings) == ["R003v2"]
        assert "assigned at line" in findings[0].message

    def test_sorted_iteration_not_flagged(self, tmp_path):
        findings = analyze(
            tmp_path,
            {
                "mod.py": """
                    def tally(stats):
                        for key in sorted(stats):
                            print(key)

                    def dispatch(env, stats):
                        env.schedule(0)
                        tally(stats)
                    """,
            },
        )
        assert findings == []

    def test_unreachable_helper_not_flagged(self, tmp_path):
        findings = analyze(
            tmp_path,
            {
                "mod.py": """
                    def tally(stats):
                        for key in stats.keys():
                            print(key)

                    def dispatch(env):
                        env.schedule(0)
                    """,
            },
        )
        assert findings == []

    def test_hop_bound_respected(self, tmp_path):
        files = {
            "mod.py": """
                def dispatch(env, stats):
                    env.schedule(0)
                    hop1(stats)

                def hop1(stats):
                    hop2(stats)

                def hop2(stats):
                    for key in stats.keys():
                        print(key)
                """
        }
        assert analyze(tmp_path, files, max_hops=1) == []
        deep = analyze(tmp_path, dict(files), max_hops=2)
        assert rule_ids(deep) == ["R003v2"]

    def test_direct_hazard_in_sensitive_function_left_to_intra_r003(self, tmp_path):
        # The syntactic case belongs to the intraprocedural R003; the
        # interprocedural pass must not double-report it.
        findings = analyze(
            tmp_path,
            {
                "mod.py": """
                    def dispatch(env, items):
                        for item in {1, 2, 3}:
                            env.schedule(item)
                    """,
            },
        )
        assert findings == []


class TestR006FastPathGating:
    def test_unguarded_call_flagged_with_missing_facets(self, tmp_path):
        findings = analyze(
            tmp_path,
            {
                "mod.py": """
                    # fast-path: requires=faults,tracer
                    def fast(env):
                        pass

                    def run(env):
                        fast(env)
                    """,
            },
        )
        assert rule_ids(findings) == ["R006"]
        assert "faults, tracer" in findings[0].message

    def test_fully_guarded_call_is_clean(self, tmp_path):
        findings = analyze(
            tmp_path,
            {
                "mod.py": """
                    # fast-path: requires=faults,tracer
                    def fast(env):
                        pass

                    def run(env, faults, tracer):
                        if faults is None and not tracer.enabled:
                            fast(env)
                    """,
            },
        )
        assert findings == []

    def test_partial_guard_reports_only_missing_facet(self, tmp_path):
        findings = analyze(
            tmp_path,
            {
                "mod.py": """
                    # fast-path: requires=faults,tracer
                    def fast(env):
                        pass

                    def run(env, faults):
                        if faults is None:
                            fast(env)
                    """,
            },
        )
        assert rule_ids(findings) == ["R006"]
        assert "establishing: tracer;" in findings[0].message

    def test_gate_variable_resolved_through_class_attribute(self, tmp_path):
        findings = analyze(
            tmp_path,
            {
                "mod.py": """
                    # fast-path: requires=faults,tracer
                    def fast(env):
                        pass

                    class Driver:
                        def __init__(self, faults, tracer):
                            self._untraced = not tracer.enabled
                            self._fast = faults is None and self._untraced

                        def run(self, env):
                            if self._fast:
                                fast(env)
                    """,
            },
        )
        assert findings == []

    def test_gate_via_local_variable_definition(self, tmp_path):
        findings = analyze(
            tmp_path,
            {
                "mod.py": """
                    # fast-path
                    def fast(env):
                        pass

                    def run(env, faults):
                        ok = faults is None
                        if ok:
                            fast(env)
                    """,
            },
        )
        assert findings == []

    def test_disjunction_keeps_only_common_facets(self, tmp_path):
        findings = analyze(
            tmp_path,
            {
                "mod.py": """
                    # fast-path
                    def fast(env):
                        pass

                    def run(env, faults, hurry):
                        if faults is None or hurry:
                            fast(env)
                    """,
            },
        )
        assert rule_ids(findings) == ["R006"]

    def test_caller_pragma_propagates_obligation(self, tmp_path):
        findings = analyze(
            tmp_path,
            {
                "mod.py": """
                    # fast-path: requires=faults,tracer
                    def fast(env):
                        pass

                    # fast-path: requires=faults,tracer
                    def outer(env):
                        fast(env)
                    """,
            },
        )
        assert findings == []

    def test_non_fault_symbol_is_not_a_faults_gate(self, tmp_path):
        # A guard on some unrelated name being None must not satisfy the
        # ``faults`` facet (e.g. raid's ``fast is not None`` payload).
        findings = analyze(
            tmp_path,
            {
                "mod.py": """
                    # fast-path
                    def fast(env):
                        pass

                    def run(env, payload):
                        if payload is None:
                            fast(env)
                    """,
            },
        )
        assert rule_ids(findings) == ["R006"]

    def test_unknown_facet_in_pragma_reported(self, tmp_path):
        # The pragma line is assembled so this test file itself does not
        # contain an invalid pragma (the scanner reads raw source lines).
        # ``telemetry`` names no gate any more, so a stale pragma naming
        # it must be reported like any other unknown facet.
        for facet in ("warp", "telemetry"):
            bad_pragma = "# fast-" + "path: requires=" + facet
            findings = analyze(
                tmp_path / facet,
                {
                    "mod.py": bad_pragma + "\ndef fast(env):\n    pass\n",
                },
            )
            assert rule_ids(findings) == ["R006"]
            assert "unknown fast-path facet" in findings[0].message

    def test_default_pragma_requires_faults(self, tmp_path):
        findings = analyze(
            tmp_path,
            {
                "mod.py": """
                    # fast-path
                    def fast(env):
                        pass

                    def run(env, faults):
                        if faults is None:
                            fast(env)

                    def bad(env):
                        fast(env)
                    """,
            },
        )
        assert rule_ids(findings) == ["R006"]
        assert findings[0].chain[0].function == "mod.bad"


class TestSimOkSuppression:
    def test_versioned_rule_id_suppresses(self, tmp_path):
        findings = analyze(
            tmp_path,
            {
                "mod.py": """
                    def tally(stats):
                        # sim-ok: R003v2 -- insertion order is deterministic here
                        for key in stats.keys():
                            print(key)

                    def dispatch(env, stats):
                        env.schedule(0)
                        tally(stats)
                    """,
            },
        )
        assert findings == []

    def test_unrelated_suppression_does_not_cover(self, tmp_path):
        findings = analyze(
            tmp_path,
            {
                "mod.py": """
                    def tally(stats):
                        # sim-ok: R001 -- wrong rule
                        for key in stats.keys():
                            print(key)

                    def dispatch(env, stats):
                        env.schedule(0)
                        tally(stats)
                    """,
            },
        )
        assert rule_ids(findings) == ["R003v2"]


class TestIncrementalCache:
    def test_second_run_hits_every_file(self, tmp_path):
        root = write_tree(
            tmp_path,
            {"a.py": "def f():\n    return 1\n", "b.py": "def g():\n    return 2\n"},
        )
        cache = str(tmp_path / "cache.json")
        _s1, stats1 = summarize_paths([root], cache)
        assert (stats1.hits, stats1.misses) == (0, 2)  # a.py and b.py
        _s2, stats2 = summarize_paths([root], cache)
        assert (stats2.hits, stats2.misses) == (2, 0)

    def test_edited_file_misses_alone(self, tmp_path):
        root = write_tree(
            tmp_path, {"a.py": "def f():\n    return 1\n", "b.py": "x = 1\n"}
        )
        cache = str(tmp_path / "cache.json")
        summarize_paths([root], cache)
        (tmp_path / "a.py").write_text("def f():\n    return 99\n")
        _s, stats = summarize_paths([root], cache)
        assert (stats.hits, stats.misses) == (1, 1)

    def test_corrupt_cache_degrades_to_full_extraction(self, tmp_path):
        root = write_tree(tmp_path, {"a.py": "x = 1\n"})
        cache = str(tmp_path / "cache.json")
        (tmp_path / "cache.json").write_text("{not json")
        summaries, stats = summarize_paths([root], cache)
        assert stats.misses >= 1 and summaries
        # And the rewritten cache is valid again.
        _s, stats2 = summarize_paths([root], cache)
        assert stats2.hits >= 1

    def test_cached_summaries_give_identical_findings(self, tmp_path):
        files = {
            "mod.py": """
                def tally(stats):
                    for key in stats.keys():
                        print(key)

                def dispatch(env, stats):
                    env.schedule(0)
                    tally(stats)
                """
        }
        root = write_tree(tmp_path, files)
        cache = str(tmp_path / "cache.json")
        first, _ = summarize_paths([root], cache)
        second, stats = summarize_paths([root], cache)
        assert stats.misses == 0
        assert analyze_project(first) == analyze_project(second)


class TestSarifCodeFlows:
    def test_chain_findings_emit_code_flows(self, tmp_path):
        findings = analyze(
            tmp_path,
            {
                "mod.py": """
                    def tally(stats):
                        for key in stats.keys():
                            print(key)

                    def dispatch(env, stats):
                        env.schedule(0)
                        tally(stats)
                    """,
            },
        )
        doc = to_sarif(findings)
        assert doc["$schema"].endswith("sarif-2.1.0.json")
        run = doc["runs"][0]
        rules = [r["id"] for r in run["tool"]["driver"]["rules"]]
        for rid in ("R003v2", "R006"):
            assert rid in rules
        for rule in run["tool"]["driver"]["rules"]:
            assert rule["shortDescription"]["text"]
            assert rule["defaultConfiguration"] == {"level": "error"}
        result = run["results"][0]
        assert result["ruleIndex"] == rules.index(result["ruleId"])
        locations = result["codeFlows"][0]["threadFlows"][0]["locations"]
        texts = [loc["location"]["message"]["text"] for loc in locations]
        assert texts == ["mod.dispatch", "mod.tally", "flagged site"]
        for loc in locations:
            region = loc["location"]["physicalLocation"]["region"]
            assert region["startLine"] >= 1 and region["startColumn"] >= 1


class TestCLI:
    FILES = {
        "mod.py": """
            def tally(stats):
                for key in stats.keys():
                    print(key)

            def dispatch(env, stats):
                env.schedule(0)
                tally(stats)
            """
    }

    def test_interprocedural_flag_reports_chain(self, tmp_path, capsys):
        root = write_tree(tmp_path, dict(self.FILES))
        assert main(["--interprocedural", root]) == 1
        out = capsys.readouterr().out
        assert "R003v2" in out and "->" in out

    def test_intra_mode_does_not_run_whole_program_rules(self, tmp_path, capsys):
        root = write_tree(tmp_path, dict(self.FILES))
        assert main([root]) == 0

    def test_max_hops_flag(self, tmp_path, capsys):
        root = write_tree(
            tmp_path,
            {
                "mod.py": """
                    def dispatch(env, stats):
                        env.schedule(0)
                        hop1(stats)

                    def hop1(stats):
                        hop2(stats)

                    def hop2(stats):
                        for key in stats.keys():
                            print(key)
                    """
            },
        )
        assert main(["--interprocedural", "--max-hops", "1", root]) == 0
        assert main(["--interprocedural", "--max-hops", "2", root]) == 1
        capsys.readouterr()

    def test_sarif_file_written(self, tmp_path, capsys):
        root = write_tree(tmp_path, dict(self.FILES))
        sarif_path = tmp_path / "out.sarif"
        main(["--interprocedural", "--sarif", str(sarif_path), root])
        capsys.readouterr()
        doc = json.loads(sarif_path.read_text())
        assert doc["version"] == "2.1.0"
        assert doc["runs"][0]["results"]

    def test_baseline_ratchet(self, tmp_path, capsys):
        root = write_tree(tmp_path, dict(self.FILES))
        baseline = str(tmp_path / "baseline.json")
        assert (
            main(["--interprocedural", "--baseline", baseline, "--write-baseline", root])
            == 0
        )
        # Known findings no longer gate.
        assert main(["--interprocedural", "--baseline", baseline, root]) == 0
        out = capsys.readouterr().out
        assert "known finding(s) suppressed by baseline" in out
        # A new violation still fails, and only it is reported.
        (tmp_path / "new.py").write_text(
            textwrap.dedent(
                """
                def other(env, items):
                    env.schedule(0)
                    for item in set(items):
                        print(item)
                """
            )
        )
        assert main(["--interprocedural", "--baseline", baseline, root]) == 1
        out = capsys.readouterr().out
        assert "new.py" in out and "mod.py" not in out

    def test_write_baseline_requires_baseline_path(self, capsys):
        assert main(["--write-baseline", "src"]) == 2
        capsys.readouterr()

    def test_list_rules_includes_interprocedural(self, capsys):
        assert main(["--list-rules", "--interprocedural"]) == 0
        out = capsys.readouterr().out
        for rid in ("R003v2", "R006"):
            assert rid in out


class TestShippedTree:
    def test_whole_tree_is_interprocedurally_clean(self):
        findings = collect_findings(["src", "tests"], interprocedural=True)
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_fast_path_pragmas_are_seeded_and_resolved(self):
        summaries, _stats = summarize_paths(["src"])
        project = Project(summaries)
        marked = {fid for fid, f in project.functions.items() if f.pragma is not None}
        assert marked == {"repro.paragonos.rpc:RPCEndpoint._call_once"}
        # The fast-path entries are reached through *resolved* edges
        # (the gating check actually sees them, rather than the calls
        # being unresolved and silently unchecked).
        entries = {
            e.callee
            for edges in project.edges.values()
            for e in edges
            if e.callee in marked
        }
        assert entries == marked

    def test_fast_path_gates_resolve_their_facets(self):
        """Each gate resolves to exactly the facets its callee needs: a
        fault-free call only needs no fault plan."""
        summaries, _stats = summarize_paths(["src"])
        project = Project(summaries)
        gates = {
            (
                "repro.paragonos.rpc:RPCEndpoint.call",
                "repro.paragonos.rpc:RPCEndpoint._call_once",
            ): {"faults"},
        }
        for (caller, callee), facets in gates.items():
            sites = [e.site for e in project.edges[caller] if e.callee == callee]
            assert sites and set(sites[0].guard_facets) == facets, (caller, callee)
