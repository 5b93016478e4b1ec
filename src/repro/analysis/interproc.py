"""Interprocedural determinism rules over the linked call graph.

Two rules, both built on :class:`repro.analysis.callgraph.Project`:

R003v2  unordered iteration within *k* call-hops of a scheduling/merge
        site.  Closes the ROADMAP gap verbatim: a ``for x in some_set:``
        in a helper is flagged when an ordering-sensitive function can
        reach the helper (the loop runs *during* scheduling), and a
        function whose own calls reach a scheduling primitive is treated
        as sensitive itself (the loop order decides the order of the
        scheduling calls it makes).  Findings carry the call chain.

R006    fast-path gating.  A function marked ``# fast-path`` (see
        docs/performance.md: fast paths may skip events but only when
        nothing can observe the difference) must only be entered under
        guards establishing its required facets -- ``faults`` (no fault
        plan), ``tracer`` (tracing off).  Every call
        edge into a pragma'd function is checked: the union of the
        facets established by the lexically dominating ``if`` guards
        (resolved through reaching definitions and class attributes,
        e.g. ``if self._fast:``) plus the caller's own pragma must
        cover the callee's requirement.

Suppression uses the same ``# sim-ok`` comments as the intraprocedural
rules (``# sim-ok: R006 -- why``); justification enforcement (S000) is
the intraprocedural engine's job and is not duplicated here.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.analysis.callgraph import Edge, FunctionFact, ModuleSummary, Project
from repro.analysis.findings import ChainStep, Finding, Rule

DEFAULT_MAX_HOPS = 3

R003V2 = Rule(
    "R003v2",
    "no-unordered-iteration-interproc",
    "unordered set/dict-view iteration reachable within k call-hops of an "
    "event-scheduling or stats-merge site; sort first (chain attached)",
)
R006 = Rule(
    "R006",
    "fast-path-gating",
    "calls into '# fast-path'-marked functions must be dominated by "
    "guards establishing the required facets (faults is None, "
    "tracer off)",
)

INTERPROC_RULES: Sequence[Rule] = (R003V2, R006)


def _display(fid: str) -> str:
    """Short human name for a function id: ``module-tail.qname``."""
    module, qname = fid.split(":", 1)
    tail = module.rsplit(".", 1)[-1]
    return f"{tail}.{qname}"


class InterprocAnalysis:
    """One analysis run over a linked project."""

    def __init__(self, project: Project, max_hops: int = DEFAULT_MAX_HOPS) -> None:
        self.project = project
        self.max_hops = max_hops

    # -- public ----------------------------------------------------------

    def run(self) -> List[Finding]:
        findings: List[Finding] = []
        findings.extend(self._check_r003v2())
        findings.extend(self._check_r006())
        return sorted(self._apply_suppressions(findings))

    # -- shared helpers --------------------------------------------------

    def _fact(self, fid: str) -> FunctionFact:
        return self.project.functions[fid]

    def _chain_steps(self, root: str, chain: Sequence[Edge]) -> Tuple[ChainStep, ...]:
        """Root function definition plus one step per call edge."""
        root_fact = self._fact(root)
        steps = [
            ChainStep(
                path=self.project.path_of(root),
                line=root_fact.line,
                col=root_fact.col,
                function=_display(root),
            )
        ]
        for edge in chain:
            steps.append(
                ChainStep(
                    path=self.project.path_of(edge.caller),
                    line=edge.site.line,
                    col=edge.site.col,
                    function=_display(edge.callee),
                )
            )
        return tuple(steps)

    def _apply_suppressions(self, findings: List[Finding]) -> List[Finding]:
        tables: Dict[str, Dict[int, Tuple[str, ...]]] = {}
        for summary in self.project.modules.values():
            tables[summary.path] = dict(summary.suppressions)
        kept: List[Finding] = []
        for finding in findings:
            table = tables.get(finding.path, {})
            rules = table.get(finding.line) or table.get(finding.line - 1)
            if rules is not None and ("*" in rules or finding.rule_id in rules):
                continue
            kept.append(finding)
        return kept

    # -- R003v2 ----------------------------------------------------------

    def _check_r003v2(self) -> List[Finding]:
        project = self.project
        sensitive = [fid for fid in sorted(project.functions) if self._fact(fid).sensitive]
        #: hazard site -> (finding, chain length); shortest chain wins.
        best: Dict[Tuple[str, int, int], Tuple[Finding, int]] = {}

        def offer(key: Tuple[str, int, int], finding: Finding, length: int) -> None:
            have = best.get(key)
            if have is None or length < have[1]:
                best[key] = (finding, length)

        # Downward closure: hazards in helpers a sensitive function reaches.
        for root in sensitive:
            for helper, chain in sorted(project.reachable(root, self.max_hops).items()):
                fact = self._fact(helper)
                for hazard in fact.hazards:
                    if hazard.direct and fact.sensitive:
                        continue  # intraprocedural R003 already covers it
                    path = project.path_of(helper)
                    message = (
                        f"iteration over {hazard.desc} in '{fact.name}', reached "
                        f"from ordering-sensitive '{_display(root)}' via "
                        + " -> ".join(_display(e.callee) for e in chain)
                        + "; iterate a sorted/canonical sequence instead"
                    )
                    offer(
                        (path, hazard.line, hazard.col),
                        Finding(
                            path=path,
                            line=hazard.line,
                            col=hazard.col,
                            rule_id=R003V2.rule_id,
                            message=message,
                            chain=self._chain_steps(root, chain),
                        ),
                        len(chain),
                    )
        # Upward closure: a function whose calls reach a scheduling site is
        # itself ordering-sensitive -- its loop order sequences those calls.
        for fid in sorted(project.functions):
            fact = self._fact(fid)
            if fact.sensitive or not fact.hazards:
                continue
            reach = project.reachable(fid, self.max_hops)
            sink: Optional[str] = None
            sink_chain: Tuple[Edge, ...] = ()
            for target, chain in sorted(reach.items(), key=lambda kv: (len(kv[1]), kv[0])):
                if self._fact(target).schedules:
                    sink, sink_chain = target, chain
                    break
            if sink is None:
                continue
            path = project.path_of(fid)
            for hazard in fact.hazards:
                message = (
                    f"iteration over {hazard.desc} in '{fact.name}', which "
                    f"reaches scheduling site '{_display(sink)}' via "
                    + " -> ".join(_display(e.callee) for e in sink_chain)
                    + "; iterate a sorted/canonical sequence instead"
                )
                offer(
                    (path, hazard.line, hazard.col),
                    Finding(
                        path=path,
                        line=hazard.line,
                        col=hazard.col,
                        rule_id=R003V2.rule_id,
                        message=message,
                        chain=self._chain_steps(fid, sink_chain),
                    ),
                    len(sink_chain),
                )
        # Intra-sensitive functions with *indirect* hazards (a set bound to
        # a name, then iterated) that the syntactic R003 cannot see.
        for fid in sensitive:
            fact = self._fact(fid)
            path = self.project.path_of(fid)
            for hazard in fact.hazards:
                if hazard.direct:
                    continue
                key = (path, hazard.line, hazard.col)
                if key in best:
                    continue
                offer(
                    key,
                    Finding(
                        path=path,
                        line=hazard.line,
                        col=hazard.col,
                        rule_id=R003V2.rule_id,
                        message=(
                            f"iteration over {hazard.desc} in ordering-sensitive "
                            f"'{fact.name}'; iterate a sorted/canonical sequence "
                            "instead"
                        ),
                        chain=self._chain_steps(fid, ()),
                    ),
                    0,
                )
        return [finding for finding, _len in best.values()]

    # -- R006 ------------------------------------------------------------

    def _check_r006(self) -> List[Finding]:
        project = self.project
        findings: List[Finding] = []
        for summary in sorted(project.modules.values(), key=lambda s: s.path):
            for line, message in summary.pragma_errors:
                findings.append(
                    Finding(
                        path=summary.path,
                        line=line,
                        col=1,
                        rule_id=R006.rule_id,
                        message=message,
                    )
                )
        for fid in sorted(project.functions):
            caller = self._fact(fid)
            caller_facets: FrozenSet[str] = frozenset(caller.pragma or ())
            for edge in project.edges.get(fid, ()):
                if edge.callee == fid:
                    continue
                callee = self._fact(edge.callee)
                if callee.pragma is None:
                    continue
                required = frozenset(callee.pragma)
                # The caller's own pragma pushes the obligation to *its*
                # callers, which this same loop checks.
                have = frozenset(edge.site.guard_facets) | caller_facets
                missing = sorted(required - have)
                if not missing:
                    continue
                findings.append(
                    Finding(
                        path=project.path_of(fid),
                        line=edge.site.line,
                        col=edge.site.col,
                        rule_id=R006.rule_id,
                        message=(
                            f"call to fast-path '{_display(edge.callee)}' "
                            f"(requires {', '.join(sorted(required))}) is not "
                            "dominated by guards establishing: "
                            + ", ".join(missing)
                            + "; fast paths may only run when nothing can "
                            "observe the skipped events"
                        ),
                        chain=self._chain_steps(fid, (edge,)),
                    )
                )
        return findings


def analyze_project(
    summaries: Sequence[ModuleSummary], max_hops: int = DEFAULT_MAX_HOPS
) -> List[Finding]:
    """Link *summaries* and run every interprocedural rule."""
    project = Project(summaries)
    return InterprocAnalysis(project, max_hops=max_hops).run()
