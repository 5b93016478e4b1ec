"""Interprocedural determinism rules over the linked call graph.

Three rules, all built on :class:`repro.analysis.callgraph.Project`:

R003v2  unordered iteration within *k* call-hops of a scheduling/merge
        site.  Closes the ROADMAP gap verbatim: a ``for x in some_set:``
        in a helper is flagged when an ordering-sensitive function can
        reach the helper (the loop runs *during* scheduling), and a
        function whose own calls reach a scheduling primitive is treated
        as sensitive itself (the loop order decides the order of the
        scheduling calls it makes).  Findings carry the call chain.

R005v2  cross-function request/release ownership.  A function that
        requests and *returns* the handle transfers ownership to its
        caller; a function that receives a handle parameter and releases
        it discharges the caller's obligation.  The rule flags handles
        that no channel ever discharges (leak) and handles released on
        both sides of a call (double release).  Escapes -- storing the
        handle on an object, entering it as a context manager, passing
        it into an unresolved call -- conservatively count as discharge,
        so the rule under-reports rather than cry wolf.

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

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.analysis.callgraph import (
    CallSite,
    Edge,
    FunctionFact,
    ModuleSummary,
    Project,
)
from repro.analysis.findings import ChainStep, Finding, Rule

DEFAULT_MAX_HOPS = 3

R003V2 = Rule(
    "R003v2",
    "no-unordered-iteration-interproc",
    "unordered set/dict-view iteration reachable within k call-hops of an "
    "event-scheduling or stats-merge site; sort first (chain attached)",
)
R005V2 = Rule(
    "R005v2",
    "cross-function-ownership",
    "resource handles must be discharged across function boundaries: "
    "request-and-return transfers ownership, receive-and-release "
    "discharges it; leaks and double releases are flagged",
)
R006 = Rule(
    "R006",
    "fast-path-gating",
    "calls into '# fast-path'-marked functions must be dominated by "
    "guards establishing the required facets (faults is None, "
    "tracer off)",
)

INTERPROC_RULES: Sequence[Rule] = (R003V2, R005V2, R006)


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
        findings.extend(self._check_r005v2())
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

    # -- R005v2 ----------------------------------------------------------

    def _discharging_params(self) -> Dict[str, FrozenSet[str]]:
        """Fixpoint: parameters a function discharges (releases, escapes,
        returns, or forwards to a discharging callee)."""
        project = self.project
        out: Dict[str, Set[str]] = {}
        for fid in project.functions:
            fact = self._fact(fid)
            base = (set(fact.releases) | set(fact.escapes) | set(fact.returned)) & set(
                fact.params
            )
            out[fid] = base
        changed = True
        while changed:
            changed = False
            for fid in sorted(project.functions):
                fact = self._fact(fid)
                params = set(fact.params)
                current = out[fid]
                for edge in project.edges.get(fid, ()):
                    callee = self._fact(edge.callee)
                    callee_discharging = out.get(edge.callee, set())
                    for pos, name in edge.site.arg_names:
                        if name not in params or name in current:
                            continue
                        param = self._param_at(callee, edge.site, pos)
                        if param is not None and param in callee_discharging:
                            current.add(name)
                            changed = True
                # Names passed into calls we could not resolve escape.
                resolved_sites = {id(e.site) for e in project.edges.get(fid, ())}
                for site in fact.calls:
                    if id(site) in resolved_sites:
                        top = {name for _pos, name in site.arg_names}
                        hidden = set(site.nested_names) - top
                    else:
                        hidden = set(site.nested_names)
                    for name in hidden & params - current:
                        current.add(name)
                        changed = True
        return {fid: frozenset(names) for fid, names in out.items()}

    def _owns_return(self) -> Dict[str, bool]:
        """Fixpoint: functions that return a handle they acquired."""
        project = self.project
        owns = {fid: False for fid in project.functions}
        for fid in project.functions:
            fact = self._fact(fid)
            acquired = {a.name for a in fact.acquires}
            if acquired & set(fact.returned):
                owns[fid] = True
        changed = True
        while changed:
            changed = False
            for fid in sorted(project.functions):
                if owns[fid]:
                    continue
                fact = self._fact(fid)
                returned = set(fact.returned)
                for edge in project.edges.get(fid, ()):
                    if (
                        owns.get(edge.callee)
                        and edge.site.assigned_to is not None
                        and edge.site.assigned_to in returned
                    ):
                        owns[fid] = True
                        changed = True
                        break
        return owns

    def _param_at(
        self, callee: FunctionFact, site: CallSite, pos: int
    ) -> Optional[str]:
        """Callee parameter a positional argument lands in (self-aware)."""
        offset = 0
        if callee.is_method:
            bound = site.target[0] in ("self", "selfattr", "cls")
            constructor = callee.qname.endswith(".__init__") and site.target[0] in (
                "name",
                "dotted",
            )
            if bound or constructor:
                offset = 1
        index = pos + offset
        if 0 <= index < len(callee.params):
            return callee.params[index]
        return None

    def _name_discharged(
        self,
        fid: str,
        name: str,
        discharging: Dict[str, FrozenSet[str]],
    ) -> Optional[str]:
        """How *name* is discharged in *fid*, or None if leaked.

        Returns a short description of the discharge channel (used to
        keep messages honest in tests); leak findings fire on None.
        """
        project = self.project
        fact = self._fact(fid)
        if name in fact.releases:
            return "released locally"
        if name in fact.escapes:
            return "escapes"
        if name in fact.returned:
            return "returned (ownership transferred to caller)"
        resolved_sites = {}
        for edge in project.edges.get(fid, ()):
            resolved_sites[id(edge.site)] = edge
        for site in fact.calls:
            edge = resolved_sites.get(id(site))
            if edge is None:
                if name in site.nested_names:
                    return "passed to an unresolved call"
                continue
            callee = self._fact(edge.callee)
            top = {n for _pos, n in site.arg_names}
            if name in set(site.nested_names) - top:
                return "passed nested into a call"
            for pos, arg in site.arg_names:
                if arg != name:
                    continue
                param = self._param_at(callee, site, pos)
                if param is not None and param in discharging.get(edge.callee, ()):
                    return f"discharged by '{_display(edge.callee)}'"
        return None

    def _check_r005v2(self) -> List[Finding]:
        project = self.project
        discharging = self._discharging_params()
        owns = self._owns_return()
        findings: List[Finding] = []
        for fid in sorted(project.functions):
            fact = self._fact(fid)
            path = project.path_of(fid)
            # Leaked local acquires (the intra R005 base case, minus the
            # interprocedural discharge channels).
            for acquire in fact.acquires:
                if self._name_discharged(fid, acquire.name, discharging) is None:
                    findings.append(
                        Finding(
                            path=path,
                            line=acquire.line,
                            col=acquire.col,
                            rule_id=R005V2.rule_id,
                            message=(
                                f"'{acquire.name} = {acquire.base}.request(...)' in "
                                f"'{fact.name}' is never released, returned, or "
                                "passed to a releasing callee; the hold leaks"
                            ),
                        )
                    )
            # Handles received from ownership-transferring callees.
            for edge in project.edges.get(fid, ()):
                handle = edge.site.assigned_to
                if handle is None or not owns.get(edge.callee):
                    continue
                local_acquires = {a.name for a in fact.acquires}
                if handle in local_acquires:
                    continue  # already checked above
                if self._name_discharged(fid, handle, discharging) is None:
                    findings.append(
                        Finding(
                            path=path,
                            line=edge.site.line,
                            col=edge.site.col,
                            rule_id=R005V2.rule_id,
                            message=(
                                f"'{handle}' receives a resource handle from "
                                f"'{_display(edge.callee)}' (which transfers "
                                "ownership by returning its request) but "
                                f"'{fact.name}' never discharges it"
                            ),
                            chain=self._chain_steps(fid, (edge,)),
                        )
                    )
            # Double release: caller releases a handle it also hands to a
            # callee that releases the same parameter.
            for edge in project.edges.get(fid, ()):
                callee = self._fact(edge.callee)
                for pos, name in edge.site.arg_names:
                    if name not in fact.releases:
                        continue
                    param = self._param_at(callee, edge.site, pos)
                    if param is not None and param in callee.released_params:
                        findings.append(
                            Finding(
                                path=path,
                                line=edge.site.line,
                                col=edge.site.col,
                                rule_id=R005V2.rule_id,
                                message=(
                                    f"'{name}' is released by '{fact.name}' and "
                                    f"also by callee '{_display(edge.callee)}' "
                                    f"(parameter '{param}'); double release"
                                ),
                                chain=self._chain_steps(fid, (edge,)),
                            )
                        )
        return findings

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
