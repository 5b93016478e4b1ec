"""repro.analysis -- determinism lint suite and runtime sanitizers.

Static analysis (``python -m repro.analysis src tests``):

- R001  no wall-clock reads in simulation code
- R002  no module-level / unseeded RNGs
- R003  no set / dict-view iteration at scheduling or stats-merge sites
- R004  observability hooks must not perturb the simulation

Whole-program analysis (``python -m repro.analysis --interprocedural``),
built on a module-resolved call graph (:mod:`repro.analysis.callgraph`)
and a reaching-definitions framework (:mod:`repro.analysis.dataflow`):

- R003v2  unordered iteration within k call-hops of a scheduling site
          (findings carry the call chain; SARIF emits it as codeFlows)
- R006    ``# fast-path``-marked functions may only be entered under
          guards establishing their facets (faults/tracer)

Findings are suppressed inline with ``# sim-ok: R001 -- justification``
(the justification is mandatory).  Output is human-readable text or
schema-valid SARIF 2.1.0 (``--json`` / ``--sarif FILE``); ``--baseline``
ratchets CI to fail only on new findings.

Runtime sanitizers (:mod:`repro.analysis.sanitizers`):

- :func:`~repro.analysis.sanitizers.check_tie_order` -- runs an
  experiment under permuted same-timestamp event ordering and diffs
  canonical report fingerprints (tie-order race detection).
- :func:`~repro.analysis.sanitizers.leaked_resources` /
  :func:`~repro.analysis.sanitizers.assert_no_leaks` -- held-resource
  detection once the event queue has drained (also wired into
  ``Machine.verify``).
"""

from repro.analysis.cache import summarize_paths
from repro.analysis.callgraph import ModuleSummary, Project, extract_module
from repro.analysis.cli import collect_findings
from repro.analysis.engine import (
    lint_file,
    lint_paths,
    lint_source,
    rule_catalogue,
)
from repro.analysis.findings import ChainStep, Finding, Rule
from repro.analysis.interproc import INTERPROC_RULES, InterprocAnalysis, analyze_project
from repro.analysis.report import render_json, render_text, to_sarif
from repro.analysis.sanitizers import (
    ResourceLeak,
    TieOrderRace,
    TieOrderResult,
    assert_no_leaks,
    assert_tie_order_deterministic,
    check_tie_order,
    leaked_resources,
    report_fingerprint,
)

__all__ = [
    "ChainStep",
    "Finding",
    "INTERPROC_RULES",
    "InterprocAnalysis",
    "ModuleSummary",
    "Project",
    "ResourceLeak",
    "Rule",
    "TieOrderRace",
    "TieOrderResult",
    "analyze_project",
    "assert_no_leaks",
    "assert_tie_order_deterministic",
    "check_tie_order",
    "collect_findings",
    "extract_module",
    "leaked_resources",
    "lint_file",
    "lint_paths",
    "lint_source",
    "render_json",
    "render_text",
    "report_fingerprint",
    "rule_catalogue",
    "summarize_paths",
    "to_sarif",
]
