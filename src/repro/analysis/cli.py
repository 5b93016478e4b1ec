"""Command-line entry point: ``python -m repro.analysis [paths...]``.

Modes
-----
Default: the intraprocedural rules (R001-R004) per file.

``--interprocedural``: additionally build the whole-program call graph
and run R003v2/R006.  ``--cache FILE`` keeps per-file summaries keyed on
content hashes so unchanged files are never re-parsed.

``--baseline FILE`` makes only *new* findings (not recorded in the
baseline) affect the exit code -- the ratchet for retrofitting the lint
onto a tree with known, justified debt.  ``--write-baseline`` records
the current findings as that baseline.

Exit codes: 0 = clean (or nothing new vs baseline), 1 = findings
reported, 2 = usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence, Tuple

from repro.analysis.engine import lint_paths, rule_catalogue
from repro.analysis.findings import Finding
from repro.analysis.report import render_json, render_text, to_sarif


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Determinism lint for the Paragon PFS simulation: wall-clock "
            "reads, unseeded RNGs, unordered iteration at scheduling/merge "
            "sites, impure observability hooks; with --interprocedural also "
            "call-graph-lifted unordered iteration (R003v2) and fast-path "
            "gating (R006)."
        ),
    )
    parser.add_argument("paths", nargs="*", help="files or directories to lint (default: src)")
    parser.add_argument("--json", action="store_true", help="emit SARIF JSON to stdout")
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue and exit"
    )
    parser.add_argument(
        "--interprocedural",
        action="store_true",
        help="run the whole-program rules (R003v2, R006) as well",
    )
    parser.add_argument(
        "--max-hops",
        type=int,
        default=None,
        metavar="K",
        help="call-graph closure depth for R003v2 (default: 3)",
    )
    parser.add_argument(
        "--cache",
        metavar="FILE",
        default=None,
        help="incremental summary cache file (content-hash keyed)",
    )
    parser.add_argument(
        "--sarif",
        metavar="FILE",
        default=None,
        help="also write a SARIF 2.1.0 report to FILE",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        default=None,
        help="suppress findings recorded in FILE; fail only on new ones",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write the current findings to the --baseline file and exit 0",
    )
    return parser


def _finding_key(finding: Finding) -> str:
    # Line numbers churn on unrelated edits; rule + file + message is
    # stable enough to ratchet on.
    return f"{finding.rule_id}|{finding.path}|{finding.message}"


def load_baseline(path: str) -> List[str]:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    keys = data.get("findings", []) if isinstance(data, dict) else []
    return [k for k in keys if isinstance(k, str)]


def save_baseline(path: str, findings: Sequence[Finding]) -> None:
    payload = {"findings": sorted({_finding_key(f) for f in findings})}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def split_by_baseline(
    findings: Sequence[Finding], baseline_keys: Sequence[str]
) -> Tuple[List[Finding], List[Finding]]:
    """(new, known) partition of *findings* against the baseline."""
    known_keys = set(baseline_keys)
    new: List[Finding] = []
    known: List[Finding] = []
    for finding in findings:
        (known if _finding_key(finding) in known_keys else new).append(finding)
    return new, known


def collect_findings(
    paths: Sequence[str],
    interprocedural: bool = False,
    max_hops: Optional[int] = None,
    cache_file: Optional[str] = None,
) -> List[Finding]:
    """All findings for *paths* in the requested mode, sorted."""
    if not interprocedural:
        return lint_paths(paths)
    from repro.analysis.cache import summarize_paths
    from repro.analysis.interproc import DEFAULT_MAX_HOPS, analyze_project

    findings = list(lint_paths(paths))
    summaries, _stats = summarize_paths(paths, cache_file)
    findings.extend(
        analyze_project(summaries, max_hops=max_hops or DEFAULT_MAX_HOPS)
    )
    return sorted(findings)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in rule_catalogue():
            print(f"{rule.rule_id}  {rule.name}: {rule.summary}")
        if args.interprocedural:
            from repro.analysis.interproc import INTERPROC_RULES

            for rule in INTERPROC_RULES:
                print(f"{rule.rule_id}  {rule.name}: {rule.summary}")
        return 0

    if args.write_baseline and not args.baseline:
        print("error: --write-baseline requires --baseline FILE", file=sys.stderr)
        return 2
    if args.max_hops is not None and args.max_hops < 1:
        print("error: --max-hops must be >= 1", file=sys.stderr)
        return 2

    paths: List[str] = args.paths or ["src"]
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        print(f"error: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2

    findings = collect_findings(
        paths,
        interprocedural=args.interprocedural,
        max_hops=args.max_hops,
        cache_file=args.cache,
    )

    if args.sarif:
        with open(args.sarif, "w", encoding="utf-8") as fh:
            fh.write(render_json(findings))

    if args.baseline and args.write_baseline:
        save_baseline(args.baseline, findings)
        print(f"baseline written: {len(findings)} finding(s) -> {args.baseline}")
        return 0

    gating = findings
    if args.baseline:
        if not os.path.exists(args.baseline):
            print(f"error: no such baseline: {args.baseline}", file=sys.stderr)
            return 2
        new, known = split_by_baseline(findings, load_baseline(args.baseline))
        gating = new
        if args.json:
            sys.stdout.write(json.dumps(to_sarif(new), indent=2) + "\n")
        else:
            print(render_text(new))
            if known:
                print(f"({len(known)} known finding(s) suppressed by baseline)")
        return 1 if gating else 0

    if args.json:
        sys.stdout.write(render_json(findings))
    else:
        print(render_text(findings))
    return 1 if gating else 0
