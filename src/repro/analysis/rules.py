"""Determinism lint rules.

Every rule is an AST pass over one module.  The common machinery is
import-alias resolution: ``from time import time as now`` makes a later
``now()`` call resolve to the dotted origin ``time.time``, so rules match
on *origins*, never on surface spellings.

Rules
-----
R001  no wall-clock reads in simulation code
R002  no module-level / unseeded random number generators
R003  no iteration over sets or ``dict.values()`` at ordering-sensitive
      sites (event scheduling, stats merging)
R004  observability hooks must not perturb the simulation
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.findings import Finding, Rule

# -- import resolution ------------------------------------------------------


def build_alias_map(tree: ast.AST) -> Dict[str, str]:
    """Local name -> dotted origin, from every import in the module."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.asname:
                    aliases[item.asname] = item.name
                else:
                    # ``import numpy.random`` binds the name ``numpy``.
                    head = item.name.split(".")[0]
                    aliases[head] = head
        elif isinstance(node, ast.ImportFrom):
            if node.module is None or node.level:
                continue  # relative imports are project-internal
            for item in node.names:
                local = item.asname or item.name
                aliases[local] = f"{node.module}.{item.name}"
    return aliases


def resolve(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Dotted origin of a Name/Attribute chain, or None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    head = aliases.get(node.id, node.id)
    parts.append(head)
    return ".".join(reversed(parts))


# -- rule base --------------------------------------------------------------


class LintRule:
    """One rule: a static descriptor plus a ``check`` pass."""

    rule = Rule("R000", "abstract", "")

    def check(
        self, tree: ast.AST, path: str, aliases: Dict[str, str]
    ) -> List[Finding]:  # pragma: no cover - interface
        raise NotImplementedError

    def finding(self, path: str, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule_id=self.rule.rule_id,
            message=message,
        )


def _calls(tree: ast.AST) -> Iterator[ast.Call]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node


def _functions(tree: ast.AST) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _walk_shallow(func: ast.AST) -> Iterator[ast.AST]:
    """Walk *func*'s own body without descending into nested functions
    (each nested function is analysed in its own scope)."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _shallow_calls(func: ast.AST) -> Iterator[ast.Call]:
    for node in _walk_shallow(func):
        if isinstance(node, ast.Call):
            yield node


# -- R001: wall clock -------------------------------------------------------

_WALL_CLOCK_ORIGINS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}


class NoWallClock(LintRule):
    """Simulated time comes from ``env.now``; host-clock reads make
    results depend on machine speed and are irreproducible."""

    rule = Rule(
        "R001",
        "no-wall-clock",
        "wall-clock reads (time.time, datetime.now, ...) are forbidden in "
        "simulation code; use env.now",
    )

    def check(self, tree, path, aliases):
        findings = []
        for call in _calls(tree):
            origin = resolve(call.func, aliases)
            if origin in _WALL_CLOCK_ORIGINS:
                findings.append(
                    self.finding(
                        path, call,
                        f"wall-clock read '{origin}()' in simulation code; "
                        "simulated time must come from env.now",
                    )
                )
        return findings


# -- R002: unseeded randomness ---------------------------------------------


class NoUnseededRandom(LintRule):
    """The module-level ``random`` singleton and ``numpy.random`` default
    generator are process-global: any import-order or call-order change
    silently reshuffles every downstream draw.  Simulation randomness
    must flow through an explicitly-seeded generator object."""

    rule = Rule(
        "R002",
        "no-unseeded-random",
        "module-level random/numpy.random functions and unseeded "
        "random.Random() are forbidden; use an explicitly seeded generator",
    )

    def check(self, tree, path, aliases):
        findings = []
        for call in _calls(tree):
            origin = resolve(call.func, aliases)
            if origin is None:
                continue
            if origin == "random.Random" or origin == "numpy.random.default_rng":
                if not call.args and not call.keywords:
                    findings.append(
                        self.finding(
                            path, call,
                            f"'{origin}()' without a seed draws entropy from "
                            "the OS; pass an explicit seed",
                        )
                    )
                continue
            if origin == "random.SystemRandom":
                findings.append(
                    self.finding(
                        path, call,
                        "'random.SystemRandom' is inherently unseedable and "
                        "irreproducible",
                    )
                )
                continue
            if origin.startswith("random.") or origin.startswith("numpy.random."):
                findings.append(
                    self.finding(
                        path, call,
                        f"'{origin}()' uses the process-global RNG; draw from "
                        "an explicitly seeded generator object instead",
                    )
                )
        return findings


# -- R003: unordered iteration at ordering-sensitive sites -----------------

_SCHEDULING_ATTRS = {"schedule", "timeout", "process", "succeed", "fail"}
_UNORDERED_METHODS = {"values", "keys", "items"}


def _is_ordering_sensitive(func: ast.AST, aliases: Dict[str, str]) -> bool:
    name = getattr(func, "name", "")
    if "merge" in name.lower():
        return True
    for call in _shallow_calls(func):
        if (isinstance(call.func, ast.Attribute) and call.func.attr in _SCHEDULING_ATTRS):
            return True
    return False


def _unordered_iterable(expr: ast.AST) -> Optional[str]:
    """Describe *expr* if its iteration order is container-internal."""
    if isinstance(expr, ast.Set) or isinstance(expr, ast.SetComp):
        return "a set"
    if isinstance(expr, ast.Call):
        if isinstance(expr.func, ast.Name) and expr.func.id in ("set", "frozenset"):
            return f"{expr.func.id}(...)"
        if (isinstance(expr.func, ast.Attribute) and expr.func.attr in _UNORDERED_METHODS):
            return f".{expr.func.attr}()"
    return None


def _iteration_sites(func: ast.AST) -> Iterator[Tuple[ast.AST, ast.AST]]:
    for node in _walk_shallow(func):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node, node.iter
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for gen in node.generators:
                yield node, gen.iter


class NoUnorderedIteration(LintRule):
    """At a site that schedules events or merges statistics, the loop
    order becomes part of the simulation's behaviour -- iterating a set
    (or a dict view whose insertion order is itself tie-dependent) turns
    incidental container state into results."""

    rule = Rule(
        "R003",
        "no-unordered-iteration",
        "iterating sets / dict views at event-scheduling or stats-merge "
        "sites makes results depend on container internals; sort first",
    )

    def check(self, tree, path, aliases):
        findings = []
        for func in _functions(tree):
            if not _is_ordering_sensitive(func, aliases):
                continue
            for site, iterable in _iteration_sites(func):
                described = _unordered_iterable(iterable)
                if described is not None:
                    findings.append(
                        self.finding(
                            path, site,
                            f"iteration over {described} in ordering-sensitive "
                            f"function '{getattr(func, 'name', '?')}'; iterate "
                            "a sorted/canonical sequence instead",
                        )
                    )
        return findings


# -- R004: observability purity --------------------------------------------

_MUTATING_ATTRS = {
    "schedule",
    "process",
    "timeout",
    "succeed",
    "fail",
    "request",
    "acquire",
}


class ObservabilityPurity(LintRule):
    """Tracing and the monitor may *read* the environment (``env.now``,
    queue depths, counters) but must never schedule events or acquire
    resources: turning instrumentation on or off must not change any
    simulated result."""

    rule = Rule(
        "R004",
        "obs-purity",
        "observability code (repro/obs/) must not schedule events or "
        "acquire resources; instrumentation may only read",
    )

    def applies(self, path: str) -> bool:
        norm = path.replace("\\", "/")
        return "/obs/" in norm or norm.startswith("obs/")

    def check(self, tree, path, aliases):
        if not self.applies(path):
            return []
        findings = []
        for call in _calls(tree):
            if (isinstance(call.func, ast.Attribute) and call.func.attr in _MUTATING_ATTRS):
                findings.append(
                    self.finding(
                        path, call,
                        f"observability code calls '.{call.func.attr}()'; "
                        "hooks must observe, never perturb the simulation",
                    )
                )
        return findings


ALL_RULES: Sequence[LintRule] = (
    NoWallClock(),
    NoUnseededRandom(),
    NoUnorderedIteration(),
    ObservabilityPurity(),
)
