"""Forward intraprocedural dataflow: reaching definitions and gate facets.

This is the small analysis framework the interprocedural rules are
built on.  Two clients:

- :class:`ReachingDefs` computes, for every statement in one function,
  which definitions of each local name may reach it.  The walk is
  AST-structured (no explicit CFG): branches join by union, loop bodies
  are interpreted twice so back-edge definitions reach the loop head,
  and ``try`` handlers join with every point of the protected body.
  A *may* analysis is the safe direction for every use here: a gate
  variable is only trusted when **all** of its reaching definitions
  establish the gate, and an iteration source is only called unordered
  when **all** of its reaching definitions are unordered containers.

- :func:`gate_facets` decides which fast-path *gate facets* -- ``faults``
  (no fault plan) and ``tracer`` (tracing off) -- a guard expression
  establishes when truthy.  Conjunctions accumulate facets,
  disjunctions keep only the common ones, and bare names / ``self``
  attributes are expanded through their reaching (or class-attribute)
  definitions, so ``if self._fast:`` resolves through
  ``self._fast = faults is None and not self.tracer.enabled``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.rules import _unordered_iterable

#: The gate facets a fast path may require (see rule R006).
FACET_FAULTS = "faults"
FACET_TRACER = "tracer"
ALL_FACETS = (FACET_FAULTS, FACET_TRACER)


@dataclass(frozen=True)
class DefSite:
    """One definition of a local name.

    ``expr`` is the defining expression when the binding is a simple
    ``name = <expr>`` assignment, and ``None`` for opaque bindings
    (parameters, tuple unpacks, augmented assignments, loop targets) --
    an opaque definition defeats both gate expansion and
    unordered-source resolution, which is the conservative direction.
    """

    name: str
    line: int
    expr: Optional[ast.expr]


Env = Dict[str, Tuple[DefSite, ...]]


def _join(a: Env, b: Env) -> Env:
    """Union the possible definitions of every name in either branch."""
    if a is b:
        return a
    out: Env = dict(a)
    for name, defs in b.items():
        have = out.get(name)
        if have is None:
            out[name] = defs
        elif have is not defs:
            merged = list(have)
            seen = {id(d) for d in have}
            for d in defs:
                if id(d) not in seen:
                    merged.append(d)
                    seen.add(id(d))
            out[name] = tuple(merged)
    return out


class ReachingDefs:
    """Reaching definitions for one function body.

    ``at(stmt)`` returns the environment holding *before* executing
    *stmt*; statements are identified by object identity, so pass the
    same AST nodes the instance was built from.  Nested function and
    class bodies are not entered (each function is analysed in its own
    scope, matching the lint rules), but their *names* are bound.
    """

    def __init__(self, func: ast.AST) -> None:
        self._before: Dict[int, Env] = {}
        env: Env = {}
        line = getattr(func, "lineno", 1)
        for name in _param_names(func):
            env[name] = (DefSite(name, line, None),)
        self._exec_block(getattr(func, "body", []), env)

    def at(self, stmt: ast.AST) -> Env:
        """Environment immediately before *stmt* (empty if unknown)."""
        return self._before.get(id(stmt), {})

    # -- abstract interpretation -----------------------------------------

    def _exec_block(self, stmts: Sequence[ast.stmt], env: Env) -> Env:
        for stmt in stmts:
            # Re-entry (loop second pass) joins with the first pass so
            # recorded environments are the union over all visits.
            prior = self._before.get(id(stmt))
            self._before[id(stmt)] = env if prior is None else _join(prior, env)
            env = self._exec_stmt(stmt, env)
        return env

    def _exec_stmt(self, stmt: ast.stmt, env: Env) -> Env:
        if isinstance(stmt, ast.Assign):
            return self._bind_targets(stmt.targets, stmt.value, env)
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                return self._bind_targets([stmt.target], stmt.value, env)
            return env
        if isinstance(stmt, ast.AugAssign):
            return self._bind_targets([stmt.target], None, env)
        if isinstance(stmt, ast.If):
            then_env = self._exec_block(stmt.body, env)
            else_env = self._exec_block(stmt.orelse, env)
            return _join(then_env, else_env)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            head = self._bind_targets([stmt.target], None, env)
            once = self._exec_block(stmt.body, head)
            # Second pass: definitions from the end of the body reach the
            # head on the back edge.  One extra pass suffices because the
            # domain only grows and joins are idempotent.
            twice = self._exec_block(stmt.body, _join(head, once))
            return self._exec_block(stmt.orelse, _join(env, twice))
        if isinstance(stmt, ast.While):
            once = self._exec_block(stmt.body, env)
            twice = self._exec_block(stmt.body, _join(env, once))
            return self._exec_block(stmt.orelse, _join(env, twice))
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if item.optional_vars is not None:
                    env = self._bind_targets([item.optional_vars], item.context_expr, env)
            return self._exec_block(stmt.body, env)
        if isinstance(stmt, ast.Try):
            body_env = self._exec_block(stmt.body, env)
            # A handler may run after any prefix of the body: join the
            # entry and exit environments as its starting point.
            joined = _join(env, body_env)
            out = self._exec_block(stmt.orelse, body_env)
            for handler in stmt.handlers:
                henv = joined
                if handler.name:
                    henv = dict(henv)
                    henv[handler.name] = (DefSite(handler.name, handler.lineno, None),)
                out = _join(out, self._exec_block(handler.body, henv))
            return self._exec_block(stmt.finalbody, out)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            env = dict(env)
            env[stmt.name] = (DefSite(stmt.name, stmt.lineno, None),)
            return env
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            env = dict(env)
            for item in stmt.names:
                local = (item.asname or item.name).split(".")[0]
                env[local] = (DefSite(local, stmt.lineno, None),)
            return env
        if isinstance(stmt, ast.Delete):
            env = dict(env)
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    env.pop(target.id, None)
            return env
        return env

    def _bind_targets(
        self, targets: Iterable[ast.expr], value: Optional[ast.expr], env: Env
    ) -> Env:
        env = dict(env)
        for target in targets:
            if isinstance(target, ast.Name):
                line = getattr(target, "lineno", 1)
                env[target.id] = (DefSite(target.id, line, value),)
            elif isinstance(target, (ast.Tuple, ast.List)):
                # Unpacking: each name gets an opaque definition.
                for el in ast.walk(target):
                    if isinstance(el, ast.Name):
                        env[el.id] = (DefSite(el.id, getattr(el, "lineno", 1), None),)
            elif isinstance(target, ast.Starred) and isinstance(target.value, ast.Name):
                name = target.value.id
                env[name] = (DefSite(name, getattr(target, "lineno", 1), None),)
        return env


def _param_names(func: ast.AST) -> List[str]:
    args = getattr(func, "args", None)
    if args is None:
        return []
    names = []
    for group in (args.posonlyargs, args.args, args.kwonlyargs):
        names.extend(a.arg for a in group)
    if args.vararg:
        names.append(args.vararg.arg)
    if args.kwarg:
        names.append(args.kwarg.arg)
    return names


# -- gate facets -------------------------------------------------------------


def dotted_chain(node: ast.expr) -> Optional[str]:
    """Source-order dotted text of a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _terminal(chain: str) -> str:
    return chain.rsplit(".", 1)[-1]


def _is_faults_symbol(chain: str) -> bool:
    term = _terminal(chain)
    return term == "faults" or term.endswith("_faults") or term == "fault_plan"


#: Attribute maps for ``self.X`` expansion: attr name -> every expression
#: ever assigned to it (``None`` marks an opaque assignment).
ClassAttrs = Dict[str, Tuple[Optional[ast.expr], ...]]


def gate_facets(
    test: ast.expr,
    env: Env,
    class_attrs: Optional[ClassAttrs] = None,
    depth: int = 4,
) -> FrozenSet[str]:
    """Facets guaranteed to hold whenever *test* evaluates truthy.

    Recognised forms (conjunctions union, disjunctions intersect):

    - ``<faults> is None`` -> ``faults``
    - ``not <...tracer...>.enabled`` -> ``tracer``
    - a bare name or ``self`` attribute expands through its reaching /
      class-attribute definitions; the facet set is the intersection
      over all possible definitions (an opaque definition yields none).
    """
    if depth <= 0:
        return frozenset()
    if isinstance(test, ast.BoolOp):
        sets = [gate_facets(v, env, class_attrs, depth) for v in test.values]
        if isinstance(test.op, ast.And):
            out: FrozenSet[str] = frozenset()
            for s in sets:
                out |= s
            return out
        out = sets[0]
        for s in sets[1:]:
            out &= s
        return out
    if isinstance(test, ast.Compare):
        if (
            len(test.ops) == 1
            and isinstance(test.ops[0], ast.Is)
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None
        ):
            chain = dotted_chain(test.left)
            if chain is not None and _is_faults_symbol(chain):
                return frozenset((FACET_FAULTS,))
        return frozenset()
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        chain = dotted_chain(test.operand)
        if chain is not None and _terminal(chain) == "enabled":
            if "tracer" in chain or "trace" in chain:
                return frozenset((FACET_TRACER,))
        return frozenset()
    chain = dotted_chain(test)
    if chain is None:
        return frozenset()
    return _expand_symbol(chain, env, class_attrs, depth)


def _expand_symbol(
    chain: str,
    env: Env,
    class_attrs: Optional[ClassAttrs],
    depth: int,
) -> FrozenSet[str]:
    """Facets established by a truthy name/attribute, via its definitions."""
    exprs: Optional[Sequence[Optional[ast.expr]]] = None
    if "." not in chain:
        defs = env.get(chain)
        if defs:
            exprs = [d.expr for d in defs]
    elif chain.startswith("self.") and chain.count(".") == 1 and class_attrs is not None:
        exprs = class_attrs.get(chain.split(".", 1)[1])
    if not exprs:
        return frozenset()
    out: Optional[FrozenSet[str]] = None
    for expr in exprs:
        if expr is None:
            return frozenset()  # any opaque definition defeats the gate
        facets = gate_facets(expr, env, class_attrs, depth - 1)
        out = facets if out is None else (out & facets)
        if not out:
            return frozenset()
    return out or frozenset()


# -- unordered iteration sources ---------------------------------------------


def unordered_source(expr: ast.expr, env: Env) -> Optional[str]:
    """Describe *expr* if it (or every definition reaching it) iterates
    in container-internal order.

    Extends the syntactic check in :mod:`repro.analysis.rules` with one
    level of reaching-definition resolution: ``s = set(xs)`` followed by
    ``for x in s:`` is recognised even though the loop iterates a name.
    """
    direct = _unordered_iterable(expr)
    if direct is not None:
        return direct
    if isinstance(expr, ast.Name):
        defs = env.get(expr.id)
        if not defs:
            return None
        descriptions = []
        for d in defs:
            if d.expr is None:
                return None
            desc = _unordered_iterable(d.expr)
            if desc is None:
                return None
            descriptions.append(f"{desc} (assigned at line {d.line})")
        return descriptions[0]
    return None
