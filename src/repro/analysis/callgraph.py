"""Module-resolved call graph of a Python source tree.

Two layers:

- **Extraction** (:func:`extract_module`) parses one module and distils
  every fact the interprocedural rules need into a serialisable
  :class:`ModuleSummary`: functions with their call sites (symbolically
  targeted, guard-facet-annotated), unordered-iteration hazards,
  ``# fast-path`` pragmas, classes with their methods / bases /
  attribute types, the import-alias map, and the ``sim-ok``
  suppression table.  Summaries are plain data -- the
  incremental cache (:mod:`repro.analysis.cache`) stores them as JSON
  keyed on the file's content hash, so unchanged files are never
  re-parsed.

- **Linking** (:class:`Project`) resolves symbolic call targets across
  modules -- following import aliases through package re-exports, and
  method calls through a lightweight class-attribute/type heuristic
  (parameter annotations, ``x = ClassName(...)`` reaching definitions,
  ``self.attr`` types recorded from ``__init__``) -- into a call graph
  with a bounded-depth transitive-closure query (:meth:`Project.reachable`).

Resolution is deliberately conservative: a call whose target cannot be
pinned to one project function (higher-order callbacks, duck-typed
receivers, dynamic dispatch) yields **no** edge rather than a guessed
one, and the rules skip unresolved calls.
"""

from __future__ import annotations

import ast
import hashlib
import os
import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.dataflow import (
    ALL_FACETS,
    ClassAttrs,
    ReachingDefs,
    gate_facets,
    unordered_source,
)
from repro.analysis.rules import (
    _SCHEDULING_ATTRS,
    _is_ordering_sensitive,
    _unordered_iterable,
    _walk_shallow,
    build_alias_map,
)
from repro.analysis.suppressions import parse_suppressions

SUMMARY_VERSION = 2

#: ``# fast-path`` pragma, optionally with explicit required facets:
#: ``# fast-path: requires=faults,tracer``.  Anything after
#: ``--`` is free-text rationale.
_FAST_PATH = re.compile(
    r"#\s*fast-path\b(?:\s*:\s*requires\s*=\s*(?P<req>[a-z]+(?:\s*,\s*[a-z]+)*))?"
)


def content_hash(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def module_name_for(path: str) -> str:
    """Dotted module name derived from the package structure on disk.

    Walks parent directories while they contain ``__init__.py``:
    ``src/repro/pfs/client.py`` -> ``repro.pfs.client``;  a file in a
    plain (non-package) directory is just its stem, which is how the
    test fixtures' flat module trees resolve.
    """
    path = os.path.abspath(path)
    directory, fname = os.path.split(path)
    stem = fname[:-3] if fname.endswith(".py") else fname
    parts = [] if stem == "__init__" else [stem]
    while os.path.isfile(os.path.join(directory, "__init__.py")):
        directory, pkg = os.path.split(directory)
        parts.append(pkg)
    return ".".join(reversed(parts))


# -- serialisable facts ------------------------------------------------------


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body.

    ``target`` is a symbolic form resolved at link time:

    - ``("name", f)`` -- bare-name call ``f(...)``
    - ``("self", m)`` -- ``self.m(...)``
    - ``("selfattr", a, m)`` -- ``self.a.m(...)``
    - ``("cls", C, m)`` -- ``x.m(...)`` with ``x`` locally typed as ``C``
    - ``("dotted", "a.b.m")`` -- alias-resolved dotted call
    - ``("unknown",)`` -- anything else (no edge)

    ``guard_facets`` are the fast-path gate facets established by the
    ``if`` guards lexically dominating the call (rule R006).
    """

    line: int
    col: int
    target: Tuple[str, ...]
    guard_facets: Tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "line": self.line,
            "col": self.col,
            "target": list(self.target),
            "guards": list(self.guard_facets),
        }

    @classmethod
    def from_json(cls, d: dict) -> "CallSite":
        return cls(
            line=d["line"],
            col=d["col"],
            target=tuple(d["target"]),
            guard_facets=tuple(d["guards"]),
        )


@dataclass(frozen=True)
class Hazard:
    """An unordered-iteration site (set / dict view) in a function body."""

    line: int
    col: int
    desc: str
    #: Syntactically direct hazards are already covered by the
    #: intraprocedural R003 when the function is sensitive; indirect
    #: ones (through a reaching definition) are new information.
    direct: bool

    def to_json(self) -> dict:
        return {"line": self.line, "col": self.col, "desc": self.desc, "direct": self.direct}

    @classmethod
    def from_json(cls, d: dict) -> "Hazard":
        return cls(line=d["line"], col=d["col"], desc=d["desc"], direct=d["direct"])


@dataclass(frozen=True)
class FunctionFact:
    """Everything the interprocedural rules know about one function."""

    qname: str  # "func" or "Class.method"
    name: str
    line: int
    col: int
    sensitive: bool  # intraprocedural R003 site detection
    schedules: bool  # makes a direct scheduling-attr call
    pragma: Optional[Tuple[str, ...]]  # required facets, None = unmarked
    hazards: Tuple[Hazard, ...] = ()
    calls: Tuple[CallSite, ...] = ()

    def to_json(self) -> dict:
        return {
            "qname": self.qname,
            "name": self.name,
            "line": self.line,
            "col": self.col,
            "sensitive": self.sensitive,
            "schedules": self.schedules,
            "pragma": None if self.pragma is None else list(self.pragma),
            "hazards": [h.to_json() for h in self.hazards],
            "calls": [c.to_json() for c in self.calls],
        }

    @classmethod
    def from_json(cls, d: dict) -> "FunctionFact":
        return cls(
            qname=d["qname"],
            name=d["name"],
            line=d["line"],
            col=d["col"],
            sensitive=d["sensitive"],
            schedules=d["schedules"],
            pragma=None if d["pragma"] is None else tuple(d["pragma"]),
            hazards=tuple(Hazard.from_json(h) for h in d["hazards"]),
            calls=tuple(CallSite.from_json(c) for c in d["calls"]),
        )


@dataclass(frozen=True)
class ClassFact:
    name: str
    line: int
    methods: Tuple[str, ...]
    bases: Tuple[str, ...]  # base-class names resolvable in module scope
    attr_types: Tuple[Tuple[str, str], ...]  # (attr, class name in module scope)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "line": self.line,
            "methods": list(self.methods),
            "bases": list(self.bases),
            "attr_types": [list(t) for t in self.attr_types],
        }

    @classmethod
    def from_json(cls, d: dict) -> "ClassFact":
        return cls(
            name=d["name"],
            line=d["line"],
            methods=tuple(d["methods"]),
            bases=tuple(d["bases"]),
            attr_types=tuple((t[0], t[1]) for t in d["attr_types"]),
        )


@dataclass(frozen=True)
class ModuleSummary:
    """Per-file analysis summary (the unit the incremental cache stores)."""

    module: str
    path: str
    sha256: str
    aliases: Tuple[Tuple[str, str], ...]
    functions: Tuple[FunctionFact, ...]
    classes: Tuple[ClassFact, ...]
    #: sim-ok table: (line, covered rule ids) -- reasons are enforced by
    #: the intraprocedural S000 check, not re-checked here.
    suppressions: Tuple[Tuple[int, Tuple[str, ...]], ...]
    pragma_errors: Tuple[Tuple[int, str], ...] = ()

    def to_json(self) -> dict:
        return {
            "version": SUMMARY_VERSION,
            "module": self.module,
            "path": self.path,
            "sha256": self.sha256,
            "aliases": [list(a) for a in self.aliases],
            "functions": [f.to_json() for f in self.functions],
            "classes": [c.to_json() for c in self.classes],
            "suppressions": [[line, list(rules)] for line, rules in self.suppressions],
            "pragma_errors": [list(e) for e in self.pragma_errors],
        }

    @classmethod
    def from_json(cls, d: dict) -> "ModuleSummary":
        return cls(
            module=d["module"],
            path=d["path"],
            sha256=d["sha256"],
            aliases=tuple((a[0], a[1]) for a in d["aliases"]),
            functions=tuple(FunctionFact.from_json(f) for f in d["functions"]),
            classes=tuple(ClassFact.from_json(c) for c in d["classes"]),
            suppressions=tuple((s[0], tuple(s[1])) for s in d["suppressions"]),
            pragma_errors=tuple((e[0], e[1]) for e in d.get("pragma_errors", ())),
        )


# -- extraction --------------------------------------------------------------


def _parse_pragmas(source: str) -> Tuple[Dict[int, Tuple[str, ...]], List[Tuple[int, str]]]:
    """Line -> required facets for every ``# fast-path`` comment."""
    pragmas: Dict[int, Tuple[str, ...]] = {}
    errors: List[Tuple[int, str]] = []
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _FAST_PATH.search(text)
        if match is None:
            continue
        req = match.group("req")
        if req is None:
            facets: Tuple[str, ...] = ("faults",)
        else:
            facets = tuple(f.strip() for f in req.split(","))
            bad = [f for f in facets if f not in ALL_FACETS]
            if bad:
                errors.append(
                    (lineno, f"unknown fast-path facet(s) {', '.join(bad)}; valid: "
                     + ", ".join(ALL_FACETS))
                )
                facets = tuple(f for f in facets if f in ALL_FACETS) or ("faults",)
        pragmas[lineno] = facets
    return pragmas, errors


def _pragma_for(node: ast.AST, pragmas: Dict[int, Tuple[str, ...]]) -> Optional[Tuple[str, ...]]:
    """Pragma attached to a def/class: on its line or the line above."""
    line = getattr(node, "lineno", None)
    if line is None:
        return None
    return pragmas.get(line) or pragmas.get(line - 1)


def _annotation_class(node: Optional[ast.expr]) -> Optional[str]:
    """Class name out of a parameter/variable annotation, best effort."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.rsplit(".", 1)[-1] or None
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name):
        # Optional[C] / "Optional[C]" -- look through one wrapper.
        if node.value.id in ("Optional", "Annotated"):
            inner = node.slice
            if isinstance(inner, ast.Tuple) and inner.elts:
                inner = inner.elts[0]
            return _annotation_class(inner)
    return None


def _constructor_class(expr: Optional[ast.expr]) -> Optional[str]:
    """``ClassName(...)`` -> ``ClassName`` (capitalised names only)."""
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
        name = expr.func.id
        if name[:1].isupper():
            return name
    return None


class _FunctionExtractor:
    """Single pass over one function body collecting every fact."""

    def __init__(
        self,
        func: ast.AST,
        qname: str,
        pragmas: Dict[int, Tuple[str, ...]],
        class_pragma: Optional[Tuple[str, ...]],
        class_attrs: Optional[ClassAttrs],
        aliases: Dict[str, str],
    ) -> None:
        self.func = func
        self.qname = qname
        self.class_attrs = class_attrs
        self.aliases = aliases
        self.defs = ReachingDefs(func)
        self.pragma = _pragma_for(func, pragmas) or class_pragma
        self.param_types: Dict[str, str] = {}
        args = getattr(func, "args", None)
        if args is not None:
            for a in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
                cls = _annotation_class(a.annotation)
                if cls is not None:
                    self.param_types[a.arg] = cls
        self.calls: List[CallSite] = []
        self.hazards: List[Hazard] = []
        self.schedules = False

    def run(self) -> FunctionFact:
        func = self.func
        # Walk statements in order, tracking the enclosing statement (for
        # reaching-defs lookups) and the stack of positive if-guards (for
        # gate facets).
        self._walk_block(getattr(func, "body", []), guard_stack=())
        return FunctionFact(
            qname=self.qname,
            name=getattr(func, "name", "?"),
            line=getattr(func, "lineno", 1),
            col=getattr(func, "col_offset", 0) + 1,
            sensitive=_is_ordering_sensitive(func, self.aliases),
            schedules=self.schedules,
            pragma=self.pragma,
            hazards=tuple(self.hazards),
            calls=tuple(self.calls),
        )

    # -- statement walk ---------------------------------------------------

    def _walk_block(self, stmts: Sequence[ast.stmt], guard_stack: Tuple[ast.expr, ...]) -> None:
        for stmt in stmts:
            self._walk_stmt(stmt, guard_stack)

    def _walk_stmt(self, stmt: ast.stmt, guard_stack: Tuple[ast.expr, ...]) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested scopes analysed separately
        env = self.defs.at(stmt)
        self._scan_exprs(stmt, env, guard_stack)
        if isinstance(stmt, ast.If):
            self._walk_block(stmt.body, guard_stack + (stmt.test,))
            self._walk_block(stmt.orelse, guard_stack)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            self._walk_block(stmt.body, guard_stack)
            self._walk_block(stmt.orelse, guard_stack)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            self._walk_block(stmt.body, guard_stack)
            return
        if isinstance(stmt, ast.Try):
            self._walk_block(stmt.body, guard_stack)
            for handler in stmt.handlers:
                self._walk_block(handler.body, guard_stack)
            self._walk_block(stmt.orelse, guard_stack)
            self._walk_block(stmt.finalbody, guard_stack)
            return

    def _scan_exprs(self, stmt: ast.stmt, env, guard_stack: Tuple[ast.expr, ...]) -> None:
        """Record the calls and hazards rooted at *stmt*."""
        # Iteration sites (for-loops and comprehension generators).
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._check_hazard(stmt, stmt.iter, env)
        # Expression-level walk that stays inside this statement and out
        # of nested statement bodies (those are visited by _walk_stmt).
        for node in self._stmt_exprs(stmt):
            if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for gen in node.generators:
                    self._check_hazard(node, gen.iter, env)
            elif isinstance(node, ast.Call):
                self._record_call(node, env, guard_stack)

    def _stmt_exprs(self, stmt: ast.stmt) -> Iterator[ast.AST]:
        """Expressions belonging to *stmt* itself (not nested statements)."""
        stack: List[ast.AST] = []
        for _field, value in ast.iter_fields(stmt):
            if isinstance(value, ast.expr):
                stack.append(value)
            elif isinstance(value, list):
                for v in value:
                    if isinstance(v, ast.expr):
                        stack.append(v)
                    elif isinstance(v, ast.withitem):
                        stack.append(v.context_expr)
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, ast.Lambda):
                continue
            stack.extend(ast.iter_child_nodes(node))

    def _check_hazard(self, site: ast.AST, iterable: ast.expr, env) -> None:
        desc = unordered_source(iterable, env)
        if desc is None:
            return
        direct = _unordered_iterable(iterable) is not None
        self.hazards.append(
            Hazard(
                line=getattr(site, "lineno", 1),
                col=getattr(site, "col_offset", 0) + 1,
                desc=desc,
                direct=direct,
            )
        )

    def _record_call(self, call: ast.Call, env, guard_stack: Tuple[ast.expr, ...]) -> None:
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr in _SCHEDULING_ATTRS:
            self.schedules = True
        facets: FrozenSet[str] = frozenset()
        for test in guard_stack:
            facets |= gate_facets(test, env, self.class_attrs)
        self.calls.append(
            CallSite(
                line=call.lineno,
                col=call.col_offset + 1,
                target=self._symbolic_target(func, env),
                guard_facets=tuple(sorted(facets)),
            )
        )

    def _symbolic_target(self, func: ast.expr, env) -> Tuple[str, ...]:
        if isinstance(func, ast.Name):
            return ("name", func.id)
        if not isinstance(func, ast.Attribute):
            return ("unknown",)
        meth = func.attr
        owner = func.value
        if isinstance(owner, ast.Name):
            if owner.id == "self":
                return ("self", meth)
            if owner.id in self.param_types:
                return ("cls", self.param_types[owner.id], meth)
            # Local variable: every reaching definition must agree on one
            # type source, else stay unresolved (conservative).
            defs = env.get(owner.id, ())
            sources = {self._type_source(d.expr) for d in defs}
            if defs and None not in sources and len(sources) == 1:
                src = sources.pop()
                return src + (meth,)
            return ("dotted", f"{self.aliases.get(owner.id, owner.id)}.{meth}")
        if (
            isinstance(owner, ast.Attribute)
            and isinstance(owner.value, ast.Name)
            and owner.value.id == "self"
        ):
            return ("selfattr", owner.attr, meth)
        chain_parts: List[str] = [meth]
        node = owner
        while isinstance(node, ast.Attribute):
            chain_parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            head = self.aliases.get(node.id, node.id)
            chain_parts.append(head)
            return ("dotted", ".".join(reversed(chain_parts)))
        return ("unknown",)

    def _type_source(self, expr: Optional[ast.expr]) -> Optional[Tuple[str, ...]]:
        """How a defining expression pins its value's class, if it does.

        - ``ClassName(...)``            -> ``("cls", ClassName)``
        - ``self.attr``                 -> ``("selfattr", attr)`` (class
          attribute types are resolved at link time)
        - ``param.attr``, param typed C -> ``("typedattr", C, attr)``
        """
        cls = _constructor_class(expr)
        if cls is not None:
            return ("cls", cls)
        if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
            owner = expr.value.id
            if owner == "self":
                return ("selfattr", expr.attr)
            if owner in self.param_types:
                return ("typedattr", self.param_types[owner], expr.attr)
        return None


def extract_module(source: str, path: str, module: Optional[str] = None) -> ModuleSummary:
    """Parse *source* and distil the per-module summary (see module doc)."""
    if module is None:
        module = module_name_for(path)
    digest = content_hash(source)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError:
        # The intraprocedural engine reports E999; interprocedural
        # analysis simply has no facts for the file.
        return ModuleSummary(
            module=module, path=path, sha256=digest, aliases=(),
            functions=(), classes=(), suppressions=(),
        )
    aliases = build_alias_map(tree)
    pragmas, pragma_errors = _parse_pragmas(source)
    functions: List[FunctionFact] = []
    classes: List[ClassFact] = []

    def extract_function(
        node: ast.AST,
        qname: str,
        class_pragma: Optional[Tuple[str, ...]],
        class_attrs: Optional[ClassAttrs],
    ) -> None:
        fact = _FunctionExtractor(node, qname, pragmas, class_pragma, class_attrs, aliases).run()
        functions.append(fact)

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            extract_function(node, node.name, None, None)
        elif isinstance(node, ast.ClassDef):
            class_pragma = _pragma_for(node, pragmas)
            attrs = _collect_class_attrs(node)
            attr_types = _collect_attr_types(node)
            methods = []
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    methods.append(item.name)
                    extract_function(item, f"{node.name}.{item.name}", class_pragma, attrs)
            bases = []
            for base in node.bases:
                if isinstance(base, ast.Name):
                    bases.append(base.id)
                elif isinstance(base, ast.Attribute):
                    bases.append(base.attr)
            classes.append(
                ClassFact(
                    name=node.name,
                    line=node.lineno,
                    methods=tuple(methods),
                    bases=tuple(bases),
                    attr_types=tuple(sorted(attr_types.items())),
                )
            )
    table = parse_suppressions(source)
    suppressions = tuple(
        sorted((line, tuple(s.rule_ids)) for line, s in table.items())
    )
    return ModuleSummary(
        module=module,
        path=path,
        sha256=digest,
        aliases=tuple(sorted(aliases.items())),
        functions=tuple(functions),
        classes=tuple(classes),
        suppressions=suppressions,
        pragma_errors=tuple(pragma_errors),
    )


def _collect_class_attrs(node: ast.ClassDef) -> ClassAttrs:
    """``self.X = <expr>`` assignments across every method of the class."""
    attrs: Dict[str, List[Optional[ast.expr]]] = {}
    for item in node.body:
        if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for stmt in _walk_shallow(item):
            if not isinstance(stmt, ast.Assign):
                continue
            for target in stmt.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    attrs.setdefault(target.attr, []).append(stmt.value)
    return {name: tuple(exprs) for name, exprs in attrs.items()}


def _collect_attr_types(node: ast.ClassDef) -> Dict[str, str]:
    """Best-effort ``self.attr`` -> class-name map for method resolution.

    Sources, in priority order: ``self.x = param`` where the ``__init__``
    parameter is annotated with a class; ``self.x = ClassName(...)``.
    Conflicting evidence drops the attribute (conservative).
    """
    types: Dict[str, Optional[str]] = {}
    for item in node.body:
        if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        param_types: Dict[str, str] = {}
        args = item.args
        for a in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
            cls = _annotation_class(a.annotation)
            if cls is not None:
                param_types[a.arg] = cls
        for stmt in _walk_shallow(item):
            if not isinstance(stmt, ast.Assign):
                continue
            for target in stmt.targets:
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                value = stmt.value
                cls = None
                if isinstance(value, ast.Name):
                    cls = param_types.get(value.id)
                else:
                    cls = _constructor_class(value)
                current = types.get(target.attr, "")
                if cls is None:
                    # An untyped rebind poisons the attribute unless a
                    # typed source already claimed it.
                    if current == "":
                        types[target.attr] = None
                elif current in ("", cls):
                    types[target.attr] = cls
                else:
                    types[target.attr] = None
    return {attr: cls for attr, cls in types.items() if cls}


# -- linking -----------------------------------------------------------------


@dataclass(frozen=True)
class Edge:
    """A resolved call edge: caller function id -> callee function id."""

    caller: str
    callee: str
    site: CallSite


class Project:
    """Linked whole-program model over a set of module summaries."""

    def __init__(self, summaries: Sequence[ModuleSummary]) -> None:
        self.modules: Dict[str, ModuleSummary] = {}
        for summary in summaries:
            self.modules[summary.module] = summary
        #: fid ("module:qname") -> FunctionFact
        self.functions: Dict[str, FunctionFact] = {}
        #: (module, ClassName) -> ClassFact
        self._classes: Dict[Tuple[str, str], ClassFact] = {}
        for summary in summaries:
            for fact in summary.functions:
                self.functions[f"{summary.module}:{fact.qname}"] = fact
            for cfact in summary.classes:
                self._classes[(summary.module, cfact.name)] = cfact
        self._symbol_memo: Dict[Tuple[str, str], Optional[Tuple[str, str, str]]] = {}
        self._edges: Optional[Dict[str, Tuple[Edge, ...]]] = None

    # -- symbol resolution ------------------------------------------------

    def resolve_symbol(
        self, module: str, name: str, depth: int = 8
    ) -> Optional[Tuple[str, str, str]]:
        """Resolve *name* in *module* scope to ("func"|"class", module, local).

        Follows import aliases through project modules (package
        ``__init__`` re-exports included), bounded by *depth*.
        """
        key = (module, name)
        if key in self._symbol_memo:
            return self._symbol_memo[key]
        self._symbol_memo[key] = None  # cycle guard
        result = self._resolve_symbol_uncached(module, name, depth)
        self._symbol_memo[key] = result
        return result

    def _resolve_symbol_uncached(
        self, module: str, name: str, depth: int
    ) -> Optional[Tuple[str, str, str]]:
        if depth <= 0:
            return None
        summary = self.modules.get(module)
        if summary is None:
            return None
        if f"{module}:{name}" in self.functions:
            return ("func", module, name)
        if (module, name) in self._classes:
            return ("class", module, name)
        aliases = dict(summary.aliases)
        origin = aliases.get(name)
        if origin is None:
            return None
        return self._resolve_dotted(origin, depth - 1)

    def _resolve_dotted(self, dotted: str, depth: int) -> Optional[Tuple[str, str, str]]:
        """Resolve ``pkg.mod.sym`` against the project universe.

        Longest module prefix wins: ``repro.sim.ArbitratedStore`` resolves
        the symbol in package module ``repro.sim`` (whose ``__init__``
        alias map re-exports the class from ``repro.sim.resources``).
        """
        if depth <= 0 or "." not in dotted or dotted in self.modules:
            return None
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            mod = ".".join(parts[:cut])
            if mod not in self.modules:
                continue
            rest = parts[cut:]
            if len(rest) == 1:
                return self.resolve_symbol(mod, rest[0], depth)
            return None  # deeper attribute chains are not project symbols
        return None

    def class_fact(self, module: str, name: str) -> Optional[ClassFact]:
        resolved = self.resolve_symbol(module, name)
        if resolved is None or resolved[0] != "class":
            return None
        return self._classes.get((resolved[1], resolved[2]))

    def method_fid(
        self, module: str, class_name: str, meth: str, depth: int = 6
    ) -> Optional[str]:
        """fid of ``class_name.meth`` looked up through local bases."""
        if depth <= 0:
            return None
        resolved = self.resolve_symbol(module, class_name)
        if resolved is None or resolved[0] != "class":
            return None
        _, cmod, cname = resolved
        fid = f"{cmod}:{cname}.{meth}"
        if fid in self.functions:
            return fid
        cfact = self._classes.get((cmod, cname))
        if cfact is None:
            return None
        for base in cfact.bases:
            found = self.method_fid(cmod, base, meth, depth - 1)
            if found is not None:
                return found
        return None

    # -- call resolution --------------------------------------------------

    def resolve_call(self, caller_fid: str, site: CallSite) -> Optional[str]:
        """fid of the project function *site* calls, or None."""
        module = caller_fid.split(":", 1)[0]
        caller = self.functions.get(caller_fid)
        target = site.target
        kind = target[0]
        if kind == "name":
            resolved = self.resolve_symbol(module, target[1])
            if resolved is None:
                return None
            what, tmod, tname = resolved
            if what == "func":
                return f"{tmod}:{tname}"
            init = f"{tmod}:{tname}.__init__"
            return init if init in self.functions else None
        if kind == "self":
            if caller is None or "." not in caller.qname:
                return None
            class_name = caller.qname.split(".", 1)[0]
            return self.method_fid(module, class_name, target[1])
        if kind == "selfattr":
            if caller is None or "." not in caller.qname:
                return None
            class_name = caller.qname.split(".", 1)[0]
            cfact = self._classes.get((module, class_name))
            if cfact is None:
                return None
            attr_types = dict(cfact.attr_types)
            cls = attr_types.get(target[1])
            if cls is None:
                return None
            return self.method_fid(module, cls, target[2])
        if kind == "cls":
            return self.method_fid(module, target[1], target[2])
        if kind == "typedattr":
            # owner typed C in caller scope; method on C's attribute type.
            resolved = self.resolve_symbol(module, target[1])
            if resolved is None or resolved[0] != "class":
                return None
            _, cmod, cname = resolved
            cfact = self._classes.get((cmod, cname))
            if cfact is None:
                return None
            cls = dict(cfact.attr_types).get(target[2])
            if cls is None:
                return None
            return self.method_fid(cmod, cls, target[3])
        if kind == "dotted":
            resolved = self._resolve_dotted(target[1], depth=8)
            if resolved is None:
                return None
            what, tmod, tname = resolved
            if what == "func":
                return f"{tmod}:{tname}"
            init = f"{tmod}:{tname}.__init__"
            return init if init in self.functions else None
        return None

    # -- graph ------------------------------------------------------------

    @property
    def edges(self) -> Dict[str, Tuple[Edge, ...]]:
        """caller fid -> resolved outgoing edges, in source order."""
        if self._edges is None:
            out: Dict[str, Tuple[Edge, ...]] = {}
            for fid in sorted(self.functions):
                fact = self.functions[fid]
                resolved = []
                for site in fact.calls:
                    callee = self.resolve_call(fid, site)
                    if callee is not None:
                        resolved.append(Edge(caller=fid, callee=callee, site=site))
                out[fid] = tuple(resolved)
            self._edges = out
        return self._edges

    def callers_of(self, fid: str) -> List[Edge]:
        return [e for edges in self.edges.values() for e in edges if e.callee == fid]

    def reachable(self, start: str, max_hops: int) -> Dict[str, Tuple[Edge, ...]]:
        """Functions reachable from *start* within *max_hops* calls.

        Returns fid -> the chain of edges of the first (shortest, then
        source-order) path that reached it.  *start* itself is excluded.
        """
        chains: Dict[str, Tuple[Edge, ...]] = {}
        frontier: List[Tuple[str, Tuple[Edge, ...]]] = [(start, ())]
        for _hop in range(max_hops):
            nxt: List[Tuple[str, Tuple[Edge, ...]]] = []
            for fid, chain in frontier:
                for edge in self.edges.get(fid, ()):
                    if edge.callee == start or edge.callee in chains:
                        continue
                    new_chain = chain + (edge,)
                    chains[edge.callee] = new_chain
                    nxt.append((edge.callee, new_chain))
            if not nxt:
                break
            frontier = nxt
        return chains

    def path_of(self, fid: str) -> str:
        module = fid.split(":", 1)[0]
        summary = self.modules.get(module)
        return summary.path if summary is not None else "<unknown>"
