"""Whole-program class graph for the graph rules.

The static rules (QL002, QL004, QL005, QL012) look at one class at a
time.  The graph rules (QL009 and QL011, :mod:`repro.lint.race`) need
the *whole program*:

* **Classes** from every linted file, each with its *effective* method
  table: own methods first, then the bases' (name-based inheritance;
  diamond bases are visited once and earlier bases win, approximating
  the MRO).
* **Architecture keys**: the class-level ``KEY = "..."`` nearest in
  that order.
* **Registries**: module-level ``NAME = {"key": ClassName, ...}``
  dicts such as ``_POLICIES`` in ``faults/policies.py``, merged
  across files.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.findings import Finding, Severity
from repro.lint.static_rules import discover_files


@dataclass
class ClassDecl:
    """A parsed class and its resolution context."""

    name: str
    path: str
    node: ast.ClassDef
    bases: List[str]
    #: method name -> (defining class name, defining path, FunctionDef)
    methods: Dict[str, Tuple[str, str, ast.FunctionDef]] = field(
        default_factory=dict)
    #: class-level KEY = "..." value, if any (architecture key)
    arch_key: Optional[str] = None


@dataclass
class ClassGraph:
    """The resolved whole-program graph (see module docstring)."""

    classes: Dict[str, ClassDecl] = field(default_factory=dict)
    #: module-level ``NAME = {"key": ClassName, ...}`` registries
    #: (e.g. ``_POLICIES`` in faults/policies.py), merged across files
    registries: Dict[str, Dict[str, str]] = field(default_factory=dict)


# ----------------------------------------------------------------------
# builder
# ----------------------------------------------------------------------
class _GraphBuilder:
    def __init__(self) -> None:
        self.graph = ClassGraph()
        self.errors: List[Finding] = []

    # -- phase 1: parse and register classes ---------------------------
    def add_source(self, source: str, path: str) -> None:
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            self.errors.append(Finding(
                "QL000", Severity.ERROR, path, exc.lineno or 0,
                "<module>", f"could not parse: {exc}"))
            return
        for stmt in tree.body:
            # module-level str->ClassName dict registries (QL011 input)
            if (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)
                    and isinstance(stmt.value, ast.Dict)):
                entries: Dict[str, str] = {}
                for k, v in zip(stmt.value.keys, stmt.value.values):
                    if (isinstance(k, ast.Constant) and isinstance(k.value, str)
                            and isinstance(v, ast.Name)):
                        entries[k.value] = v.id
                if entries and len(entries) == len(stmt.value.keys):
                    self.graph.registries.setdefault(
                        stmt.targets[0].id, {}).update(entries)
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases = []
                for base in node.bases:
                    if isinstance(base, ast.Name):
                        bases.append(base.id)
                    elif isinstance(base, ast.Attribute):
                        bases.append(base.attr)
                # name collisions across files: first declaration wins
                # (the repo has none; fixtures should not rely on them)
                self.graph.classes.setdefault(
                    node.name, ClassDecl(node.name, path, node, bases))

    def add_file(self, path: str) -> None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                self.add_source(fh.read(), path)
        except (OSError, UnicodeDecodeError) as exc:
            self.errors.append(Finding(
                "QL000", Severity.ERROR, path, 0, "<module>",
                f"could not read: {exc}"))

    # -- phase 2: resolve hierarchy ------------------------------------
    def resolve(self) -> ClassGraph:
        for decl in self.graph.classes.values():
            for ancestor in self._mro(decl):
                for item in ancestor.node.body:
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        decl.methods.setdefault(
                            item.name, (ancestor.name, ancestor.path, item))
                    elif decl.arch_key is None:
                        decl.arch_key = _arch_key(item)
        return self.graph

    def _mro(self, decl: ClassDecl) -> List[ClassDecl]:
        """The class, then its bases breadth-first, each visited once."""
        classes = self.graph.classes
        out: List[ClassDecl] = []
        seen: Set[str] = set()
        queue = [decl.name]
        while queue:
            name = queue.pop(0)
            if name in seen or name not in classes:
                continue
            seen.add(name)
            out.append(classes[name])
            queue.extend(classes[name].bases)
        return out


def _arch_key(node: ast.stmt) -> Optional[str]:
    """The string bound by a class-body ``KEY = "..."``, else None."""
    targets: List[ast.expr] = []
    value: Optional[ast.expr] = None
    if isinstance(node, ast.Assign):
        targets, value = node.targets, node.value
    elif isinstance(node, ast.AnnAssign) and node.value is not None:
        targets, value = [node.target], node.value
    for target in targets:
        if (isinstance(target, ast.Name) and target.id == "KEY"
                and isinstance(value, ast.Constant)
                and isinstance(value.value, str)):
            return value.value
    return None


# ----------------------------------------------------------------------
# public entry points
# ----------------------------------------------------------------------
def build_graph(paths: Sequence[str]) -> Tuple[ClassGraph, List[Finding]]:
    """Build the class graph for every ``.py`` file under ``paths``;
    returns ``(graph, parse_errors)``."""
    builder = _GraphBuilder()
    for path in discover_files(paths):
        builder.add_file(path)
    graph = builder.resolve()
    return graph, builder.errors


def build_graph_sources(
    sources: Dict[str, str],
) -> Tuple[ClassGraph, List[Finding]]:
    """Build the class graph from in-memory sources (tests, tools);
    ``sources`` maps a filename to its source text."""
    builder = _GraphBuilder()
    for path, source in sorted(sources.items()):
        builder.add_source(source, path)
    graph = builder.resolve()
    return graph, builder.errors
