"""AST-based static checks of the quiescence contract (``repro lint``).

The activity-driven kernel's golden-equivalence guarantee (see
``repro.sim.engine``) rests on conventions that Python cannot enforce at
runtime without cost: a component that sleeps must ``watch()`` every
channel it reads, ticks must draw randomness from seeded streams, writes
must be staged through the channel primitives, and no component may
reach into another's private state.  This module walks every
:class:`~repro.sim.component.Component` subclass it can find and flags
violations *before* they become silent fast-path divergences.

Rules
-----

=======  ========  =====================================================
rule     severity  meaning
=======  ========  =====================================================
QL001    error     channel read in a tick path of a component that can
                   sleep, with no matching ``watch()``/``subscribe()``
QL002    error     nondeterministic source (``random``, ``time``,
                   ``datetime``) called from a component method
                   (warning for a bare module-level ``import random``)
QL003    error     staged write (``drive``/``push``/...) from
                   ``__init__`` or a ``@property`` — outside any
                   tick/event context
QL004    error     mutation of another object's private (underscore)
                   attribute from a component method
QL005    error     ``tick()`` signature that cannot return a
                   :data:`~repro.sim.component.QuiescenceHint` (wrong
                   arity, ``-> None``/``-> bool``/``-> str`` annotation,
                   or a literal bool/str/float return)
QL012    error     control-plane code (``repro.control``) touching
                   another object's private (underscore) state —
                   adaptive actions must go through public architecture
                   entry points (``reassign_slot``, ``add_switch``,
                   ``set_channel_cap``, ...) so every actuation stays
                   observable and rollback-safe
QL000    error     file failed to parse
=======  ========  =====================================================

Static analysis is necessarily approximate: channels are recognized when
constructed (or annotated) as ``Wire``/``PulseWire``/``FIFO`` attributes
of ``self``, "can sleep" means the class references :data:`SLEEP` or
``tick`` returns an integer expression, and aliasing through local
variables is not tracked.  The runtime sanitizer
(:mod:`repro.lint.runtime`) covers the dynamic remainder.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint.findings import Finding, Severity, sort_findings

#: rule id -> (default severity, one-line summary)
RULES: Dict[str, Tuple[Severity, str]] = {
    "QL000": (Severity.ERROR, "file failed to parse"),
    "QL001": (Severity.ERROR,
              "channel read in a sleeping component's tick path without watch()"),
    "QL002": (Severity.ERROR,
              "nondeterministic source used instead of repro.sim.rng"),
    "QL003": (Severity.ERROR,
              "staged write (drive/push) outside tick/event contexts"),
    "QL004": (Severity.ERROR,
              "direct mutation of another object's private state"),
    "QL005": (Severity.ERROR,
              "tick() signature cannot return a QuiescenceHint"),
    "QL012": (Severity.ERROR,
              "control-plane code touches another object's private "
              "state instead of a public entry point"),
}

_CHANNEL_CONSTRUCTORS = {"Wire", "PulseWire", "FIFO"}
_CHANNEL_ANNOTATIONS = _CHANNEL_CONSTRUCTORS | {"Channel"}
_CHANNEL_READ_CALLS = {"pop", "try_pop", "peek", "driven"}
_STAGED_WRITE_CALLS = {"drive", "push", "try_push", "push_all"}
_CONTAINER_MUTATORS = {"append", "extend", "add", "insert", "remove",
                       "clear", "update", "popleft", "pop", "discard",
                       "setdefault"}
_NONDET_CALLS = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.date.today",
}


def _unparse(node: ast.AST) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - defensive
        return ast.dump(node)


def _shallow_walk(root: ast.AST) -> Iterable[ast.AST]:
    """Walk ``root``'s body without descending into nested function,
    lambda, or class definitions (those run in a different context)."""
    stack = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def _base_names(cls: ast.ClassDef) -> Set[str]:
    names = set()
    for base in cls.bases:
        if isinstance(base, ast.Name):
            names.add(base.id)
        elif isinstance(base, ast.Attribute):
            names.add(base.attr)
    return names


def _component_closure(classmap: Dict[str, Set[str]]) -> Set[str]:
    """Transitive (name-based) set of Component subclasses."""
    component: Set[str] = {"Component"}
    changed = True
    while changed:
        changed = False
        for name, bases in classmap.items():
            if name not in component and bases & component:
                component.add(name)
                changed = True
    return component


class _ClassInfo:
    """Everything the rules need to know about one component class."""

    def __init__(self, cls: ast.ClassDef):
        self.cls = cls
        self.methods: List[ast.FunctionDef] = [
            n for n in cls.body
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        self.channel_exprs = self._channel_exprs()
        self.watched = self._watched_exprs()
        self.can_sleep = self._can_sleep()

    # -- channel attribute inference -----------------------------------
    def _channel_exprs(self) -> Set[str]:
        channels: Set[str] = set()
        ann_params: Dict[str, str] = {}
        for method in self.methods:
            for arg in (method.args.posonlyargs + method.args.args
                        + method.args.kwonlyargs):
                if arg.annotation is not None:
                    ann = _unparse(arg.annotation).strip("'\"")
                    if ann.split("[")[0].split(".")[-1] in _CHANNEL_ANNOTATIONS:
                        ann_params[arg.arg] = ann
        for method in self.methods:
            for node in ast.walk(method):
                target: Optional[ast.expr] = None
                value: Optional[ast.expr] = None
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target, value = node.targets[0], node.value
                elif isinstance(node, ast.AnnAssign):
                    target, value = node.target, node.value
                    ann = _unparse(node.annotation).strip("'\"")
                    if (isinstance(target, ast.Attribute)
                            and ann.split("[")[0].split(".")[-1]
                            in _CHANNEL_ANNOTATIONS):
                        channels.add(_unparse(target))
                if not isinstance(target, ast.Attribute) or value is None:
                    continue
                if isinstance(value, ast.Call):
                    fn = value.func
                    name = fn.id if isinstance(fn, ast.Name) else (
                        fn.attr if isinstance(fn, ast.Attribute) else "")
                    if name in _CHANNEL_CONSTRUCTORS:
                        channels.add(_unparse(target))
                elif isinstance(value, ast.Name) and value.id in ann_params:
                    channels.add(_unparse(target))
        return channels

    # -- watch()/subscribe() coverage ----------------------------------
    def _watched_exprs(self) -> Set[str]:
        watched: Set[str] = set()
        for node in ast.walk(self.cls):
            if not isinstance(node, ast.Call):
                continue
            fn = node.func
            if not isinstance(fn, ast.Attribute):
                continue
            if fn.attr == "watch" and node.args:
                watched.add(_unparse(node.args[0]))
            elif fn.attr == "subscribe" and node.args:
                arg = node.args[0]
                if isinstance(arg, ast.Name) and arg.id == "self":
                    watched.add(_unparse(fn.value))
        return watched

    # -- quiescence capability -----------------------------------------
    def _can_sleep(self) -> bool:
        for node in ast.walk(self.cls):
            if isinstance(node, ast.Name) and node.id == "SLEEP":
                return True
            if isinstance(node, ast.Attribute) and node.attr == "SLEEP":
                return True
        tick = next((m for m in self.methods if m.name == "tick"), None)
        if tick is not None:
            for node in _shallow_walk(tick):
                if isinstance(node, ast.Return) and isinstance(
                        node.value, (ast.BinOp, ast.Constant)):
                    value = node.value
                    if isinstance(value, ast.Constant):
                        if isinstance(value.value, int) and not isinstance(
                                value.value, bool):
                            return True
                    else:
                        return True
        return False


class _ComponentChecker:
    """Applies QL001-QL005 to one component class."""

    def __init__(self, path: str, info: _ClassInfo):
        self.path = path
        self.info = info
        self.findings: List[Finding] = []

    def _add(self, rule: str, node: ast.AST, symbol: str, message: str,
             severity: Optional[Severity] = None) -> None:
        self.findings.append(Finding(
            rule=rule,
            severity=severity or RULES[rule][0],
            path=self.path,
            line=getattr(node, "lineno", 0),
            symbol=symbol,
            message=message,
        ))

    def run(self) -> List[Finding]:
        for method in self.info.methods:
            symbol = f"{self.info.cls.name}.{method.name}"
            self._check_nondeterminism(method, symbol)
            self._check_foreign_mutation(method, symbol)
            if method.name != "__init__":
                self._check_unwatched_reads(method, symbol)
            if method.name == "__init__" or self._is_property(method):
                self._check_staged_writes(method, symbol)
            if method.name == "tick":
                self._check_tick_signature(method, symbol)
        return self.findings

    @staticmethod
    def _is_property(method: ast.FunctionDef) -> bool:
        for deco in method.decorator_list:
            if isinstance(deco, ast.Name) and deco.id in (
                    "property", "cached_property"):
                return True
            if isinstance(deco, ast.Attribute) and deco.attr in (
                    "setter", "getter", "cached_property"):
                return True
        return False

    # -- QL001 ----------------------------------------------------------
    def _check_unwatched_reads(self, method: ast.FunctionDef,
                               symbol: str) -> None:
        if not self.info.can_sleep:
            return
        for node in _shallow_walk(method):
            channel: Optional[str] = None
            kind = ""
            if (isinstance(node, ast.Attribute) and node.attr == "value"
                    and isinstance(node.ctx, ast.Load)):
                base = _unparse(node.value)
                if base in self.info.channel_exprs:
                    channel, kind = base, ".value"
            elif (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _CHANNEL_READ_CALLS):
                base = _unparse(node.func.value)
                if base in self.info.channel_exprs:
                    channel, kind = base, f".{node.func.attr}()"
            elif (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in ("len", "bool") and node.args):
                base = _unparse(node.args[0])
                if base in self.info.channel_exprs:
                    channel, kind = base, f" via {node.func.id}()"
            if channel is not None and channel not in self.info.watched:
                self._add(
                    "QL001", node, symbol,
                    f"reads {channel}{kind} but the component can sleep and "
                    f"never watch()es it — a commit on that channel will not "
                    f"wake it (fast-path divergence)",
                )

    # -- QL002 ----------------------------------------------------------
    def _check_nondeterminism(self, method: ast.FunctionDef,
                              symbol: str) -> None:
        for node in ast.walk(method):
            if not isinstance(node, ast.Call):
                continue
            fn = _unparse(node.func)
            if fn.startswith("random.") or fn in _NONDET_CALLS:
                self._add(
                    "QL002", node, symbol,
                    f"calls {fn}() — use a seeded stream from "
                    f"repro.sim.rng.make_rng so runs stay reproducible",
                )

    # -- QL003 ----------------------------------------------------------
    def _check_staged_writes(self, method: ast.FunctionDef,
                             symbol: str) -> None:
        for node in _shallow_walk(method):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _STAGED_WRITE_CALLS):
                base = _unparse(node.func.value)
                if base in self.info.channel_exprs:
                    where = ("__init__" if method.name == "__init__"
                             else f"property {method.name!r}")
                    self._add(
                        "QL003", node, symbol,
                        f"stages a write ({base}.{node.func.attr}) from "
                        f"{where}; staged writes belong in tick() or a "
                        f"scheduled event, where the commit phase follows",
                    )

    # -- QL004 ----------------------------------------------------------
    @staticmethod
    def _foreign_private(node: ast.expr) -> Optional[str]:
        """Return 'expr._attr' when ``node`` is a private attribute of an
        object other than ``self``/``cls``."""
        if not isinstance(node, ast.Attribute):
            return None
        attr = node.attr
        if not attr.startswith("_") or attr.startswith("__"):
            return None
        base = _unparse(node.value)
        if base in ("self", "cls"):
            return None
        return f"{base}.{attr}"

    def _check_foreign_mutation(self, method: ast.FunctionDef,
                                symbol: str) -> None:
        for node in ast.walk(method):
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _CONTAINER_MUTATORS):
                hit = self._foreign_private(node.func.value)
                if hit is not None:
                    self._add(
                        "QL004", node, symbol,
                        f"mutates {hit} via .{node.func.attr}() — another "
                        f"object's private state; stage the change through "
                        f"Wire.drive/FIFO.push or a public method instead",
                    )
                continue
            for target in targets:
                hit = self._foreign_private(target)
                if hit is not None:
                    self._add(
                        "QL004", node, symbol,
                        f"assigns to {hit} — another object's private "
                        f"state; stage the change through Wire.drive/"
                        f"FIFO.push or a public method instead",
                    )

    # -- QL005 ----------------------------------------------------------
    def _check_tick_signature(self, method: ast.FunctionDef,
                              symbol: str) -> None:
        args = method.args
        required = (len(args.posonlyargs) + len(args.args)
                    - len(args.defaults))
        if args.vararg is None and required != 2:
            self._add(
                "QL005", method, symbol,
                f"tick must accept exactly (self, sim); this signature has "
                f"{required} required parameter(s) and the scheduler's "
                f"tick(sim) call cannot satisfy it",
            )
        required_kwonly = sum(
            1 for d in args.kw_defaults if d is None)
        if required_kwonly:
            self._add(
                "QL005", method, symbol,
                "tick must not take required keyword-only parameters",
            )
        if method.returns is not None:
            ann = _unparse(method.returns).strip("'\"")
            if ann in ("None", "bool", "str", "float", "bytes"):
                self._add(
                    "QL005", method, symbol,
                    f"return annotation -> {ann} cannot express a "
                    f"QuiescenceHint (None | SLEEP | wake cycle); annotate "
                    f"-> QuiescenceHint (re-exported from repro.sim)",
                )
        for node in _shallow_walk(method):
            if isinstance(node, ast.Return) and isinstance(
                    node.value, ast.Constant):
                value = node.value.value
                if isinstance(value, (bool, str, float, bytes)):
                    self._add(
                        "QL005", node, symbol,
                        f"returns {value!r}, which is not a valid "
                        f"QuiescenceHint (None, SLEEP, or an int wake cycle)",
                    )


# ----------------------------------------------------------------------
# module / path drivers
# ----------------------------------------------------------------------
# QL012: the control plane mutates architectures only through public
# entry points
# ----------------------------------------------------------------------
def _is_control_path(path: str) -> bool:
    parts = path.replace("\\", "/").split("/")
    return any(a == "repro" and b == "control"
               for a, b in zip(parts, parts[1:]))


def _walk_without_defs(root: ast.AST) -> Iterable[ast.AST]:
    """Walk a function body, descending into lambdas (action closures)
    but not into nested function/class definitions."""
    stack = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def _lint_control_module(path: str, tree: ast.Module) -> List[Finding]:
    """QL012 over every function in a ``repro.control`` module: no
    foreign private mutation, no foreign private call — adaptive
    actions stay on public architecture entry points."""
    findings: List[Finding] = []
    fp = _ComponentChecker._foreign_private

    def _add(node: ast.AST, symbol: str, detail: str) -> None:
        findings.append(Finding("QL012", Severity.ERROR, path,
                                node.lineno, symbol, detail))

    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in _walk_without_defs(func):
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                hit = fp(node.func)
                if hit is not None:
                    _add(node, func.name,
                         f"calls {hit}() — a private entry point of "
                         f"another object; control actions must use "
                         f"public architecture methods so actuation "
                         f"stays observable and rollback-safe")
                    continue
                if node.func.attr in _CONTAINER_MUTATORS:
                    hit = fp(node.func.value)
                    if hit is not None:
                        _add(node, func.name,
                             f"mutates {hit} via .{node.func.attr}() — "
                             f"another object's private state; control "
                             f"actions must use public architecture "
                             f"methods")
                continue
            for target in targets:
                hit = fp(target)
                if hit is not None:
                    _add(node, func.name,
                         f"assigns to {hit} — another object's private "
                         f"state; control actions must use public "
                         f"architecture methods")
    return findings


def _lint_module(path: str, tree: ast.Module,
                 component_classes: Set[str]) -> List[Finding]:
    findings: List[Finding] = []
    classes = [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
    has_component = any(c.name in component_classes for c in classes)
    if has_component:
        for node in tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "random":
                        findings.append(Finding(
                            "QL002", Severity.WARNING, path, node.lineno,
                            "<module>",
                            "imports the unseeded `random` module in a file "
                            "defining components; prefer repro.sim.rng",
                        ))
            elif isinstance(node, ast.ImportFrom):
                if (node.module or "").split(".")[0] == "random":
                    findings.append(Finding(
                        "QL002", Severity.WARNING, path, node.lineno,
                        "<module>",
                        "imports from the unseeded `random` module in a file "
                        "defining components; prefer repro.sim.rng",
                    ))
    for cls in classes:
        if cls.name not in component_classes:
            continue
        findings.extend(
            _ComponentChecker(path, _ClassInfo(cls)).run())
    if _is_control_path(path):
        findings.extend(_lint_control_module(path, tree))
    return findings


def discover_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(d for d in dirs
                                 if d != "__pycache__"
                                 and not d.startswith("."))
                for fname in sorted(files):
                    if fname.endswith(".py"):
                        out.append(os.path.join(root, fname))
        else:
            out.append(path)
    return out


def lint_paths(paths: Sequence[str]) -> List[Finding]:
    """Lint every ``.py`` file under ``paths``; returns sorted findings."""
    files = discover_files(paths)
    parsed: List[Tuple[str, ast.Module]] = []
    findings: List[Finding] = []
    classmap: Dict[str, Set[str]] = {}
    for path in files:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=path)
        except (SyntaxError, OSError, UnicodeDecodeError) as exc:
            findings.append(Finding(
                "QL000", Severity.ERROR, path,
                getattr(exc, "lineno", 0) or 0, "<module>",
                f"could not parse: {exc}"))
            continue
        parsed.append((path, tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                classmap.setdefault(node.name, set()).update(
                    _base_names(node))
    component_classes = _component_closure(classmap)
    for path, tree in parsed:
        findings.extend(_lint_module(path, tree, component_classes))
    return sort_findings(findings)


def lint_source(source: str, filename: str = "<memory>") -> List[Finding]:
    """Lint a source string (test fixtures, editor integrations)."""
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError as exc:
        return [Finding("QL000", Severity.ERROR, filename,
                        exc.lineno or 0, "<module>",
                        f"could not parse: {exc}")]
    classmap: Dict[str, Set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            classmap.setdefault(node.name, set()).update(_base_names(node))
    return sort_findings(
        _lint_module(filename, tree, _component_closure(classmap)))
