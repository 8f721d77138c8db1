"""Whole-program component↔channel access graph.

The static rules (QL001–QL005, QL012) look at one class at a time.
The race rules (QL007–QL009, QL011, :mod:`repro.lint.race`) need the
*whole program*: which component classes read, stage, push or pop
which channel objects, after resolving inheritance (including diamonds
through ``arch/base.py``-style bases), channels handed to helper
classes through constructor parameters, and writes buried in helper
methods reached from ``tick``.

This module builds that graph.  It is necessarily approximate — static
analysis of Python cannot track every alias — but the approximations
are all *sound for the repo's idioms* and documented here:

* **Channel slots** are attributes of ``self`` assigned a
  ``Wire``/``PulseWire``/``FIFO`` construction, annotated as one, or
  assigned from a constructor parameter that some call site binds to a
  known channel (constructor aliasing).  Locals are not tracked.
* **Inheritance** is name-based: a subclass inherits every base-class
  method and channel slot not shadowed by its own; diamond bases are
  visited once.  Each *concrete* class owns its own copy of an
  inherited slot (two siblings inheriting ``Base._bus`` do **not**
  share a channel node — every instance constructs its own), while an
  *aliased* slot shares the canonical node of the channel that was
  passed in.
* **Helper methods**: accesses anywhere in a class's effective method
  table are attributed to the concrete class, and methods reachable
  from ``tick`` through ``self.helper(...)`` calls (including inherited
  helpers) are marked as tick-path accesses.
* **Canonicalization** is union-find over ``(owner_class, attr)``
  slots: aliasing unions the callee's slot with the caller's, and the
  root prefers the slot whose construction (and therefore kind) was
  seen.

``repro lint --graph`` dumps the result as DOT or JSON
(:meth:`AccessGraph.to_dot` / :meth:`AccessGraph.to_json`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint.findings import Finding, Severity
from repro.lint.static_rules import discover_files

_CHANNEL_CONSTRUCTORS = {"Wire": "wire", "PulseWire": "pulse", "FIFO": "fifo"}
_CHANNEL_ANNOTATIONS = {"Wire": "wire", "PulseWire": "pulse", "FIFO": "fifo",
                        "Channel": "channel"}

#: channel method name -> access op
_OP_BY_CALL = {
    "drive": "stage",
    "push": "push", "try_push": "push", "push_all": "push",
    "pop": "pop", "try_pop": "pop",
    "peek": "read", "driven": "read", "can_push": "read",
}

_READ_BUILTINS = {"len", "bool", "list", "iter", "tuple"}

ChannelKey = Tuple[str, str]  # (owner class, attribute)


def _unparse(node: ast.AST) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - defensive
        return ast.dump(node)


def _ann_kind(annotation: Optional[ast.expr]) -> Optional[str]:
    """The channel kind named by a type annotation, if any."""
    if annotation is None:
        return None
    text = _unparse(annotation).strip("'\"")
    name = text.split("[")[0].split(".")[-1].strip()
    if text.startswith("Optional[") or text.startswith("Union["):
        inner = text.split("[", 1)[1].rstrip("]").split(",")[0]
        name = inner.split(".")[-1].strip()
    return _CHANNEL_ANNOTATIONS.get(name)


@dataclass
class ChannelNode:
    """One canonical channel in the graph."""

    key: ChannelKey
    kind: str = "channel"          # wire | pulse | fifo | channel
    path: str = ""
    line: int = 0
    aliases: Set[ChannelKey] = field(default_factory=set)

    @property
    def label(self) -> str:
        return f"{self.key[0]}.{self.key[1]}"


@dataclass
class Access:
    """One component-class → channel access edge."""

    component: str       # accessing (concrete) class
    channel: ChannelKey  # canonical channel key
    op: str              # read | stage | push | pop | watch
    path: str
    line: int
    method: str          # "Class.method" the access appears in
    tick_path: bool      # reachable from Class.tick via self-calls
    via: Tuple[str, ...] = ()  # helper-call chain from the entry method

    def to_dict(self) -> Dict[str, object]:
        return {
            "component": self.component,
            "channel": f"{self.channel[0]}.{self.channel[1]}",
            "op": self.op,
            "path": self.path,
            "line": self.line,
            "method": self.method,
            "tick_path": self.tick_path,
            "via": list(self.via),
        }


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
    #: attr -> channel kind, for slots constructed/annotated in this mro
    own_slots: Dict[str, str] = field(default_factory=dict)
    #: attr -> (path, line) of the construction/annotation site
    slot_sites: Dict[str, Tuple[str, int]] = field(default_factory=dict)
    #: attr -> constructor parameter name it aliases (self.x = param)
    param_slots: Dict[str, str] = field(default_factory=dict)
    #: attr -> class name, for object-typed attributes (self.x = Cls(...))
    obj_types: Dict[str, str] = field(default_factory=dict)
    is_component: bool = False
    #: class-level KEY = "..." value, if any (architecture key)
    arch_key: Optional[str] = None
    #: methods reachable from tick via self-calls
    tick_reachable: Set[str] = field(default_factory=set)


class AccessGraph:
    """The resolved whole-program graph (see module docstring)."""

    def __init__(self) -> None:
        self.classes: Dict[str, ClassDecl] = {}
        self.channels: Dict[ChannelKey, ChannelNode] = {}
        self.accesses: List[Access] = []
        #: module-level ``NAME = {"key": ClassName, ...}`` registries
        #: (e.g. ``_POLICIES`` in faults/policies.py), merged across files
        self.registries: Dict[str, Dict[str, str]] = {}
        #: union-find parent map over channel slot keys
        self._parent: Dict[ChannelKey, ChannelKey] = {}

    # -- union-find ----------------------------------------------------
    def _find(self, key: ChannelKey) -> ChannelKey:
        parent = self._parent
        root = key
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(key, key) != key:
            parent[key], key = root, parent[key]
        return root

    def _union(self, alias: ChannelKey, target: ChannelKey) -> None:
        ra, rt = self._find(alias), self._find(target)
        if ra != rt:
            self._parent[ra] = rt

    def resolve(self, key: ChannelKey) -> ChannelKey:
        """Canonical key for a channel slot."""
        return self._find(key)

    # -- queries -------------------------------------------------------
    def accesses_by_channel(self) -> Dict[ChannelKey, List[Access]]:
        out: Dict[ChannelKey, List[Access]] = {}
        for access in self.accesses:
            out.setdefault(access.channel, []).append(access)
        return out

    def components(self) -> List[str]:
        return sorted(n for n, c in self.classes.items() if c.is_component)

    # -- exports -------------------------------------------------------
    def to_json(self) -> Dict[str, object]:
        return {
            "schema": "repro.lint.graph/1",
            "components": [
                {"name": name, "path": decl.path,
                 "arch_key": decl.arch_key,
                 "tick_reachable": sorted(decl.tick_reachable)}
                for name, decl in sorted(self.classes.items())
                if decl.is_component
            ],
            "channels": [
                {"id": node.label, "kind": node.kind,
                 "path": node.path, "line": node.line,
                 "aliases": sorted(f"{o}.{a}" for o, a in node.aliases)}
                for _, node in sorted(self.channels.items())
            ],
            "edges": [a.to_dict() for a in self.accesses],
        }

    def to_dot(self) -> str:
        """GraphViz DOT rendering: components are boxes, channels are
        ellipses, edge style encodes the access op."""
        style = {"stage": 'color="red"', "push": 'color="orange"',
                 "pop": 'color="blue"', "read": 'color="gray50"',
                 "watch": 'color="green" style="dashed"'}
        lines = ["digraph simlint_access {", "  rankdir=LR;"]
        comps = {a.component for a in self.accesses}
        for comp in sorted(comps):
            lines.append(f'  "{comp}" [shape=box];')
        for key in sorted({a.channel for a in self.accesses}):
            node = self.channels.get(key)
            kind = node.kind if node else "channel"
            lines.append(
                f'  "{key[0]}.{key[1]}" [shape=ellipse label='
                f'"{key[0]}.{key[1]}\\n({kind})"];')
        seen: Set[Tuple[str, ChannelKey, str]] = set()
        for access in self.accesses:
            sig = (access.component, access.channel, access.op)
            if sig in seen:
                continue
            seen.add(sig)
            attrs = style.get(access.op, "")
            src, dst = access.component, f"{access.channel[0]}.{access.channel[1]}"
            if access.op in ("read", "pop"):
                lines.append(f'  "{dst}" -> "{src}" '
                             f'[label="{access.op}" {attrs}];')
            else:
                lines.append(f'  "{src}" -> "{dst}" '
                             f'[label="{access.op}" {attrs}];')
        lines.append("}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# builder
# ----------------------------------------------------------------------
class _GraphBuilder:
    def __init__(self) -> None:
        self.graph = AccessGraph()
        self.errors: List[Finding] = []
        self._trees: List[Tuple[str, ast.Module]] = []

    # -- phase 1: parse and register classes ---------------------------
    def add_source(self, source: str, path: str) -> None:
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            self.errors.append(Finding(
                "QL000", Severity.ERROR, path, exc.lineno or 0,
                "<module>", f"could not parse: {exc}"))
            return
        self._trees.append((path, tree))
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
    def resolve(self) -> AccessGraph:
        classes = self.graph.classes
        # component closure (name-based, matching static_rules)
        component: Set[str] = {"Component"}
        changed = True
        while changed:
            changed = False
            for name, decl in classes.items():
                if name not in component and set(decl.bases) & component:
                    component.add(name)
                    changed = True
        for name, decl in classes.items():
            decl.is_component = name in component

        for decl in classes.values():
            self._build_method_table(decl)
        for decl in classes.values():
            self._scan_class_body(decl)
            self._scan_slots(decl)
        for decl in classes.values():
            decl.tick_reachable = self._reachable_from(decl, "tick")
        # constructor aliasing needs every class's slots known first
        for decl in classes.values():
            self._bind_call_sites(decl)
        self._promote_param_slots()
        for decl in classes.values():
            self._collect_accesses(decl)
        return self.graph

    def _build_method_table(self, decl: ClassDecl) -> None:
        """Effective methods: own first, then BFS over bases (diamond
        bases visited once; earlier bases win, approximating the MRO)."""
        classes = self.graph.classes
        seen_cls: Set[str] = set()
        queue: List[str] = [decl.name]
        while queue:
            name = queue.pop(0)
            if name in seen_cls or name not in classes:
                continue
            seen_cls.add(name)
            current = classes[name]
            for item in current.node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    decl.methods.setdefault(
                        item.name, (name, current.path, item))
            queue.extend(current.bases)

    def _scan_class_body(self, decl: ClassDecl) -> None:
        """The class-level ``KEY = "..."`` (architecture key), nearest
        in the mro first."""
        for ancestor in self._mro(decl):
            for node in ancestor.node.body:
                targets: List[ast.expr] = []
                value: Optional[ast.expr] = None
                if isinstance(node, ast.Assign):
                    targets, value = node.targets, node.value
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    targets, value = [node.target], node.value
                for target in targets:
                    if (isinstance(target, ast.Name) and target.id == "KEY"
                            and decl.arch_key is None
                            and isinstance(value, ast.Constant)
                            and isinstance(value.value, str)):
                        decl.arch_key = value.value

    def _mro(self, decl: ClassDecl) -> List[ClassDecl]:
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

    def _scan_slots(self, decl: ClassDecl) -> None:
        """Channel slots and object-typed attributes of one class, from
        its *effective* method table (inherited ``__init__`` included)."""
        classes = self.graph.classes
        for mname, (def_cls, def_path, fn) in decl.methods.items():
            ann_params: Dict[str, str] = {}
            typed_params: Dict[str, str] = {}
            for arg in (fn.args.posonlyargs + fn.args.args
                        + fn.args.kwonlyargs):
                kind = _ann_kind(arg.annotation)
                if kind is not None:
                    ann_params[arg.arg] = kind
                elif arg.annotation is not None:
                    tname = _unparse(arg.annotation).strip("'\"")
                    tname = tname.split("[")[0].split(".")[-1]
                    if tname in classes:
                        typed_params[arg.arg] = tname
            for node in ast.walk(fn):
                target: Optional[ast.expr] = None
                value: Optional[ast.expr] = None
                ann: Optional[ast.expr] = None
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target, value = node.targets[0], node.value
                elif isinstance(node, ast.AnnAssign):
                    target, value, ann = node.target, node.value, node.annotation
                else:
                    continue
                if not (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    continue
                attr = target.attr
                kind = _ann_kind(ann)
                if kind is not None:
                    self._add_slot(decl, attr, kind, def_path, node.lineno)
                if isinstance(value, ast.Call):
                    fname = (value.func.id if isinstance(value.func, ast.Name)
                             else value.func.attr
                             if isinstance(value.func, ast.Attribute) else "")
                    if fname in _CHANNEL_CONSTRUCTORS:
                        self._add_slot(decl, attr,
                                       _CHANNEL_CONSTRUCTORS[fname],
                                       def_path, node.lineno)
                    elif fname in classes:
                        decl.obj_types.setdefault(attr, fname)
                elif isinstance(value, ast.Name):
                    pname = value.id
                    if pname in ann_params:
                        self._add_slot(decl, attr, ann_params[pname],
                                       def_path, node.lineno)
                        decl.param_slots.setdefault(attr, pname)
                    elif pname in typed_params:
                        decl.obj_types.setdefault(attr, typed_params[pname])
                    elif mname == "__init__":
                        params = {a.arg for a in
                                  (fn.args.posonlyargs + fn.args.args
                                   + fn.args.kwonlyargs)}
                        if pname in params:
                            # potential constructor alias; promoted to a
                            # channel slot only if a call site binds one
                            decl.param_slots.setdefault(attr, pname)

    def _add_slot(self, decl: ClassDecl, attr: str, kind: str,
                  path: str, line: int) -> None:
        if attr not in decl.own_slots or decl.own_slots[attr] == "channel":
            decl.own_slots[attr] = kind
            decl.slot_sites[attr] = (path, line)

    def _reachable_from(self, decl: ClassDecl, entry: str) -> Set[str]:
        if entry not in decl.methods:
            return set()
        seen: Set[str] = set()
        queue = [entry]
        while queue:
            name = queue.pop()
            if name in seen or name not in decl.methods:
                continue
            seen.add(name)
            _, _, fn = decl.methods[name]
            for node in ast.walk(fn):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and isinstance(node.func.value, ast.Name)
                        and node.func.value.id == "self"):
                    queue.append(node.func.attr)
        return seen

    # -- phase 3: constructor aliasing ---------------------------------
    def _init_params(self, decl: ClassDecl) -> List[str]:
        if "__init__" not in decl.methods:
            return []
        _, _, fn = decl.methods["__init__"]
        names = [a.arg for a in fn.args.posonlyargs + fn.args.args]
        return names[1:] if names and names[0] == "self" else names

    def _bind_call_sites(self, decl: ClassDecl) -> None:
        """Find ``Callee(...)`` constructions inside ``decl``'s methods
        and union callee param-slots with the channels passed in."""
        classes = self.graph.classes
        for mname, (def_cls, _path, fn) in decl.methods.items():
            if def_cls != decl.name:
                continue  # call sites are bound once, in the definer
            for node in ast.walk(fn):
                if not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id in classes):
                    continue
                callee = classes[node.func.id]
                params = self._init_params(callee)
                bound: Dict[str, ast.expr] = {}
                for i, arg in enumerate(node.args):
                    if i < len(params):
                        bound[params[i]] = arg
                for kw in node.keywords:
                    if kw.arg is not None:
                        bound[kw.arg] = kw.value
                for attr, pname in callee.param_slots.items():
                    expr = bound.get(pname)
                    if expr is None:
                        continue
                    src_key = self._channel_ref(decl, expr)
                    if src_key is not None:
                        self.graph._union((callee.name, attr), src_key)

    def _channel_ref(self, decl: ClassDecl,
                     expr: ast.expr) -> Optional[ChannelKey]:
        """Resolve an expression in ``decl``'s context to a channel slot
        key (``self.x`` or ``self.obj.x``), else None."""
        if (isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self"):
            if expr.attr in self._all_slots(decl):
                return (decl.name, expr.attr)
        elif (isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Attribute)
                and isinstance(expr.value.value, ast.Name)
                and expr.value.value.id == "self"):
            owner_type = decl.obj_types.get(expr.value.attr)
            if owner_type is not None:
                owner = self.graph.classes.get(owner_type)
                if owner is not None and expr.attr in self._all_slots(owner):
                    return (owner_type, expr.attr)
        return None

    def _all_slots(self, decl: ClassDecl) -> Dict[str, str]:
        slots = dict(decl.own_slots)
        for attr in decl.param_slots:
            slots.setdefault(attr, "channel")
        return slots

    def _promote_param_slots(self) -> None:
        """Param-assigned attributes become channel slots only when a
        call site bound a channel (or the param was channel-annotated);
        otherwise they are plain attributes and are dropped."""
        for decl in self.graph.classes.values():
            for attr in list(decl.param_slots):
                key = (decl.name, attr)
                if attr in decl.own_slots:
                    continue  # annotated: already a slot
                if self.graph._find(key) != key:
                    decl.own_slots[attr] = "channel"
                    decl.slot_sites.setdefault(
                        attr, (decl.path, decl.node.lineno))
                else:
                    del decl.param_slots[attr]

    # -- phase 4: accesses ---------------------------------------------
    def _node_for(self, key: ChannelKey) -> ChannelNode:
        root = self.graph._find(key)
        node = self.graph.channels.get(root)
        if node is None:
            node = ChannelNode(key=root)
            self.graph.channels[root] = node
        if key != root:
            node.aliases.add(key)
        for probe in (root, key):  # the root's constructed kind wins
            owner = self.graph.classes.get(probe[0])
            if owner is None:
                continue
            kind = owner.own_slots.get(probe[1])
            if kind and kind != "channel" and node.kind == "channel":
                node.kind = kind
            if not node.path and probe[1] in owner.slot_sites:
                node.path, node.line = owner.slot_sites[probe[1]]
        return node

    def _collect_accesses(self, decl: ClassDecl) -> None:
        slots = self._all_slots(decl)
        if not slots and not decl.obj_types:
            return
        for mname, (def_cls, def_path, fn) in decl.methods.items():
            symbol = f"{decl.name}.{mname}"
            tick_path = mname in decl.tick_reachable
            via = () if mname == "tick" else (mname,)
            for node in ast.walk(fn):
                hit = self._classify(decl, slots, node)
                if hit is None:
                    continue
                key, op = hit
                canonical = self.graph._find(key)
                self._node_for(key)
                self.graph.accesses.append(Access(
                    component=decl.name, channel=canonical, op=op,
                    path=def_path, line=getattr(node, "lineno", 0),
                    method=symbol, tick_path=tick_path, via=via))

    def _classify(self, decl: ClassDecl, slots: Dict[str, str],
                  node: ast.AST) -> Optional[Tuple[ChannelKey, str]]:
        """Map one AST node to a channel access, if it is one."""
        # EXPR.value reads (wires)
        if (isinstance(node, ast.Attribute) and node.attr == "value"
                and isinstance(node.ctx, ast.Load)):
            key = self._channel_ref(decl, node.value)
            if key is not None:
                return key, "read"
        elif isinstance(node, ast.Call):
            fn = node.func
            if isinstance(fn, ast.Attribute):
                op = _OP_BY_CALL.get(fn.attr)
                if op is not None:
                    key = self._channel_ref(decl, fn.value)
                    if key is not None:
                        return key, op
                if fn.attr == "watch" and node.args:
                    key = self._channel_ref(decl, node.args[0])
                    if key is not None:
                        return key, "watch"
                if fn.attr == "subscribe":
                    key = self._channel_ref(decl, fn.value)
                    if key is not None:
                        return key, "watch"
            elif (isinstance(fn, ast.Name) and fn.id in _READ_BUILTINS
                    and node.args):
                key = self._channel_ref(decl, node.args[0])
                if key is not None:
                    return key, "read"
        return None


# ----------------------------------------------------------------------
# public entry points
# ----------------------------------------------------------------------
def build_graph(paths: Sequence[str]) -> Tuple[AccessGraph, List[Finding]]:
    """Build the access graph for every ``.py`` file under ``paths``;
    returns ``(graph, parse_errors)``."""
    builder = _GraphBuilder()
    for path in discover_files(paths):
        builder.add_file(path)
    graph = builder.resolve()
    return graph, builder.errors


def build_graph_sources(
    sources: Dict[str, str],
) -> Tuple[AccessGraph, List[Finding]]:
    """Build the access graph from in-memory sources (tests, tools);
    ``sources`` maps a filename to its source text."""
    builder = _GraphBuilder()
    for path, source in sorted(sources.items()):
        builder.add_source(source, path)
    graph = builder.resolve()
    return graph, builder.errors


def graph_source(source: str, filename: str = "<memory>"):
    """Convenience single-source builder (mirrors ``lint_source``)."""
    return build_graph_sources({filename: source})
