"""Graph-level determinism rules QL009 and QL011.

These rules run on the whole-program class graph built by
:mod:`repro.lint.graph` rather than on one class at a time:

=======  ========  =====================================================
rule     severity  meaning
=======  ========  =====================================================
QL009    error     iteration over an unordered ``set`` whose body draws
                   randomness — hash order leaks into simulation state
QL011    error     a fault policy registered in ``_POLICIES`` calls a
                   ``self.arch.<hook>()`` the keyed architecture class
                   does not implement (crashes only when that fault
                   fires)
=======  ========  =====================================================
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.findings import Finding, Severity
from repro.lint.graph import ClassDecl, ClassGraph

#: rule id -> (default severity, one-line summary)
GRAPH_RULES: Dict[str, Tuple[Severity, str]] = {
    "QL009": (Severity.ERROR,
              "iteration over an unordered set reaches an RNG draw"),
    "QL011": (Severity.ERROR,
              "fault policy calls a recovery hook the architecture lacks"),
}

_RNG_CALLS = {"random", "randint", "randrange", "choice", "choices",
              "shuffle", "sample", "uniform", "gauss", "rand"}
_SET_CONSTRUCTORS = {"set", "frozenset"}


def _unparse(node: ast.AST) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - defensive
        return ast.dump(node)


# ----------------------------------------------------------------------
# QL009 — unordered iteration
# ----------------------------------------------------------------------
def _set_typed_attrs(decl: ClassDecl) -> Set[str]:
    """``self.x`` attributes assigned a set literal/constructor/
    comprehension anywhere in the class's effective methods."""
    attrs: Set[str] = set()
    ordered: Set[str] = set()
    for _name, (_cls, _path, fn) in decl.methods.items():
        for node in ast.walk(fn):
            target: Optional[ast.expr] = None
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                target, value = node.target, node.value
            elif isinstance(node, ast.AugAssign):
                target, value = node.target, None
            if not (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                continue
            if _is_set_expr(value):
                attrs.add(target.attr)
            elif value is not None:
                ordered.add(target.attr)
    return attrs - ordered  # reassigned to a non-set anywhere: trust that


def _is_set_expr(value: Optional[ast.expr]) -> bool:
    if isinstance(value, (ast.Set, ast.SetComp)):
        return True
    if (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id in _SET_CONSTRUCTORS):
        return True
    return False


def _iter_is_unordered(node: ast.expr, set_attrs: Set[str]) -> bool:
    """Is ``for _ in <node>`` iteration over an unordered set?

    ``sorted(...)`` (or any other ordering wrapper) exempts; plain
    ``list(s)``/``tuple(s)`` of a set merely freezes the hash order and
    does not.
    """
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id == "sorted":
            return False
        if node.func.id in _SET_CONSTRUCTORS:
            return True
        if node.func.id in ("list", "tuple") and node.args:
            return _iter_is_unordered(node.args[0], set_attrs)
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and node.attr in set_attrs):
        return True
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitAnd, ast.BitOr, ast.Sub, ast.BitXor)):
        # set algebra on two unordered operands
        return (_iter_is_unordered(node.left, set_attrs)
                or _iter_is_unordered(node.right, set_attrs))
    return False


def _body_draws_rng(body: Sequence[ast.stmt]) -> Optional[ast.AST]:
    """First node in ``body`` that draws randomness, else None."""
    for stmt in body:
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            fn = node.func
            if isinstance(fn, ast.Attribute):
                if fn.attr in _RNG_CALLS:
                    return node
                if "rng" in _unparse(fn.value).lower().split("."):
                    return node
    return None


def _iteration_findings(graph: ClassGraph) -> List[Finding]:
    findings: List[Finding] = []
    for name, decl in sorted(graph.classes.items()):
        set_attrs = _set_typed_attrs(decl)
        for mname, (def_cls, def_path, fn) in sorted(decl.methods.items()):
            if def_cls != name:
                continue  # report once, in the defining class
            for node in ast.walk(fn):
                if not isinstance(node, (ast.For, ast.AsyncFor)):
                    continue
                if not _iter_is_unordered(node.iter, set_attrs):
                    continue
                hit = _body_draws_rng(node.body)
                if hit is None:
                    continue
                findings.append(Finding(
                    "QL009", GRAPH_RULES["QL009"][0], def_path,
                    node.lineno, f"{name}.{mname}",
                    f"iterates over unordered {_unparse(node.iter)!r} and "
                    f"the loop body draws randomness "
                    f"({_unparse(hit)!r} at line "
                    f"{getattr(hit, 'lineno', node.lineno)}); wrap the "
                    f"iterable in sorted(...) to pin the order"))
    return findings


# ----------------------------------------------------------------------
# QL011 — fault-policy hook completeness
# ----------------------------------------------------------------------
def _policy_hook_findings(graph: ClassGraph) -> List[Finding]:
    registry = graph.registries.get("_POLICIES")
    if not registry:
        return []
    findings: List[Finding] = []
    archs_by_key: Dict[str, List[ClassDecl]] = {}
    for decl in graph.classes.values():
        if decl.arch_key is not None:
            archs_by_key.setdefault(decl.arch_key, []).append(decl)
    for key, policy_name in sorted(registry.items()):
        policy = graph.classes.get(policy_name)
        archs = archs_by_key.get(key, [])
        if policy is None or not archs:
            continue
        # hooks exempted by a hasattr(...) guard anywhere in the policy
        guarded: Set[str] = set()
        for _m, (_c, _p, fn) in policy.methods.items():
            for node in ast.walk(fn):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id in ("hasattr", "getattr")
                        and len(node.args) >= 2
                        and isinstance(node.args[1], ast.Constant)
                        and isinstance(node.args[1].value, str)):
                    guarded.add(node.args[1].value)
        for mname, (def_cls, def_path, fn) in sorted(policy.methods.items()):
            for node in ast.walk(fn):
                if not (isinstance(node, ast.Attribute)
                        and isinstance(node.value, ast.Attribute)
                        and isinstance(node.value.value, ast.Name)
                        and node.value.value.id == "self"
                        and node.value.attr == "arch"):
                    continue
                hook = node.attr
                if hook in guarded or hook == "KEY":
                    continue
                if any(hook in arch.methods for arch in archs):
                    continue
                if any(_class_has_attr(graph, arch, hook) for arch in archs):
                    continue
                names = ", ".join(sorted(a.name for a in archs))
                findings.append(Finding(
                    "QL011", GRAPH_RULES["QL011"][0], def_path,
                    node.lineno, f"{policy_name}.{mname}",
                    f"policy for arch key {key!r} uses self.arch.{hook}, "
                    f"but {names} neither defines nor inherits it — the "
                    f"recovery path crashes only when that fault fires"))
    return findings


def _class_has_attr(graph: ClassGraph, decl: ClassDecl, attr: str) -> bool:
    """Does ``decl`` (or any ancestor the graph can see) bind ``attr``
    as a non-method attribute — class body or ``self.attr = ...``?"""
    seen: Set[str] = set()
    queue = [decl.name]
    while queue:
        name = queue.pop()
        if name in seen or name not in graph.classes:
            continue
        seen.add(name)
        current = graph.classes[name]
        for node in ast.walk(current.node):
            target: Optional[ast.expr] = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
            elif isinstance(node, ast.AnnAssign):
                target = node.target
            if target is None:
                continue
            if isinstance(target, ast.Name) and target.id == attr:
                return True
            if (isinstance(target, ast.Attribute) and target.attr == attr
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                return True
        queue.extend(current.bases)
    return False


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def run_graph_rules(graph: ClassGraph) -> List[Finding]:
    """All QL009 and QL011 findings for a built class graph."""
    return _iteration_findings(graph) + _policy_hook_findings(graph)
