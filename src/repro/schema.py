"""One declarative checker for the repository's JSON documents.

A *spec* declares what a document must look like:

* a type, or a tuple of types, is a leaf the value must be an instance
  of (``object`` accepts anything);
* a ``frozenset`` lists the allowed values;
* a ``dict`` with string keys is an object whose fields must be
  present, or may be absent when the key ends in ``?``.  Undeclared
  fields are allowed: the documents grow by adding keys;
* a ``dict`` with one non-string key is a map: its keys match that
  type or ``frozenset`` of allowed keys, its values the value spec;
* ``[spec]`` is a list of ``spec`` items, ``[spec, ...]`` a non-empty
  one;
* :class:`Named` gives an object a noun for its missing-field messages.

:func:`problems` returns every mismatch, each naming its path
(``telemetry[0].flows``, ``seed_stats['x']``); :func:`check` raises the
first as a :class:`ValueError`, after which a validator's cross-field
rules run on the well-formed document.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional

#: a JSON number
NUMBER = (int, float)

_NOUNS = {NUMBER: "a number", dict: "an object", list: "a list",
          str: "a string", int: "an integer", float: "a float",
          bool: "a boolean", type(None): "null"}


class Named:
    """``spec`` whose missing fields are reported with ``noun``, as in
    ``alert missing 'cycle' at alerts[0]``."""

    def __init__(self, noun: str, spec: Any) -> None:
        self.noun = noun
        self.spec = spec


def problems(doc: Any, spec: Any) -> List[str]:
    """Every way ``doc`` departs from ``spec``, each naming its path."""
    out: List[str] = []
    _walk(doc, spec, "", "", out)
    return out


def check(doc: Any, spec: Any, prefix: str = "",
          rules: Optional[Callable[[Any], Iterable[str]]] = None
          ) -> None:
    """Raise ``ValueError(prefix + problem)`` for the first problem of
    ``doc``: a mismatch with ``spec`` or, once there is none, one that
    ``rules(doc)`` yields."""
    for problem in problems(doc, spec) or (rules(doc) if rules else ()):
        raise ValueError(prefix + problem)


def _describe(spec: Any) -> str:
    return _NOUNS.get(spec) or " or ".join(map(_describe, spec))


def _walk(value: Any, spec: Any, parent: str, key: str,
          out: List[str], noun: Optional[str] = None) -> None:
    path = (f"{parent}.{key}" if parent and not key.startswith("[")
            else parent + key)
    kind = type(spec) if isinstance(spec, (dict, list)) else spec
    if isinstance(spec, Named):
        _walk(value, spec.spec, parent, key, out, spec.noun)
    elif isinstance(spec, frozenset):
        if isinstance(value, (dict, list)) or value not in spec:
            where = f" in {parent}" if parent else ""
            allowed = ", ".join(sorted(map(repr, spec)))
            out.append(f"unknown {key} {value!r}{where} "
                       f"(expected {allowed})")
    elif not isinstance(value, kind):
        out.append(f"{path or 'document'} is not {_describe(kind)} "
                   f"({type(value).__name__})")
    elif isinstance(spec, list):
        if len(spec) == 2 and not value:
            out.append(f"{path} is empty")
        for i, item in enumerate(value):
            _walk(item, spec[0], path, f"[{i}]", out)
    elif isinstance(spec, dict) \
            and not isinstance(next(iter(spec), ""), str):
        [(key_spec, value_spec)] = spec.items()
        for name, item in value.items():
            if (name not in key_spec if isinstance(key_spec, frozenset)
                    else not isinstance(name, key_spec)):
                out.append(f"unknown key {name!r} in {path}")
            _walk(item, value_spec, path, f"[{name!r}]", out)
    elif isinstance(spec, dict):
        for field, sub in spec.items():
            name = field.rstrip("?")
            if name in value:
                _walk(value[name], sub, path, name, out)
            elif name == field:
                out.append(f"{noun} missing {name!r} at {path}" if noun
                           else f"{path} missing {name!r}" if path
                           else f"missing {name!r}")
