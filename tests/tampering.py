"""Damage a valid document at one path, for the validator tests."""

import copy
import re

#: the value that deletes the item at a path instead of replacing it
DROP = object()


def tampered(doc, path, value):
    """A deep copy of ``doc`` whose item at ``path``, written the way
    the validators print paths (``telemetry[0].flows``,
    ``seed_stats['x']``), is replaced by ``value`` (or deleted, for
    :data:`DROP`); the empty path replaces the whole document."""
    keys = [int(index) if index else name or quoted
            for name, index, quoted
            in re.findall(r"(\w+)|\[(\d+)\]|\['([^']*)'\]", path)]
    if not keys:
        return value
    out = copy.deepcopy(doc)
    parent = out
    for key in keys[:-1]:
        parent = parent[key]
    if value is DROP:
        del parent[keys[-1]]
    else:
        parent[keys[-1]] = value
    return out
