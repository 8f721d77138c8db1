"""The declarative document checker behind every validator."""

import pytest

from repro.schema import NUMBER, Named, check, problems

SPEC = {
    "kind": frozenset({"a", "b"}),
    "size": NUMBER,
    "note?": (str, type(None)),
    "items": [{"id": int}, ...],
    "spread": {str: {"std": NUMBER}},
    "parts": {frozenset({"head", "tail"}): int},
    "owner": Named("owner", {"name": str}),
}

GOOD = {"kind": "a", "size": 1.5, "items": [{"id": 1, "extra": []}],
        "spread": {"x": {"std": 0}}, "parts": {"head": 2},
        "owner": {"name": "m0"}, "undeclared": object()}


def test_a_matching_document_has_no_problems():
    assert problems(GOOD, SPEC) == []
    assert problems(dict(GOOD, note=None), SPEC) == []


def test_every_problem_is_listed_with_its_path():
    bad = dict(GOOD, kind="c", size="1", note=3, items=[],
               spread={"x": {"std": "y"}}, parts={"body": 1},
               owner={})
    assert problems(bad, SPEC) == [
        "unknown kind 'c' (expected 'a', 'b')",
        "size is not a number (str)",
        "note is not a string or null (int)",
        "items is empty",
        "spread['x'].std is not a number (str)",
        "unknown key 'body' in parts",
        "owner missing 'name' at owner",
    ]


def test_wrong_containers_and_missing_fields():
    assert problems([], SPEC) == ["document is not an object (list)"]
    assert problems({"items": [1]}, {"items": [{"id": int}]}) == [
        "items[0] is not an object (int)"]
    assert problems({"items": [{}]}, {"items": [{"id": int}]}) == [
        "items[0] missing 'id'"]
    assert problems({}, {"id": int}) == ["missing 'id'"]


def test_check_raises_the_first_problem_then_runs_the_rules():
    def rules(doc):
        if doc["size"] > 2:
            yield "size is too large"

    with pytest.raises(ValueError, match="^doc: size is not a number"):
        check(dict(GOOD, size="9"), SPEC, "doc: ", rules)
    with pytest.raises(ValueError, match="^doc: size is too large$"):
        check(dict(GOOD, size=9), SPEC, "doc: ", rules)
    check(GOOD, SPEC, "doc: ", rules)
