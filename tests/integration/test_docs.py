"""Documentation-rot guards: README snippets execute, doc links exist."""

import re
import shlex
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[2]


class TestReadmeSnippets:
    def test_python_snippets_execute(self):
        """All ```python blocks in the README run top-to-bottom in one
        namespace (later blocks may use earlier blocks' names)."""
        text = (ROOT / "README.md").read_text()
        blocks = re.findall(r"```python\n(.*?)```", text, re.S)
        assert blocks, "README lost its python examples"
        namespace = {}
        for block in blocks:
            exec(compile(block, "<README>", "exec"), namespace)

    def test_published_numbers_present(self):
        text = (ROOT / "README.md").read_text()
        for number in ("5084", "1294", "1480", "1640"):
            assert number in text


#: a documented command: a console prompt line, or a command line in
#: a shell block, run as ``repro`` or as a module from a checkout
_COMMAND = re.compile(r"^(?:\$ )?(?:PYTHONPATH=src python -m )?repro (.*)$")


def _documented_commands():
    """(file, line) of every ``repro ...`` command in the console and
    shell blocks of the README and docs/; in a ``console`` block only
    the ``$`` lines are commands, the rest is output."""
    for doc in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]:
        blocks = re.findall(r"```(\w*)\n(.*?)```", doc.read_text(), re.S)
        for lang, body in blocks:
            if lang == "python":
                continue
            for line in body.splitlines():
                if lang == "console" and not line.startswith("$ "):
                    continue
                if _COMMAND.match(line):
                    yield doc.name, line


class TestDocumentedCommands:
    def test_every_documented_command_parses(self):
        """Each documented ``repro`` command line is one the CLI's
        parser accepts (its comment and output redirect stripped)."""
        from repro.cli import make_parser

        commands = list(_documented_commands())
        assert len(commands) > 30
        parser = make_parser()
        rejected = []
        for doc, line in commands:
            argv = shlex.split(_COMMAND.match(line).group(1), comments=True)
            if ">" in argv:
                argv = argv[:argv.index(">")]
            try:
                parser.parse_args(argv)
            except SystemExit:
                rejected.append(f"{doc}: {line}")
        assert not rejected


class TestDocTree:
    def test_index_links_resolve(self):
        index = (ROOT / "docs" / "README.md").read_text()
        for target in re.findall(r"\]\((\w+\.md)\)", index):
            assert (ROOT / "docs" / target).exists(), target

    def test_every_doc_is_indexed(self):
        index = (ROOT / "docs" / "README.md").read_text()
        for doc in (ROOT / "docs").glob("*.md"):
            if doc.name != "README.md":
                assert doc.name in index, f"{doc.name} not in docs index"

    def test_design_experiment_index_matches_benchmarks(self):
        """Every bench target named in DESIGN.md §4 exists on disk."""
        design = (ROOT / "DESIGN.md").read_text()
        targets = re.findall(r"`benchmarks/(bench_\w+\.py)`", design)
        assert targets
        for target in targets:
            assert (ROOT / "benchmarks" / target).exists(), target

    def test_experiments_md_covers_all_ids(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        for exp in ("E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8",
                    "E9", "E10", "E11"):
            assert f"## {exp} " in text or f"## {exp}/" in text or \
                f"## {exp} —" in text, exp
