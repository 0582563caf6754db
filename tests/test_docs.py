"""The documentation site stays navigable.

Three properties, all enforced mechanically so prose and tree cannot
drift apart:

* ``docs/README.md`` indexes **every** ``docs/*.md`` file;
* every relative Markdown link under ``docs/`` and in the top-level
  ``README.md`` resolves to a real file (anchors stripped);
* no docs file is orphaned — each is reachable from the index or the
  top-level README;
* every ``make <target>`` that the docs or the CI workflow run names a
  target the ``Makefile`` defines.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
DOCS = REPO_ROOT / "docs"

# [text](target) — excluding images and absolute URLs.
_LINK = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")


# A Makefile rule head ("target: deps"), and a `make <target>` command:
# in an inline code span, at the start of a fenced code line, or in a CI
# `run:` step.
_MAKE_RULE = re.compile(r"^([A-Za-z0-9_-]+):", re.MULTILINE)
_MAKE_INLINE = re.compile(r"`make ([A-Za-z0-9_-]+)")
_MAKE_LINE = re.compile(r"^\s*(?:\$\s*|run:\s*)?make ([A-Za-z0-9_-]+)")


def _doc_files() -> list[Path]:
    return sorted(DOCS.glob("*.md"))


def _make_commands(path: Path) -> set[str]:
    """The targets of every ``make`` command a docs file or workflow runs."""
    text = path.read_text(encoding="utf-8")
    targets = set(_MAKE_INLINE.findall(text))
    in_code = path.suffix != ".md"  # a workflow file is all commands
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            in_code = not in_code
            continue
        match = _MAKE_LINE.match(line)
        if in_code and match:
            targets.add(match.group(1))
    return targets


def _relative_links(path: Path) -> list[str]:
    links = []
    for target in _LINK.findall(path.read_text(encoding="utf-8")):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        links.append(target.split("#", 1)[0])
    return links


class TestDocsIndex:
    def test_docs_directory_is_nonempty(self):
        assert {doc.name for doc in _doc_files()} >= {
            "README.md",
            "USAGE.md",
            "ARCHITECTURE.md",
            "PHYSICS.md",
            "SERVICE.md",
            "CHECKS.md",
            "PERFORMANCE.md",
            "OBSERVABILITY.md",
        }

    def test_index_lists_every_docs_file(self):
        index = (DOCS / "README.md").read_text(encoding="utf-8")
        missing = [
            doc.name
            for doc in _doc_files()
            if doc.name != "README.md" and f"({doc.name})" not in index
        ]
        assert not missing, (
            f"docs/README.md does not index: {', '.join(missing)} — "
            "add a row to the documentation index table"
        )

    def test_index_has_no_stale_rows(self):
        index = (DOCS / "README.md").read_text(encoding="utf-8")
        linked = {target for target in _LINK.findall(index) if target.endswith(".md")}
        stale = sorted(name for name in linked if not (DOCS / name).is_file())
        assert not stale, f"docs/README.md links to nonexistent: {', '.join(stale)}"


class TestDocsLinks:
    @pytest.mark.parametrize(
        "doc", _doc_files() + [REPO_ROOT / "README.md"], ids=lambda p: p.name
    )
    def test_relative_links_resolve(self, doc: Path):
        broken = []
        for target in _relative_links(doc):
            resolved = (doc.parent / target).resolve()
            if not resolved.exists():
                broken.append(target)
        assert not broken, f"{doc.name}: broken relative link(s): {', '.join(broken)}"

    def test_usage_embeds_current_serve_help(self, monkeypatch, capsys):
        """docs/USAGE.md quotes ``repro-emi serve --help`` verbatim.

        The doc promises the block is identical to the real output; this
        regenerates the help at the documented 80-column width and
        compares, so a flag change without a doc update fails here.
        """
        from repro.cli import build_parser

        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--help"])
        help_text = capsys.readouterr().out.strip()
        usage = (DOCS / "USAGE.md").read_text(encoding="utf-8")
        assert help_text in usage, (
            "docs/USAGE.md's serve help block is stale — paste the current "
            "`COLUMNS=80 repro-emi serve --help` output"
        )

    def test_no_orphaned_docs_file(self):
        reachable: set[str] = set()
        for source in [DOCS / "README.md", REPO_ROOT / "README.md"]:
            for target in _relative_links(source):
                reachable.add(Path(target).name)
        orphans = [
            doc.name
            for doc in _doc_files()
            if doc.name != "README.md" and doc.name not in reachable
        ]
        assert not orphans, (
            f"docs file(s) unreachable from the indexes: {', '.join(orphans)}"
        )


class TestMakeTargets:
    def test_documented_make_targets_exist(self):
        makefile = (REPO_ROOT / "Makefile").read_text(encoding="utf-8")
        defined = set(_MAKE_RULE.findall(makefile))
        workflow = REPO_ROOT / ".github" / "workflows" / "ci.yml"
        sources = [REPO_ROOT / "README.md", *_doc_files(), workflow]
        used = {
            (source.relative_to(REPO_ROOT).as_posix(), target)
            for source in sources
            for target in _make_commands(source)
        }
        assert {target for _, target in used} >= {"lint", "bench-smoke"}
        unknown = sorted(
            f"{name}: make {target}" for name, target in used if target not in defined
        )
        assert not unknown, f"docs run make targets the Makefile lacks: {', '.join(unknown)}"
