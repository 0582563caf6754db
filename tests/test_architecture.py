"""The layer table of ``docs/ARCHITECTURE.md``, checked against every import.

An ``ast`` walk of each module under ``src/repro`` resolves its imports of
the project (absolute and relative alike) and asserts three things:

* no package imports a package of a higher layer (:data:`ARCH_LAYERS`).
  ``obs`` and ``units`` are cross-cutting.  Lazy imports (inside a
  function) count; imports under ``if TYPE_CHECKING:`` never run and do
  not;
* nothing but a ``__main__.py`` imports ``repro.cli``, the outermost
  shell;
* no import-time cycle joins two modules.  A cross-package import also
  runs the target package's ``__init__`` first, so that edge is in the
  graph too; a sibling import within one package is not, or every
  package whose initializer imports its own modules would look cyclic.

A module that does not parse fails the walk.  The seeded cases below
write each kind of violation into a small tree and require the walk to
name it at its file and line.
"""

from __future__ import annotations

import ast
import graphlib
import re
import textwrap
from collections.abc import Iterable, Iterator
from pathlib import Path, PurePosixPath
from typing import NamedTuple

import pytest

REPO_ROOT = Path(__file__).parents[1]
SRC = REPO_ROOT / "src"

#: The enforced layering, lowest first.  A module in layer *n* may import
#: packages of layer <= *n*.  ``docs/ARCHITECTURE.md`` ("Enforced
#: layering") renders this table; :func:`test_layer_table_matches_docs`
#: keeps the two equal.
ARCH_LAYERS: dict[str, int] = {
    "geometry": 0,
    "peec": 1,
    "circuit": 1,
    "components": 2,
    "emi": 2,
    "parallel": 2,
    "coupling": 3,
    "sensitivity": 3,
    "rules": 4,
    "placement": 5,
    "routing": 6,
    "io": 6,
    "viz": 6,
    "check": 6,
    "converters": 7,
    "core": 8,
    "service": 9,
    "cli": 10,
}

#: Importable from every layer: tracing spans and the unit aliases thread
#: through the whole tree.
CROSS_CUTTING: frozenset[str] = frozenset({"obs", "units"})


class Violation(NamedTuple):
    """One breach of the architecture: ``kind`` is layer, cli or cycle."""

    file: str
    line: int
    kind: str
    detail: str


class _Import(NamedTuple):
    target: str  # dotted: a module, or a module plus the name taken from it
    line: int
    lazy: bool


def _package(dotted: str) -> str:
    """Top-level package of a dotted project name (``repro.peec.mesh`` -> ``peec``)."""
    parts = dotted.split(".")
    return parts[1] if len(parts) > 1 else parts[0]


def _module_parts(label: str) -> tuple[tuple[str, ...], bool]:
    """Dotted parts of a file label and whether it is a package ``__init__``."""
    parts = PurePosixPath(label).with_suffix("").parts
    if parts[-1] == "__init__":
        return parts[:-1], True
    return parts, False


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _import_nodes(
    nodes: Iterable[ast.AST], lazy: bool = False
) -> Iterator[tuple[ast.Import | ast.ImportFrom, bool]]:
    """Every import statement under ``nodes``, with whether it runs lazily."""
    for node in nodes:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node, lazy
        elif isinstance(node, ast.If) and _is_type_checking(node.test):
            yield from _import_nodes(node.orelse, lazy)
        else:
            inner = lazy or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            yield from _import_nodes(ast.iter_child_nodes(node), inner)


def _imports(label: str, source: str) -> list[_Import]:
    """The project imports of one module.

    Raises:
        SyntaxError: when the module does not parse.
    """
    module, is_package = _module_parts(label)
    root = module[0]
    found: list[_Import] = []
    for node, lazy in _import_nodes(ast.parse(source, filename=label).body):
        if isinstance(node, ast.Import):
            targets = [a.name for a in node.names if a.name.split(".")[0] == root]
        else:
            if node.level == 0:
                base = node.module or ""
                if base.split(".")[0] != root:
                    continue
            else:
                # Level 1 is the containing package: a plain module's
                # parent, a package __init__'s own package.
                package = module if is_package else module[:-1]
                keep = len(package) - (node.level - 1)
                if keep <= 0:
                    continue
                base = ".".join(package[:keep] + tuple(filter(None, [node.module])))
            targets = [base if a.name == "*" else f"{base}.{a.name}" for a in node.names]
        found.extend(
            _Import(target, node.lineno, lazy)
            for target in targets
            if target != ".".join(module)
        )
    return found


def architecture_violations(sources: dict[str, str]) -> list[Violation]:
    """Every layer breach, ``repro.cli`` import and import-time cycle.

    Args:
        sources: file label (``repro/peec/mesh.py``) -> module source.

    Raises:
        SyntaxError: when a module does not parse.
    """
    imports = {label: _imports(label, text) for label, text in sources.items()}
    by_name = {".".join(_module_parts(label)[0]): label for label in sources}

    def resolve(target: str) -> str | None:
        # ``from pkg import name`` may name a submodule or an attribute.
        parts = target.split(".")
        while parts and ".".join(parts) not in by_name:
            parts.pop()
        return by_name[".".join(parts)] if parts else None

    found: list[Violation] = []
    # importer -> {imported module at import time: line of the import}
    graph: dict[str, dict[str, int]] = {label: {} for label in sources}
    for label, module_imports in sorted(imports.items()):
        name = ".".join(_module_parts(label)[0])
        own = _package(name)
        for imp in module_imports:
            target = _package(imp.target)
            if target == "cli" and own != "cli":
                if PurePosixPath(label).name != "__main__.py":
                    found.append(Violation(label, imp.line, "cli", "imports repro.cli"))
            elif (
                own in ARCH_LAYERS
                and target in ARCH_LAYERS
                and ARCH_LAYERS[target] > ARCH_LAYERS[own]
            ):
                found.append(
                    Violation(
                        label,
                        imp.line,
                        "layer",
                        f"'{own}' (layer {ARCH_LAYERS[own]}) imports "
                        f"'{target}' (layer {ARCH_LAYERS[target]})",
                    )
                )
            resolved = None if imp.lazy else resolve(imp.target)
            if resolved is None or resolved == label:
                continue
            graph[label].setdefault(resolved, imp.line)
            resolved_parts = _module_parts(resolved)[0]
            if len(resolved_parts) > 2 and resolved_parts[1] != own:
                init = by_name.get(".".join(resolved_parts[:2]))
                if init is not None and init != label:
                    graph[label].setdefault(init, imp.line)
    try:
        tuple(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as exc:
        # graphlib lists each member before the one that imports it and
        # repeats the first; report the cycle from its first label on.
        cycle = exc.args[1][::-1][:-1]
        start = cycle.index(min(cycle))
        cycle = cycle[start:] + cycle[: start + 1]
        found.append(
            Violation(cycle[0], graph[cycle[0]][cycle[1]], "cycle", " -> ".join(cycle))
        )
    return found


def _tree_sources(root: Path) -> dict[str, str]:
    return {
        path.relative_to(root.parent).as_posix(): path.read_text(encoding="utf-8")
        for path in sorted(root.rglob("*.py"))
        if "__pycache__" not in path.parts
    }


def _found(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    return [(v.file, v.line, v.kind) for v in architecture_violations(sources)]


def test_shipped_tree_follows_the_layer_table():
    violations = architecture_violations(_tree_sources(SRC / "repro"))
    assert violations == [], "\n".join(
        f"{v.file}:{v.line} {v.kind}: {v.detail}" for v in violations
    )


def test_every_package_has_a_layer():
    packages = {
        path.stem if path.is_file() else path.name
        for path in (SRC / "repro").iterdir()
        if (path.suffix == ".py" and path.stem != "__init__")
        or (path / "__init__.py").is_file()
    }
    assert packages == set(ARCH_LAYERS) | CROSS_CUTTING


#: name -> (sources, the expected (file, line, kind) findings).
SEEDED: dict[str, tuple[dict[str, str], list[tuple[str, int, str]]]] = {
    "layer": (
        {"repro/geometry/shapes.py": "from repro.check.limits import COUPLING_CLAMP_TOLERANCE\n"},
        [("repro/geometry/shapes.py", 1, "layer")],
    ),
    "lazy-layer": (
        {
            "repro/peec/mesh.py": textwrap.dedent(
                """\
                def place():
                    from ..placement import AutoPlacer

                    return AutoPlacer
                """
            )
        },
        [("repro/peec/mesh.py", 2, "layer")],
    ),
    "cli": (
        {"repro/viz/shim.py": "import repro.cli\n"},
        [("repro/viz/shim.py", 1, "cli")],
    ),
    "cycle": (
        {
            "repro/alpha/a.py": "import repro.alpha.b\n",
            "repro/alpha/b.py": "import repro.alpha.a\n",
        },
        [("repro/alpha/a.py", 1, "cycle")],
    ),
    "relative-cycle": (
        {
            "repro/alpha/a.py": "from . import b\n",
            "repro/alpha/b.py": "from .a import thing\n",
        },
        [("repro/alpha/a.py", 1, "cycle")],
    ),
}


@pytest.mark.parametrize("case", sorted(SEEDED))
def test_seeded_violation_is_named(case):
    sources, expected = SEEDED[case]
    assert _found(sources) == expected


def test_package_init_joins_a_cycle():
    # beta/b imports alpha/a, which first runs alpha/__init__; that
    # initializer imports alpha/c, which imports beta/b: a cycle no
    # single module-to-module edge shows.
    sources = {
        "repro/alpha/__init__.py": "from . import c\n",
        "repro/alpha/a.py": "thing = 1\n",
        "repro/alpha/c.py": "import repro.beta.b\n",
        "repro/beta/__init__.py": "",
        "repro/beta/b.py": "from repro.alpha.a import thing\n",
    }
    assert _found(sources) == [("repro/alpha/__init__.py", 1, "cycle")]


def test_type_checking_imports_are_skipped():
    sources = {
        "repro/alpha/a.py": textwrap.dedent(
            """\
            from typing import TYPE_CHECKING

            if TYPE_CHECKING:
                import repro.alpha.b
                from repro.cli import main
            """
        ),
        "repro/alpha/b.py": "import repro.alpha.a\n",
    }
    assert _found(sources) == []


def test_lazy_imports_do_not_form_cycles():
    sources = {
        "repro/alpha/a.py": textwrap.dedent(
            """\
            def late():
                import repro.alpha.b

                return repro.alpha.b
            """
        ),
        "repro/alpha/b.py": "import repro.alpha.a\n",
    }
    assert _found(sources) == []


def test_main_shim_may_import_cli():
    assert _found({"repro/service/__main__.py": "import repro.cli\n"}) == []


def test_cross_cutting_and_own_layer_imports_are_allowed():
    sources = {
        "repro/geometry/shapes.py": "from repro import units\nfrom ..obs import get_tracer\n",
        "repro/peec/mesh.py": "from repro.circuit import Circuit\nfrom ..geometry import Vec3\n",
    }
    assert _found(sources) == []


def test_unparsable_module_fails_the_walk():
    with pytest.raises(SyntaxError) as raised:
        architecture_violations({"repro/peec/broken.py": "def f(:\n"})
    assert raised.value.filename == "repro/peec/broken.py"


def test_layer_table_matches_docs():
    text = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text(encoding="utf-8")
    documented: dict[str, int] = {}
    for match in re.finditer(r"^\| (\d+) \| ([a-z, ]+) \|$", text, re.MULTILINE):
        for package in match.group(2).split(","):
            documented[package.strip()] = int(match.group(1))
    assert documented == ARCH_LAYERS
    cross = re.search(r"Cross-cutting \(importable from every layer\): (.+)\.", text)
    assert cross is not None
    assert {p.strip() for p in cross.group(1).split(",")} == CROSS_CUTTING
