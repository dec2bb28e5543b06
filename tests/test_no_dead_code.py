"""Every function, class, constant and import in the package is used by the
package or the benchmark.

A non-dunder function, method or class defined in src/pseudoplanar must
appear as a NAME token other than at its own definition in src/ or
perfbench/, or be named in ALLOWED_TEST_ONLY with the reason it stays.  A
use in tests/ does not count: a definition that only the tests reach is a
test oracle, and belongs in tests/oracles.py.  The match is by name only,
so a name shared by two definitions counts as used when either is used.

A non-dunder name bound by a module-level assignment in a package module
must be read (a Name load or an attribute) in src/ or perfbench/.

A module-level import in a package module other than __init__.py (which
imports to re-export) must be read in that module: the name it binds must
occur as a Name node outside the import.
"""

import ast
import token
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pseudoplanar"
SEARCHED = ("src", "perfbench")

# Public algebra of exported classes that neither the package nor the
# benchmark calls; the tests reach it.
ALLOWED_TEST_ONLY = {
    "convolve": "GroupVec product; the traced benchmark patches it by name",
    "involute": "GroupVec negation, the other half of the group-ring algebra",
    "delta": "GroupVec constructor of a point mass",
    "indicator": "GroupVec constructor of a 0/1 set",
    "full_group": "GroupVec constructor of the whole ring",
    "classes": "Partition6 class vectors, built on demand from the labels",
    "rel_trace": "GF2n relative trace of the cubic tower F_{2^3m} / F_{2^m}",
    "rel_norm": "GF2n relative norm of the same tower",
    "frobenius": "GR4 Frobenius automorphism, beside add and mul",
}


def _package_trees():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def _searched_files():
    for top in SEARCHED:
        yield from sorted((ROOT / top).rglob("*.py"))


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _defined_names() -> dict[str, str]:
    """name -> "file:line" of one definition, for every def and class."""
    out = {}
    for path, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not _is_dunder(node.name):
                    out.setdefault(node.name, f"{path.relative_to(ROOT)}:{node.lineno}")
    return out


def _used_names() -> set[str]:
    """NAME tokens in every searched file, except the name after def/class."""
    used = set()
    for path in _searched_files():
        prev = None
        with path.open("rb") as fh:
            for tok in tokenize.tokenize(fh.readline):
                if tok.type == token.NAME and prev not in ("def", "class"):
                    used.add(tok.string)
                if tok.type not in (tokenize.NL, tokenize.COMMENT):
                    prev = tok.string
    return used


def test_every_definition_is_used():
    used = _used_names()
    dead = sorted(
        f"{where} {name}" for name, where in _defined_names().items()
        if name not in used and name not in ALLOWED_TEST_ONLY
    )
    assert dead == [], "defined but never used:\n" + "\n".join(dead)


def test_the_allowlist_names_only_test_only_definitions():
    defined, used = _defined_names(), _used_names()
    stale = sorted(
        name for name in ALLOWED_TEST_ONLY if name not in defined or name in used
    )
    assert stale == [], "allowed but defined nowhere or used:\n" + "\n".join(stale)


def _module_constants() -> dict[str, str]:
    """name -> "file:line" of each module-level assignment target."""
    out = {}
    for path, tree in _package_trees():
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not _is_dunder(name.id):
                        out.setdefault(name.id, f"{path.relative_to(ROOT)}:{node.lineno}")
    return out


def _read_names() -> set[str]:
    """Names loaded, and attributes taken, in every searched file."""
    read = set()
    for path in _searched_files():
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def test_every_module_constant_is_read():
    read = _read_names()
    dead = sorted(
        f"{where} {name}" for name, where in _module_constants().items()
        if name not in read
    )
    assert dead == [], "assigned but never read:\n" + "\n".join(dead)


def _unused_imports(path: Path) -> list[str]:
    """Each module-level import the module never reads, as "file:line name"."""
    tree = ast.parse(path.read_text(), filename=str(path))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    out = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    out.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    return out


def test_every_module_import_is_used():
    unused = [
        entry
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for entry in _unused_imports(path)
    ]
    assert unused == [], "imported but never used:\n" + "\n".join(unused)
