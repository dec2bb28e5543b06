"""Every function, class and import in the package is used somewhere.

A non-dunder function, method or class defined in src/pseudoplanar must
appear as a NAME token other than at its own definition in src/, tests/ or
perfbench/.  The match is by name only, so a name shared by two
definitions counts as used when either is used.

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
SEARCHED = ("src", "tests", "perfbench")


def _defined_names() -> dict[str, str]:
    """name -> "file:line" of one definition, for every def and class."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")):
                    out.setdefault(name, f"{path.relative_to(ROOT)}:{node.lineno}")
    return out


def _used_names() -> set[str]:
    """NAME tokens in every searched file, except the name after def/class."""
    used = set()
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
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
        if name not in used
    )
    assert dead == [], "defined but never used:\n" + "\n".join(dead)


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
