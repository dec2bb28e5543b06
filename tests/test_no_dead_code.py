"""Every function, class, method, class attribute, constant and import in
the package is used by the package or the benchmark.

A non-dunder function or class defined in src/pseudoplanar must appear as a
NAME token other than at its own definition in src/ or perfbench/.  A
non-dunder method of a package class, or a name bound in a class body (a
class attribute or dataclass field), must be read as an attribute (.name)
in src/ or perfbench/: a bare NAME that happens to share its name, such as
a local variable, does not count.  Either may instead be named in
ALLOWED_TEST_ONLY, methods as "Class.name", with the reason it stays.  A
use in tests/ does not count: a definition that only the tests reach is a
test oracle, and belongs in tests/oracles.py.

An attribute read R.name counts for a member Class.name by what R is:
- R names a package class (SparsePoly, api.SparsePoly), or is self or cls
  in a class body: that class's member only;
- R is a name an import binds (np, sch): no member, for np.add is numpy's;
- R is args, the argparse Namespace of the CLI and the benchmark: no
  member, for args.trace is a command-line option;
- R is anything else, an instance: every class with a member of that name,
  except classmethods and staticmethods, which are read on their class,
  and names that a builtin type's method shares (seen.add is a set's).
So GroupVec.zero is not used through SparsePoly.zero or ring.zero, nor
GR4.add through np.add or seen.add, nor a trace method through args.trace.

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
    "GroupVec.square_of_set": "D^2 counted pair by pair, the oracle of build_partition's pair-sum check",
    "GroupVec.zero": "constructor of the empty multiset, beside delta and indicator",
    "GR4.add": "Teichmuller-pair addition, the scalar form of pair_sums; Z4Model checks both",
    "GroupVec.convolve": "group-ring product; the traced benchmark patches it by name",
    "GroupVec.involute": "negation, the other half of the group-ring algebra",
    "GroupVec.scale": "integer multiple, beside + and -; the S_1 identity oracle uses it",
    "GroupVec.delta": "constructor of a point mass",
    "GroupVec.indicator": "constructor of a 0/1 set",
    "GroupVec.full_group": "constructor of the whole ring",
    "Partition6.classes": "class vectors, built on demand from the labels",
    "GF2n.inv": "multiplicative inverse, beside mul; the Moore-determinant oracle uses it",
    "GF2n.rel_trace": "relative trace of the cubic tower F_{2^3m} / F_{2^m}",
    "GF2n.rel_norm": "relative norm of the same tower",
    "GR4.frobenius": "Frobenius automorphism, beside add and mul",
    "GR4.neg": "negation, beside add and mul; neg_idx is its form on element indices",
}


def _package_trees():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def _searched_files():
    for top in SEARCHED:
        yield from sorted((ROOT / top).rglob("*.py"))


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _where(path: Path, node) -> str:
    return f"{path.relative_to(ROOT)}:{node.lineno}"


def _defined_names() -> dict[str, str]:
    """name -> "file:line" of one definition, for every def and class that
    is not a method."""
    out = {}
    for path, tree in _package_trees():
        methods = {
            id(node)
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for node in cls.body
        }
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not _is_dunder(node.name) and id(node) not in methods:
                    out.setdefault(node.name, _where(path, node))
    return out


def _class_members() -> dict[str, str]:
    """"Class.name" -> "file:line" for every method of a package class and
    every name bound in its body."""
    out = {}
    for path, tree in _package_trees():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names = [node.name]
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names = [t.id for t in targets if isinstance(t, ast.Name)]
                else:
                    continue
                for name in names:
                    if not _is_dunder(name):
                        out.setdefault(f"{cls.name}.{name}", _where(path, node))
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


_BUILTIN_METHODS = {
    name
    for typ in (set, frozenset, list, tuple, dict, str, bytes, int, float, complex)
    for name in dir(typ)
    if not name.startswith("_")
}


def _class_info() -> tuple[set[str], set[str]]:
    """The package's class names, and its classmethods and staticmethods
    as "Class.name"."""
    classes, on_class = set(), set()
    for _, tree in _package_trees():
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                classes.add(cls.name)
                on_class.update(
                    f"{cls.name}.{node.name}"
                    for node in cls.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and any(
                        isinstance(d, ast.Name) and d.id in ("classmethod", "staticmethod")
                        for d in node.decorator_list
                    )
                )
    return classes, on_class


def _attribute_reads(classes: set[str]) -> tuple[set[str], set[str]]:
    """The attribute reads (x.name) in every searched file, by receiver:
    "Class.name" for a receiver that names a package class, or is self or
    cls in its body, and a bare name for an instance receiver.  Reads on a
    name bound by an import, and on args, are left out."""
    typed, untyped = set(), set()

    def visit(node, owner, imported):
        if isinstance(node, ast.ClassDef):
            owner = node.name
        if isinstance(node, ast.Attribute):
            recv = node.value
            name = recv.id if isinstance(recv, ast.Name) else (
                recv.attr if isinstance(recv, ast.Attribute) else None
            )
            if name in classes:
                typed.add(f"{name}.{node.attr}")
            elif owner and isinstance(recv, ast.Name) and name in ("self", "cls"):
                typed.add(f"{owner}.{node.attr}")
            elif not (isinstance(recv, ast.Name) and (name in imported or name == "args")):
                untyped.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, owner, imported)

    for path in _searched_files():
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        visit(tree, None, imported)
    return typed, untyped


def _unused() -> dict[str, str]:
    """Every definition and class member that src/ and perfbench/ never use,
    allowlisted or not."""
    used = _used_names()
    classes, on_class = _class_info()
    typed, untyped = _attribute_reads(classes)
    out = {n: w for n, w in _defined_names().items() if n not in used}
    for key, where in _class_members().items():
        name = key.split(".")[1]
        instance_read = (
            name in untyped and key not in on_class and name not in _BUILTIN_METHODS
        )
        if key not in typed and not instance_read:
            out[key] = where
    return out


def test_every_definition_is_used():
    dead = sorted(
        f"{where} {name}" for name, where in _unused().items()
        if name not in ALLOWED_TEST_ONLY
    )
    assert dead == [], "defined but never used:\n" + "\n".join(dead)


def test_the_allowlist_names_only_test_only_definitions():
    defined = {**_defined_names(), **_class_members()}
    unused = _unused()
    stale = sorted(
        name for name in ALLOWED_TEST_ONLY if name not in defined or name not in unused
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
