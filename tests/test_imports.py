"""Static hygiene: no module of the package, the tests or the scripts keeps
an unused module-level import, no package module keeps a module-level
function or class that nothing reads, the exact classifier never imports
the floating-point mpmath, and every name the benchmark wraps or reads
exists."""

import ast
import importlib
import importlib.util
import pathlib
from collections import Counter

import pytest

import galcount

PACKAGE = pathlib.Path(galcount.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
ROOT = pathlib.Path(__file__).resolve().parents[1]


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items()) if name not in used]


def test_guard_flags_an_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == ["os (line 1)"]
    assert unused_imports("from a import b as c\nc()\n") == []


@pytest.mark.parametrize(
    "path",
    [*MODULES, *sorted((ROOT / "tests").glob("*.py")), *sorted((ROOT / "scripts").glob("*.py"))],
    ids=lambda p: p.name if p.parent == PACKAGE else f"{p.parent.name}/{p.name}",
)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def _read_names(tree: ast.AST) -> Counter:
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def unreferenced_definitions(modules: dict[str, str], others: list[str], names=()) -> list[str]:
    """Module-level functions and classes of `modules` (name -> source) that
    no code in `modules` or `others` reads outside their own definition, and
    whose name is not among `names`."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    read = Counter(names)
    for tree in [*trees.values(), *map(ast.parse, others)]:
        read.update(_read_names(tree))
    return [
        f"{name}.{node.name} (line {node.lineno})"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and read[node.name] == _read_names(node)[node.name]
    ]


def test_guard_flags_an_unreferenced_definition():
    module = "def used():\n    return 1\n\n\ndef dead(k):\n    return dead(k - 1)\n\n\nclass Kept:\n    pass\n"
    caller = "import m\nfrom m import used\nused()\nm.Kept()\n"
    assert unreferenced_definitions({"m": module}, [caller]) == ["m.dead (line 5)"]
    assert unreferenced_definitions({"m": module}, []) == ["m.used (line 1)", "m.dead (line 5)", "m.Kept (line 9)"]
    assert unreferenced_definitions({"m": module}, [caller], ["dead"]) == []


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_definition_is_referenced():
    """Every module-level function and class of src/galcount has a caller
    outside its own definition: code in src/, scripts/ or perfbench/, or a
    name that perfbench/tracing.py wraps.  Tests do not count, so a function
    only tests call fails here."""
    modules = {path.stem: path.read_text() for path in sorted((ROOT / "src" / "galcount").glob("*.py"))}
    others = [path.read_text() for d in ("scripts", "perfbench") for path in sorted((ROOT / d).rglob("*.py"))]
    wrapped = [part for _, attr in _load_tracing().WRAPPED for part in attr.split(".")]
    assert unreferenced_definitions(modules, others, wrapped) == []


def test_galois_never_imports_mpmath():
    tree = ast.parse((PACKAGE / "galois.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module.split(".")[0])
    assert "mpmath" not in imported


def test_every_traced_name_resolves():
    """perfbench/tracing.py wraps (module, attribute) pairs of galcount by
    name; a renamed or removed one would crash every traced benchmark run."""
    tracing = _load_tracing()
    assert tracing.WRAPPED
    for home, attr in tracing.WRAPPED:
        obj = importlib.import_module(f"galcount.{home}")
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"{home}.{attr}"


def galcount_reads(source: str) -> set[str]:
    """Dotted names `<module>.<attr>...` read in `source` through a module
    bound by `from galcount import <module>` (at any depth of the file),
    under the module's own name."""
    tree = ast.parse(source)
    modules = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "galcount"
        for alias in node.names
    }
    reads = set()
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in modules:
            reads.add(".".join([modules[node.id], *reversed(chain)]))
    return reads


def test_guard_finds_galcount_reads():
    source = "def job():\n    from galcount import galois as g, cli\n    g.classify(1).status\n    cli.main([])\n    os.path.join()\n"
    assert galcount_reads(source) == {"galois.classify", "cli.main"}


def test_every_name_perfbench_reads_resolves():
    """perfbench/*.py reads galcount attributes by name, such as
    `galois.is_irreducible` in its correctness oracle; a removed one would
    fail every benchmark check without failing any other test."""
    files = sorted((ROOT / "perfbench").glob("*.py"))
    reads = set().union(*(galcount_reads(path.read_text()) for path in files))
    assert {"galois.is_irreducible", "galois.classify", "counting.compute_E", "cli.main"} <= reads
    for name in sorted(reads):
        home, *attrs = name.split(".")
        obj = importlib.import_module(f"galcount.{home}")
        for part in attrs:
            assert hasattr(obj, part), name
            obj = getattr(obj, part)
