"""Source checks no installed linter makes: unused imports, stray asserts,
private helpers that nothing calls, public functions only tests call."""

import ast
import inspect
from pathlib import Path

import transversals

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "transversals"


def _modules():
    for folder in (PACKAGE, ROOT / "tests", ROOT / "demos"):
        for path in sorted(folder.glob("*.py")):
            if path != PACKAGE / "__init__.py":  # its imports are the public API
                yield path, ast.parse(path.read_text(), str(path))


def test_no_unused_imports():
    unused = []
    for path, tree in _modules():
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in read:
                        unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert unused == []


def test_no_package_module_imports_numpy():
    # the package's one runtime need of numpy, the samplers' generator, is
    # written out in _rng; numpy stays a test dependency
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "numpy" for a in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy"
    ]
    assert found == []


def test_package_has_no_assert_statements():
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path, tree in _modules() if path.parent == PACKAGE
        for node in ast.walk(tree) if isinstance(node, ast.Assert)
    ]
    assert found == []


def _read_names(trees) -> set:
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return read


def test_every_private_helper_is_read():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}
    read = _read_names(trees.values())
    unread = [
        f"{path.relative_to(ROOT)}:{node.lineno} {node.name}"
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
        and node.name not in read
    ]
    assert unread == []


# the public functions that no module of the package calls, and why each stays
UNCALLED_PUBLIC = {
    "chernoff_bounds": "paper calculator: the two lower-tail bounds behind the samplers",
    "pm_bounded_degree_floor": "paper calculator: the 10 log m + 6 degree floor of the matching count",
    "gen_bipartite_pm_family": "generator: the matching families the pm sampler is shown on",
    "enumerate_all_pm_transversals": "oracle reference: lists what count_pm_transversals counts",
    "permanent": "oracle reference: the matching count it equals; the benchmark reads it",
    "omega_admissibility_matrix": "oracle reference: the matrix whose permanent that is; the benchmark reads it",
}


def test_every_public_function_is_called_in_the_package():
    # a function exported only for tests or demos belongs in tests/
    read = _read_names(tree for path, tree in _modules() if path.parent == PACKAGE)
    # unwrap: a cached function, such as core.planted, is no plain function
    public = {name for name in transversals.__all__ if inspect.isfunction(inspect.unwrap(getattr(transversals, name)))}
    assert sorted(public - read - UNCALLED_PUBLIC.keys()) == []
    assert sorted(UNCALLED_PUBLIC.keys() - (public - read)) == []


def test_no_function_imports_from_the_package():
    # a module-level name is what the benchmark tracer rebinds; a
    # function-local import would look the name up where it is defined
    found = set()  # a nested function's imports are met twice
    for path, tree in _modules():
        if path.parent != PACKAGE:
            continue
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                own = (
                    isinstance(node, ast.ImportFrom)
                    and (node.level > 0 or (node.module or "").split(".")[0] == "transversals")
                ) or (
                    isinstance(node, ast.Import)
                    and any(a.name.split(".")[0] == "transversals" for a in node.names)
                )
                if own:
                    found.add(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert sorted(found) == []


def test_only_the_json_writer_indents():
    # every indented JSON the package emits comes from cli._json_text
    found = []
    for path, tree in _modules():
        if path.parent != PACKAGE:
            continue
        writer = {
            id(node)
            for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) and fn.name == "_json_text"
            for node in ast.walk(fn)
        }
        found += [
            f"{path.relative_to(ROOT)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and id(node) not in writer
            and any(k.arg == "indent" for k in node.keywords)
        ]
    assert found == []
