"""Package modules import one way: each may import only modules before it,
and only at module level."""

import ast
from pathlib import Path

import tensorstable

# linalg holds the see-saw, nonunital builds on criteria's verdict type, and
# maps.classify calls both the see-saw and nonunital.
ORDER = ["linalg", "criteria", "nonunital", "maps", "oracles", "witness", "cli"]


def relative_imports(module):
    """(imported module, whether the import sits inside a function) pairs."""
    tree = ast.parse((Path(tensorstable.__file__).parent / f"{module}.py").read_text())
    found = []

    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            nested = in_function or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            if isinstance(child, ast.ImportFrom) and child.level == 1:
                found.append((child.module, nested))
            visit(child, nested)

    visit(tree, False)
    return found


def test_every_module_is_ordered():
    package = Path(tensorstable.__file__).parent
    assert {p.stem for p in package.glob("*.py")} == set(ORDER) | {"__init__"}


def test_imports_follow_the_module_order():
    backward = [
        f"{module} -> {target}"
        for module in ORDER
        for target, _ in relative_imports(module)
        if ORDER.index(target) >= ORDER.index(module)
    ]
    assert backward == []


def test_no_sibling_import_sits_inside_a_function():
    lazy = [f"{module} -> {target}" for module in ORDER for target, nested in relative_imports(module) if nested]
    assert lazy == []


def module_tree(module):
    return ast.parse((Path(tensorstable.__file__).parent / f"{module}.py").read_text())


def sibling_imports(tree):
    """{name: sibling module} for every ``from .sibling import name`` in a module."""
    return {
        alias.asname or alias.name: node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }


def declared_all(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def test_no_module_reexports_a_sibling_name():
    reexported = []
    for module in ORDER:
        tree = module_tree(module)
        imported = sibling_imports(tree)
        reexported += [f"{module}.{name} (from {imported[name]})" for name in declared_all(tree) & set(imported)]
    assert reexported == []


def test_package_names_are_declared_by_their_module():
    undeclared = [
        f"{name} (from {source})"
        for name, source in sibling_imports(module_tree("__init__")).items()
        if not name.startswith("_") and name not in declared_all(module_tree(source))
    ]
    assert undeclared == []


def linalg_tolerances(tree):
    """linalg's module-level float constants: its tolerances and bands."""
    return {
        node.targets[0].id
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, float)
        and node.targets[0].id.isupper()
    }


def test_each_tolerance_has_one_owner_and_the_psd_bands_only_psd_verdict():
    """A tolerance read by two modules is a rule written out twice; the two
    bands ``psd_verdict`` reads are read through it alone."""
    tree = module_tree("linalg")
    tolerances = linalg_tolerances(tree)
    verdict = next(node for node in tree.body if getattr(node, "name", None) == "psd_verdict")
    psd_bands = tolerances & {node.id for node in ast.walk(verdict) if isinstance(node, ast.Name)}
    assert len(psd_bands) == 2
    readers = {name: [] for name in tolerances}
    for module in ["__init__", *ORDER[1:]]:
        for name, source in sibling_imports(module_tree(module)).items():
            if source == "linalg" and name in tolerances:
                readers[name].append(module)
    shared = {name: modules for name, modules in readers.items() if len(modules) > 1}
    assert shared == {} and [readers[name] for name in sorted(psd_bands)] == [[], []]
