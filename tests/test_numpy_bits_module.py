"""Everything that reproduces numpy's unpromised bits lives in one module,
``ghzsplit._numpy_bits``: no other module of the package defines what it
reproduces or imports what it reads, and the others reach it only through
a few named entry points. Read from the source with ``ast``."""

import ast
from pathlib import Path

import pytest

import ghzsplit

PACKAGE = Path(ghzsplit.__file__).resolve().parent
HOME = "_numpy_bits"
# the names each module imports from the home; no other module imports any
ENTRY_POINTS = {
    "cli": {"NumpyBitsError"},
    "protocol": {"trial_draws"},
    "statevec": {"summation_tree", "tree_sum"},
}
# the error, SeedSequence's hash, PCG64's closed form, the ziggurat's fast
# path, the per-block draw check and np.add.reduce's summation tree
REPRODUCTIONS = {
    "NumpyBitsError", "_hashmix", "_mix", "_pcg64_seeds", "_stacked_seeds",
    "_pcg64_coefficients", "_mulhi", "_pcg64_words", "_ziggurat_tables",
    "_ziggurat_normals", "trial_draws", "_reduce_order", "_pruned",
    "summation_tree", "tree_sum",
}
# SeedSequence's hash constants and PCG64's multiplier
CONSTANTS = {
    0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED, 0xCA01F9DD, 0x4973F715,
    0x2360ED051FC65DA44385DF649FCCF645,
}
# what only the home may import
HOME_IMPORTS = {"ghzsplit._ziggurat", "numpy.random.bit_generator"}


def tree(name: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{name}.py").read_text(), filename=f"{name}.py")


OTHERS = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != HOME)


def defined(module: ast.Module) -> set[str]:
    """The names a module defines: its functions and classes at any depth
    (a method's dunder name aside), and its module-level assignment
    targets."""
    names = {
        node.name
        for node in ast.walk(module)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("__")
    }
    for node in module.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names |= {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}
    return names


def imports(module: ast.Module) -> list[tuple[str, str | None, str | None]]:
    """(module, name, ``as`` name) per imported name, a relative module
    resolved inside the package; name None for ``import module``."""
    found = []
    for node in ast.walk(module):
        if isinstance(node, ast.Import):
            found += [(alias.name, None, alias.asname) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = ".".join(filter(None, ["ghzsplit", base]))
            found += [(base, alias.name, alias.asname) for alias in node.names]
    return found


def test_the_home_defines_every_reproduction_and_imports_no_other_module():
    home = tree(HOME)
    assert REPRODUCTIONS | set().union(*ENTRY_POINTS.values()) <= defined(home)
    constants = {n.value for n in ast.walk(home) if isinstance(n, ast.Constant)}
    assert CONSTANTS <= constants
    package = {(m, n) for m, n, _ in imports(home) if m.startswith("ghzsplit")}
    assert package == {("ghzsplit._ziggurat", "KI"), ("ghzsplit._ziggurat", "WI")}


@pytest.mark.parametrize("name", OTHERS)
def test_no_other_module_defines_a_reproduction(name):
    module = tree(name)
    assert defined(module) & defined(tree(HOME)) == set()
    constants = {n.value for n in ast.walk(module) if isinstance(n, ast.Constant)}
    assert constants & CONSTANTS == set()


@pytest.mark.parametrize("name", OTHERS)
def test_no_other_module_imports_what_the_home_reads(name):
    # `from numpy.random import bit_generator` and `from . import _ziggurat`
    # name the module as a name in its package
    found = [(m, n) for m, n, _ in imports(tree(name))]
    assert [(m, n) for m, n in found if m in HOME_IMPORTS] == []
    assert [(m, n) for m, n in found if f"{m}.{n}" in HOME_IMPORTS] == []


@pytest.mark.parametrize("name", OTHERS)
def test_other_modules_import_only_the_entry_points(name):
    module = tree(name)
    home = f"ghzsplit.{HOME}"
    found = imports(module)
    # the module object would let every name of the home through
    whole = {(home, None), ("ghzsplit", HOME)}
    assert [(m, n) for m, n, _ in found if (m, n) in whole] == []
    taken = {n for m, n, _ in found if m == home}
    assert taken == ENTRY_POINTS.get(name, set())
    # no alias: an entry point is bound to no second name
    assert [n for m, n, bound in found if m == home and bound not in (None, n)] == []
    aliased = [
        node.lineno
        for node in ast.walk(module)
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Name)
        and node.value.id in taken
    ]
    assert aliased == []
