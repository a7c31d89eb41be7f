"""Every import in the package is used by the module that makes it, every
error type it declares is raised, and the modules import one another in
one order, by public names only.

No linter is a dependency, so this walks each module's syntax tree: a name
bound by an import must appear as a name somewhere else in the module.
Re-exports are marked ``# noqa: F401`` on the import's first line.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "waveplatoon"


def unused_imports(source):
    """Names that ``source`` imports and never uses, in import order."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        imported += [(a.asname or a.name).split(".")[0] for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_are_found():
    source = (
        "import os\n"
        "import numpy as np\n"
        "from .a import b, c  # noqa: F401\n"
        "from .d import (\n"
        "    e,\n"
        "    f,\n"
        ")\n"
        "np.zeros(f)\n"
    )
    assert unused_imports(source) == ["os", "e"]


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name
)
def test_package_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def raised_names(source):
    """Names of the exceptions ``source`` raises, called or bare."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
    return names


def test_raised_names_are_found():
    source = (
        "try:\n"
        "    raise A('x')\n"
        "except A:\n"
        "    raise\n"
        "raise B\n"
        "C = 1\n"
    )
    assert raised_names(source) == {"A", "B"}


def test_every_error_type_is_raised():
    tree = ast.parse((PACKAGE / "errors.py").read_text())
    declared = [
        node.name for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name != "WavePlatoonError"
    ]
    raised = set()
    for path in PACKAGE.glob("*.py"):
        raised |= raised_names(path.read_text())
    assert declared
    assert [name for name in declared if name not in raised] == []


# the package's layers, lowest first: each module imports only siblings
# before it, so ``plant`` sees no sibling but ``errors`` and ``lti``
LAYERS = ("errors", "lti", "plant", "wave", "boundary", "sim", "metrics",
          "sweep", "verify", "cli")


def sibling_imports(source):
    """``(module, name)`` for each name ``source`` imports from a sibling
    module by a relative import."""
    return [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


def test_sibling_imports_are_found():
    source = (
        "import numpy as np\n"
        "from .a import b, _c\n"
        "from waveplatoon.d import e\n"
    )
    assert sibling_imports(source) == [("a", "b"), ("a", "_c")]


def test_layers_cover_the_package():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    assert sorted(LAYERS) == sorted(modules)


@pytest.mark.parametrize("module", LAYERS)
def test_modules_import_only_lower_layers(module):
    source = (PACKAGE / f"{module}.py").read_text()
    below = LAYERS[: LAYERS.index(module)]
    assert [m for m, _ in sibling_imports(source) if m not in below] == []


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name
)
def test_no_module_imports_a_private_name(path):
    names = sibling_imports(path.read_text())
    assert [(m, name) for m, name in names if name.startswith("_")] == []
