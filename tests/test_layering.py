"""Module layering: every module imports only from lower layers."""

import ast
from pathlib import Path

import pfluid

LAYERS = {
    "mesh": 0, "pstructure": 0, "fespace": 0, "tables": 0,
    "assembly": 1,
    "stepper": 2,
    "verification": 3,
    "cli": 4,
}


def package_imports(source):
    """Package modules a module imports, nested imports included."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            parts = [a.name.split(".") for a in node.names]
            names.update(p[1] for p in parts if p[0] == "pfluid" and len(p) > 1)
        elif isinstance(node, ast.ImportFrom):
            parts = node.module.split(".") if node.module else []
            if node.level == 0:
                if parts[:1] != ["pfluid"]:
                    continue
                parts = parts[1:]
            names.update(parts[:1] or [a.name for a in node.names])
    return names


def test_package_imports_parser():
    source = (
        "import numpy\n"
        "from . import assembly\n"
        "from .fespace import FESpace\n"
        "def f():\n"
        "    from pfluid.stepper import run_simulation\n"
        "    import pfluid.cli\n"
        "    from pfluid import tables\n"
    )
    assert package_imports(source) == {"assembly", "fespace", "stepper", "cli", "tables"}


def test_modules_import_only_lower_layers():
    src = Path(pfluid.__file__).parent
    modules = {p.stem for p in src.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)
    for name in sorted(modules):
        for dep in package_imports((src / f"{name}.py").read_text()):
            assert LAYERS[dep] < LAYERS[name], f"{name} imports {dep}"
