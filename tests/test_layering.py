"""Module layering: every module imports only from lower layers, and
every definition in the package is referenced from it."""

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


# Names defined under src/pfluid/ that no code in the package refers to,
# each with the reason it stays.
UNREFERENCED_OK = {
    "fenchel_young_check": "README checker",
    "quasi_norm_suite": "README checker",
    "weak_residual_check": "README checker",
    "inf_sup_constant": "README checker",
    "interpolate": "reference interpolant of the tests",
    "phi_prime": "N-function API, covered by the property tests",
    "hess_u": "exact-solution field, checked against sympy by the tests",
    "grad_q": "exact-solution field, checked against sympy by the tests",
}


def unreferenced_names(sources):
    """Functions, classes, methods (dunders excluded), module-level
    UPPER_CASE constants and dataclass fields of the given {file name:
    source} that no code names: no ``ast.Name`` that is read, and no
    ``ast.Attribute`` or keyword argument, outside ``__init__.py``, whose
    re-exports do not count, carries the name.  Comments and docstrings
    are not code; f-strings, base classes and decorators are."""
    defs, used = set(), set()
    for fname, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            defs.update(t.id for t in targets
                        if isinstance(t, ast.Name) and t.id.isupper())
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))):
                defs.add(node.name)
                if isinstance(node, ast.ClassDef) and any(
                        ast.unparse(d).startswith("dataclass")
                        for d in node.decorator_list):
                    defs.update(f.target.id for f in node.body
                                if isinstance(f, ast.AnnAssign)
                                and isinstance(f.target, ast.Name))
            if fname == "__init__.py":
                continue
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.keyword):
                used.add(node.arg)
    return sorted(defs - used)


def test_unreferenced_names_parser():
    sources = {
        "a.py": "def used():\n    pass\n\ndef dead():\n    return used()\n",
        "b.py": "class Kept:\n    def only_here(self):\n        pass\n"
                "    def __repr__(self):\n        return ''\n\nx = Kept()\n",
        "c.py": "class Base:\n    pass\n\nclass Child(Base):\n"
                "    \"\"\"Uses prose_only, in prose only.\"\"\"\n\n"
                "def prose_only():\n    pass  # prose_only()\n\n"
                "def in_fstring():\n    pass\n\ny = f\"{in_fstring()} {Child}\"\n",
        "d.py": "from dataclasses import dataclass\n\nLIMIT = 3\nSTORED = 4\n"
                "lower = 5\n\n@dataclass\nclass Rec:\n    n: int\n"
                "    by_keyword: int = 0\n    unread: int = 0\n    KIND = 'x'\n\n"
                "r = Rec(1, by_keyword=LIMIT)\nr.n += 1\n",
        "__init__.py": "from .a import dead\nfrom .b import only_here\n"
                       "from .d import STORED, unread\n",
    }
    assert unreferenced_names(sources) == [
        "STORED", "dead", "only_here", "prose_only", "unread"]


def test_every_definition_is_referenced():
    src = Path(pfluid.__file__).parent
    sources = {p.name: p.read_text() for p in sorted(src.glob("*.py"))}
    found = set(unreferenced_names(sources))
    dead = found - set(UNREFERENCED_OK)
    assert not dead, f"defined but never referenced in src/pfluid: {sorted(dead)}"
    stale = set(UNREFERENCED_OK) - found
    assert not stale, f"allowlisted names that are referenced now: {sorted(stale)}"
