"""The import conventions (DESIGN.md, "Import conventions").

Packages export lazily from one ``{module: names}`` table each
(:func:`repro._lazy.attach`), and ``src`` imports every name from the
module that defines it.  What each command may load is pinned by
``tests/test_cli.py::TestNoScipy``.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent
PACKAGES = sorted(
    ".".join(("repro", *init.parent.relative_to(SRC).parts))
    for init in SRC.rglob("__init__.py")
)


def _package_dir(package: str) -> Path:
    return SRC.joinpath(*package.split(".")[1:])


def _export_table(package: str) -> tuple[dict, tuple]:
    """The ``attach`` table and submodules of ``package``'s ``__init__``."""
    tree = ast.parse((_package_dir(package) / "__init__.py").read_text())
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "attach"
        ):
            submodules = ()
            for keyword in node.keywords:
                if keyword.arg == "submodules":
                    submodules = ast.literal_eval(keyword.value)
            return ast.literal_eval(node.args[1]), submodules
    raise AssertionError(f"{package}/__init__.py calls no attach()")


# Runs in a fresh interpreter that imports every submodule *before* it
# reads any export: importing a submodule binds it as a package
# attribute, so a name that is also a submodule's name would read as
# the module.  In the test process, earlier tests decide that order.
CHECK = """
import importlib, inspect, json, pkgutil, sys
import repro

packages, tables = json.loads(sys.argv[1]), json.loads(sys.argv[2])
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if not info.name.endswith("__main__"):
        importlib.import_module(info.name)
problems = {}
for package in packages:
    pkg = importlib.import_module(package)
    exports, submodules = tables[package]
    out = problems[package] = []
    seen = set()
    for source, names in exports.items():
        module = importlib.import_module(source, package)
        for name in names:
            if name in seen:
                out.append(f"{name} is listed twice")
            seen.add(name)
            if not hasattr(module, name):
                out.append(f"{module.__name__} has no {name}")
                continue
            obj = getattr(module, name)
            if getattr(pkg, name) is not obj:
                out.append(f"{package}.{name} is not {module.__name__}.{name}")
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if obj.__module__ != module.__name__:
                    out.append(
                        f"{name} is defined in {obj.__module__}, "
                        f"not {module.__name__}"
                    )
    for sub in submodules:
        if getattr(pkg, sub) is not importlib.import_module(f"{package}.{sub}"):
            out.append(f"{package}.{sub} is not the submodule")
    missing = sorted(set(pkg.__all__) - set(dir(pkg)))
    if missing:
        out.append(f"dir() lacks {missing}")
    for name in pkg.__all__:
        if not hasattr(pkg, name):
            out.append(f"__all__ names {name}, which does not resolve")
print(json.dumps(problems))
"""


@pytest.fixture(scope="module")
def export_problems() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC.parent), env.get("PYTHONPATH")])
    )
    tables = {package: _export_table(package) for package in PACKAGES}
    proc = subprocess.run(
        [sys.executable, "-c", CHECK, json.dumps(PACKAGES), json.dumps(tables)],
        capture_output=True,
        env=env,
        timeout=120,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("package", PACKAGES)
def test_exports_are_the_defining_modules_objects(export_problems, package):
    assert export_problems[package] == []


def _defined_names(init: Path) -> set[str]:
    """Names a package ``__init__`` binds itself (not by import)."""
    names: set[str] = set()
    for node in ast.parse(init.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        names.add(leaf.id)
    return names


def _imported_module(path: Path, node: ast.ImportFrom) -> str:
    if node.level == 0:
        return node.module or ""
    parts = ["repro", *path.relative_to(SRC).with_suffix("").parts]
    if path.name == "__init__.py":
        parts = parts[:-1]  # a package's own name is its directory.
    base = parts[: len(parts) - node.level + (path.name == "__init__.py")]
    return ".".join(base + ([node.module] if node.module else []))


def test_src_imports_names_from_their_defining_modules():
    """``from pkg import name`` names a submodule of ``pkg`` or a name
    its ``__init__`` defines itself -- never a lazy re-export, which
    archlint's ``--project`` graph cannot follow."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = _imported_module(path, node)
            if module != "repro" and not module.startswith("repro."):
                continue
            package_dir = _package_dir(module)
            init = package_dir / "__init__.py"
            if not init.is_file():
                continue  # a plain module: the name is defined there.
            defined = _defined_names(init)
            for alias in node.names:
                name = alias.name
                if (
                    name in defined
                    or (package_dir / f"{name}.py").is_file()
                    or (package_dir / name / "__init__.py").is_file()
                ):
                    continue
                offenders.append(
                    f"{path.relative_to(SRC.parent)}:{node.lineno}: "
                    f"{name} through {module}"
                )
    assert offenders == []
