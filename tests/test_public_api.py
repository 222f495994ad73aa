"""The package's definitions, public or private, and its runtime
dependencies stay only as large as the program itself needs."""

import ast
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import skewflow
from skewflow.cli import main
from skewflow.verify import run_suite

ROOT = Path(__file__).resolve().parents[1]
USERS = ("src", "demos", "perfbench")

def _references(tree):
    """Names a module uses, leaving out each definition's own body.

    A name counts where it is read as a variable or an attribute, or given
    as a string (a patch by attribute name, a string annotation).  Import
    aliases and the strings of an __all__ list are not uses, and neither is
    a function or class naming itself inside its own body.
    """
    found = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            name = None
        if name is not None and name not in inside:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return found


def _used_names():
    used = set()
    for top in USERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            if "tests" in path.relative_to(ROOT).parts:
                continue
            used |= _references(ast.parse(path.read_text(), filename=str(path)))
    return used


def _definitions():
    """(module, name) of each module-level function, class and constant of the package."""
    found = []
    for path in sorted((ROOT / "src" / "skewflow").glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [
                    name.id for target in targets for name in ast.walk(target)
                    if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)
                ]
            else:
                continue
            found += [(path.stem, name) for name in names if name != "__all__"]
    return found


def test_every_export_has_a_caller_outside_tests():
    # every module-level definition, private ones included, not only __all__
    used = _used_names()
    unused = [
        f"{module}.{name}" for module, name in _definitions()
        if name not in used
    ]
    assert unused == [], f"defined but used only by tests: {unused}"


def _package_nodes():
    """(node, where) for every AST node of the package; where names the
    module and the definitions enclosing the node."""

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}"
        yield node, where
        for child in ast.iter_child_nodes(node):
            yield from visit(child, where)

    for path in sorted((ROOT / "src" / "skewflow").glob("*.py")):
        yield from visit(ast.parse(path.read_text(), filename=str(path)), path.stem)


def _readers(name):
    """Where the package reads a variable of this name."""
    return {
        where for node, where in _package_nodes()
        if isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load)
    }


def test_one_rank_rule():
    # every rank decision goes through the one function that reads
    # NULLSPACE_TOL; no module keeps a rank or determinant test of its own
    readers = _readers("NULLSPACE_TOL")
    calls = [
        f"{where}: {ast.unparse(node)}" for node, where in _package_nodes()
        if isinstance(node, ast.Attribute) and node.attr in ("matrix_rank", "det")
    ]
    assert len(readers) == 1 and "." in next(iter(readers)), readers
    assert calls == []


def test_one_hessian():
    # the flow has one second derivative, restricted to each round's basis:
    # one builder, and no Kronecker assembly anywhere in the package
    krons = [
        f"{where}: {ast.unparse(node)}" for node, where in _package_nodes()
        if isinstance(node, ast.Call) and "kron" in ast.unparse(node.func)
    ]
    builders = [
        node.name for node, where in _package_nodes()
        if where.startswith("flow.") and isinstance(node, ast.FunctionDef)
        and "hessian" in node.name
    ]
    assert krons == []
    assert builders == ["_hessian"]


def test_one_scale_rule():
    # every residual test goes through the one function that reads
    # _RESIDUAL_TOL, against its inputs' norms: no scale is clamped at 1,
    # and the tests that follow the rule take no tolerance of their own
    readers = _readers("_RESIDUAL_TOL")
    clamps = [
        f"{where}: {ast.unparse(node)}" for node, where in _package_nodes()
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "max"
        and any(isinstance(a, ast.Constant) and a.value == 1 for a in node.args)
    ]
    assert len(readers) == 1 and "." in next(iter(readers)), readers
    assert clamps == []
    assert "tol" not in inspect.signature(skewflow.semidirect_extension).parameters


def test_no_tolerance_settings():
    # the certificate follows the one scale rule: no call and no command
    # takes a tolerance of its own
    signatures = {
        fn.__name__: list(inspect.signature(fn).parameters)
        for fn in (skewflow.criticality, skewflow.flow, skewflow.flow_batch,
                   run_suite)
    }
    assert signatures == {
        "criticality": ["mu"], "flow": ["mu0"], "flow_batch": ["inputs"],
        "run_suite": ["only", "seed"],
    }
    assert not hasattr(skewflow, "FlowParams")
    for argv in (["flow", "--catalog", "g6"], ["classify", "--catalog", "g6"], ["verify"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--crit-tol", "1e-9"])
        assert exc.value.code == 1


def test_verify_states_no_known_answer():
    # verify reads every expected type and value from the catalog; only the
    # semidirect extension, which has no catalog entry, states its own type
    built = [
        f"{where}: {ast.unparse(node)}" for node, where in _package_nodes()
        if where.split(".")[0] == "verify" and where != "verify._check_semidirect"
        and isinstance(node, ast.Call)
        and any(
            isinstance(n, ast.Name) and n.id in ("CriticalType", "Fraction")
            for n in ast.walk(node.func)
        )
    ]
    assert built == []


def _third_party_imports():
    """Top-level names of the absolute non-stdlib imports in the package."""
    found = set()
    for path in sorted((ROOT / "src" / "skewflow").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                found |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    return found - set(sys.stdlib_module_names) - {"skewflow"}


def test_runtime_dependencies_are_what_the_package_imports():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
        for req in project["dependencies"]
    }
    assert _third_party_imports() == declared


def test_running_the_package_loads_no_scipy():
    # scipy ships its own OpenBLAS, whose thread pool contends with numpy's;
    # the package must run on numpy's LAPACK alone
    code = """
import sys
import skewflow, skewflow.cli, skewflow.verify
from skewflow import criticality, derivation_algebra, flow, random_tensor, structure_invariants

mu = random_tensor(4, 0)
assert flow(mu).converged
criticality(mu)
basis = derivation_algebra(mu)
basis.complex_basis, basis.hermitian_basis
structure_invariants(mu)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    src = str(Path(skewflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
