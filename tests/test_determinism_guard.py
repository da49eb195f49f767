"""Results repeat bitwise only while the package sums with plain numpy
reductions in a fixed order: no BLAS, whose blocking and threading can change
the order of a sum from run to run or machine to machine, and no threads or
worker processes of its own.  This test parses every module of the package
and fails on a matrix product (the ``@`` operator or a call to ``dot``,
``matmul``, ``einsum``, ``tensordot``, ``inner`` or ``vdot``) and on an
import of ``threading``, ``multiprocessing`` or ``concurrent``.

It also fails on an import of ``scipy.fft``, ``scipy.integrate``,
``scipy.sparse`` or ``scipy.linalg`` that runs when a module is imported,
rather than inside a function: each costs tenths of a second that
``import nlftl``, every run and every CLI error would pay.

Last, it fails on a function with a parameter named after a tolerance behind
a gate (the Courant number, the integrator tolerances, the guard floor of the
entropy audit, the gap slack): those are module constants, and a keyword
would let a caller loosen the check they set.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nlftl"
BLAS_CALLS = {"dot", "matmul", "einsum", "tensordot", "inner", "vdot"}
CONCURRENCY = {"threading", "multiprocessing", "concurrent"}
LAZY = ("scipy.fft", "scipy.integrate", "scipy.sparse", "scipy.linalg")
GATE_TOLERANCES = {"cfl", "rtol", "atol", "guard_floor", "eps_gap"}


def findings(tree: ast.AST) -> list[str]:
    """Line-tagged matrix products, BLAS calls and concurrency imports in ``tree``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"{node.lineno}: @")
        elif isinstance(node, ast.Call):
            fn = node.func
            name = fn.attr if isinstance(fn, ast.Attribute) else fn.id if isinstance(fn, ast.Name) else None
            if name in BLAS_CALLS:
                found.append(f"{node.lineno}: {name}()")
        elif isinstance(node, ast.Import):
            found += [f"{node.lineno}: import {a.name}" for a in node.names if a.name.split(".")[0] in CONCURRENCY]
        elif isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] in CONCURRENCY:
            found.append(f"{node.lineno}: from {node.module} import")
    return found


def is_lazy(module: str) -> bool:
    return any(module == m or module.startswith(m + ".") for m in LAZY)


def eager_imports(tree: ast.AST) -> list[str]:
    """Line-tagged imports of the ``LAZY`` modules outside function bodies in ``tree``."""
    found = []
    stack = [tree]
    while stack:
        node = stack.pop()
        stack += [c for c in ast.iter_child_nodes(node) if not isinstance(c, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))]
        if isinstance(node, ast.Import):
            found += [f"{node.lineno}: import {a.name}" for a in node.names if is_lazy(a.name)]
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            if is_lazy(node.module) or any(is_lazy(f"{node.module}.{a.name}") for a in node.names):
                found.append(f"{node.lineno}: from {node.module} import")
    return found


def tolerance_parameters(tree: ast.AST) -> list[str]:
    """Line-tagged parameters named in ``GATE_TOLERANCES``, of any kind, of every function in ``tree``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
            found += [f"{p.lineno}: {p.arg}" for p in params if p.arg in GATE_TOLERANCES]
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_uses_no_blas_and_no_threads(path):
    assert findings(ast.parse(path.read_text(), filename=str(path))) == []


@pytest.mark.parametrize(
    "source",
    [
        "y = a @ b",
        "a @= b",
        "y = np.dot(a, b)",
        "y = a.dot(b)",
        "from numpy import einsum\ny = einsum('ij,j', a, b)",
        "y = np.linalg.matmul(a, b)",
        "y = np.tensordot(a, b, 1)",
        "y = np.inner(a, b)",
        "y = np.vdot(a, b)",
        "import threading",
        "import multiprocessing.pool",
        "from concurrent.futures import ThreadPoolExecutor",
    ],
)
def test_guard_catches_each_forbidden_form(source):
    assert len(findings(ast.parse(source))) == 1


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_imports_no_scipy_solver_at_module_level(path):
    assert eager_imports(ast.parse(path.read_text(), filename=str(path))) == []


@pytest.mark.parametrize(
    "source",
    [
        "import scipy.fft",
        "import numpy, scipy.integrate as si",
        "import scipy.sparse.linalg",
        "from scipy.sparse import diags_array",
        "from scipy import fft",
        "from scipy.integrate._ivp import BDF",
        "if True:\n    import scipy.integrate",
        "class C:\n    from scipy.sparse import csc_array",
        "from scipy.linalg import lu_factor",
    ],
)
def test_guard_catches_each_eager_import(source):
    assert len(eager_imports(ast.parse(source))) == 1


@pytest.mark.parametrize(
    "source",
    [
        "import scipy",
        "from scipy import special",
        "def load():\n    from scipy.integrate import BDF\n    return BDF",
        "class C:\n    def f(self):\n        import scipy.fft",
        "from .sparse import diags_array",
    ],
)
def test_guard_allows_imports_inside_functions(source):
    assert eager_imports(ast.parse(source)) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_keyword_changes_a_gate_tolerance(path):
    assert tolerance_parameters(ast.parse(path.read_text(), filename=str(path))) == []


@pytest.mark.parametrize(
    "source",
    [
        "def cfl_dt(grid, fields, mobility, cfl, cap_dt): pass",
        "def integrate(state, t_end, *, rtol=1e-8): pass",
        "def solve(y, atol, /): pass",
        "async def audit(reports, guard_floor=1e-6): pass",
        "check = lambda gaps, eps_gap: gaps > eps_gap",
        "class Run:\n    def step(self, cfl=0.45): pass",
        "def outer():\n    def inner(rtol): pass",
        "def run(*rtol): pass",
        "def run(**atol): pass",
    ],
)
def test_guard_catches_each_tolerance_parameter(source):
    assert len(tolerance_parameters(ast.parse(source))) == 1


@pytest.mark.parametrize(
    "source",
    [
        "def step(grid, fields, cap_dt): return _CFL * grid.dx",
        "def integrate(state, **kwargs): return solver(state, rtol=_RTOL)",
        "cfl = 0.45",
    ],
)
def test_guard_allows_tolerances_as_constants_and_call_keywords(source):
    assert tolerance_parameters(ast.parse(source)) == []
