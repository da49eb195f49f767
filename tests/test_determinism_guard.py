"""Results repeat bitwise only while the package sums with plain numpy
reductions in a fixed order: no BLAS, whose blocking and threading can change
the order of a sum from run to run or machine to machine, and no threads or
worker processes of its own.  This test parses every module of the package
and fails on a matrix product (the ``@`` operator or a call to ``dot``,
``matmul``, ``einsum``, ``tensordot``, ``inner`` or ``vdot``) and on an
import of ``threading``, ``multiprocessing`` or ``concurrent``.

It also fails on any import of ``scipy`` or one of its submodules, function
bodies included: numpy is the package's only runtime dependency, and scipy
serves the tests alone, as the reference some results are checked against.

Last, it fails on a function with a parameter named after a tolerance behind
a gate (the Courant number, the integrator tolerances, the guard floor of the
entropy audit, the gap slack): those are module constants, and a keyword
would let a caller loosen the check they set.  The same goes for a term cap
(``max_terms``) or a work ratio (``ratio``) of the Gauss-Taylor sums: one
accuracy rule in ``nlftl.gauss_sums`` picks every order from R alone, and a
cap or a ratio per caller would bring back the crossovers that rule replaced.

And it fails where a module other than ``gauss_sums`` reads a name of
``gauss_sums`` outside its public set: the work area it shares between the
two sums, its block sizes and its plan stay known to one module.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nlftl"
BLAS_CALLS = {"dot", "matmul", "einsum", "tensordot", "inner", "vdot"}
CONCURRENCY = {"threading", "multiprocessing", "concurrent"}
GATE_TOLERANCES = {"cfl", "rtol", "atol", "guard_floor", "eps_gap", "max_terms", "ratio"}
GAUSS_SUMS_PUBLIC = {"pair_sums", "pair_sum_order", "pair_sum_error", "jump_sums", "MAX_REACH", "MAX_ORDER"}


def imports_of(tree: ast.AST, packages: set[str]) -> list[str]:
    """Line-tagged absolute imports anywhere in ``tree``, function bodies
    included, of ``packages`` or any of their submodules."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [f"{node.lineno}: import {a.name}" for a in node.names if a.name.split(".")[0] in packages]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] in packages:
            found.append(f"{node.lineno}: from {node.module} import")
    return found


def findings(tree: ast.AST) -> list[str]:
    """Line-tagged matrix products, BLAS calls and concurrency imports in ``tree``."""
    found = imports_of(tree, CONCURRENCY)
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"{node.lineno}: @")
        elif isinstance(node, ast.Call):
            fn = node.func
            name = fn.attr if isinstance(fn, ast.Attribute) else fn.id if isinstance(fn, ast.Name) else None
            if name in BLAS_CALLS:
                found.append(f"{node.lineno}: {name}()")
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
    # no scipy import at all, at module level or in a function body
    assert imports_of(ast.parse(path.read_text(), filename=str(path)), {"scipy"}) == []


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
    assert len(imports_of(ast.parse(source), {"scipy"})) == 1


@pytest.mark.parametrize(
    "source, found",
    [
        ("import scipy", 1),
        ("from scipy import special", 1),
        ("def load():\n    from scipy.integrate import BDF\n    return BDF", 1),
        ("class C:\n    def f(self):\n        import scipy.fft", 1),
        ("from .sparse import diags_array", 0),
        ("import scipyx, numpy.fft", 0),
    ],
)
def test_guard_counts_scipy_imports_in_function_bodies_too(source, found):
    assert len(imports_of(ast.parse(source), {"scipy"})) == found


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
        "def plan(inv_width, lo, hi, max_terms=32): pass",
        "def plan(kernel, sources, targets, ratio): pass",
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


def private_gauss_sums_reads(tree: ast.AST) -> list[str]:
    """Line-tagged reads of names of ``gauss_sums`` outside ``GAUSS_SUMS_PUBLIC`` in ``tree``:
    attributes of the module under any name it is imported as, and names imported from it."""
    aliases = {"gauss_sums"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {a.asname for a in node.names if a.name.endswith(".gauss_sums") and a.asname}
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == "gauss_sums":
                found += [f"{node.lineno}: from gauss_sums import {a.name}" for a in node.names if a.name not in GAUSS_SUMS_PUBLIC]
            aliases |= {a.asname or a.name for a in node.names if a.name == "gauss_sums"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr not in GAUSS_SUMS_PUBLIC:
            owner = node.value
            if (isinstance(owner, ast.Name) and owner.id in aliases) or (isinstance(owner, ast.Attribute) and owner.attr == "gauss_sums"):
                found.append(f"{node.lineno}: gauss_sums.{node.attr}")
    return found


@pytest.mark.parametrize("path", sorted(set(PACKAGE.glob("*.py")) - {PACKAGE / "gauss_sums.py"}), ids=lambda p: p.name)
def test_only_gauss_sums_reads_its_private_names(path):
    assert private_gauss_sums_reads(ast.parse(path.read_text(), filename=str(path))) == []


@pytest.mark.parametrize(
    "source",
    [
        "a, w, pre = gauss_sums.work_arrays((20, 2, 100))",
        "rows = gauss_sums._BLOCK // n",
        "from .gauss_sums import work_arrays",
        "from nlftl.gauss_sums import pair_sums, _plan",
        "from . import gauss_sums as gs\np = gs._plan(kernel, x, x, 3.0)",
        "import nlftl.gauss_sums as gs\nstep, twin = gs._factors(19, 0.5)",
        "import nlftl\nf = nlftl.gauss_sums._basis",
    ],
)
def test_guard_catches_each_private_gauss_sums_read(source):
    assert len(private_gauss_sums_reads(ast.parse(source))) == 1


@pytest.mark.parametrize(
    "source",
    [
        "fwd, bwd = gauss_sums.pair_sums(x, kernel)",
        "w1, w2, p = gauss_sums.jump_sums(kernel, bp, coef, x)",
        "from .gauss_sums import MAX_ORDER, MAX_REACH, pair_sum_error, pair_sum_order",
        "work_arrays = other.work_arrays",
    ],
)
def test_guard_allows_the_public_gauss_sums_names(source):
    assert private_gauss_sums_reads(ast.parse(source)) == []
