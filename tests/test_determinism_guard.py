"""Results repeat bitwise only while the package sums with plain numpy
reductions in a fixed order: no BLAS, whose blocking and threading can change
the order of a sum from run to run or machine to machine, and no threads or
worker processes of its own.  This test parses every module of the package
and fails on a matrix product (the ``@`` operator or a call to ``dot``,
``matmul``, ``einsum``, ``tensordot``, ``inner`` or ``vdot``) and on an
import of ``threading``, ``multiprocessing`` or ``concurrent``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nlftl"
BLAS_CALLS = {"dot", "matmul", "einsum", "tensordot", "inner", "vdot"}
CONCURRENCY = {"threading", "multiprocessing", "concurrent"}


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
