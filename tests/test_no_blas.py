"""No BLAS or LAPACK call in the package.

OpenBLAS picks its kernels by CPU, so a result that passes through one
(a vector norm, a dot product, `@`, eigh, solve) can differ in its last
bits between machines, and est.csv and gt.csv with it. The package's
linear algebra is 3-vectors and 2x2 matrices, spelled out in a fixed
order of IEEE operations instead. This test reads the source of
`src/camvitals` and fails on any construct that reaches BLAS or LAPACK:
the `@` operator, numpy's dot-product family, the functions that call it
(np.convolve and np.correlate through the dtype's dot, np.cov), and any
np.linalg function other than `norm` with an `axis=` argument, which is
an element-wise reduction.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "camvitals"
NUMPY = ("np", "numpy")
# numpy functions that run a BLAS kernel
BLAS_FUNCTIONS = {"matmul", "dot", "vdot", "inner", "tensordot", "einsum", "convolve",
                  "correlate", "cov", "corrcoef", "poly", "polyfit"}


def _dotted(node):
    """"a.b.c" of an attribute chain on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id] + parts[::-1])


def blas_uses(source, filename="<source>"):
    """["file:line: what"] for every BLAS or LAPACK use in `source`."""
    tree = ast.parse(source, filename)
    allowed = set()   # the np.linalg.norm attribute nodes of norm(..., axis=...)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _dotted(node.func) in {f"{m}.linalg.norm"
                                                                for m in NUMPY}:
            if any(k.arg == "axis" for k in node.keywords):
                allowed.add(id(node.func))
    found = []
    for node in ast.walk(tree):
        what = None
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            what = "the @ operator"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "dot":
            what = ".dot("
        elif isinstance(node, ast.Attribute):
            name = _dotted(node)
            head, _, rest = (name or "").partition(".")
            if head in NUMPY and rest in BLAS_FUNCTIONS:
                what = name
            elif head in NUMPY and rest.startswith("linalg.") and id(node) not in allowed:
                what = f"{name} (only norm with axis= is element-wise)"
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = {a.name for a in node.names}
            if node.module in NUMPY and names & (BLAS_FUNCTIONS | {"linalg"}):
                what = f"from {node.module} import {', '.join(sorted(names))}"
            elif node.module.startswith(("numpy.linalg", "scipy.linalg")):
                what = f"from {node.module} import"
        elif isinstance(node, ast.Import):
            if any(a.name.startswith(("numpy.linalg", "scipy.linalg")) for a in node.names):
                what = "import of a linalg module"
        if what:
            found.append(f"{filename}:{node.lineno}: {what}")
    return sorted(found, key=lambda f: int(f.split(":")[1]))


def test_the_package_makes_no_blas_or_lapack_call():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += blas_uses(path.read_text(encoding="utf-8"), path.name)
    assert not found, "\n".join(found)


def test_the_guard_sees_each_kind_of_call():
    bad = ["x = means @ mu", "x @= m", "x = np.matmul(a, b)", "x = a.dot(b)",
           "x = np.dot(a, b)", "x = np.vdot(a, b)", "x = np.inner(a, b)",
           "x = np.tensordot(a, b)", "x = np.einsum('i,i', a, b)",
           "x = np.convolve(a, b)", "x = np.linalg.norm(v)",
           "x = np.linalg.norm(v, 2)", "x = np.linalg.eigh(c)",
           "x = np.linalg.solve(m, v)", "x = numpy.linalg.norm(v)",
           "from numpy.linalg import eigh", "from numpy import matmul",
           "import scipy.linalg"]
    for line in bad:
        assert blas_uses(line), line
    good = ["x = np.linalg.norm(px, axis=2)", "x = a * b", "x = np.sum(a * b)",
            "x = np.cross(a, b)", "x = np.sqrt(a)"]
    for line in good:
        assert not blas_uses(line), line
