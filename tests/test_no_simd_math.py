"""No numpy transcendental whose result depends on the CPU.

numpy picks a SIMD loop for each math function by CPU. Its float64 AVX-512
loops of tan, arccos, arcsin, arctan, exp, log and log10 differ from libm,
and from numpy's own AVX2 loops, in the last bit of some arguments, so a
result that passes through one can differ between machines (sin, cos and
sqrt were measured to agree). The package takes such functions one value
at a time from Python's `math` and `cmath`, which call libm. This test
reads the source of `src/camvitals` and fails on any numpy spelling of
them outside the one exception named in ALLOWED.
"""

import ast
from pathlib import Path

from test_no_blas import NUMPY, _dotted

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "camvitals"
SIMD_MATH = {"tan", "arccos", "arcsin", "arctan", "exp", "log", "log10"}

# "file: function: name": why the use stays
ALLOWED = {
    "synth.py: synth_ecg: np.exp": "the oracle's ECG beats; computing them on every CPU "
                                   "alike changes frozen dataset digests (ROADMAP item 18)",
}


def simd_math_uses(source, filename="<source>"):
    """["file: function: name"] for every numpy spelling of a function of
    SIMD_MATH in `source`, under the top-level function that holds it
    ("-" at module level), in line order."""
    tree = ast.parse(source, filename)
    found = []
    for top in tree.body:
        where = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "-"
        for node in ast.walk(top):
            what = None
            if isinstance(node, ast.Attribute):
                name = _dotted(node) or ""
                head, _, rest = name.partition(".")
                if head in NUMPY and rest.rpartition(".")[2] in SIMD_MATH:
                    what = name
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] in NUMPY:
                names = sorted(a.name for a in node.names if a.name in SIMD_MATH)
                if names:
                    what = f"from {node.module} import {', '.join(names)}"
            if what:
                found.append((node.lineno, f"{filename}: {where}: {what}"))
    return [f for _, f in sorted(found)]


def test_the_package_runs_no_simd_transcendental_but_the_named_one():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += simd_math_uses(path.read_text(encoding="utf-8"), path.name)
    assert found == sorted(ALLOWED)


def test_the_guard_sees_each_spelling():
    for name in sorted(SIMD_MATH):
        for line in (f"x = np.{name}(a)", f"x = numpy.{name}(a)", f"f = np.{name}",
                     f"x = np.emath.{name}(a)", f"from numpy import {name}"):
            assert len(simd_math_uses(line)) == 1, line
    # a use is named by its file and function: ALLOWED covers synth_ecg alone
    inside = "def synth_ecg():\n    return np.exp(a)\n"
    assert simd_math_uses(inside, "synth.py") == ["synth.py: synth_ecg: np.exp"]
    assert simd_math_uses(inside.replace("synth_ecg", "synth_clip"), "synth.py") \
        == ["synth.py: synth_clip: np.exp"]
    good = ["x = math.tan(a)", "x = cmath.exp(a)", "x = np.sin(a)", "x = np.cos(a)",
            "x = np.sqrt(a)", "x = np.log1p(a)", "x = a.exp", "from math import exp"]
    for line in good:
        assert not simd_math_uses(line), line
