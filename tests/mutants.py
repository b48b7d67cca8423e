"""Mutation sweep: does some test fail when one decision in a module flips?

    python tests/mutants.py MODULE [TEST_FILE ...]

Each mutant changes one site of ``src/cryptodynamics/MODULE.py``: one
comparison operator swapped (``<``↔``<=``, ``>``↔``>=``, ``==``↔``!=``)
or one integer constant moved by −1 or +1. It runs the given test files
(by default ``tests/test_MODULE.py``) in a scratch copy of ``src/`` and
``tests/``, stopping at the first failure, with hypothesis at a fixed
seed. A failing or hanging run kills the mutant.

A survivor either gets a test at its boundary or, if no input can tell it
from the original, an entry in ``ALLOWED``. An entry names its line by
number and text, so an edit that moves the line fails the sweep rather
than quietly keeping a stale entry. The exit status is 1 if any survivor
is not allowed. This takes minutes per module, so it is run by hand
before a change, not by pytest (which does not collect this file) or CI.
"""

import ast
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq}

_WHOLE = "whole = starts[-1] == lo and stops[0] == hi  # every window is [lo, hi)"
_WHOLE_WHY = ("only picks exp over the whole block or window by window; "
              "every term a sum reads gets the same exp either way")
# (module, line, line text, mutation, why no input can tell it apart)
ALLOWED = [
    ("correlation", 168, "return self.matrix.shape[0]", "0 -> -1 at col 33",
     "the matrix is checked 2-d and square"),
    ("correlation", 168, "return self.matrix.shape[0]", "0 -> 1 at col 33",
     "the matrix is checked 2-d and square"),
    ("correlation", 246, "stack = np.empty((1, n, n))", "1 -> 2 at col 22",
     "matmul broadcasts the one window into both matrices, and stack[0] is returned"),
    ("correlation", 248, "return CorrelationMatrix((a, b), stack[0])", "0 -> -1 at col 43",
     "the stack holds one window"),
    ("correlation", 341, "n = stack.shape[1]", "1 -> 2 at col 20",
     "every stack is (c, N, N)"),
    ("correlation", 561, "if w < 1 or w % 2 == 0:", "1 -> 0 at col 11",
     "w = 0 is even, so the other clause rejects it with the same message"),
    ("correlation", 583, "n = m.shape[0]", "0 -> -1 at col 16",
     "correlation matrices are square"),
    ("correlation", 583, "n = m.shape[0]", "0 -> 1 at col 16",
     "correlation matrices are square"),
    ("correlation", 619, "widest = max(t[1].size for t in terms)", "1 -> 2 at col 19",
     "t[2], the counts, has one entry per centre, as t[1] does"),
    ("correlation", 622, "blocks = [(t, slice(lo, min(lo + step, t[0].size)))",
     "0 -> -1 at col 45", "t[-1], the density, has one entry per grid point, as t[0] does"),
    ("correlation", 623, "for t in terms for lo in range(0, t[0].size, step)]",
     "0 -> -1 at col 50", "t[-1], the density, has one entry per grid point, as t[0] does"),
    ("correlation", 635, _WHOLE, "starts[-1] == lo -> starts[-1] != lo", _WHOLE_WHY),
    ("correlation", 635, _WHOLE, "stops[0] == hi -> stops[0] != hi", _WHOLE_WHY),
    ("correlation", 635, _WHOLE, "1 -> 0 at col 24", _WHOLE_WHY),
    ("correlation", 635, _WHOLE, "0 -> -1 at col 43", _WHOLE_WHY),
]


def sites(tree, lines):
    """(node, field, index or None, replacement, line, mutation, shown) per mutant.

    A constant's mutation names its column, and ``shown`` is its line as
    mutated; a comparison's mutation shows the comparison, and ``shown``
    is empty.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in SWAPS:
                    new = ast.Compare(node.left, node.ops[:i] + [SWAPS[type(op)]()]
                                      + node.ops[i + 1:], node.comparators)
                    yield (node, "ops", i, SWAPS[type(op)](), node.lineno,
                           f"{ast.unparse(node)} -> {ast.unparse(new)}", "")
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            text = lines[node.lineno - 1]
            for step in (-1, 1):
                new = node.value + step
                shown = text[:node.col_offset] + str(new) + text[node.end_col_offset:]
                yield (node, "value", None, new, node.lineno,
                       f"{node.value} -> {new} at col {node.col_offset}", shown.strip())


def mutated(source, k):
    """``source`` with its ``k``-th mutant applied."""
    tree = ast.parse(source)
    node, field, index, new = list(sites(tree, source.splitlines()))[k][:4]
    if index is None:
        setattr(node, field, new)
    else:
        getattr(node, field)[index] = new
    return ast.unparse(tree)


def run_tests(work, tests, timeout):
    """True if the tests pass in ``work`` within ``timeout`` seconds."""
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "--hypothesis-seed=0", *tests]
    try:
        done = subprocess.run(cmd, cwd=work, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def main(argv):
    module, tests = argv[0], argv[1:] or [f"tests/test_{argv[0]}.py"]
    path = ROOT / "src" / "cryptodynamics" / f"{module}.py"
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    allowed = {}
    for mod, line, text, what, reason in ALLOWED:
        if mod != module:
            continue
        if line > len(lines) or lines[line - 1].strip() != text:
            sys.exit(f"ALLOWED entry moved: {module}.py:{line} is no longer {text!r}")
        allowed[line, what] = reason
    with tempfile.TemporaryDirectory() as work:
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, Path(work) / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", work)
        target = Path(work) / "src" / "cryptodynamics" / f"{module}.py"
        start = time.monotonic()
        if not run_tests(work, tests, None):
            sys.exit(f"the tests fail on the unmutated {module}.py")
        timeout = max(60.0, 5 * (time.monotonic() - start))
        survivors = []
        for k, site in enumerate(list(sites(ast.parse(source), lines))):
            line, what, shown = site[4:]
            target.write_text(mutated(source, k), encoding="utf-8")
            killed = not run_tests(work, tests, timeout)
            verdict = ("killed" if killed else "allowed" if (line, what) in allowed
                       else "SURVIVED")
            what = f"{what}: {shown}" if shown and verdict == "SURVIVED" else what
            print(f"{verdict:8} {module}.py:{line}: {what}", flush=True)
            if killed and (line, what) in allowed:
                print(f"         stale ALLOWED entry: {allowed[line, what]}")
            if verdict == "SURVIVED":
                survivors.append((line, what))
        target.write_text(source, encoding="utf-8")
    print(f"\n{len(survivors)} survivor(s) not allowed:")
    for line, what in survivors:
        print(f"  {module}.py:{line}: {what}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
