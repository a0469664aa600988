"""Code-size report: src/ code lines per module, runtime dependencies, import time.

    python tests/code_size.py

A code line is a line of ``src/`` that holds a token other than a comment,
a docstring or layout (blank lines, indentation, line ends). A docstring is
the string expression that opens a module, class or function body, found
with ``ast``; every line it spans is left out. The dependency count is the
length of ``[project] dependencies`` in ``pyproject.toml``, and the import
time is the best of five ``import ipl`` calls timed inside fresh
interpreters. The report changes nothing and always exits 0.
"""

from __future__ import annotations

import ast
import os
import pathlib
import re
import subprocess
import sys
import tokenize

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
IMPORT_PROBE = "import time; t = time.perf_counter(); import ipl; print(time.perf_counter() - t)"


def code_lines(path: pathlib.Path) -> int:
    text = path.read_text()
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in LAYOUT:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def dependencies() -> list[str]:
    text = (ROOT / "pyproject.toml").read_text()
    block = re.search(r"^dependencies = \[(.*?)\]", text, re.S | re.M)
    return re.findall(r'"([^"]+)"', block.group(1)) if block else []


def import_seconds(runs: int = 5) -> float:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times = [float(subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True, check=True).stdout) for _ in range(runs)]
    return min(times)


def main() -> int:
    counts = {str(p.relative_to(SRC)): code_lines(p) for p in sorted(SRC.rglob("*.py"))}
    for name, count in counts.items():
        print(f"{count:6d}  {name}")
    print(f"{sum(counts.values()):6d}  src/ code lines")
    deps = dependencies()
    print(f"{len(deps):6d}  runtime dependencies ({', '.join(deps)})")
    print(f"{import_seconds():6.3f}  s to import ipl in a fresh interpreter (best of 5)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
