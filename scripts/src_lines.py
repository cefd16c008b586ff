"""Count the lines of lpakit's source, split three ways.

    python3 scripts/src_lines.py [DIR]

Each line of each module under DIR (default: src/lpakit) is one of:

* docstring: inside a module, class or function docstring, as ``ast``
  finds them (the first statement of the body, a string constant);
* code: any other line that holds something besides a comment;
* other: blank or comment-only.

It prints the three counts and the line count per module, then their
totals; code + docstring + other is each file's line count.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers (1-based) of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def split(source: str) -> tuple[int, int, int]:
    """(code, docstring, other) line counts of one module's source."""
    docs = docstring_lines(ast.parse(source))
    code = other = 0
    for number, line in enumerate(source.splitlines(), start=1):
        if number in docs:
            continue
        text = line.strip()
        if text and not text.startswith("#"):
            code += 1
        else:
            other += 1
    return code, len(docs), other


def main(argv: list[str]) -> None:
    directory = Path(argv[1]) if len(argv) > 1 else ROOT / "src" / "lpakit"
    print(f"{'module':<16}{'code':>7}{'doc':>7}{'other':>7}{'total':>7}")
    totals = [0, 0, 0, 0]
    for path in sorted(directory.glob("*.py")):
        source = path.read_text()
        counts = (*split(source), len(source.splitlines()))
        totals = [a + b for a, b in zip(totals, counts)]
        print(f"{path.name:<16}" + "".join(f"{c:>7}" for c in counts))
    print(f"{'total':<16}" + "".join(f"{c:>7}" for c in totals))


if __name__ == "__main__":
    main(sys.argv)
