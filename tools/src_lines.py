"""Count the lines of each module under src/: total lines and code lines.

A code line holds at least one token that is not a comment and is not part
of a docstring (the leading string of a module, class or function). Blank
lines, comment-only lines and docstring lines are not code lines.

    python tools/src_lines.py [ROOT]

ROOT defaults to the src/ directory next to this script's parent.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers spanned by every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple[int, int]:
    """(total lines, code lines) of one module's source."""
    docs = docstring_lines(ast.parse(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NOT_CODE:
            code.update(line for line in range(tok.start[0], tok.end[0] + 1)
                        if line not in docs)
    return len(text.splitlines()), len(code)


def main(argv: list[str]) -> int:
    root = argv[1] if len(argv) > 1 else os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    paths = sorted(os.path.join(d, f) for d, _, files in os.walk(root)
                   for f in files if f.endswith(".py"))
    totals = [0, 0]
    print(f"{'module':<40} {'lines':>6} {'code':>6}")
    for path in paths:
        with open(path, encoding="utf-8") as f:
            lines, code = count(f.read())
        totals[0] += lines
        totals[1] += code
        print(f"{os.path.relpath(path, root):<40} {lines:>6} {code:>6}")
    print(f"{'total':<40} {totals[0]:>6} {totals[1]:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
