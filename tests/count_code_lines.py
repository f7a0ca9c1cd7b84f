"""Print the counted code lines of src/sgblow: lines that hold code, not
counting blank lines, comments or docstrings.

    python tests/count_code_lines.py

A line counts when a token other than a comment or a line break starts or
runs on it; a docstring (a string statement opening a module, class or
function body) counts for none of its lines.  The package is found next
to this file, so a copy in another checkout's tests/ counts that checkout.
"""

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sgblow"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of source that hold code."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


if __name__ == "__main__":
    print(sum(code_lines(f.read_text(encoding="utf-8")) for f in sorted(PACKAGE.rglob("*.py"))))
