"""Count the code lines of the package: lines that hold a token other than a comment.

Docstrings (the leading string of a module, class or function) are not
code, so the proofs they hold do not count against the package's size.
Blank lines and comment-only lines do not count either.  Raw lines are
every line of every file.

    python scripts/code_lines.py [DIR]    # DIR defaults to src/dgres
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in skip)
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src" / "dgres"
    code = raw = 0
    for path in sorted(root.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        c, r = code_lines(text), len(text.splitlines())
        code, raw = code + c, raw + r
        print(f"{path.name:<16} {c:>6} {r:>6}")
    print(f"{'total':<16} {code:>6} {raw:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
