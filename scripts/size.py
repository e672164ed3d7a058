"""Print the size of each module of ``src/faultsched``, and the total.

    python3 scripts/size.py

Columns: lines; code lines (blank lines, comments and docstrings aside);
parser tokens, counted as ``test_modules_stay_below_the_parser_token_threshold``
in tests/test_package.py counts them (every token but comments and NL).
"""

import ast
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "faultsched"
LAYOUT = (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER)


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers of the module's, classes' and functions' docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def measure(path: Path) -> tuple[int, int, int]:
    """(lines, code lines, parser tokens) of one module."""
    with tokenize.open(path) as fh:
        text = fh.read()
    with tokenize.open(path) as fh:
        tokens = [tok for tok in tokenize.generate_tokens(fh.readline)
                  if tok.type not in (tokenize.COMMENT, tokenize.NL)]
    code = set()
    for tok in tokens:
        if tok.type not in LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docstring_lines(ast.parse(text))), len(tokens)


def main() -> None:
    print(f"{'module':<12} {'lines':>6} {'code':>6} {'tokens':>7}")
    total = [0, 0, 0]
    for path in sorted(SRC.glob("*.py")):
        sizes = measure(path)
        total = [a + b for a, b in zip(total, sizes)]
        print(f"{path.stem:<12} {sizes[0]:>6} {sizes[1]:>6} {sizes[2]:>7}")
    print(f"{'total':<12} {total[0]:>6} {total[1]:>6} {total[2]:>7}")


if __name__ == "__main__":
    main()
