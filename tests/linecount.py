"""Print the total and code lines of each module of the package, and their sums.

Code lines leave out blank lines, comment lines and docstrings (a string
statement, wherever it stands); a line that holds code and a comment counts.
The line budget is reported with these two counts:

    python tests/linecount.py            # src/mgtlab
    python tests/linecount.py DIR        # the *.py files of DIR

pytest does not collect this file.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).parents[1] / "src" / "mgtlab"

NOT_CODE = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER)


def count(source: str) -> tuple[int, int]:
    """(total lines, code lines) of the Python source text."""
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            docs.update(range(node.lineno, node.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docs)


def main(argv: list[str]) -> None:
    root = Path(argv[0]) if argv else PACKAGE
    rows = [(path.name, *count(path.read_text())) for path in sorted(root.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print(f"{'module':<20} {'lines':>6} {'code':>6}")
    for name, lines, code in rows:
        print(f"{name:<20} {lines:>6} {code:>6}")


if __name__ == "__main__":
    main(sys.argv[1:])
