"""Count the code lines of a Python package: lines that hold a token
other than a comment, and that are not part of a docstring.

    python tools/code_lines.py [DIR]      (default: src/hermitia)

A docstring is the string expression that opens a module, class or
function body (found with ``ast``); the other lines are read with
``tokenize``, so a line inside a multi-line string or bracket counts
once for each physical line that holds code.  Prints the count of each
file, then the total.
"""

import ast
import sys
import tokenize
from pathlib import Path

SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree):
    """The line numbers of every docstring in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path):
    """The number of code lines of one Python file."""
    source = path.read_bytes()
    skip = docstring_lines(ast.parse(source))
    lines = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in SKIPPED:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main(argv):
    root = Path(argv[1] if len(argv) > 1 else "src/hermitia")
    total = 0
    for path in sorted(root.rglob("*.py")):
        n = code_lines(path)
        total += n
        print("%6d  %s" % (n, path))
    print("%6d  total" % total)


if __name__ == "__main__":
    main(sys.argv)
