"""Print the code lines of each Python file named, and their total.

A code line holds a token of code: a line that is blank, only a comment or
part of a docstring (module, class or function) does not count, so deleting
comments or docstrings shows apart from deleting code.  The output reads
like `wc -l`.  Usage: python3 scripts/code_lines.py src/lenalg/*.py
"""

import ast
import io
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers that the docstrings of `tree` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(path):
    with open(path, "rb") as fh:
        source = fh.read()
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(paths):
    total = 0
    for path in paths:
        count = code_lines(path)
        total += count
        print(f"{count:>6} {path}")
    print(f"{total:>6} total")


if __name__ == "__main__":
    main(sys.argv[1:])
