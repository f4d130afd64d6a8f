"""Count the code lines of ``src/jugglecards``, module by module.

A code line is a source line that holds a token other than a comment
and is no line of a docstring: ``tokenize`` drops comment and blank
lines, and ``ast`` finds the docstrings (the leading string of a
module, class or function body) whose lines are dropped too.  Prints
one count per module and their total::

    python tools/code_lines.py
"""

import ast
import io
import pathlib
import tokenize

_SKIP = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The code lines of one module's ``source``."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _SKIP:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


def main() -> None:
    total = 0
    root = pathlib.Path(__file__).resolve().parents[1] / "src" / "jugglecards"
    for path in sorted(root.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name:<16} {count:>5}")
    print(f"{'total':<16} {total:>5}")


if __name__ == "__main__":
    main()
