#!/usr/bin/env python3
"""Count code, docstring, comment and blank lines per module of a package.

A line is a docstring line if it lies in a module, class or function
docstring.  Otherwise it is a code line if any token other than a comment
or a layout token (newline, indent, dedent, end of file) lies on it, a
comment line if only a comment does, and a blank line otherwise.  A token
that spans lines, such as a triple-quoted string, lies on each of them.

    python3 scripts/count_code_lines.py            # src/headtail
    python3 scripts/count_code_lines.py path/to/package
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KINDS = ("code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(source: str) -> dict[str, int]:
    """The number of lines of each kind in one module's source."""
    docstring = _docstring_lines(ast.parse(source))
    code: set[int] = set()
    comment: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for lineno in range(1, len(source.splitlines()) + 1):
        if lineno in docstring:
            counts["docstring"] += 1
        elif lineno in code:
            counts["code"] += 1
        elif lineno in comment:
            counts["comment"] += 1
        else:
            counts["blank"] += 1
    return counts


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("package", nargs="?", default=str(ROOT / "src" / "headtail"))
    args = parser.parse_args()

    rows = [(path.name, count_lines(path.read_text(encoding="utf-8")))
            for path in sorted(Path(args.package).glob("*.py"))]
    rows.append(("total", {kind: sum(counts[kind] for _, counts in rows) for kind in KINDS}))
    print(f"{'module':>14} | " + " ".join(f"{kind:>9}" for kind in KINDS))
    print("-" * (17 + 10 * len(KINDS)))
    for name, counts in rows:
        print(f"{name:>14} | " + " ".join(f"{counts[kind]:>9}" for kind in KINDS))


if __name__ == "__main__":
    main()
