"""Count code, docstring and comment lines of each ``src/nmbath`` module in two trees.

    python3 tools/src_lines.py PARENT CHANGE

A docstring is the leading string of a module, class or def, every line it
spans.  A comment line holds only a comment.  A code line is any other line
with a token; blank lines count as nothing.  Prints one row per module found
in either tree, then the totals: each kind of line in PARENT, in CHANGE, and
the difference.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import tokenize

KINDS = ("code", "doc", "comment")
# tokens that are layout, not code
LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
          tokenize.COMMENT}


def count_lines(source):
    """{"code": n, "doc": n, "comment": n} for the Python ``source``."""
    doc = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                doc.update(range(body[0].lineno, body[0].end_lineno + 1))
    code, comment = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= doc
    return {"code": len(code), "doc": len(doc), "comment": len(comment - code - doc)}


def tree_counts(root):
    """{module file name: counts} for every ``.py`` file of ``root/src/nmbath``."""
    pkg = os.path.join(root, "src", "nmbath")
    out = {}
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                out[name] = count_lines(fh.read())
    return out


def table(old, new):
    """The report lines: a header, one row per module, and the totals."""
    zero = dict.fromkeys(KINDS, 0)
    names = sorted(old.keys() | new.keys())
    rows = [(name, old.get(name, zero), new.get(name, zero)) for name in names]
    rows.append(("total", *({k: sum(c[k] for c in side.values()) for k in KINDS}
                            for side in (old, new))))
    width = max(len(name) for name, _, _ in rows)
    lines = [f"{'module':<{width}}" + "".join(f" {k:>20}" for k in KINDS)]
    for name, a, b in rows:
        cells = "".join(f" {f'{a[k]} -> {b[k]} ({b[k] - a[k]:+d})':>20}" for k in KINDS)
        lines.append(f"{name:<{width}}{cells}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="root of the parent tree")
    parser.add_argument("change", help="root of the changed tree")
    args = parser.parse_args(argv)
    for line in table(tree_counts(args.parent), tree_counts(args.change)):
        print(line)


if __name__ == "__main__":
    main()
