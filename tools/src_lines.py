"""Lines of ``src/mrsqkd``, per module and in total, in the working tree
and at a git revision, and the net change between them.

Run from the root of a checkout:

    python tools/src_lines.py                  # the working tree against HEAD
    python tools/src_lines.py --base HEAD~1    # what the last commit changed, and since

Two counts per module. ``lines`` is what ``wc -l`` counts, the newline
characters. ``code`` counts the lines that hold code: a line that is
blank, holds only a comment, or lies inside a docstring (a string that
is the first statement of a module, class or function) is not counted,
and a string that is not a docstring counts on every line it spans. A
module that one side lacks counts 0 there. A revision that git cannot
read ends the tool with one ``error:`` line and exit 2.
"""
from __future__ import annotations

import argparse
import ast
import io
import os
import pathlib
import subprocess
import sys
import tokenize

PACKAGE = "src/mrsqkd"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def counts(text: str) -> tuple[int, int]:
    """(lines, code lines) of the module source ``text``."""
    docstrings = {
        (body[0].lineno, body[0].col_offset)
        for node in ast.walk(ast.parse(text))
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and (body := node.body) and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str)
    }
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NOT_CODE and not (tok.type == tokenize.STRING
                                             and tok.start in docstrings):
            code.update(range(tok.start[0], tok.end[0] + 1))
    return text.count("\n"), len(code)


def tree_counts(root: pathlib.Path) -> dict[str, tuple[int, int]]:
    """The counts of every module of the package in the working tree."""
    return {path.name: counts(path.read_text(encoding="utf-8"))
            for path in sorted((root / PACKAGE).glob("*.py"))}


def rev_counts(root: pathlib.Path, rev: str) -> dict[str, tuple[int, int]]:
    """The counts of every module of the package at git revision ``rev``;
    ValueError if git cannot read it."""
    def git(*args: str) -> str:
        run = subprocess.run(["git", *args], cwd=root, capture_output=True, text=True)
        if run.returncode:
            raise ValueError(f"git cannot read {PACKAGE} at {rev}: {' '.join(run.stderr.split())}")
        return run.stdout

    names = [name for name in git("ls-tree", "--name-only", f"{rev}:{PACKAGE}").split()
             if name.endswith(".py")]
    return {name: counts(git("show", f"{rev}:{PACKAGE}/{name}")) for name in sorted(names)}


def report(base: dict, work: dict) -> list[str]:
    """One line per module and one for the total: lines and code lines
    at the base and in the working tree, and the net change of each."""
    rows = [(name, base.get(name, (0, 0)), work.get(name, (0, 0)))
            for name in sorted(base.keys() | work.keys())]
    rows.append(("total", *((sum(lines for lines, _ in side.values()),
                             sum(code for _, code in side.values())) for side in (base, work))))
    out = [f"{'module':16s} {'base':>6s} {'now':>6s} {'net':>5s} {'base':>6s} {'now':>6s} "
           f"{'net':>5s}"]
    for name, (b_lines, b_code), (w_lines, w_code) in rows:
        out.append(f"{name:16s} {b_lines:6d} {w_lines:6d} {w_lines - b_lines:+5d} "
                   f"{b_code:6d} {w_code:6d} {w_code - b_code:+5d}")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="git revision to count against")
    args = parser.parse_args(argv)
    root = pathlib.Path(os.getcwd())
    try:
        base = rev_counts(root, args.base)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{PACKAGE} at {args.base} (base) and now: lines, then code lines")
    print("\n".join(report(base, tree_counts(root))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
