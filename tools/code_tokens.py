"""Count the code tokens of Python files, the package's size measure.

A code token is a Python token that is not a comment, a docstring or layout
(NL, NEWLINE, INDENT, DEDENT, ENCODING, ENDMARKER).  An f-string counts as
one token on every Python version, as the tokenizer reads it before 3.12.

    python tools/code_tokens.py src/qsslab/*.py [--ceiling N]

prints the count of each file and their total, and exits 1 when the total
is above the ceiling.
"""
import argparse
import ast
import io
import sys
import tokenize

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}
FSTRING_START = getattr(tokenize, "FSTRING_START", None)
FSTRING_END = getattr(tokenize, "FSTRING_END", None)


def docstring_spans(tree: ast.AST) -> list:
    """(start, end) positions of every module, class and function docstring."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.append(((first.lineno, first.col_offset),
                              (first.end_lineno, first.end_col_offset)))
    return spans


def code_tokens(path: str) -> int:
    with open(path, "rb") as f:
        source = f.read()
    spans = docstring_spans(ast.parse(source))
    count = depth = 0
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type == FSTRING_START:
            depth += 1
            count += depth == 1
        elif tok.type == FSTRING_END:
            depth -= 1
        elif not depth and tok.type not in LAYOUT and not any(
                start <= tok.start < end for start, end in spans):
            count += 1
    return count


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+")
    parser.add_argument("--ceiling", type=int, help="fail when the total is above this")
    args = parser.parse_args(argv)
    counts = {path: code_tokens(path) for path in args.paths}
    total = sum(counts.values())
    for path, count in counts.items():
        print(f"{count:7d} {path}")
    print(f"{total:7d} total")
    if args.ceiling is not None and total > args.ceiling:
        print(f"{total} code tokens, over the ceiling of {args.ceiling}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
