"""Compare two text outputs token by token, letting numbers move by rounding.

Each line is split into numbers and the text between them.  The text must
match exactly, and each number b of B must lie within tol * max(1, |a|) of
its counterpart a in A (nan matches nan, inf matches an equal inf).  Use it
on outputs that may differ in the last bits of their floats, such as two
corpus snapshots or two sets of benchmark job lines:

    python scripts/corpus_snapshot.py > before.txt
    (apply the change)
    python scripts/corpus_snapshot.py > after.txt
    python scripts/snapshot_diff.py before.txt after.txt --tol 1e-12

It prints the worst pair of numbers, as |a - b| / max(1, |a|), and exits 0
when everything matches; otherwise it prints the first text mismatch or
the worst pair over tol, and exits 1.
"""

import argparse
import math
import re
import sys

NUMBER = re.compile(r"[-+]?(?:(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?|nan|inf)")


def tokens(line: str) -> list:
    """The line as alternating text and numbers: (text, number, text, ...)."""
    out, at = [], 0
    for match in NUMBER.finditer(line):
        out += [line[at:match.start()], float(match.group())]
        at = match.end()
    return out + [line[at:]]


def distance(a: float, b: float) -> float:
    """|a - b| / max(1, |a|); 0 for two nans or two equal infinities."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if math.isnan(a) or math.isnan(b) or math.isinf(a) or math.isinf(b):
        return math.inf
    return abs(a - b) / max(1.0, abs(a))


def compare(a_lines: list, b_lines: list) -> tuple:
    """(text mismatch or None, worst (distance, line, a, b) or None)."""
    if len(a_lines) != len(b_lines):
        return f"{len(a_lines)} lines against {len(b_lines)}", None
    worst = None
    for number, (a_line, b_line) in enumerate(zip(a_lines, b_lines), 1):
        a_tokens, b_tokens = tokens(a_line), tokens(b_line)
        if len(a_tokens) != len(b_tokens) or a_tokens[::2] != b_tokens[::2]:
            return f"line {number}:\n- {a_line}\n+ {b_line}", worst
        for a, b in zip(a_tokens[1::2], b_tokens[1::2]):
            d = distance(a, b)
            if worst is None or d > worst[0]:
                worst = (d, number, a, b)
    return None, worst


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", help="the reference output")
    ap.add_argument("b", help="the output compared with it")
    ap.add_argument("--tol", type=float, default=1e-12)
    args = ap.parse_args()
    with open(args.a, encoding="utf-8") as fa, open(args.b, encoding="utf-8") as fb:
        mismatch, worst = compare(fa.read().splitlines(), fb.read().splitlines())
    if worst is not None:
        d, number, a, b = worst
        print(f"worst pair: line {number}: {a!r} against {b!r} ({d:.3g} of max(1, |a|))")
    if mismatch is not None:
        print(f"text differs at {mismatch}")
        return 1
    if worst is not None and worst[0] > args.tol:
        print(f"over the tolerance {args.tol:g}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
