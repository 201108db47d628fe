"""Compare two ``tools/dump_outputs.py`` files line by line.

    python3 tools/compare_outputs.py before.txt after.txt

Each line is a unit key (workload, seed, index, or ``acceptance`` and kind)
followed by a JSON value.  That value is decoded, and so is a JSON document
held in a string inside it: a fuzz report, a list of verdicts, or
``ckv verify --json`` output, one JSON document per line.  The two decoded
values are walked together.  The script prints how many lines differ, every
changed bool or string (``holds``, ``shape_match``, ``theta_mode``, ...) and
the worst numeric move |b - a| / (1 + |a|), with where each was seen.  It
exits 1 when a bool or a string changed, or when the files differ in shape
(line count, unit keys, keys of an object, list lengths, value types), and 0
otherwise: a move at rounding level is reported but does not fail.
"""

from __future__ import annotations

import json
import math
import re
import sys

_LINE = re.compile(r'(.*?) ?(["\[{].*)$')


def _decode(value):
    """The JSON value, with a string holding JSON objects or arrays (one
    document, or one per line) replaced by what it holds."""
    if isinstance(value, str) and value.lstrip()[:1] in ("{", "["):
        try:
            return json.loads(value)
        except json.JSONDecodeError:
            return [json.loads(line) for line in value.splitlines() if line.strip()]
    return value


def parse_line(line: str):
    """(unit key, decoded value) of one dump line."""
    m = _LINE.match(line.rstrip("\n"))
    if m is None:
        raise ValueError(f"no JSON value in line: {line[:80]!r}")
    return m.group(1), _decode(json.loads(m.group(2)))


def _walk(a, b, path, out):
    """Append every difference of a and b to ``out`` as (kind, path, a, b),
    kind "shape", "label" (bool or string) or "number" (with its move)."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            out.append(("shape", path, sorted(a), sorted(b)))
            return
        for key in a:
            _walk(a[key], b[key], f"{path}.{key}", out)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            out.append(("shape", path, f"{len(a)} items", f"{len(b)} items"))
            return
        for i, (x, y) in enumerate(zip(a, b)):
            _walk(x, y, f"{path}[{i}]", out)
    elif isinstance(a, (bool, str)) or isinstance(b, (bool, str)):
        if type(a) is not type(b) or a != b:
            out.append(("label", path, a, b))
    elif isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if a != b and not (math.isnan(a) and math.isnan(b)):
            move = abs(b - a) / (1.0 + abs(a))
            out.append(("number", path, a, b, move if not math.isnan(move) else math.inf))
    elif a != b:
        out.append(("shape", path, a, b))


def compare(lines_a, lines_b):
    """(differing line count, label and shape changes, worst numeric move or
    None) of two dumps given as lists of lines."""
    changes, worst, differing = [], None, 0
    if len(lines_a) != len(lines_b):
        changes.append(("shape", "<file>", f"{len(lines_a)} lines", f"{len(lines_b)} lines"))
    for line_a, line_b in zip(lines_a, lines_b):
        if line_a == line_b:
            continue
        differing += 1
        (key_a, a), (key_b, b) = parse_line(line_a), parse_line(line_b)
        if key_a != key_b:
            changes.append(("shape", "<unit key>", key_a, key_b))
            continue
        found = []
        _walk(a, b, key_a, found)
        for item in found:
            if item[0] == "number":
                if worst is None or item[4] > worst[4]:
                    worst = item
            else:
                changes.append(item)
    return differing, changes, worst


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: compare_outputs.py A B", file=sys.stderr)
        return 2
    with open(argv[0]) as fa, open(argv[1]) as fb:
        lines_a, lines_b = fa.readlines(), fb.readlines()
    differing, changes, worst = compare(lines_a, lines_b)
    print(f"{differing} of {len(lines_a)} lines differ")
    for kind, path, a, b in changes:
        print(f"{kind} change at {path}: {a!r} -> {b!r}")
    if worst is None:
        print("no numeric move")
    else:
        _, path, a, b, move = worst
        print(f"worst numeric move {move:.3e} relative to 1 + |a|, at {path}: {a!r} -> {b!r}")
    return 1 if changes else 0


if __name__ == "__main__":
    sys.exit(main())
