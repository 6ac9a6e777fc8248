"""Compare a rendered report against a golden one.

Two modes.  ``exact=True`` requires the texts to be byte-equal.  The
default token-wise mode splits every line into number literals and the
text around them: the text must match byte for byte, and each number
must satisfy ``|new - old| <= rel * (1 + |old|)``.  A number glued to a
word (``X01``, ``PC2``) is text, so variable and component names are
compared exactly.
"""

from __future__ import annotations

import re

REL_TOL = 1e-10

_NUMBER = re.compile(r"(?<![\w.+-])([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)(?![\w.])")


def report_differences(
    new: str, old: str, exact: bool = False, rel: float = REL_TOL
) -> list[str]:
    """Describe every way ``new`` departs from the golden ``old``; empty if none."""
    new_lines = new.split("\n")
    old_lines = old.split("\n")
    if len(new_lines) != len(old_lines):
        return [f"{len(new_lines)} lines, golden has {len(old_lines)}"]
    problems = []
    for number, (a, b) in enumerate(zip(new_lines, old_lines), start=1):
        if exact:
            if a != b:
                problems.append(f"line {number}: {a!r} != golden {b!r}")
            continue
        parts_a = _NUMBER.split(a)
        parts_b = _NUMBER.split(b)
        if len(parts_a) != len(parts_b) or parts_a[0::2] != parts_b[0::2]:
            problems.append(f"line {number}: text {a!r} != golden {b!r}")
            continue
        for x, y in zip(parts_a[1::2], parts_b[1::2]):
            if abs(float(x) - float(y)) > rel * (1.0 + abs(float(y))):
                problems.append(f"line {number}: {x} != golden {y}")
    return problems
