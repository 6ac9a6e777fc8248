"""The regression verdict of ``tools/bench_pairs.py``, loaded by path."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

TIGHT = [99.0, 100.0, 100.0, 100.0, 101.0]  # median 100, IQR 0
WIDE = [60.0, 80.0, 100.0, 120.0, 140.0]  # median 100, IQR 40


def scaled(runs, factor):
    return [factor * x for x in runs]


CASES = [
    # better, parent runs, change runs, verdict at bound 0.25
    ("lower", TIGHT, scaled(TIGHT, 1.30), "worse"),
    ("lower", TIGHT, scaled(TIGHT, 1.20), "ok"),
    ("lower", TIGHT, scaled(TIGHT, 0.50), "ok"),
    ("lower", WIDE, WIDE, "unresolved"),
    ("lower", WIDE, scaled(WIDE, 0.30), "ok"),
    ("lower", WIDE, scaled(WIDE, 1.30), "worse"),
    ("higher", TIGHT, scaled(TIGHT, 0.70), "worse"),
    ("higher", TIGHT, scaled(TIGHT, 0.80), "ok"),
    ("higher", TIGHT, scaled(TIGHT, 1.50), "ok"),
    ("higher", WIDE, WIDE, "unresolved"),
    ("higher", WIDE, scaled(WIDE, 3.00), "ok"),
    ("higher", WIDE, scaled(WIDE, 0.70), "worse"),
]


@pytest.mark.parametrize(
    "better, parent, change, expected", CASES,
    ids=[f"{c[0]}-{i}-{c[3]}" for i, c in enumerate(CASES)],
)
def test_verdict(better, parent, change, expected):
    assert bench_pairs.verdict(better, 0.25, parent, change) == expected


def test_wide_spread_is_unresolved_unless_every_change_run_beats_every_parent_run():
    # Medians 40 % apart in the better direction; the runs overlap until
    # the change's slowest run is faster than the parent's fastest.
    assert bench_pairs.verdict("lower", 0.25, WIDE, [x - 40.0 for x in WIDE]) == "unresolved"
    assert bench_pairs.verdict("lower", 0.25, WIDE, [x - 81.0 for x in WIDE]) == "ok"


def test_summary_prints_the_relative_change_and_the_verdict():
    metric = {"name": "op_ms_p50", "better": "lower", "bound": 0.25}
    row = bench_pairs.summary(metric, TIGHT, scaled(TIGHT, 1.30))
    assert row.startswith("op_ms_p50 ")
    assert "+30.00%" in row and " worse " in row and "0/5" in row
