"""Exit codes of default runs on a seeded sample of wide random-walk tables.

Usage::

    PYTHONPATH=src python3 tools/wide_tally.py [--seed 3] [--tables 150]

Table i of the sample draws, from one ``numpy.random.default_rng(seed)``
stream and in this order, p = ``integers(2, 61)`` predictors,
n = ``integers(4, 31)`` years and an n x (p + 1) array of standard
normals; the levels are the cumulative sums down each column, ``IY``
first, then ``X01``..``Xp``.  Each table is written by ``write_table``
to a temporary directory and run through ``run_pipeline`` with the
default settings.  The tool prints how many runs ended with each exit
code and cause, then the slowest run, its shape and the sweeps varimax
took.  It runs whatever ``pcrkit`` the path imports, so two checkouts
can be compared by pointing ``PYTHONPATH`` at each.
"""

import argparse
import collections
import tempfile
import time
from pathlib import Path

import numpy as np

from pcrkit.errors import StageError
from pcrkit.pipeline import RunConfig, run_pipeline, write_table
from pcrkit.preprocess import TimeSeriesTable

# Message fragment -> cause, for the failures a wide table can meet.  The
# sweep cap's advice also reads "retain at most", so it is matched first.
CAUSES = (
    ("varimax rotation did not converge", "varimax sweep cap"),
    ("retain at most", "auto kept more than fit"),
)


def tables(seed: int, count: int):
    """The sample: ``count`` tables of random-walk levels from one stream."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        p = int(rng.integers(2, 61))
        n = int(rng.integers(4, 31))
        levels = np.cumsum(rng.standard_normal((n, p + 1)), axis=0)
        names = ("IY",) + tuple(f"X{j:02d}" for j in range(1, p + 1))
        yield TimeSeriesTable(years=np.arange(2000, 2000 + n), names=names, values=levels)


def cause(message: str) -> str:
    return next((c for fragment, c in CAUSES if fragment in message), message)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--tables", type=int, default=150)
    args = parser.parse_args(argv)
    tally = collections.Counter()
    slowest = (0.0, "")
    with tempfile.TemporaryDirectory() as tmp:
        for i, table in enumerate(tables(args.seed, args.tables)):
            source = write_table(table, Path(tmp) / f"table{i}.csv")
            start = time.perf_counter()
            try:
                report = run_pipeline(RunConfig(input_path=source))
                outcome = (0, "completed")
                detail = (f"kept {report.solution.n_components}, "
                          f"{report.solution.rotation_sweeps} sweeps")
            except StageError as err:
                outcome = (err.exit_code, cause(str(err)))
                detail = outcome[1]
            seconds = time.perf_counter() - start
            tally[outcome] += 1
            shape = f"table {i}: p = {len(table.names) - 1}, n = {table.n_years}"
            slowest = max(slowest, (seconds, f"{shape}, exit {outcome[0]} ({detail})"))
    print(f"{args.tables} tables, default_rng({args.seed})")
    for (code, why), count in sorted(tally.items()):
        print(f"exit {code}: {count:4d}  {why}")
    print(f"slowest: {slowest[0]:.3f} s, {slowest[1]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
