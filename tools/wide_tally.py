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
code (a failure with its message); how many stopped varimax at its sweep
cap, their largest last-sweep angle and their largest gap to the fit of
``rotation="none"``, relative to its largest value; then the slowest run.
It runs whatever ``pcrkit`` the path imports, so two checkouts can be
compared by pointing ``PYTHONPATH`` at each.
"""

import argparse
import collections
import tempfile
import time
from pathlib import Path

import numpy as np

from pcrkit.errors import StageError
from pcrkit.pca import VARIMAX_TOL
from pcrkit.pipeline import RunConfig, run_pipeline, write_table
from pcrkit.preprocess import TimeSeriesTable


def tables(seed: int, count: int):
    """The sample: ``count`` tables of random-walk levels from one stream."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        p = int(rng.integers(2, 61))
        n = int(rng.integers(4, 31))
        levels = np.cumsum(rng.standard_normal((n, p + 1)), axis=0)
        names = ("IY",) + tuple(f"X{j:02d}" for j in range(1, p + 1))
        yield TimeSeriesTable(years=np.arange(2000, 2000 + n), names=names, values=levels)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--tables", type=int, default=150)
    args = parser.parse_args(argv)
    tally, stopped, slowest = collections.Counter(), [], (0.0, "")
    with tempfile.TemporaryDirectory() as tmp:
        for i, table in enumerate(tables(args.seed, args.tables)):
            source = write_table(table, Path(tmp) / f"table{i}.csv")
            start = time.perf_counter()
            try:
                report = run_pipeline(RunConfig(input_path=source))
                outcome = (0, "completed")
                solution = report.solution
                detail = f"kept {solution.n_components}, {solution.rotation_sweeps} sweeps"
            except StageError as err:
                outcome = (err.exit_code, str(err))
                detail = outcome[1]
            seconds = time.perf_counter() - start
            tally[outcome] += 1
            shape = f"table {i}: p = {len(table.names) - 1}, n = {table.n_years}"
            slowest = max(slowest, (seconds, f"{shape}, exit {outcome[0]} ({detail})"))
            if outcome[0] == 0 and solution.last_sweep_angle > VARIMAX_TOL:
                none = run_pipeline(RunConfig(input_path=source, rotation="none")).pcr.fitted
                stopped.append((solution.last_sweep_angle,
                                np.abs(report.pcr.fitted - none).max() / np.abs(none).max()))
    print(f"{args.tables} tables, default_rng({args.seed})")
    for (code, why), count in sorted(tally.items()):
        print(f"exit {code}: {count:4d}  {why}")
    print(f"stopped at the sweep cap: {len(stopped)}; largest last-sweep angle "
          f"{max(stopped, default=(0.0,))[0]:.3g} rad; largest gap of the fit to "
          f"rotation 'none' {max((g for _, g in stopped), default=0.0):.2g} relative")
    print(f"slowest: {slowest[0]:.3f} s, {slowest[1]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
