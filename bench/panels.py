"""Seeded planted-factor panels for the benchmark.

A panel has one response column ``IY`` and ``p`` predictor columns
``X01``..``Xp`` over ``n_years`` consecutive years.  The year-over-year
increments carry ``k = p // 10`` planted factors: predictors are split
into ``k`` equal blocks, each block loads on one factor, and every
predictor gets independent noise on top.  The response increment mixes
all factors.  Increments are cumulated onto random base levels, which is
the shape real input files arrive in.

Only numpy is used, so the generator never depends on the code under
test, and pcrkit only ever sees the CSV written by :func:`write_csv`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

RESPONSE = "IY"
FIRST_YEAR = 1950
# Noise standard deviation relative to a unit-variance factor signal.
# Small enough that Kaiser retention finds the planted blocks and the
# predictor correlation matrix stays well conditioned.
NOISE_SD = 0.2


@dataclass(frozen=True)
class PanelSpec:
    """Shape of one generated panel."""

    n_predictors: int
    n_years: int

    @property
    def n_factors(self) -> int:
        return max(1, self.n_predictors // 10)


@dataclass(frozen=True, eq=False)
class Panel:
    """Generated levels: ``levels[i, j]`` is ``names[j]`` in ``years[i]``."""

    names: tuple[str, ...]
    years: np.ndarray
    levels: np.ndarray

    @property
    def predictor_names(self) -> tuple[str, ...]:
        return self.names[1:]


def generate(spec: PanelSpec, seed: int, index: int) -> Panel:
    """Panel number ``index`` of the stream for ``seed``.

    The same ``(spec, seed, index)`` always gives bit-identical levels;
    different indices give independent panels.
    """
    rng = np.random.default_rng([seed, index, spec.n_predictors, spec.n_years])
    p, k, m = spec.n_predictors, spec.n_factors, spec.n_years - 1
    factors = rng.standard_normal((m, k))
    block = np.arange(p) * k // p
    loading = rng.uniform(0.7, 1.3, p) * rng.choice((-1.0, 1.0), p)
    predictors = factors[:, block] * loading + NOISE_SD * rng.standard_normal((m, p))
    mix = rng.uniform(0.5, 1.5, k)
    response = factors @ mix + NOISE_SD * rng.standard_normal(m)
    increments = np.column_stack([response, predictors])
    base = rng.uniform(50.0, 150.0, p + 1)
    levels = np.vstack([base, base + np.cumsum(increments, axis=0)])
    names = (RESPONSE,) + tuple(f"X{j + 1:02d}" for j in range(p))
    years = np.arange(FIRST_YEAR, FIRST_YEAR + spec.n_years, dtype=np.int64)
    return Panel(names=names, years=years, levels=levels)


def write_csv(panel: Panel, path: Path) -> Path:
    """Write ``year,<name>,...`` rows; ``repr`` floats round-trip exactly."""
    lines = [",".join(("year",) + panel.names)]
    for year, row in zip(panel.years, panel.levels):
        lines.append(",".join([str(int(year))] + [repr(float(v)) for v in row]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
