"""Acceptance gate: one test per shipped guarantee.

Each test prints exactly one line, ``acceptance NN PASS|FAIL ... - label``,
and enforces both the numeric bound and the runtime budget.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the lines as they
happen; without ``-s`` they appear in pytest's captured output.
"""

import time

import numpy as np
import pytest

from pcrkit.errors import RankDeficiencyError
from pcrkit.fixtures import load_fixture, published_correlations
from pcrkit.linalg import eigen_symmetric
from pcrkit.pca import (
    component_scores,
    extract,
    rotate_varimax,
    score_weights,
)
from pcrkit.pipeline import (
    RunConfig,
    render_report_delim,
    render_report_text,
    run_pipeline,
    write_table,
)
from pcrkit.preprocess import correlation_matrix, difference, standardize
from pcrkit.regression import fit_ols, fit_pcr, reconstruct_prices
from test_linalg import THREE_BY_THREE_SUITE, eig2_closed_form, suite_oracle
from test_pca import planted_two_factor, tucker_congruence
from test_pipeline import planted_panel_table
from test_preprocess import make_table


def run_criterion(number: int, label: str, budget: float, body) -> None:
    start = time.perf_counter()
    failure = None
    try:
        body()
    except Exception as err:  # report FAIL before re-raising
        failure = err
    elapsed = time.perf_counter() - start
    verdict = "PASS" if failure is None else "FAIL"
    print(f"acceptance {number:02d} {verdict} {elapsed:.3f}s (budget {budget}s) - {label}")
    assert elapsed < budget, f"{label}: {elapsed:.3f}s exceeded the {budget}s budget"
    if failure is not None:
        raise failure


def fixture_predictor_solution(rotate=True):
    fig3 = load_fixture("fig3")
    predictors = tuple(n for n in fig3.names if n != "IY")
    sub = fig3.submatrix(predictors)
    sol = extract(sub, "auto")
    if rotate:
        sol = rotate_varimax(sol)
    return fig3, sub, sol


def pcr_fit_for(x, y, k):
    names = tuple(f"X{i + 1}" for i in range(x.shape[1]))
    table = make_table(np.column_stack([y, x]), names=("Y",) + names)
    z = standardize(table)
    r = correlation_matrix(z).submatrix(names)
    sol = rotate_varimax(extract(r, k))
    scores = component_scores(r.data, sol)
    return fit_pcr(scores, table.column("Y"), sol.component_names), sol


def test_01_fixture_integrity():
    def body():
        fig3, printed = load_fixture("fig3"), published_correlations()
        assert printed.shape == (9, 9)
        assert np.array_equal(np.round(fig3.values, 2), printed)
        values = fig3.values
        assert np.array_equal(values, values.T)
        assert np.array_equal(np.diagonal(values), np.ones(9))
        assert np.abs(values).max() <= 1.0
        assert float(fig3.eigen.eigenvalues[-1]) >= -1e-8

    run_criterion(1, "embedded fixture matches the printed table and is valid", 0.1, body)


def test_02_variance_proportions():
    def body():
        _, _, sol = fixture_predictor_solution()
        assert sol.n_components == 2
        conventions = [
            (float(sol.proportion[0]), float(sol.proportion[1])),
            (float(sol.rotated_proportion[0]), float(sol.rotated_proportion[1])),
        ]
        hits = [
            abs(p1 - 0.59) <= 0.05 and abs(p2 - 0.29) <= 0.05
            for p1, p2 in conventions
        ]
        assert any(hits), f"neither convention matches: {conventions}"

    run_criterion(2, "two components retained explaining about 59% and 29%", 0.5, body)


def test_03_demand_component_structure():
    def body():
        _, sub, sol = fixture_predictor_solution()
        w = score_weights(sol)
        demand = {"PD", "GVA", "GDHI"}
        satisfied = False
        detail = []
        for j in range(w.shape[1]):
            column = w[:, j]
            for sign in (1.0, -1.0):
                signed = [
                    (float(v * sign), name)
                    for v, name in zip(column, sol.names)
                    if v * sign > 0.0
                ]
                signed.sort(reverse=True)
                if len(signed) < 3:
                    continue
                top = signed[:3]
                names = {name for _, name in top}
                spread = top[0][0] - top[2][0]
                detail.append((sol.component_names[j], names, round(spread, 4)))
                if names == demand and spread < 0.05:
                    satisfied = True
        assert satisfied, (
            "no component has PD, GVA, GDHI as its three largest same-sign "
            f"score weights; closest: {detail}"
        )

    run_criterion(3, "PD, GVA, GDHI carry the top equal score weights", 0.5, body)


def test_04_gva_communality():
    def body():
        _, _, sol = fixture_predictor_solution()
        gva = sol.names.index("GVA")
        dominant_sq = float((sol.rotated_loadings[gva] ** 2).max())
        assert dominant_sq >= 0.90, f"dominant squared loading {dominant_sq:.4f}"

    run_criterion(4, "GVA squared loading on its dominant component >= 0.90", 0.5, body)


def test_05_eigen_oracle():
    def body():
        grid = np.linspace(-2.0, 2.0, 21)
        for a in grid:
            for b in grid:
                for c in grid:
                    eig = eigen_symmetric(np.array([[a, b], [b, c]]))
                    hi, lo = eig2_closed_form(a, b, c)
                    assert abs(eig.eigenvalues[0] - hi) <= 1e-10
                    assert abs(eig.eigenvalues[1] - lo) <= 1e-10
        for m, exact in THREE_BY_THREE_SUITE:
            eig = eigen_symmetric(m)
            assert np.abs(eig.eigenvalues - suite_oracle(m, exact)).max() <= 1e-10
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            n = int(rng.integers(2, 13))
            m = rng.standard_normal((n, n))
            m = (m + m.T) / 2.0
            eig = eigen_symmetric(m)
            rebuilt = (eig.eigenvectors * eig.eigenvalues) @ eig.eigenvectors.T
            assert np.abs(rebuilt - m).max() <= 1e-9 * np.abs(m).max()

    run_criterion(5, "eigensolver matches closed forms and reconstructs", 10.0, body)


def test_06_pcr_equals_ols_at_full_rank():
    def body():
        rng = np.random.default_rng(66)
        for _ in range(100):
            n = int(rng.integers(20, 61))
            p = int(rng.integers(2, 7))
            x = rng.standard_normal((n, p)) @ (np.eye(p) + 0.3)
            y = x @ rng.uniform(-1.5, 1.5, size=p) + rng.standard_normal(n)
            pcr_fit, _ = pcr_fit_for(x, y, k=p)
            ols_fit = fit_ols(x, y, names=tuple(f"x{j}" for j in range(p)))
            assert np.abs(pcr_fit.fitted - ols_fit.fitted).max() <= 1e-8

    run_criterion(6, "PCR with all components reproduces the OLS fit", 5.0, body)


def test_07_collinearity_demonstration():
    def body():
        rng = np.random.default_rng(77)
        x = rng.standard_normal((30, 4)) @ (np.eye(4) + 0.2)
        y = x @ np.array([1.0, 0.5, -1.0, 0.25]) + 0.1 * rng.standard_normal(30)
        duplicated = np.column_stack([x, x[:, 1]])
        with pytest.raises(RankDeficiencyError) as excinfo:
            fit_ols(duplicated, y, names=("A", "B", "C", "D", "B2"))
        assert excinfo.value.name == "B2"
        clean_fit, _ = pcr_fit_for(x, y, k=4)
        dup_fit, dup_sol = pcr_fit_for(duplicated, y, k=4)
        assert np.all(np.isfinite(dup_fit.coefficients))
        assert abs(dup_fit.r_squared - clean_fit.r_squared) <= 1e-8
        # The duplicate adds exactly one near-zero eigenvalue.
        assert abs(float(dup_sol.eigenvalues[-1])) <= 1e-8

    run_criterion(7, "duplicated predictor breaks OLS but not PCR", 1.0, body)


def test_08_synthetic_factor_recovery():
    def body():
        failures = 0
        for seed in range(100):
            data, planted = planted_two_factor(seed)
            z = standardize(make_table(data))
            sol = extract(correlation_matrix(z), "auto")
            if sol.n_components != 2:
                failures += 1
                continue
            rot = rotate_varimax(sol)
            c = np.zeros((2, 2))
            for i in range(2):
                for j in range(2):
                    c[i, j] = tucker_congruence(
                        rot.rotated_loadings[:, i], planted[:, j]
                    )
            best = max(c[0, 0] + c[1, 1], c[0, 1] + c[1, 0]) / 2.0
            if best <= 0.95:
                failures += 1
        assert failures <= 1, f"{failures} of 100 seeds failed recovery"

    run_criterion(8, "planted 2-factor structure recovered in >= 99/100 seeds", 10.0, body)


def test_09_differencing_reconstruction_inverse():
    def body():
        rng = np.random.default_rng(99)
        for _ in range(1000):
            n = int(rng.integers(3, 41))
            levels = np.empty(n)
            levels[0] = rng.uniform(1e2, 1e6)
            for i in range(1, n):
                levels[i] = levels[i - 1] * rng.uniform(0.55, 1.9)
            table = make_table(levels[:, None], names=("IY",))
            diffed = difference(table)
            path = reconstruct_prices(levels[0], diffed.column("IY"))
            assert np.array_equal(path.levels, levels[1:])

    run_criterion(9, "reconstruction is the bit-exact inverse of differencing", 1.0, body)


def test_10_determinism(tmp_path):
    def body():
        first = run_pipeline(RunConfig(fixture="fig3"))
        second = run_pipeline(RunConfig(fixture="fig3"))
        assert render_report_text(first).encode() == render_report_text(second).encode()
        assert render_report_delim(first).encode() == render_report_delim(second).encode()
        source = write_table(planted_panel_table(10), tmp_path / "t.csv")
        runs = [run_pipeline(RunConfig(input_path=source)) for _ in range(2)]
        assert render_report_text(runs[0]).encode() == render_report_text(runs[1]).encode()
        assert render_report_delim(runs[0]).encode() == render_report_delim(runs[1]).encode()

    run_criterion(10, "identical inputs render byte-identical reports", 1.0, body)
