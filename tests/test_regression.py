import numpy as np
import pytest

from pcrkit.errors import PcrError, RankDeficiencyError
from pcrkit.pca import component_scores, extract, rotate_varimax, score_weights
from pcrkit.preprocess import correlation_matrix, difference, standardize
from pcrkit.regression import fit_ols, fit_pcr, reconstruct_prices
from test_preprocess import make_table


def fitted_pipeline(seed, n=24, p=3, k=None):
    """Standardize -> correlate -> extract -> rotate -> score -> PCR."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p)) @ (np.eye(p) + 0.3)
    y = x @ rng.uniform(0.5, 1.5, size=p) + 0.1 * rng.standard_normal(n)
    table = make_table(np.column_stack([y, x]), names=("Y",) + tuple(f"X{i+1}" for i in range(p)))
    z = standardize(table)
    r = correlation_matrix(z).submatrix(table.names[1:])
    sol = rotate_varimax(extract(r, k if k is not None else p))
    w = score_weights(sol)
    scores = component_scores(r.data, w)
    fit = fit_pcr(scores, table.column("Y"), w.component_names)
    return table, z, w, scores, fit


class TestFitOls:
    def test_exact_line_recovered(self):
        x = np.arange(10.0)[:, None]
        y = 3.0 + 2.0 * x[:, 0]
        fit = fit_ols(x, y, names=("x",))
        assert fit.intercept == pytest.approx(3.0, abs=1e-10)
        assert fit.coefficients[0] == pytest.approx(2.0, abs=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert np.abs(y - fit.fitted).max() <= 1e-10

    def test_hand_derived_inconsistent_fit(self):
        # Fit of y = (0, 0, 3) on t = (0, 1, 2): beta = (-1/2, 3/2),
        # fitted (-0.5, 1, 2.5), residuals (0.5, -1, 0.5), SSE = 1.5,
        # SST = 6, so R^2 = 0.75 and se = sqrt(1.5 / 1).
        fit = fit_ols(np.array([[0.0], [1.0], [2.0]]), np.array([0.0, 0.0, 3.0]), names=("t",))
        assert fit.intercept == pytest.approx(-0.5, abs=1e-12)
        assert fit.coefficients[0] == pytest.approx(1.5, abs=1e-12)
        assert fit.fitted == pytest.approx([-0.5, 1.0, 2.5], abs=1e-12)
        assert fit.r_squared == pytest.approx(0.75, abs=1e-12)
        assert fit.residual_se == pytest.approx(np.sqrt(1.5), abs=1e-12)

    def test_needs_residual_degree_of_freedom(self):
        with pytest.raises(PcrError) as excinfo:
            fit_ols(np.ones((3, 2)) + np.eye(3, 2), np.ones(3), names=("a", "b"))
        assert str(excinfo.value) == "ols with 2 predictors needs at least 4 observations, got 3"

    def test_duplicated_predictor_named_in_error(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((20, 2))
        x = np.column_stack([x, x[:, 0]])
        with pytest.raises(RankDeficiencyError) as excinfo:
            fit_ols(x, rng.standard_normal(20), names=("GVA", "PD", "GVA2"))
        assert excinfo.value.name == "GVA2"
        assert "GVA2" in str(excinfo.value)

    def test_constant_predictor_collides_with_intercept(self):
        rng = np.random.default_rng(2)
        x = np.column_stack([rng.standard_normal(15), np.full(15, 2.5)])
        with pytest.raises(RankDeficiencyError) as excinfo:
            fit_ols(x, rng.standard_normal(15), names=("A", "B"))
        assert excinfo.value.name == "B"

    def test_zero_variance_response_warns(self):
        x = np.arange(8.0)[:, None]
        with pytest.warns(UserWarning, match="zero variance"):
            fit = fit_ols(x, np.full(8, 3.0), names=("x",))
        assert fit.r_squared == 0.0

    def test_zero_variance_guard_is_relative(self, recwarn):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((12, 2))
        y = x @ np.array([1.0, 0.5]) + rng.standard_normal(12)
        base = fit_ols(x, y, names=("a", "b"))
        tiny = fit_ols(x, y * 1e-150, names=("a", "b"))
        assert abs(tiny.r_squared - base.r_squared) <= 1e-12
        assert len(recwarn) == 0

    def test_r_squared_invariant_under_predictor_rescale(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((30, 3))
        y = x @ np.array([1.0, -2.0, 0.5]) + rng.standard_normal(30)
        base = fit_ols(x, y, names=("a", "b", "c"))
        scaled = x.copy()
        scaled[:, 1] = scaled[:, 1] * 250.0 - 7.0
        again = fit_ols(scaled, y, names=("a", "b", "c"))
        assert again.r_squared == pytest.approx(base.r_squared, abs=1e-10)
        assert np.abs(again.fitted - base.fitted).max() <= 1e-8

    @staticmethod
    def one_predictor():
        rng = np.random.default_rng(3)
        x = rng.standard_normal(15)
        return x, 0.4 * x + rng.standard_normal(15)

    @pytest.mark.parametrize("sx, sy", [(1e241, 1e-198), (1e160, 1e-160)])
    def test_far_apart_scales_keep_the_fit(self, sx, sy):
        # The coefficient, about 1e-440 and 1e-321, is below the normal
        # range: it prints as 0.0 or subnormal, but the fit keeps its R².
        x, y = self.one_predictor()
        base = fit_ols(x[:, None], y, names=("X",))
        fit = fit_ols((x * sx)[:, None], y * sy, names=("X",))
        assert abs(fit.r_squared - base.r_squared) <= 1e-12
        np.testing.assert_allclose(fit.fitted, base.fitted * sy, rtol=1e-12)
        assert fit.intercept == pytest.approx(base.intercept * sy, rel=1e-12)
        assert fit.residual_se == pytest.approx(base.residual_se * sy, rel=1e-12)

    SCALES = [1e-300, 1e-200, 1e-100, 1.0, 1e100, 1e200, 1e300]

    @pytest.mark.parametrize("sy", SCALES)
    @pytest.mark.parametrize("sx", SCALES)
    def test_any_pair_of_scales_fits_or_names_the_column(self, sx, sy):
        # The coefficient is about 0.18 * sy / sx: only where that passes
        # the largest float may the fit fail, and then it names the column.
        x, y = self.one_predictor()
        base = fit_ols(x[:, None], y, names=("X",))
        try:
            fit = fit_ols((x * sx)[:, None], y * sy, names=("X",))
        except PcrError as err:
            assert "column 1 (X)" in str(err)
            assert np.log10(sy) - np.log10(sx) > 300
            return
        assert abs(fit.r_squared - base.r_squared) <= 1e-12


class TestFitPcr:
    def test_component_names_carried(self):
        *_, fit = fitted_pipeline(4)
        assert fit.predictor_names == ("RC1", "RC2", "RC3")

    def test_full_rank_pcr_matches_ols(self):
        table, _, _, scores, pcr_fit = fitted_pipeline(5, n=30, p=4)
        raw = np.column_stack([table.column(n) for n in table.names[1:]])
        ols_fit = fit_ols(raw, table.column("Y"), names=table.names[1:])
        assert np.abs(pcr_fit.fitted - ols_fit.fitted).max() <= 1e-8
        assert pcr_fit.r_squared == pytest.approx(ols_fit.r_squared, abs=1e-8)


class TestReconstructPrices:
    def test_hand_values(self):
        path = reconstruct_prices(10.0, [1.0, -2.0, 3.0])
        assert np.array_equal(path.levels, np.array([11.0, 9.0, 12.0]))
        assert path.base == 10.0

    def test_bit_exact_inverse_of_difference(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(3, 40))
            levels = np.empty(n)
            levels[0] = rng.uniform(1e2, 1e6)
            for i in range(1, n):
                levels[i] = levels[i - 1] * rng.uniform(0.55, 1.9)
            table = make_table(levels[:, None], names=("IY",))
            diffed = difference(table)
            path = reconstruct_prices(levels[0], diffed.column("IY"))
            assert np.array_equal(path.levels, levels[1:])

    def test_matches_sequential_addition(self):
        # Arbitrary increments, where cumulation is not an exact inverse:
        # the levels still equal a left-to-right running sum bit for bit.
        rng = np.random.default_rng(7)
        for _ in range(200):
            base = float(rng.standard_normal() * 10.0 ** rng.integers(-5, 6))
            increments = rng.standard_normal(int(rng.integers(1, 60))) * 1e3
            running, expected = base, []
            for step in increments.tolist():
                running = running + step
                expected.append(running)
            path = reconstruct_prices(base, increments)
            assert path.levels.tolist() == expected

    def test_rejects_non_finite_base(self):
        with pytest.raises(PcrError, match="non-finite entry in base level"):
            reconstruct_prices(np.nan, [1.0])

    def test_rejects_matrix_increments(self):
        with pytest.raises(PcrError, match="increments: expected shape"):
            reconstruct_prices(0.0, np.ones((2, 2)))

