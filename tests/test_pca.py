from pathlib import Path

import numpy as np
import pytest

from pcrkit.errors import PcrError
from pcrkit.fixtures import load_fixture
from pcrkit.linalg import canonical_columns
from pcrkit.pca import (
    VARIMAX_TOL,
    component_scores,
    extract,
    rotate_varimax,
    score_weights,
)
from pcrkit.pipeline import RunConfig, run_pipeline
from pcrkit.preprocess import (
    CorrelationMatrix,
    correlation_matrix,
    standardize,
)
from test_preprocess import make_table


def tucker_congruence(a, b) -> float:
    """Tucker congruence |a.b| / (|a||b|) between two loading vectors."""
    av = np.asarray(a, dtype=np.float64)
    bv = np.asarray(b, dtype=np.float64)
    denom = np.sqrt(float(av @ av) * float(bv @ bv))
    if denom == 0.0:
        return 0.0
    return float(abs(av @ bv) / denom)


def corr(values, names=None):
    values = np.asarray(values, dtype=float)
    if names is None:
        names = tuple(f"V{j + 1}" for j in range(values.shape[0]))
    return CorrelationMatrix(names=tuple(names), values=values)


def random_z(seed, n=60, p=4):
    rng = np.random.default_rng(seed)
    mixing = rng.standard_normal((p, p)) + np.eye(p)
    data = rng.standard_normal((n, p)) @ mixing
    return standardize(make_table(data))


def planted_two_factor(seed, n=200, noise_sd=0.1):
    """3 + 3 block structure: two orthogonal factors, unit loadings."""
    rng = np.random.default_rng(seed)
    factors = rng.standard_normal((n, 2))
    planted = np.zeros((6, 2))
    planted[:3, 0] = 1.0
    planted[3:, 1] = 1.0
    data = factors @ planted.T + noise_sd * rng.standard_normal((n, 6))
    return data, planted


GOLDEN = Path(__file__).parent / "golden"


def varimax_fixed_point(loadings, sweeps=300):
    """Kaiser's pairwise varimax in real arithmetic, run for a fixed number of sweeps."""
    p, k = loadings.shape
    h = np.sqrt((loadings**2).sum(axis=1))
    h = np.where(h == 0.0, 1.0, h)
    b = loadings / h[:, None]
    for _ in range(sweeps):
        for i in range(k - 1):
            for j in range(i + 1, k):
                x = b[:, i].copy()
                y = b[:, j].copy()
                u = x * x - y * y
                v = 2.0 * x * y
                num = 2.0 * (u @ v - u.sum() * v.sum() / p)
                den = (u @ u - v @ v) - (u.sum() ** 2 - v.sum() ** 2) / p
                phi = 0.25 * np.arctan2(num, den)
                b[:, i] = np.cos(phi) * x + np.sin(phi) * y
                b[:, j] = -np.sin(phi) * x + np.cos(phi) * y
    rotated = b * h[:, None]
    return canonical_columns((rotated**2).sum(axis=0), rotated)[1]


class TestExtract:
    def test_two_by_two_oracle(self):
        # lambda = (1.8, 0.2); loading = sqrt(1.8)/sqrt(2) = sqrt(0.9).
        sol = extract(corr([[1.0, 0.8], [0.8, 1.0]]), 1)
        expected = np.sqrt(0.9)
        assert sol.loadings[:, 0] == pytest.approx([expected, expected], abs=1e-12)
        assert sol.proportion[0] == pytest.approx(0.9, abs=1e-12)
        assert sol.communality == pytest.approx([0.9, 0.9], abs=1e-12)
        assert sol.component_names == ("PC1",)
        assert sol.rotated_proportion is None

    def test_kaiser_auto_retention(self):
        sol = extract(corr([[1.0, 0.8], [0.8, 1.0]]), "auto")
        assert sol.n_components == 1

    def test_kaiser_rejects_when_nothing_retained(self):
        with pytest.raises(PcrError, match="no components"):
            extract(corr(np.eye(3)), "auto")

    def test_component_count_bounds(self):
        r = corr(np.eye(3))
        with pytest.raises(PcrError) as excinfo:
            extract(r, 0)
        assert str(excinfo.value) == 'components must be "auto" or a positive integer, got 0'
        with pytest.raises(PcrError, match=r"must be in \[1, 3\], got 4"):
            extract(r, 4)

    def test_column_ss_equals_eigenvalue(self):
        r = correlation_matrix(random_z(1))
        sol = extract(r, 3)
        col_ss = (sol.loadings**2).sum(axis=0)
        assert col_ss == pytest.approx(sol.eigenvalues[:3], abs=1e-10)

    def test_full_rank_reconstructs_correlation(self):
        r = correlation_matrix(random_z(3))
        sol = extract(r, len(r.names))
        rebuilt = sol.loadings @ sol.loadings.T
        assert np.abs(rebuilt - r.values).max() <= 1e-10

    def test_proportions_descend(self):
        r = correlation_matrix(random_z(4))
        sol = extract(r, 3)
        assert np.all(sol.proportion[:-1] >= sol.proportion[1:] - 1e-15)

    def test_component_count_follows_replaced_loadings(self):
        # A record made with ``_replace`` keeps no stale copy of the count:
        # its names, shares and weights follow the loadings it holds.
        fig3 = load_fixture("fig3")
        sol = extract(fig3.submatrix(tuple(n for n in fig3.names if n != "IY")))
        assert sol.n_components == 2
        one = sol._replace(loadings=sol.loadings[:, :1])
        assert one.n_components == 1
        assert one.component_names == ("PC1",)
        assert one.proportion.shape == (1,)
        w = score_weights(one)
        assert w.shape == (8, 1)
        assert np.array_equal(w, score_weights(sol)[:, :1])
        assert rotate_varimax(one).component_names == ("RC1",)

    def test_determinism(self):
        r = correlation_matrix(random_z(5))
        a = extract(r, 2)
        b = extract(r, 2)
        assert np.array_equal(a.loadings, b.loadings)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)


class TestVarimax:
    def test_single_component_unchanged(self):
        sol = extract(corr([[1.0, 0.8], [0.8, 1.0]]), 1)
        rot = rotate_varimax(sol)
        assert np.array_equal(rot.rotated_loadings, sol.loadings)
        assert np.array_equal(rot.rotation, np.eye(1))
        assert rot.component_names == ("RC1",)
        # One sweep over no planes, as for every other count.
        assert rot.rotation_sweeps == 1

    def test_rotation_is_orthogonal(self):
        r = correlation_matrix(random_z(6))
        rot = rotate_varimax(extract(r, 3))
        gram = rot.rotation.T @ rot.rotation
        assert np.abs(gram - np.eye(3)).max() <= 1e-12

    def test_rotated_equals_loadings_times_rotation(self):
        r = correlation_matrix(random_z(7))
        rot = rotate_varimax(extract(r, 2))
        assert np.abs(rot.loadings @ rot.rotation - rot.rotated_loadings).max() <= 1e-10

    def test_communalities_preserved(self):
        r = correlation_matrix(random_z(8))
        rot = rotate_varimax(extract(r, 3))
        h2_rot = (rot.rotated_loadings**2).sum(axis=1)
        assert np.abs(h2_rot - rot.communality).max() <= 1e-8

    def test_fit_preserved(self):
        # Rotation must not change the reproduced correlation matrix.
        r = correlation_matrix(random_z(9))
        sol = extract(r, 2)
        rot = rotate_varimax(sol)
        before = sol.loadings @ sol.loadings.T
        after = rot.rotated_loadings @ rot.rotated_loadings.T
        assert np.abs(before - after).max() <= 1e-8

    def test_criterion_not_decreased(self):
        def criterion(m):
            p = m.shape[0]
            sq = m**2
            return float(((sq**2).sum(axis=0) - (sq.sum(axis=0) ** 2) / p).sum())

        r = correlation_matrix(random_z(10, p=6))
        sol = extract(r, 3)
        rot = rotate_varimax(sol)
        h = np.sqrt((sol.loadings**2).sum(axis=1))
        h = np.where(h == 0.0, 1.0, h)
        assert criterion(rot.rotated_loadings / h[:, None]) >= criterion(
            sol.loadings / h[:, None]
        ) - 1e-12

    def test_columns_ordered_by_explained_variance(self):
        r = correlation_matrix(random_z(11, p=5))
        rot = rotate_varimax(extract(r, 3))
        ss = (rot.rotated_loadings**2).sum(axis=0)
        assert np.all(np.diff(ss) <= 1e-12)
        assert rot.rotated_proportion == pytest.approx(ss / len(r.names), abs=1e-14)

    def test_sign_convention(self):
        r = correlation_matrix(random_z(12, p=5))
        rot = rotate_varimax(extract(r, 2))
        for j in range(2):
            col = rot.rotated_loadings[:, j]
            assert col[int(np.argmax(np.abs(col)))] >= 0.0

    def test_total_variance_preserved(self):
        r = correlation_matrix(random_z(13, p=6))
        rot = rotate_varimax(extract(r, 3))
        assert rot.rotated_proportion.sum() == pytest.approx(
            rot.proportion.sum(), abs=1e-10
        )

    def test_recovers_planted_block_structure(self):
        data, planted = planted_two_factor(0)
        z = standardize(make_table(data))
        rot = rotate_varimax(extract(correlation_matrix(z), "auto"))
        assert rot.n_components == 2
        # Best assignment of rotated columns to planted columns.
        c = np.zeros((2, 2))
        for i in range(2):
            for j in range(2):
                c[i, j] = tucker_congruence(rot.rotated_loadings[:, i], planted[:, j])
        best = max(c[0, 0] + c[1, 1], c[0, 1] + c[1, 0]) / 2.0
        assert best > 0.95

    # input, sweeps to the stop, bound on the loading gap to the fixed point
    FIXED_POINT_CASES = {
        "fig3": ({"fixture": "fig3"}, 2, 1e-14),
        "panel30": ({"input_path": GOLDEN / "panel30.csv"}, 5, 1e-10),
        "panel9_short-8": (
            {"input_path": GOLDEN / "panel9_short.csv", "components": 8}, 16, 10 * VARIMAX_TOL
        ),
        "panel9-9": ({"input_path": GOLDEN / "panel9.csv", "components": 9}, 20, 10 * VARIMAX_TOL),
    }

    @pytest.mark.parametrize("case", list(FIXED_POINT_CASES))
    def test_stop_is_near_the_fixed_point(self, case):
        source, sweeps, bound = self.FIXED_POINT_CASES[case]
        sol = run_pipeline(RunConfig(rotation="none", **source)).solution
        rot = rotate_varimax(sol)
        assert rot.rotation_sweeps == sweeps
        gap = np.abs(rot.rotated_loadings - varimax_fixed_point(sol.loadings)).max()
        assert gap <= bound

    def test_zero_communality_row_stays_zero(self):
        r = np.zeros((5, 5))
        r[:2, :2] = [[1.0, 0.8], [0.8, 1.0]]
        r[2:4, 2:4] = [[1.0, 0.6], [0.6, 1.0]]
        r[4, 4] = 1.0
        sol = extract(corr(r), 2)
        assert sol.eigenvalues == pytest.approx([1.8, 1.6, 1.0, 0.4, 0.2], abs=1e-12)
        assert np.all(sol.loadings[4] == 0.0)
        rot = rotate_varimax(sol)
        assert np.all(rot.rotated_loadings[4] == 0.0)
        assert np.abs(rot.rotation.T @ rot.rotation - np.eye(2)).max() <= 1e-12

    def test_determinism(self):
        r = correlation_matrix(random_z(14))
        a = rotate_varimax(extract(r, 2))
        b = rotate_varimax(extract(r, 2))
        assert np.array_equal(a.rotated_loadings, b.rotated_loadings)
        assert np.array_equal(a.rotation, b.rotation)


class TestScoreWeights:
    def test_two_by_two_oracle(self):
        # W = R^-1 L with L = sqrt(0.9) * (1, 1): both entries equal
        # sqrt(0.9) * (1 - 0.8) / (1 - 0.64) = 1/sqrt(3.6).
        r = corr([[1.0, 0.8], [0.8, 1.0]])
        sol = extract(r, 1)
        expected = 1.0 / np.sqrt(3.6)
        assert score_weights(sol)[:, 0] == pytest.approx([expected, expected], abs=1e-12)
        assert sol.component_names == ("PC1",)

    def test_unrotated_scores_are_uncorrelated_unit_variance(self):
        z = random_z(15, n=80, p=5)
        r = correlation_matrix(z)
        f = component_scores(z, extract(r, 2))
        cov = f.T @ f / (f.shape[0] - 1)
        assert np.abs(cov - np.eye(2)).max() <= 1e-6

    def test_rotated_scores_are_uncorrelated_unit_variance(self):
        z = random_z(16, n=80, p=5)
        r = correlation_matrix(z)
        f = component_scores(z, rotate_varimax(extract(r, 2)))
        cov = f.T @ f / (f.shape[0] - 1)
        assert np.abs(cov - np.eye(2)).max() <= 1e-6

    def test_singular_matrix_needs_ridge(self):
        # No ridge is needed: the weights never invert R, so a singular R
        # scores every component with variance; extract refuses to retain
        # the null direction, naming the count that can be scored.
        r = corr([[1.0, 1.0], [1.0, 1.0]])
        w = score_weights(extract(r, 1))
        assert np.all(np.isfinite(w))
        assert (w.T @ r.values @ w)[0, 0] == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(PcrError, match=r"^component count must be in \[1, 1\], got 2$"):
            extract(r, 2)

    @pytest.mark.parametrize("rotate", [False, True])
    def test_closed_form_equals_solve(self, rotate):
        fig3 = load_fixture("fig3")
        matrices = [fig3.submatrix(fig3.names[1:])]
        matrices += [correlation_matrix(random_z(seed, p=6)) for seed in range(20)]
        for r in matrices:
            for k in range(1, len(r.names) + 1):
                sol = extract(r, k)
                loadings = sol.loadings
                if rotate:
                    sol = rotate_varimax(sol)
                    loadings = sol.rotated_loadings
                expected = np.linalg.solve(r.values, loadings)
                got = score_weights(sol)
                assert np.abs(got - expected).max() <= 1e-10

    def test_component_labels_follow_rotation(self):
        r = correlation_matrix(random_z(17))
        rot = rotate_varimax(extract(r, 2))
        assert rot.component_names == ("RC1", "RC2")
        assert score_weights(rot).shape[1] == len(rot.component_names)


class TestComponentScores:
    def test_name_alignment_enforced(self):
        z = random_z(18)
        r = correlation_matrix(z)
        narrowed = r.submatrix(z.names[:2]).data
        with pytest.raises(PcrError, match="variable names do not match"):
            component_scores(narrowed, extract(r, 1))

    def test_scores_shape(self):
        z = random_z(19, n=30, p=4)
        r = correlation_matrix(z)
        f = component_scores(z, extract(r, 2))
        assert f.shape == (30, 2)

    @pytest.mark.parametrize("rotation", ["varimax", "none"])
    def test_scores_are_the_data_times_the_weights(self, rotation):
        # The weights are a function of the solution: scoring through
        # the solution and multiplying by its weights give the same bits.
        report = run_pipeline(RunConfig(input_path=GOLDEN / "panel9.csv", rotation=rotation))
        sol = report.solution
        z = correlation_matrix(standardize(report.increments)).submatrix(sol.names).data
        w = score_weights(sol)
        assert type(w) is np.ndarray and w.shape == (sol.p, sol.n_components)
        assert np.array_equal(component_scores(z, sol), z.values @ w)
        assert np.array_equal(report.scores, z.values @ w)


class TestTuckerCongruence:
    def test_identical_vectors(self):
        v = np.array([1.0, 2.0, 3.0])
        assert tucker_congruence(v, v) == pytest.approx(1.0, abs=1e-15)

    def test_sign_invariant(self):
        v = np.array([1.0, -2.0, 0.5])
        assert tucker_congruence(v, -v) == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal_vectors(self):
        assert tucker_congruence([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_zero_vector(self):
        assert tucker_congruence([0.0, 0.0], [1.0, 1.0]) == 0.0
