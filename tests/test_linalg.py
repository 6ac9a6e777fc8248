import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pcrkit.errors import PcrError, RankDeficiencyError
from pcrkit.linalg import eigen_symmetric
from pcrkit.regression import fit_ols


def eig2_closed_form(a: float, b: float, c: float) -> tuple[float, float]:
    """Roots of the characteristic polynomial of [[a, b], [b, c]]."""
    mean = (a + c) / 2.0
    radius = np.hypot((a - c) / 2.0, b)
    return mean + radius, mean - radius


def eig3_closed_form(m) -> np.ndarray:
    """Trigonometric closed form for a symmetric 3x3, descending."""
    a = np.asarray(m, dtype=float)
    p1 = a[0, 1] ** 2 + a[0, 2] ** 2 + a[1, 2] ** 2
    if p1 == 0.0:
        return np.sort(np.diagonal(a))[::-1].copy()
    q = np.trace(a) / 3.0
    p2 = ((a[0, 0] - q) ** 2 + (a[1, 1] - q) ** 2 + (a[2, 2] - q) ** 2) + 2.0 * p1
    p = np.sqrt(p2 / 6.0)
    b = (a - q * np.eye(3)) / p
    r = np.linalg.det(b) / 2.0
    r = min(1.0, max(-1.0, float(r)))
    phi = np.arccos(r) / 3.0
    e1 = q + 2.0 * p * np.cos(phi)
    e3 = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
    e2 = 3.0 * q - e1 - e3
    return np.array([e1, e2, e3])


# Fixed 3x3 suite: each entry pairs a matrix with its exact eigenvalues
# where the roots are known algebraically (the trigonometric formula is
# ill-conditioned at repeated roots); None defers to the formula.
THREE_BY_THREE_SUITE = [
    (np.diag([3.0, 2.0, 1.0]), np.array([3.0, 2.0, 1.0])),
    (np.ones((3, 3)), np.array([3.0, 0.0, 0.0])),
    (np.zeros((3, 3)), np.zeros(3)),
    (np.array([[1.0, 0.5, 0.3], [0.5, 1.0, 0.2], [0.3, 0.2, 1.0]]), None),
    (
        # Second-difference matrix: roots 2 + sqrt(2), 2, 2 - sqrt(2).
        np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]]),
        np.array([2.0 + np.sqrt(2.0), 2.0, 2.0 - np.sqrt(2.0)]),
    ),
    (np.array([[1.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 3.0]]), None),
    (
        # (1,-1,0) and (1,1,-4) give the repeated root 1; (2,2,1) gives 10.
        np.array([[5.0, 4.0, 2.0], [4.0, 5.0, 2.0], [2.0, 2.0, 2.0]]),
        np.array([10.0, 1.0, 1.0]),
    ),
    (np.array([[1.0, 0.99, -0.5], [0.99, 1.0, -0.5], [-0.5, -0.5, 1.0]]), None),
    (np.array([[-2.0, 1.0, 0.5], [1.0, -3.0, 0.25], [0.5, 0.25, -4.0]]), None),
    (np.eye(3) * 7.0, np.full(3, 7.0)),
    (
        # Decouples into [[4, 2], [2, 4]] (roots 6, 2) and the scalar 4.
        np.array([[4.0, 0.0, 2.0], [0.0, 4.0, 0.0], [2.0, 0.0, 4.0]]),
        np.array([6.0, 4.0, 2.0]),
    ),
    (
        np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]),
        np.array([np.sqrt(2.0), 0.0, -np.sqrt(2.0)]),
    ),
]


def suite_oracle(matrix: np.ndarray, exact) -> np.ndarray:
    return exact.copy() if exact is not None else eig3_closed_form(matrix)


class TestEigenOracles:
    def test_2x2_grid_matches_closed_form(self):
        grid = np.linspace(-2.0, 2.0, 9)
        for a in grid:
            for b in grid:
                for c in grid:
                    eig = eigen_symmetric(np.array([[a, b], [b, c]]))
                    hi, lo = eig2_closed_form(a, b, c)
                    assert abs(eig.eigenvalues[0] - hi) <= 1e-10
                    assert abs(eig.eigenvalues[1] - lo) <= 1e-10

    def test_2x2_exact_integers(self):
        eig = eigen_symmetric(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert eig.eigenvalues == pytest.approx([3.0, 1.0], abs=1e-12)

    def test_2x2_correlation(self):
        eig = eigen_symmetric(np.array([[1.0, 0.8], [0.8, 1.0]]))
        assert eig.eigenvalues == pytest.approx([1.8, 0.2], abs=1e-12)

    def test_3x3_suite_matches_closed_form(self):
        for m, exact in THREE_BY_THREE_SUITE:
            eig = eigen_symmetric(m)
            expected = suite_oracle(m, exact)
            assert np.max(np.abs(eig.eigenvalues - expected)) <= 1e-10, m

    def test_large_scale_relative_accuracy(self):
        base, _ = THREE_BY_THREE_SUITE[3]
        for scale in (1e-6, 1e6):
            m = base * scale
            eig = eigen_symmetric(m)
            expected = eig3_closed_form(m)
            assert np.max(np.abs(eig.eigenvalues - expected)) <= 1e-10 * scale


class TestEigenProperties:
    def test_reconstruction_and_orthogonality(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(2, 13))
            m = rng.standard_normal((n, n))
            m = (m + m.T) / 2.0
            eig = eigen_symmetric(m)
            rebuilt = (eig.eigenvectors * eig.eigenvalues) @ eig.eigenvectors.T
            scale = np.abs(m).max()
            assert np.abs(rebuilt - m).max() <= 1e-9 * scale
            gram = eig.eigenvectors.T @ eig.eigenvectors
            assert np.abs(gram - np.eye(n)).max() <= 1e-10

    def test_sorted_descending(self):
        rng = np.random.default_rng(11)
        m = rng.standard_normal((6, 6))
        m = (m + m.T) / 2.0
        eig = eigen_symmetric(m)
        assert np.all(np.diff(eig.eigenvalues) <= 0.0)

    def test_identity_keeps_discovery_order_on_ties(self):
        eig = eigen_symmetric(np.eye(4))
        assert np.array_equal(eig.eigenvalues, np.ones(4))
        assert np.array_equal(eig.eigenvectors, np.eye(4))

    def test_sign_convention(self):
        # [[0, 1], [1, 0]]: both eigenvectors have |entries| tied at
        # 1/sqrt(2); the lowest-index entry must come out non-negative.
        eig = eigen_symmetric(np.array([[0.0, 1.0], [1.0, 0.0]]))
        s = 1.0 / np.sqrt(2.0)
        assert eig.eigenvalues == pytest.approx([1.0, -1.0], abs=1e-12)
        assert eig.eigenvectors[:, 0] == pytest.approx([s, s], abs=1e-12)
        assert eig.eigenvectors[:, 1] == pytest.approx([s, -s], abs=1e-12)

    def test_determinism_bitwise(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((8, 8))
        m = (m + m.T) / 2.0
        first = eigen_symmetric(m)
        second = eigen_symmetric(m)
        assert np.array_equal(first.eigenvalues, second.eigenvalues)
        assert np.array_equal(first.eigenvectors, second.eigenvectors)

    def test_input_not_mutated(self):
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        keep = m.copy()
        eigen_symmetric(m)
        assert np.array_equal(m, keep)

    def test_one_by_one(self):
        eig = eigen_symmetric(np.array([[5.0]]))
        assert np.array_equal(eig.eigenvalues, np.array([5.0]))
        assert np.array_equal(eig.eigenvectors, np.array([[1.0]]))

    @settings(max_examples=40, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=2, max_side=6),
            elements=st.floats(-10.0, 10.0),
        )
    )
    def test_reconstruction_property(self, raw):
        if raw.shape[0] != raw.shape[1]:
            raw = raw[: min(raw.shape), : min(raw.shape)]
        m = (raw + raw.T) / 2.0
        eig = eigen_symmetric(m)
        rebuilt = (eig.eigenvectors * eig.eigenvalues) @ eig.eigenvectors.T
        scale = max(np.abs(m).max(), 1.0)
        assert np.abs(rebuilt - m).max() <= 1e-9 * scale
        assert abs(eig.eigenvalues.sum() - np.trace(m)) <= 1e-9 * scale * m.shape[0]


class TestLeastSquares:
    """``solve_least_squares`` as the product runs it, through ``fit_ols``.

    ``fit_ols`` checks the shapes and values and scales each column by a
    power of two before the solver sees them, so these cases drive it.
    The overflow in back-substitution is pinned in ``test_errors.py``.
    """

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            m = int(rng.integers(5, 40))
            n = int(rng.integers(1, min(m - 1, 8)))
            x = rng.standard_normal((m, n))
            y = rng.standard_normal(m)
            residual = y - fit_ols(x, y, names=tuple("abcdefg"[:n])).fitted
            bound = 1e-8 * max(np.abs(x).max(), 1.0) * max(np.abs(y).max(), 1.0)
            assert np.abs(np.column_stack([np.ones(m), x]).T @ residual).max() <= bound

    def test_rank_deficiency_names_column(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((20, 3))
        x = np.column_stack([x, x[:, 0] + x[:, 1]])
        with pytest.raises(RankDeficiencyError) as excinfo:
            fit_ols(x, rng.standard_normal(20), names=("a", "b", "c", "d"))
        assert excinfo.value.column == 4
        assert excinfo.value.name == "d"
        assert "d" in str(excinfo.value)

    def test_rank_test_is_relative_to_each_column(self):
        # A unit intercept next to a column of size 1e150 is not dependent.
        x = np.linspace(-1.0, 2.0, 7) ** 2
        fit = fit_ols(1e150 * x[:, None], 3.0 + 2.0 * x, names=("x",))
        assert fit.intercept == pytest.approx(3.0, rel=1e-12)
        assert fit.coefficients[0] * 1e150 == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("scale", [1e300, 1e-300])
    def test_rank_test_holds_at_the_ends_of_the_float_range(self, scale):
        # The column norms are taken on exactly rescaled columns, so neither
        # overflows to inf nor underflows to 0.
        x = np.linspace(-1.0, 2.0, 7) ** 2
        fit = fit_ols(scale * x[:, None], 3.0 + 2.0 * x, names=("x",))
        assert fit.intercept == pytest.approx(3.0, rel=1e-12)
        assert fit.coefficients[0] * scale == pytest.approx(2.0, rel=1e-12)

    def test_underdetermined_rejected(self):
        with pytest.raises(PcrError, match="3 predictors needs at least 5 observations, got 2"):
            fit_ols(np.ones((2, 3)), np.ones(2), names=("a", "b", "c"))

    def test_response_shape_checked(self):
        with pytest.raises(PcrError, match="response vector: expected shape"):
            fit_ols(np.arange(3.0)[:, None], np.ones(4), names=("x",))

    def test_rejects_non_finite_response(self):
        with pytest.raises(PcrError, match="non-finite entry in response"):
            fit_ols(np.arange(3.0)[:, None], np.array([1.0, np.nan, 2.0]), names=("x",))
