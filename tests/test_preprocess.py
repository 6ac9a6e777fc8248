import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pcrkit.errors import PcrError
from pcrkit.fixtures import load_fixture
from pcrkit.pipeline import load_table
from pcrkit.preprocess import (
    CorrelationMatrix,
    TimeSeriesTable,
    correlation_matrix,
    difference,
    scatter_pairs,
    standardize,
    vif,
)


def make_table(values, names=None, start_year=2000):
    values = np.asarray(values, dtype=float)
    if names is None:
        names = tuple(f"V{j + 1}" for j in range(values.shape[1]))
    return TimeSeriesTable(
        years=np.arange(start_year, start_year + values.shape[0]),
        names=tuple(names),
        values=values,
    )


def random_walk_table(seed, n_years=20, n_vars=4):
    rng = np.random.default_rng(seed)
    steps = rng.standard_normal((n_years, n_vars))
    return make_table(np.cumsum(steps, axis=0) + 10.0)


def least_squares_vif(z, j, drop=()):
    """VIF of column j from its regression on the other columns, less ``drop``."""
    others = [k for k, name in enumerate(z.names) if k != j and name not in drop]
    x, y = z.values[:, others], z.values[:, j]
    beta, *_ = np.linalg.lstsq(x, y, rcond=None)
    resid = y - x @ beta
    return float(y @ y) / float(resid @ resid)


def exact_solve(a, b):
    """Solve a x = b by Gaussian elimination over ``Fraction``."""
    n = len(a)
    m = [row[:] + [rhs] for row, rhs in zip(a, b)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[pivot] = m[pivot], m[c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            for k in range(c, n + 1):
                m[r][k] -= f * m[c][k]
    x = [Fraction(0)] * n
    for c in reversed(range(n)):
        x[c] = (m[c][n] - sum(m[c][k] * x[k] for k in range(c + 1, n))) / m[c][c]
    return x


def exact_vif(z):
    """VIF_j = 1 / (R_jj - r_j' R_-j^-1 r_j), in exact arithmetic from the float Z."""
    n, p = z.shape
    q = [[Fraction(v) for v in row] for row in z.tolist()]
    r = [[sum(q[t][i] * q[t][j] for t in range(n)) / (n - 1) for j in range(p)]
         for i in range(p)]
    out = []
    for j in range(p):
        others = [k for k in range(p) if k != j]
        r_j = [r[k][j] for k in others]
        x = exact_solve([[r[a][b] for b in others] for a in others], r_j)
        out.append(float(1 / (r[j][j] - sum(a * b for a, b in zip(r_j, x)))))
    return out


# Near today, and at each edge of int64 and uint64, and beyond any float.
YEAR_STARTS = st.one_of(
    st.integers(1900, 2100),
    st.integers(-(2**63) - 2, -(2**63) + 1),
    st.integers(2**63 - 3, 2**63 + 1),
    st.integers(2**64 - 3, 2**64),
    st.just(10**400),
)


@st.composite
def year_arrays(draw):
    """Consecutive years, perhaps one fractional or no number, in an array of one kind.

    Returns the array and the Python values it holds, each exactly.
    """
    start, n = draw(YEAR_STARTS), draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["int64", "uint64", "float64", "object", "text"]))
    years = list(range(start, start + n))
    if kind in ("int64", "uint64"):
        assume(np.iinfo(kind).min <= start and years[-1] <= np.iinfo(kind).max)
        return np.array(years, dtype=kind), years
    if kind == "text":
        return np.array([str(y) for y in years]), years
    given = [Fraction(y) for y in years]
    if draw(st.booleans()):
        fraction = draw(st.sampled_from([Fraction(1, 2), Fraction(-1, 3)]))
        given[draw(st.integers(0, n - 1))] += fraction
    if draw(st.booleans()):
        given[draw(st.integers(0, n - 1))] = draw(st.sampled_from([math.nan, math.inf]))
    if kind == "float64":
        assume(start < 2**1000)
        array = np.array([float(v) for v in given])
        return array, array.tolist()
    given = [draw(st.sampled_from(_held_as(v))) for v in given]
    return np.array(given, dtype=object), given


def _held_as(v):
    """The Python objects that hold year ``v`` exactly."""
    if isinstance(v, float):
        return [v]
    forms = [v, int(v)] if v.denominator == 1 else [v]
    return forms + [float(v)] if abs(v) < 2**1000 and float(v) == v else forms


@given(year_arrays())
@settings(max_examples=300, deadline=None)
def test_years_are_the_numbers_given_or_raise(case):
    # A year is never truncated, rounded or wrapped into another integer.
    array, given = case
    exact = [Fraction(v) for v in given if not isinstance(v, float) or math.isfinite(v)]
    readable = (
        len(exact) == len(given)
        and all(v.denominator == 1 and -(2**63) <= v < 2**63 for v in exact)
        and all(b - a == 1 for a, b in zip(exact, exact[1:]))
    )
    try:
        years = TimeSeriesTable(array, ("a",), np.ones((len(given), 1))).years.tolist()
    except PcrError:
        assert not readable
    else:
        assert readable and years == exact


class TestTableValidation:
    def test_years_must_be_consecutive(self):
        with pytest.raises(PcrError, match="consecutive"):
            TimeSeriesTable(
                years=np.array([2000, 2002, 2003]),
                names=("A",),
                values=np.ones((3, 1)),
            )

    def test_duplicate_names_rejected(self):
        with pytest.raises(PcrError, match="duplicate"):
            make_table(np.ones((3, 2)), names=("A", "A"))

    def test_names_are_read_once_from_any_iterable(self):
        t = TimeSeriesTable([2000, 2001], (n for n in ("A", "B")), np.ones((2, 2)))
        r = CorrelationMatrix(iter(["a", "b"]), np.eye(2))
        assert t.names == ("A", "B") and r.names == ("a", "b")
        assert r.submatrix(n for n in ("b", "a")).names == ("b", "a")

    def test_keeps_its_own_copies_of_years_and_values(self):
        # Once built, the table is valid whatever the caller does to its arrays.
        years, values = np.array([1, 2, 3], dtype=np.int64), np.ones((3, 2))
        t = TimeSeriesTable(years, ("x", "y"), values)
        years[1] = 10
        values[0, 0] = np.nan
        assert t.years.tolist() == [1, 2, 3] and np.isfinite(t.values).all()

    def test_any_columns_standardize_and_correlate(self):
        # No column is the response: a table without IY needs no dummy one.
        t = make_table([[1.0, 2.0], [2.0, 1.0], [4.0, 5.0], [3.0, 3.0]], names=("A", "B"))
        z = standardize(t)
        assert z.names == ("A", "B")
        assert np.array_equal(z.years, t.years)
        r = correlation_matrix(z)
        assert r.names == ("A", "B") and r.data is z
        assert np.array_equal(r.submatrix(("B",)).data.years, t.years)

    def test_non_finite_rejected(self):
        with pytest.raises(Exception, match="non-finite"):
            make_table([[1.0, 2.0], [np.nan, 3.0], [4.0, 5.0]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(PcrError):
            TimeSeriesTable(
                years=np.arange(2),
                names=("A",),
                values=np.ones((3, 1)),
            )

    def test_column_lookup(self):
        t = make_table([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]], names=("A", "B"))
        assert np.array_equal(t.column("B"), np.array([10.0, 20.0, 30.0]))
        with pytest.raises(PcrError, match="variable names do not match"):
            t.column("Z")


class TestDifference:
    def test_absolute_hand_values(self):
        t = make_table([[1.0], [3.0], [6.0]])
        d = difference(t)
        assert np.array_equal(d.values, np.array([[2.0], [3.0]]))
        assert np.array_equal(d.years, np.array([2001, 2002]))
        assert d.names == t.names

    def test_absolute_matches_elementwise_loop(self):
        t = random_walk_table(0)
        d = difference(t)
        for i in range(1, t.n_years):
            for j in range(len(t.names)):
                assert d.values[i - 1, j] == t.values[i, j] - t.values[i - 1, j]

    def test_needs_three_years(self):
        t = make_table([[1.0], [2.0]])
        with pytest.raises(PcrError) as excinfo:
            difference(t)
        assert str(excinfo.value) == "differencing needs at least 3 observations, got 2"

    @pytest.mark.parametrize(
        ("mode", "levels", "year"),
        [
            ("absolute", [0.0, 1.7e308, -1.7e308, 1.7e308], 2002),
            ("percent", [1.0, 1e-320, 1e300, 1.0], 2002),
        ],
    )
    def test_overflow_names_year_and_column(self, mode, levels, year):
        t = make_table(np.column_stack([[1.0, 2.0, 4.0, 7.0], levels]), names=("IY", "A"))
        with pytest.raises(PcrError) as excinfo:
            difference(t, mode=mode)
        assert str(excinfo.value) == f"{mode} differencing overflows at year {year}, column 'A'"

    def test_percent_hand_values(self):
        t = make_table([[100.0], [110.0], [99.0]])
        d = difference(t, mode="percent")
        assert d.values[:, 0] == pytest.approx([0.1, -0.1], rel=1e-12)

    def test_percent_rejects_zero_level(self):
        t = make_table([[1.0], [0.0], [2.0]])
        with pytest.raises(PcrError, match="zero"):
            difference(t, mode="percent")

    def test_off_returns_table_unchanged(self):
        t = random_walk_table(1)
        d = difference(t, mode="off")
        assert d is t

    def test_unknown_mode_rejected(self):
        with pytest.raises(PcrError, match="mode"):
            difference(random_walk_table(2), mode="log")


class TestStandardize:
    def test_hand_values(self):
        z = standardize(make_table([[1.0], [2.0], [3.0]]))
        assert np.array_equal(z.values[:, 0], np.array([-1.0, 0.0, 1.0]))
        # By hand: mean 2, sample sd 1.
        assert np.array_equal(z.values[:, 0], (np.array([1.0, 2.0, 3.0]) - 2.0) / 1.0)

    def test_sample_sd_uses_ddof_1(self):
        t = make_table([[1.0], [2.0], [3.0], [4.0]])
        z = standardize(t)
        # By hand: mean 2.5, squared deviations sum to 5, sample sd sqrt(5/3).
        oracle = (np.array([1.0, 2.0, 3.0, 4.0]) - 2.5) / np.sqrt(5.0 / 3.0)
        assert z.values[:, 0] == pytest.approx(oracle, rel=1e-14)

    def test_zero_variance_named(self):
        t = make_table([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]], names=("A", "B"))
        with pytest.raises(PcrError) as excinfo:
            standardize(t)
        assert str(excinfo.value) == "column 'B' has zero variance and cannot be standardized"

    @pytest.mark.parametrize("exponent", [-1000, -60, 60, 1000])
    def test_power_of_two_scale_changes_no_bit(self, exponent):
        t = random_walk_table(9)
        scaled = TimeSeriesTable(
            years=t.years, names=t.names, values=np.ldexp(t.values, exponent)
        )
        assert np.array_equal(standardize(scaled).values, standardize(t).values)

    @pytest.mark.parametrize("scale", [1e300, 1e-300])
    def test_extreme_scales_standardize(self, scale):
        t = make_table([[1.0], [2.0], [4.0], [7.0]])
        z = standardize(make_table(t.values * scale))
        assert z.values == pytest.approx(standardize(t).values, abs=1e-14)

    def test_moments_within_tolerance(self):
        t = random_walk_table(7, n_years=30)
        z = standardize(t)
        assert np.abs(z.values.mean(axis=0)).max() <= 1e-10
        assert np.abs(z.values.std(axis=0, ddof=1) - 1.0).max() <= 1e-10

    def test_idempotent_within_tolerance(self):
        t = random_walk_table(8)
        z = standardize(t)
        again = standardize(z)
        assert np.abs(again.values - z.values).max() <= 1e-12

    def test_select_reorders_and_subsets(self):
        # The submatrix of the correlation matrix keeps its columns of z.
        t = make_table(
            [[1.0, 10.0, 5.0], [2.0, 30.0, 6.0], [3.0, 20.0, 9.0]],
            names=("A", "B", "C"),
        )
        z = standardize(t)
        sub = correlation_matrix(z).submatrix(("C", "A")).data
        assert sub.names == ("C", "A")
        assert np.array_equal(sub.values[:, 1], z.values[:, 0])
        # By hand for C = (5, 6, 9): mean 20/3, sample sd sqrt(13/3).
        oracle = (np.array([5.0, 6.0, 9.0]) - 20.0 / 3.0) / np.sqrt(13.0 / 3.0)
        assert sub.values[:, 0] == pytest.approx(oracle, rel=1e-14)

    def test_insufficient_data(self):
        with pytest.raises(PcrError, match="needs at least 2 observations"):
            standardize(make_table([[1.0]]))


class TestCorrelation:
    def test_hand_oracle(self):
        # z_x = (-1, 0, 1), z_y = (-1, 1, 0): r = (1 + 0 + 0) / 2 = 0.5.
        t = make_table([[1.0, 1.0], [2.0, 3.0], [3.0, 2.0]], names=("x", "y"))
        r = correlation_matrix(standardize(t))
        assert r.values[0, 1] == pytest.approx(0.5, abs=1e-14)

    def test_perfect_linear_relation(self):
        x = np.arange(10.0)
        t = make_table(np.column_stack([x, 2.0 * x + 3.0]), names=("x", "y"))
        r = correlation_matrix(standardize(t))
        assert r.values[0, 1] == pytest.approx(1.0, abs=1e-12)
        assert r.values[0, 1] <= 1.0

    def test_structure_invariants(self):
        t = random_walk_table(10, n_vars=6)
        r = correlation_matrix(standardize(t))
        assert np.array_equal(r.values, r.values.T)
        assert np.array_equal(np.diagonal(r.values), np.ones(6))
        assert np.abs(r.values).max() <= 1.0
        assert r.eigen.eigenvalues[-1] >= -1e-8
        assert np.all(np.diff(r.eigen.eigenvalues) <= 0.0)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.floats(0.01, 100.0),
        st.floats(-50.0, 50.0),
    )
    def test_invariant_under_positive_affine_rescale(self, seed, scale, shift):
        t = random_walk_table(seed, n_years=12, n_vars=3)
        r = correlation_matrix(standardize(t))
        scaled = t.values.copy()
        scaled[:, 1] = scaled[:, 1] * scale + shift
        r2 = correlation_matrix(standardize(make_table(scaled, names=t.names)))
        assert np.abs(r2.values - r.values).max() <= 1e-10

    def test_submatrix(self):
        t = random_walk_table(11, n_vars=4)
        r = correlation_matrix(standardize(t))
        sub = r.submatrix(("V3", "V1"))
        assert sub.names == ("V3", "V1")
        assert sub.values[0, 1] == r.values[2, 0]
        with pytest.raises(PcrError, match="variable names do not match"):
            r.submatrix(("V1", "nope"))

    def test_data_matrix_of_unstandardized_columns_raises_when_built(self):
        # Increments of walks scaled 1 to 1000 are not standardized: their
        # product is no correlation matrix, and vif and extract never see it.
        rng = np.random.default_rng(0)
        levels = np.cumsum(rng.standard_normal((20, 4)), axis=0) * [1, 10, 100, 1000]
        increments = difference(make_table(levels, names=tuple("ABCD")))
        with pytest.raises(PcrError, match="^diagonal entry for 'D' is 1145118\\.04"):
            CorrelationMatrix(data=increments)

    @pytest.mark.parametrize(
        "values",
        [
            [[1.0 + 4e-13, 0.5 + 1e-10, 0.2], [0.5, 1.0, -0.3], [0.2, -0.3, 1.0]],
            [[1.0, 1.0 + 5e-13], [1.0 + 5e-13, 1.0]],
        ],
        ids=["asymmetric-diagonal", "above-one"],
    )
    def test_stores_the_exact_form_of_what_it_accepts(self, values):
        # Within tolerance of a correlation matrix, so accepted; what is
        # stored, printed and decomposed is exactly symmetric with a unit
        # diagonal and entries in [-1, 1], so the spectrum sums to p.
        values = np.array(values)
        p = values.shape[0]
        r = CorrelationMatrix(names=tuple("abc"[:p]), values=values)
        assert np.array_equal(r.values, r.values.T)
        assert np.array_equal(np.diagonal(r.values), np.ones(p))
        assert np.abs(r.values).max() <= 1.0
        assert np.abs(r.values - values).max() <= 1e-10
        assert abs(r.eigen.eigenvalues.sum() - p) <= 1e-15

    def test_neither_writes_nor_aliases_the_callers_values(self):
        values = np.array([[1.0, 0.5 + 1e-10], [0.5, 1.0]])
        before = values.copy()
        r = CorrelationMatrix(("a", "b"), values)
        assert values.tobytes() == before.tobytes()
        stored = r.values.copy()
        values[0, 1] = values[1, 0] = -0.25
        assert np.array_equal(r.values, stored)
        assert not np.shares_memory(r.values, values)

    def test_validation_rejects_bad_diagonal(self):
        with pytest.raises(PcrError, match="diagonal"):
            CorrelationMatrix(
                names=("a", "b"), values=np.array([[1.0, 0.2], [0.2, 0.9]])
            )

    def test_validation_rejects_out_of_range(self):
        bad = np.array([[1.0, 1.2], [1.2, 1.0]])
        with pytest.raises(PcrError, match="out of"):
            CorrelationMatrix(names=("a", "b"), values=bad)

    def test_validation_rejects_indefinite(self):
        bad = np.array(
            [[1.0, 0.99, -0.99], [0.99, 1.0, 0.99], [-0.99, 0.99, 1.0]]
        )
        with pytest.raises(PcrError, match="not positive definite"):
            CorrelationMatrix(names=("a", "b", "c"), values=bad)

    def test_empty_rejected(self):
        with pytest.raises(PcrError, match="no variables"):
            CorrelationMatrix(names=(), values=np.empty((0, 0)))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: CorrelationMatrix(
                ("a", "b", "c"), [[1.0, 0.0, 0.3], [-0.0, 1.0, -0.0], [0.3, 0.0, 1.0]]
            ),
            lambda: correlation_matrix(standardize(random_walk_table(12, n_vars=6))),
            lambda: load_fixture("fig3"),
        ],
        ids=["signed-zeros", "data", "fig3"],
    )
    def test_stored_values_equal_their_transpose_bit_for_bit(self, build):
        # The report formats only the upper triangle of a grid whose every
        # entry, signed zeros included, equals its mirror bit for bit.
        bits = build().values.view(np.uint64)
        assert np.array_equal(bits, bits.T)

    def test_data_matrix_is_the_finished_product_of_its_data(self):
        z = standardize(random_walk_table(13, n_vars=5))
        product = z.values.T @ z.values / (z.n_years - 1)
        finished = np.clip((product + product.T) / 2.0, -1.0, 1.0)
        np.fill_diagonal(finished, 1.0)
        r = correlation_matrix(z)
        assert np.array_equal(r.values.view(np.uint64), finished.view(np.uint64))

    def test_data_matrix_takes_the_names_of_its_data(self):
        z = standardize(random_walk_table(15, n_vars=3))
        assert correlation_matrix(z).names == z.names
        assert CorrelationMatrix(data=z).names == z.names

    def test_submatrix_of_a_data_matrix_slices_only_the_data(self):
        r = correlation_matrix(standardize(random_walk_table(14, n_vars=4)))
        sub = r.submatrix(("V4", "V2"))
        assert np.array_equal(sub.data.values, r.data.values[:, [3, 1]])
        # Values are computed when a matrix is built, the spectrum only when
        # read: a table run never decomposes its full matrix.
        assert "values" in vars(r) and "eigen" not in vars(r)


class TestScatterPairs:
    def test_pair_count_and_order(self):
        names = ("V4", "V2", "V3", "V1")
        pairs = scatter_pairs(names)
        assert len(pairs) == 6
        labels = [(names[i], names[j]) for i, j in pairs]
        assert labels == sorted(labels)
        assert all(x < y for x, y in labels)
        assert scatter_pairs(("A",)) == []

    def test_pair_data_matches_columns(self):
        # The indices point into the header order, not the sorted order.
        t = make_table(
            [[1.0, 4.0, 7.0], [2.0, 5.0, 8.0], [3.0, 6.0, 9.0]],
            names=("B", "A", "C"),
        )
        pairs = scatter_pairs(t.names)
        assert pairs == [(1, 0), (1, 2), (0, 2)]
        i, j = pairs[0]
        assert np.array_equal(t.values[:, i], t.column("A"))
        assert np.array_equal(t.values[:, j], t.column("B"))


class TestVif:
    def test_two_variable_hand_oracle(self):
        # r = 0.5 between columns, so VIF = 1 / (1 - 0.25) = 4/3.
        t = make_table([[1.0, 1.0], [2.0, 3.0], [3.0, 2.0]], names=("x", "y"))
        out = vif(correlation_matrix(standardize(t)))
        assert out["x"] == pytest.approx(4.0 / 3.0, rel=1e-12)
        assert out["y"] == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_single_column_is_one(self):
        # No other column to regress on: R^2 = 0, so VIF = 1 exactly,
        # from the data's spectrum at any scale and from a bare [[1]].
        for scale in (1.0, 1e-300, 1e300):
            z = standardize(make_table(np.array([[1.0], [4.0], [2.0], [5.0], [3.0]]) * scale))
            out = vif(correlation_matrix(z))
            assert list(out.values()) == [1.0]
        assert vif(CorrelationMatrix(("a",), [[1.0]])) == {"a": 1.0}

    def test_equicorrelated_oracle(self):
        # Sample correlation colored to exactly 0.9 everywhere; for
        # p = 3 equicorrelated variables the closed form is
        # (1 + rho) / ((1 - rho)(1 + 2 rho)) = 1.9 / 0.28 = 95/14.
        rng = np.random.default_rng(13)
        raw = rng.standard_normal((40, 3))
        raw -= raw.mean(axis=0)
        cov = raw.T @ raw / 39.0
        white = raw @ np.linalg.inv(np.linalg.cholesky(cov)).T
        target = np.full((3, 3), 0.9)
        np.fill_diagonal(target, 1.0)
        colored = white @ np.linalg.cholesky(target).T
        out = vif(correlation_matrix(standardize(make_table(colored))))
        for value in out.values():
            assert value == pytest.approx(95.0 / 14.0, rel=1e-8)

    def test_matches_inverse_diagonal_identity(self):
        # Independent oracle: VIF_j equals the j-th diagonal entry of
        # the inverse correlation matrix.
        t = random_walk_table(14, n_years=25, n_vars=5)
        z = standardize(t)
        out = vif(correlation_matrix(z))
        r = correlation_matrix(z)
        inverse_diag = np.diagonal(np.linalg.inv(r.values))
        for j, name in enumerate(z.names):
            assert out[name] == pytest.approx(float(inverse_diag[j]), rel=1e-8)

    def test_duplicate_column_marked_infinite(self):
        rng = np.random.default_rng(15)
        base = rng.standard_normal((20, 2))
        data = np.column_stack([base, base[:, 0]])
        z = standardize(make_table(data, names=("A", "B", "A2")))
        out = vif(correlation_matrix(z))
        assert out["A"] == float("inf")
        assert out["A2"] == float("inf")
        assert np.isfinite(out["B"])

    def test_lower_bound_is_one(self):
        rng = np.random.default_rng(16)
        t = make_table(rng.standard_normal((50, 4)))
        out = vif(correlation_matrix(standardize(t)))
        assert all(v >= 1.0 for v in out.values())

    def test_insufficient_observations(self):
        # Three observations of four variables: the others reproduce
        # each column exactly, so every VIF is infinite and none raises.
        t = make_table(np.arange(12.0).reshape(3, 4) ** 2)
        out = vif(correlation_matrix(standardize(t)))
        assert list(out.values()) == [float("inf")] * 4

    @pytest.mark.parametrize("seed", [14, 21, 33])
    def test_matches_least_squares_on_full_rank_panels(self, seed):
        z = standardize(difference(random_walk_table(seed, n_years=30, n_vars=8)))
        out = vif(correlation_matrix(z))
        for j, name in enumerate(z.names):
            assert out[name] == pytest.approx(least_squares_vif(z, j), rel=1e-12)

    def test_constant_sum_leaves_other_predictors_exact(self):
        # S = 1000 - X02 - X05 makes {X02, X05, S} exactly dependent.
        # Those three read inf; every other predictor must keep the VIF
        # it has against the others once S is dropped, which is a
        # full-rank regression.
        t = load_table(Path(__file__).parent / "golden" / "panel9.csv")
        s = 1000.0 - t.column("X02") - t.column('X05,"adj"')
        t = TimeSeriesTable(t.years, t.names + ("S",), np.column_stack([t.values, s]))
        z = standardize(difference(t))
        z = correlation_matrix(z).submatrix(tuple(n for n in z.names if n != "IY")).data
        out = vif(correlation_matrix(z))
        block = {"X02", 'X05,"adj"', "S"}
        assert {name for name, v in out.items() if v == float("inf")} == block
        for j, name in enumerate(z.names):
            if name not in block:
                expected = least_squares_vif(z, j, drop=("S",))
                assert out[name] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "m",
        [
            1.0, 1e3, 1e6,
            *(
                pytest.param(m, marks=pytest.mark.xfail(
                    strict=True, reason="VIF_RCOND does not know the rounding of the levels"))
                for m in (1e7, 1e8, 1e9, 1e10, 1e11, 1e12)
            ),
        ],
    )
    def test_shifted_copy_keeps_the_other_vifs(self, m):
        # B is A shifted by m times A's largest step, so A and B have the
        # same increments up to the rounding of B's levels.  A and B stay
        # exactly collinear, and C and E keep their VIFs of m = 0.  At
        # m >= 1e7 that rounding lifts a singular value above the cut.
        w = np.random.default_rng(11).standard_normal((24, 4)).cumsum(axis=0)
        a, c, e = w[:, 1], w[:, 2], w[:, 3]
        b = a + m * np.abs(np.diff(a)).max()
        t = make_table(np.column_stack([a, b, c, e]), names=("A", "B", "C", "E"))
        out = vif(correlation_matrix(standardize(difference(t))))
        assert (out["A"], out["B"]) == (float("inf"), float("inf"))
        assert out["C"] == pytest.approx(1.011137365881278, rel=1e-9)
        assert out["E"] == pytest.approx(1.0127912585239578, rel=1e-9)

    @pytest.mark.parametrize("delta", [1e-3, 1e-5, 1e-6])
    def test_near_collinear_matches_exact_oracle(self, delta):
        # X6 = X0 + 0.5 X1 + delta * noise over 30 years of random-walk
        # predictors.  The oracle inverts the Schur complement exactly
        # from the same float64 Z; at this seed no oracle VIF lies
        # within a factor of 2 of the 1e12 cut.
        rng = np.random.default_rng(0)
        walks = rng.standard_normal((30, 6)).cumsum(axis=0)
        noise = rng.standard_normal(30)
        data = np.column_stack([walks, walks[:, 0] + 0.5 * walks[:, 1] + delta * noise])
        z = standardize(make_table(data, names=tuple(f"X{j}" for j in range(7))))
        out = vif(correlation_matrix(z))
        exact = exact_vif(z.values)
        assert not any(5e11 < e < 2e12 for e in exact)
        for name, e in zip(z.names, exact):
            if e >= 1e12:
                assert out[name] == float("inf"), name
            else:
                assert out[name] == pytest.approx(e, rel=1e-9), name
