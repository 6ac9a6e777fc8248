import numpy as np
import pytest

from pcrkit.errors import PcrError
from pcrkit.fixtures import (
    FIXTURE_NAMES,
    INDICATOR_NAMES,
    load_fixture,
    nearest_valid_correlation,
    published_correlations,
)


class TestPublishedTable:
    def test_shape_and_symmetry(self):
        printed = published_correlations()
        assert printed.shape == (9, 9)
        assert np.array_equal(printed, printed.T)
        assert np.array_equal(np.diagonal(printed), np.ones(9))

    def test_spot_checks(self):
        printed = published_correlations()
        idx = {name: i for i, name in enumerate(INDICATOR_NAMES)}
        assert printed[idx["IY"], idx["REI"]] == 0.94
        assert printed[idx["IR"], idx["GVA"]] == -0.91
        assert printed[idx["PD"], idx["GDHI"]] == 1.00
        assert printed[idx["PDS"], idx["PDC"]] == 0.76
        assert printed[idx["IY"], idx["CPI"]] == 0.25

    def test_rounded_table_is_indefinite(self):
        # This is why the loader repairs: two-decimal rounding pushed
        # the smallest eigenvalue below zero.
        printed = published_correlations()
        assert np.linalg.eigvalsh(printed).min() < -1e-3


class TestRepair:
    def test_repaired_equals_printed_at_two_decimals(self):
        fig3 = load_fixture("fig3")
        assert np.array_equal(np.round(fig3.values, 2), published_correlations())

    def test_repaired_is_positive_definite(self):
        assert load_fixture("fig3").eigen.eigenvalues[-1] > 0.0

    def test_adjustment_is_small_and_recorded(self):
        shift = np.abs(load_fixture("fig3").values - published_correlations()).max()
        assert 0.0 < shift < 0.005
        assert shift == pytest.approx(0.00428, abs=5e-5)

    def test_diagonal_exactly_one(self):
        assert np.array_equal(np.diagonal(load_fixture("fig3").values), np.ones(9))

    def test_repair_leaves_valid_matrix_unchanged(self):
        good = np.array([[1.0, 0.3], [0.3, 1.0]])
        assert np.abs(nearest_valid_correlation(good) - good).max() <= 1e-12

    def test_names_in_published_order(self):
        assert load_fixture("fig3").names == INDICATOR_NAMES
        assert INDICATOR_NAMES[0] == "IY"


class TestRegistry:
    def test_available_names(self):
        assert FIXTURE_NAMES == ("fig3",)

    def test_unknown_name_lists_available(self):
        with pytest.raises(PcrError, match="^unknown fixture 'nope'; available: fig3$"):
            load_fixture("nope")

    def test_load_is_deterministic(self):
        a = load_fixture("fig3")
        b = load_fixture("fig3")
        assert np.array_equal(a.values, b.values)
