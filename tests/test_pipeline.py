import csv
import dataclasses
import io
import itertools
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pcrkit
from pcrkit import cli, linalg, pca, pipeline
from pcrkit.errors import PcrError, StageError, TableFormatError
from pcrkit.fixtures import INDICATOR_NAMES, FixtureData
from pcrkit.pca import PcaSolution, score_weights
from pcrkit.pipeline import (
    RunConfig,
    emit_report,
    load_table,
    render_report_delim,
    render_report_text,
    run_pipeline,
    write_table,
)
from pcrkit.preprocess import TimeSeriesTable
from test_metamorphic import short_wide_panel, well_formed_tables
from test_pca import tucker_congruence

PANEL9 = Path(__file__).parent / "golden" / "panel9.csv"


def render_scatter_text(report, out_dir):
    """The scatter file ``emit_report`` writes in the text layout."""
    return emit_report(report, out_dir, format="text")[-1].read_text(encoding="utf-8")


def render_scatter_delim(report, out_dir):
    """The scatter file ``emit_report`` writes in the CSV layout."""
    return emit_report(report, out_dir, format="delim")[-1].read_text(encoding="utf-8")


def planted_panel_table(seed=0, n_years=21, noise_sd=0.1, duplicate=None):
    """Planted 2-factor increments cumulated into levels.

    Demand block (REI, GVA, PD, GDHI) rides the first factor, supply
    block (PDS, PDC, IR, CPI) the second; the response increment mixes
    both.  ``duplicate`` clones an existing column under a new name.
    """
    rng = np.random.default_rng(seed)
    n_inc = n_years - 1
    factors = rng.standard_normal((n_inc, 2))
    predictors = [n for n in INDICATOR_NAMES if n != "IY"]
    blocks = {"REI": 0, "GVA": 0, "PD": 0, "GDHI": 0, "PDS": 1, "PDC": 1, "IR": 1, "CPI": 1}
    increments = {
        name: factors[:, blocks[name]] + noise_sd * rng.standard_normal(n_inc)
        for name in predictors
    }
    increments["IY"] = (
        2.0 * factors[:, 0] + 0.5 * factors[:, 1] + noise_sd * rng.standard_normal(n_inc)
    )
    names = list(INDICATOR_NAMES)
    if duplicate is not None:
        clone = duplicate + "2"
        increments[clone] = increments[duplicate].copy()
        names.append(clone)
    levels = np.empty((n_years, len(names)))
    base = rng.uniform(50.0, 150.0, size=len(names))
    levels[0] = base
    for i in range(n_inc):
        levels[i + 1] = levels[i] + np.column_stack(
            [increments[n] for n in names]
        )[i]
    return TimeSeriesTable(
        years=np.arange(2000, 2000 + n_years),
        names=tuple(names),
        values=levels,
    )


def fail_pcr(*args):
    """Stand-in for ``fit_pcr``: no table reaches a failing PCR fit."""
    raise PcrError("pcr failed")


class TestLoadTable:
    def test_roundtrip_full_precision(self, tmp_path):
        table = planted_panel_table(1)
        path = write_table(table, tmp_path / "t.csv")
        again = load_table(path)
        assert again.names == table.names
        assert np.array_equal(again.years, table.years)
        assert np.array_equal(again.values, table.values)

    def test_missing_file(self, tmp_path):
        with pytest.raises(TableFormatError, match="cannot read"):
            load_table(tmp_path / "absent.csv")

    def test_header_must_start_with_year(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("date,IY\n2000,1\n2001,2\n")
        with pytest.raises(TableFormatError, match="year"):
            load_table(p)

    def test_ragged_row_reports_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("year,IY,GVA\n2000,1,2\n2001,3\n")
        with pytest.raises(TableFormatError, match="line 3"):
            load_table(p)

    def test_non_numeric_cell_reports_column(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("year,IY,GVA\n2000,1,2\n2001,x,4\n")
        with pytest.raises(TableFormatError, match="IY"):
            load_table(p)

    def test_non_integer_year_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("year,IY\n2000.5,1\n")
        with pytest.raises(TableFormatError, match="integer"):
            load_table(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("")
        with pytest.raises(TableFormatError, match="empty"):
            load_table(p)

    def test_header_only(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("year,IY\n")
        with pytest.raises(TableFormatError, match="no data rows"):
            load_table(p)

    def test_gap_years_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("year,IY\n2000,1\n2002,2\n2003,3\n")
        with pytest.raises(Exception, match="consecutive"):
            load_table(p)

    def test_trailing_blank_lines_tolerated(self, tmp_path):
        p = tmp_path / "ok.csv"
        p.write_text("year,IY\n2000,1\n2001,2\n2002,4\n\n")
        assert load_table(p).n_years == 3

    def test_cells_padded_with_any_whitespace_are_read(self, tmp_path):
        # float() and int() reject the separators \x1c-\x1f that str.strip()
        # removes; the row-by-row reading strips them.
        p = tmp_path / "padded.csv"
        p.write_text("year,IY,A\n 2000 ,\x1c1.5\x1f,\xa02\n2001,\t3 ,4\n", encoding="utf-8")
        table = load_table(p)
        assert table.years.tolist() == [2000, 2001]
        assert table.values.tolist() == [[1.5, 2.0], [3.0, 4.0]]

    def test_a_padded_file_reads_the_same_array(self, tmp_path):
        golden = Path(__file__).parent / "golden" / "panel9.csv"
        lines = golden.read_text(encoding="utf-8").splitlines()
        padded = tmp_path / "padded.csv"
        # The data rows hold no quoted cells, so splitting on commas is exact.
        rows = [",".join(f"\x1c {cell}\x1f\t" for cell in line.split(",")) for line in lines[1:]]
        padded.write_text("\n".join([lines[0], *rows, ""]), encoding="utf-8")
        plain, spaced = load_table(golden), load_table(padded)
        assert spaced.years.dtype == np.int64
        assert spaced.years.tolist() == plain.years.tolist()
        assert spaced.values.dtype == np.float64 and spaced.values.flags.c_contiguous
        assert spaced.values.tobytes() == plain.values.tobytes()

    def test_byte_order_mark_gives_the_same_report(self, tmp_path):
        # Spreadsheet exports start with a UTF-8 BOM; only the report's
        # source line, which names the file, may differ.
        golden = Path(__file__).parent / "golden" / "panel9.csv"
        marked = tmp_path / "panel9.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + golden.read_bytes())
        for render in (render_report_text, render_report_delim):
            plain = render(run_pipeline(RunConfig(input_path=golden))).split("\n")
            bom = render(run_pipeline(RunConfig(input_path=marked))).split("\n")
            differing = [a for a, b in zip(plain, bom) if a != b]
            assert len(plain) == len(bom)
            assert len(differing) == 1 and "source" in differing[0]


class TestRunConfig:
    def test_requires_exactly_one_source(self):
        with pytest.raises(PcrError, match="exactly one of input_path and fixture"):
            RunConfig().validate()
        with pytest.raises(PcrError, match="exactly one of input_path and fixture"):
            RunConfig(input_path="x", fixture="fig3").validate()

    def test_rejects_unknown_modes(self):
        with pytest.raises(PcrError, match="diff must be one of"):
            RunConfig(fixture="fig3", diff="log").validate()
        with pytest.raises(PcrError, match="rotation must be one of"):
            RunConfig(fixture="fig3", rotation="promax").validate()
        with pytest.raises(PcrError, match="components must be"):
            RunConfig(fixture="fig3", components=0).validate()

    def test_a_numpy_integer_count_runs_as_the_int(self, tmp_path):
        table = planted_panel_table(7)
        path = write_table(table, tmp_path / "t.csv")
        for source in (dict(fixture="fig3"), dict(input_path=path)):
            expected = render_report_text(run_pipeline(RunConfig(**source, components=2)))
            for k in (np.int64(2), np.uint8(2), np.int32(2)):
                config = RunConfig(**source, components=k)
                assert render_report_text(run_pipeline(config)) == expected

    def test_emit_report_rejects_unknown_format(self, tmp_path):
        report = run_pipeline(RunConfig(fixture="fig3"))
        with pytest.raises(PcrError, match="json"):
            emit_report(report, tmp_path / "out", format="json")
        assert not (tmp_path / "out").exists()


class TestMatrixMode:
    def test_fixture_run_products(self):
        report = run_pipeline(RunConfig(fixture="fig3"))
        assert report.mode == "matrix"
        assert report.names == INDICATOR_NAMES
        assert report.solution.names == tuple(
            n for n in INDICATOR_NAMES if n != "IY"
        )
        assert report.fixture_adjustment is not None
        assert report.correlation is not None
        assert report.solution is not None
        assert report.solution.n_components == 2
        assert score_weights(report.solution).shape == (8, 2)
        # No observations: these stay empty.
        assert report.vif is None
        assert report.scores is None
        assert report.pcr is None
        assert report.prices is None
        assert report.increments is None
        assert report.failure is None

    def test_rotation_none(self):
        report = run_pipeline(RunConfig(fixture="fig3", rotation="none"))
        assert report.solution.rotated_loadings is None
        assert report.solution.component_names == ("PC1", "PC2")
        assert score_weights(report.solution).shape == (8, 2)

    def test_unrotated_copy_renders_as_an_unrotated_run(self):
        # Nothing derived from the rotation outlives it in a copy.
        report = run_pipeline(RunConfig(fixture="fig3"))
        report.solution = report.solution._replace(
            rotated_loadings=None, rotation=None, rotation_sweeps=0, last_sweep_angle=0.0
        )
        report.config.rotation = "none"
        unrotated = run_pipeline(RunConfig(fixture="fig3", rotation="none"))
        for render in (render_report_text, render_report_delim):
            assert render(report) == render(unrotated)

    def test_unknown_response_fails_input_stage(self):
        with pytest.raises(StageError) as excinfo:
            run_pipeline(RunConfig(fixture="fig3", response="nope"))
        assert excinfo.value.stage == "input"
        assert excinfo.value.exit_code == 2
        # The response is checked before the report takes anything from the fixture.
        assert excinfo.value.report.names == ()
        assert excinfo.value.report.fixture_adjustment is None


class TestTableMode:
    def test_unknown_response_fails_input_stage(self, tmp_path):
        path = write_table(planted_panel_table(2), tmp_path / "t.csv")
        with pytest.raises(StageError) as excinfo:
            run_pipeline(RunConfig(input_path=path, response="Y"))
        assert excinfo.value.stage == "input"
        assert excinfo.value.exit_code == 2
        assert str(excinfo.value.__cause__) == (
            f"response column 'Y' not among {list(INDICATOR_NAMES)}"
        )
        assert excinfo.value.report.names == ()

    def test_full_run_products(self, tmp_path):
        table = planted_panel_table(2)
        path = write_table(table, tmp_path / "t.csv")
        report = run_pipeline(RunConfig(input_path=path))
        assert report.mode == "table"
        assert report.solution.n_components == 2
        assert report.vif is not None and len(report.vif) == 8
        assert report.baseline is not None and report.baseline_error is None
        assert report.scores.shape == (20, 2)
        assert report.pcr is not None
        assert report.prices is not None
        assert report.prices.base == float(table.column("IY")[0])
        assert np.all(np.isfinite(report.prices.levels))
        assert report.increments.names == table.names
        assert report.increments.years[0] == 2001

    def test_price_path_replays_fitted_increments(self, tmp_path):
        table = planted_panel_table(3)
        path = write_table(table, tmp_path / "t.csv")
        report = run_pipeline(RunConfig(input_path=path))
        rebuilt = report.prices.base + np.cumsum(report.pcr.fitted)
        assert np.abs(rebuilt - report.prices.levels).max() <= 1e-9

    def test_planted_structure_recovered_through_pipeline(self, tmp_path):
        table = planted_panel_table(4)
        path = write_table(table, tmp_path / "t.csv")
        report = run_pipeline(RunConfig(input_path=path))
        loadings = report.solution.rotated_loadings
        names = report.solution.names
        demand = np.array([1.0 if n in ("REI", "GVA", "PD", "GDHI") else 0.0 for n in names])
        supply = 1.0 - demand
        c = np.zeros((2, 2))
        for i in range(2):
            c[i, 0] = tucker_congruence(loadings[:, i], demand)
            c[i, 1] = tucker_congruence(loadings[:, i], supply)
        assert max(c[0, 0] + c[1, 1], c[0, 1] + c[1, 0]) / 2.0 > 0.95

    def test_percent_mode_skips_price_path(self, tmp_path):
        table = planted_panel_table(5)
        path = write_table(table, tmp_path / "t.csv")
        report = run_pipeline(RunConfig(input_path=path, diff="percent"))
        assert report.prices is None
        assert "not additive" in render_report_text(report)

    def test_off_mode_uses_rows_as_increments(self, tmp_path):
        table = planted_panel_table(6)
        path = write_table(table, tmp_path / "t.csv")
        report = run_pipeline(RunConfig(input_path=path, diff="off"))
        assert report.increments.n_years == 21
        assert report.prices is None

    def test_duplicate_predictor_baseline_fails_pcr_completes(self, tmp_path):
        table = planted_panel_table(7, duplicate="GVA")
        path = write_table(table, tmp_path / "t.csv")
        report = run_pipeline(RunConfig(input_path=path, components=2))
        assert report.baseline is None
        assert "rank deficient" in report.baseline_error
        assert "GVA" in report.baseline_error
        assert report.pcr is not None
        assert np.all(np.isfinite(report.pcr.coefficients))

    def test_duplicate_predictor_without_ridge_fails_pca_stage(self, tmp_path):
        # A duplicate no longer fails the pca stage; only retaining its
        # zero-variance component does.
        table = planted_panel_table(8, duplicate="GVA")
        path = write_table(table, tmp_path / "t.csv")
        report = run_pipeline(RunConfig(input_path=path, components=2))
        assert "GVA" in report.baseline_error
        assert report.pcr is not None
        with pytest.raises(StageError) as excinfo:
            run_pipeline(RunConfig(input_path=path, components=9))
        assert excinfo.value.stage == "pca"
        assert excinfo.value.exit_code == 4
        assert "ridge" not in str(excinfo.value)
        assert excinfo.value.report.failure == ("pca", "component count must be in [1, 8], got 9")


class TestStageErrors:
    def test_input_stage(self, tmp_path):
        with pytest.raises(StageError) as excinfo:
            run_pipeline(RunConfig(input_path=tmp_path / "absent.csv"))
        err = excinfo.value
        assert err.stage == "input"
        assert err.exit_code == 2
        assert err.report.failure[0] == "input"

    def test_invalid_config_fails_input_stage(self):
        # From the library as from the CLI: a StageError with a partial report.
        with pytest.raises(StageError) as excinfo:
            run_pipeline(RunConfig(fixture="fig3", components=0))
        err = excinfo.value
        assert (err.stage, err.exit_code) == ("input", 2)
        assert "[failure]\nstage: input\n" in render_report_text(err.report)
        assert err.report.names == ()

    @pytest.mark.parametrize(
        "sources",
        [{}, {"input_path": "x.csv", "fixture": "fig3"}],
        ids=["neither", "both"],
    )
    def test_config_without_one_source_names_no_source(self, sources):
        with pytest.raises(StageError) as excinfo:
            run_pipeline(RunConfig(**sources))
        report = excinfo.value.report
        assert report.mode is None
        assert render_report_text(report).split("\n\n")[1] == (
            "[run]\nresponse: IY\ndifference: absolute\ncomponents: auto\n"
            "rotation: varimax\nscores: regression"
        )
        rows = list(csv.reader(io.StringIO(render_report_delim(report))))
        assert [row[1] for row in rows if row[0] == "run"] == [
            "response", "difference", "components", "rotation", "scores"
        ]

    def test_preprocess_stage(self, tmp_path):
        p = tmp_path / "two.csv"
        p.write_text("year,IY,GVA\n2000,1,2\n2001,2,3\n")
        with pytest.raises(StageError) as excinfo:
            run_pipeline(RunConfig(input_path=p))
        assert excinfo.value.stage == "preprocess"
        assert excinfo.value.exit_code == 3
        # Partial products survive on the attached report.
        assert excinfo.value.report.names == ("IY", "GVA")

    def test_pca_stage(self, tmp_path):
        table = planted_panel_table(9)
        path = write_table(table, tmp_path / "t.csv")
        with pytest.raises(StageError) as excinfo:
            run_pipeline(RunConfig(input_path=path, components=20))
        assert excinfo.value.stage == "pca"
        assert excinfo.value.exit_code == 4
        assert excinfo.value.report.correlation is not None

    def test_regression_stage(self, tmp_path, monkeypatch):
        # extract bounds the count so that the PCR fit always has a
        # residual degree of freedom; a failing fit still maps to the
        # regression stage.
        p = tmp_path / "tiny.csv"
        p.write_text(
            "year,IY,A,B\n2000,1,5,3\n2001,4,9,2\n2002,2,4,7\n2003,5,8,1\n"
        )
        monkeypatch.setattr(pipeline, "fit_pcr", fail_pcr)
        with pytest.raises(StageError) as excinfo:
            run_pipeline(RunConfig(input_path=p, components=1))
        assert excinfo.value.stage == "regression"
        assert excinfo.value.exit_code == 5
        assert excinfo.value.report.solution is not None
        assert excinfo.value.report.baseline_error is not None

    def test_output_stage(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        report = run_pipeline(RunConfig(fixture="fig3"))
        with pytest.raises(Exception, match="cannot write"):
            emit_report(report, blocker / "sub")


class TestRendering:
    def test_text_sections_fixture(self):
        report = run_pipeline(RunConfig(fixture="fig3"))
        text = render_report_text(report)
        for section in (
            "[run]",
            "[variables]",
            "[fixture adjustment]",
            "[correlation]",
            "[eigenvalues]",
            "[retention]",
            "[proportion of variance]",
            "[rotated proportion of variance]",
            "[loadings]",
            "[rotated loadings]",
            "[communality]",
            "[score weights]",
        ):
            assert section in text
        assert "[vif]" not in text
        assert "[pcr]" not in text
        assert "[price path]" not in text

    def test_text_sections_table(self, tmp_path):
        table = planted_panel_table(11)
        path = write_table(table, tmp_path / "t.csv")
        report = run_pipeline(RunConfig(input_path=path))
        text = render_report_text(report)
        for section in ("[vif]", "[baseline ols]", "[component scores]", "[pcr]", "[price path]"):
            assert section in text

    def test_delim_parses_as_csv(self):
        report = run_pipeline(RunConfig(fixture="fig3"))
        rows = list(csv.reader(io.StringIO(render_report_delim(report))))
        assert rows[0] == ["section", "key", "field", "value"]
        sections = {row[0] for row in rows[1:]}
        assert {"run", "correlation", "eigenvalues", "score_weights"} <= sections
        corr_rows = [r for r in rows if r[0] == "correlation"]
        assert len(corr_rows) == 81

    def test_correlation_section_is_the_repr_of_every_cell(self, tmp_path):
        path = write_table(planted_panel_table(12), tmp_path / "t.csv")
        report = run_pipeline(RunConfig(input_path=path))
        names, values = report.correlation.names, report.correlation.values
        cells = [[repr(v) for v in row] for row in values.tolist()]
        text = render_report_text(report).split("[correlation]\n")[1].split("\n\n")[0]
        assert text.splitlines() == [
            " ".join(("name", *names)),
            *(" ".join((name, *row)) for name, row in zip(names, cells)),
        ]
        rows = csv.reader(io.StringIO(render_report_delim(report)))
        assert [row[1:] for row in rows if row[0] == "correlation"] == [
            [a, b, cell] for a, row in zip(names, cells) for b, cell in zip(names, row)
        ]

    def test_grid_equal_to_its_transpose_only_up_to_signed_zeros_prints_each_cell(self):
        grid = pipeline._Table("name", ("a", "b"), ("a", "b"), np.array([[1.0, 0.0], [-0.0, 1.0]]))
        assert [cells for _, cells in grid.rows()] == [["1.0", "0.0"], ["-0.0", "1.0"]]

    def test_failure_section_rendered(self, tmp_path):
        try:
            run_pipeline(RunConfig(input_path=tmp_path / "absent.csv"))
        except StageError as err:
            text = render_report_text(err.report)
        assert "[failure]" in text
        assert "stage: input" in text

    def test_no_timestamps_or_environment(self):
        report = run_pipeline(RunConfig(fixture="fig3"))
        text = render_report_text(report)
        assert "202" not in text.split("[correlation]")[0]   # no dates in header


class TestEmitAndDeterminism:
    def test_fixture_reports_byte_identical(self, tmp_path):
        for fmt in ("text", "delim"):
            paths = []
            for d in ("a", "b"):
                report = run_pipeline(RunConfig(fixture="fig3"))
                paths.append(
                    emit_report(report, tmp_path / fmt / d, format=fmt)
                )
            assert paths[0][0].read_bytes() == paths[1][0].read_bytes()

    def test_table_reports_byte_identical(self, tmp_path):
        table = planted_panel_table(12)
        source = write_table(table, tmp_path / "t.csv")
        blobs = []
        for d in ("a", "b"):
            report = run_pipeline(RunConfig(input_path=source))
            written = emit_report(report, tmp_path / d, format="text")
            blobs.append([p.read_bytes() for p in written])
        assert blobs[0] == blobs[1]

    def test_scatter_written_in_table_mode_only(self, tmp_path):
        table = planted_panel_table(13)
        source = write_table(table, tmp_path / "t.csv")
        report = run_pipeline(RunConfig(input_path=source))
        written = emit_report(report, tmp_path / "out", format="delim")
        assert [p.name for p in written] == ["report.csv", "scatter_pairs.csv"]
        fixture_written = emit_report(
            run_pipeline(RunConfig(fixture="fig3")), tmp_path / "fx", format="delim"
        )
        assert [p.name for p in fixture_written] == ["report.csv"]

    def test_scatter_rows_cover_all_pairs(self, tmp_path):
        table = planted_panel_table(14)
        source = write_table(table, tmp_path / "t.csv")
        report = run_pipeline(RunConfig(input_path=source))
        written = emit_report(report, tmp_path / "out", format="delim")
        rows = list(csv.reader(io.StringIO(written[1].read_text())))
        assert rows[0] == ["x_name", "y_name", "year", "x", "y"]
        pairs = {(r[0], r[1]) for r in rows[1:]}
        assert len(pairs) == 36
        assert len(rows) - 1 == 36 * 20


def reference_report_delim(report):
    """The per-cell CSV report writer: one ``csv.writer`` row per table cell."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(("section", "key", "field", "value"))
    for _, section, items in pipeline._sections(report):
        for item in items:
            if isinstance(item, pipeline._Table):
                writer.writerows(
                    (section, label, column, cell)
                    for label, cells in item.rows()
                    for column, cell in zip(item.columns, cells, strict=True)
                )
            elif item.row is not None:
                writer.writerow((section, *item.row))
    return buffer.getvalue()


def reference_scatter(report, format):
    """The per-row scatter writer: every value formatted on its own, one
    f-string per row, names quoted as ``csv.writer`` quotes them."""

    def quote(name):
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerow((name, ""))
        return buffer.getvalue()[: -len(",\n")]

    table = report.increments
    if format == "text":
        parts = ["scatter pairs\n============="]
    else:
        parts = ["x_name,y_name,year,x,y\n"]
    for x_name, y_name in itertools.combinations(sorted(table.names), 2):
        rows = zip(
            table.years.tolist(),
            table.column(x_name).tolist(),
            table.column(y_name).tolist(),
            strict=True,
        )
        if format == "text":
            parts.append(f"\n\npair {x_name} {y_name}\nyear x y")
            parts += (f"\n{year} {x!r} {y!r}" for year, x, y in rows)
        else:
            names = f"{quote(x_name)},{quote(y_name)}"
            parts += (f"{names},{year},{x!r},{y!r}\n" for year, x, y in rows)
    if format == "text":
        parts.append("\n")
    return "".join(parts)


def reference_write_table(table):
    """The ``csv.writer`` table writer: one row per year, floats by ``repr``."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(("year",) + table.names)
    writer.writerows(
        [str(year)] + [repr(v) for v in row]
        for year, row in zip(table.years.tolist(), table.values.tolist())
    )
    return buffer.getvalue()


def golden_panel9_report(tmp_path):
    # Its predictor ``X05,"adj"`` needs CSV quoting.
    return run_pipeline(RunConfig(input_path=Path(__file__).parent / "golden" / "panel9.csv"))


def odd_names_report(tmp_path):
    # Names with a percent sign, spaces, braces and non-ASCII letters.
    rng = np.random.default_rng(31)
    table = TimeSeriesTable(
        years=np.arange(1990, 2002),
        names=("IY", "growth %", "Zürich index", "Δ {0}", "B"),
        values=100.0 + np.cumsum(rng.standard_normal((12, 5)), axis=0),
    )
    return run_pipeline(RunConfig(input_path=write_table(table, tmp_path / "odd.csv")))


class TestWritersMatchReference:
    """The joined and streamed writers against the per-cell and per-row ones."""

    REPORTS = [golden_panel9_report, odd_names_report]

    @pytest.mark.parametrize("build", REPORTS, ids=lambda build: build.__name__)
    def test_report_delim(self, build, tmp_path):
        report = build(tmp_path)
        assert render_report_delim(report) == reference_report_delim(report)

    @pytest.mark.parametrize("build", REPORTS, ids=lambda build: build.__name__)
    @pytest.mark.parametrize(
        "format, render", [("text", render_scatter_text), ("delim", render_scatter_delim)]
    )
    def test_scatter(self, build, format, render, tmp_path):
        report = build(tmp_path)
        assert render(report, tmp_path / "out") == reference_scatter(report, format)

    def test_write_table(self, tmp_path):
        # Names that need quoting, and values from 1e-300 to 1e300.
        names = ("IY", 'X05,"adj"', "growth %", "Zürich index", "a, b", "two\nlines")
        rng = np.random.default_rng(17)
        table = TimeSeriesTable(
            years=np.arange(-3, 9),
            names=names,
            values=rng.standard_normal((12, 6)) * 10.0 ** rng.integers(-300, 301, size=6),
        )
        written = write_table(table, tmp_path / "t.csv").read_bytes()
        assert written == reference_write_table(table).encode("utf-8")
        assert load_table(tmp_path / "t.csv").names == names


# Non-empty names with no leading or trailing whitespace, which
# ``load_table`` strips, mixing every character that needs quoting.
CSV_NAME = st.text(alphabet='Ab ,"\r\n', min_size=1, max_size=6).filter(
    lambda name: name == name.strip() and name != "IY"
)


class TestCsvDialect:
    """Fields are quoted by RFC 4180; input lines may end in LF, CRLF or CR."""

    GOLDEN = Path(__file__).parent / "golden" / "panel9.csv"

    @settings(max_examples=100, deadline=None)
    @given(table=well_formed_tables(CSV_NAME))
    @example(
        table=TimeSeriesTable(
            years=np.arange(2000, 2006),
            names=("IY", "A", "B\rC", "D"),
            values=np.cumsum(np.arange(24.0).reshape(6, 4) ** 1.5, axis=0),
        )
    )
    def test_names_that_need_quoting_round_trip(self, table):
        with tempfile.TemporaryDirectory() as tmp:
            source = write_table(table, Path(tmp) / "t.csv")
            again = load_table(source)
            try:
                report = run_pipeline(RunConfig(input_path=source))
            except StageError as err:
                report = err.report
        assert again.names == table.names
        assert again.years.tolist() == table.years.tolist()
        assert again.values.tobytes() == table.values.tobytes()
        rows = list(csv.reader(io.StringIO(render_report_delim(report), newline="")))
        assert all(len(row) == 4 for row in rows)
        assert [row[3] for row in rows if row[0] == "variables"] == list(table.names)

    @pytest.mark.parametrize("end", [b"\r\n", b"\r"], ids=["crlf", "cr"])
    def test_crlf_and_cr_line_ends_read_as_lf(self, tmp_path, end):
        copy = tmp_path / "panel9.csv"
        copy.write_bytes(self.GOLDEN.read_bytes().replace(b"\n", end))
        plain, other = load_table(self.GOLDEN), load_table(copy)
        assert other.names == plain.names
        assert other.years.tolist() == plain.years.tolist()
        assert other.values.tobytes() == plain.values.tobytes()

    @pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    def test_a_bad_cell_names_the_same_line_whatever_the_line_ends(self, tmp_path, end):
        lines = self.GOLDEN.read_bytes().split(b"\n")
        # Data rows hold no quoted cells, so splitting on commas is exact.
        cells = lines[6].split(b",")
        lines[6] = b",".join([cells[0], b"x", *cells[2:]])
        copy = tmp_path / "panel9.csv"
        copy.write_bytes(end.join(lines))
        with pytest.raises(TableFormatError) as excinfo:
            load_table(copy)
        assert str(excinfo.value) == "line 7: column 'IY': 'x' is not a number"

    def test_a_quoted_header_cell_keeps_its_crlf(self, tmp_path):
        p = tmp_path / "spanning.csv"
        p.write_bytes(b'year,IY,"A\r\nB"\r\n2000,1,2\r\n2001,2,3\r\n2002,4,3\r\n')
        assert load_table(p).names == ("IY", "A\r\nB")


class TestUnits:
    def test_tiny_levels_keep_pcr_r_squared(self, tmp_path, recwarn):
        # A relative zero-variance guard: levels in units of 1e-150 are
        # the same data, not a constant response.
        table = planted_panel_table(16)
        tiny = TimeSeriesTable(
            years=table.years,
            names=table.names,
            values=table.values * 1e-150,
        )
        base = run_pipeline(RunConfig(input_path=write_table(table, tmp_path / "a.csv")))
        scaled = run_pipeline(RunConfig(input_path=write_table(tiny, tmp_path / "b.csv")))
        assert base.pcr.r_squared > 0.5
        assert abs(scaled.pcr.r_squared - base.pcr.r_squared) <= 1e-12
        assert len(recwarn) == 0

    @pytest.mark.parametrize("scale", [1e150, 1e-150])
    def test_baseline_r_squared_does_not_depend_on_units(self, tmp_path, scale):
        # The rank test compares each pivot with its own column, so neither
        # the intercept nor a predictor looks dependent at extreme scales.
        table = planted_panel_table(16)
        rescaled = TimeSeriesTable(
            years=table.years,
            names=table.names,
            values=table.values * scale,
        )
        base = run_pipeline(RunConfig(input_path=write_table(table, tmp_path / "a.csv")))
        scaled = run_pipeline(
            RunConfig(input_path=write_table(rescaled, tmp_path / "b.csv"))
        )
        assert base.baseline is not None and scaled.baseline_error is None
        assert abs(scaled.baseline.r_squared - base.baseline.r_squared) <= 1e-12


class TestDecompositionCount:
    @staticmethod
    def count_eigen_calls(monkeypatch):
        """Record the order of every matrix passed to the eigensolver."""
        orders = []
        original = linalg.eigen_symmetric

        def counted(a):
            orders.append(np.shape(a)[0])
            return original(a)

        for name, module in list(sys.modules.items()):
            bound = getattr(module, "eigen_symmetric", None)
            if name.split(".")[0] == "pcrkit" and bound is original:
                monkeypatch.setattr(module, "eigen_symmetric", counted)
        return orders

    def test_table_run_factors_the_predictors_once(self, tmp_path, monkeypatch):
        # One thin SVD of the standardized predictors gives the VIF and
        # the component spectrum; no correlation matrix is decomposed.
        source = write_table(planted_panel_table(19), tmp_path / "t.csv")
        orders = self.count_eigen_calls(monkeypatch)
        shapes = []
        original = np.linalg.svd

        def counted(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        report = run_pipeline(RunConfig(input_path=source))
        assert orders == []
        assert shapes == [(20, 8)]
        assert report.pcr is not None and report.vif is not None

    def test_fixture_run_decomposes_three_matrices(self, monkeypatch):
        orders = self.count_eigen_calls(monkeypatch)
        run_pipeline(RunConfig(fixture="fig3"))
        assert orders == [9, 9, 8]


class TestSpectrum:
    """The spectrum a table run reports, from the SVD of the predictors."""

    GOLDEN = Path(__file__).parent / "golden"

    @staticmethod
    def predictor_eigh(report):
        idx = [report.names.index(n) for n in report.solution.names]
        return linalg.eigen_symmetric(report.correlation.values[np.ix_(idx, idx)])

    @pytest.mark.parametrize("name", ["panel9.csv", "panel30.csv"])
    def test_matches_eigh_of_the_predictor_correlations(self, name):
        report = run_pipeline(RunConfig(input_path=self.GOLDEN / name, rotation="none"))
        oracle = self.predictor_eigh(report)
        got = report.solution.eigenvalues
        assert np.abs(got - oracle.eigenvalues).max() <= 1e-13 * oracle.eigenvalues[0]
        k = report.solution.n_components
        vectors = report.solution.loadings / np.sqrt(got[:k])
        np.testing.assert_allclose(vectors, oracle.eigenvectors[:, :k], rtol=0, atol=1e-10)

    def test_wide_panel_prints_no_negative_eigenvalue(self, tmp_path):
        # 12 years of panel30 give 11 increments of 30 predictors, so R
        # has rank at most 10; an eigh of R put 10 of its 30 eigenvalues
        # a rounding below zero.  The SVD has 11 singular values, and the
        # spectrum past them is exact zeros.
        rows = (self.GOLDEN / "panel30.csv").read_text(encoding="utf-8").splitlines()
        source = tmp_path / "wide.csv"
        source.write_text("\n".join(rows[:13]) + "\n", encoding="utf-8")
        report = run_pipeline(RunConfig(input_path=source))
        eigenvalues = report.solution.eigenvalues
        assert eigenvalues.shape == (30,)
        assert (eigenvalues >= 0.0).all()
        assert eigenvalues[11:].tolist() == [0.0] * 19
        text = render_report_text(report)
        printed = text.split("[eigenvalues]\n", 1)[1].split("\n", 1)[0].split()
        assert len(printed) == 30 and not any(v.startswith("-") for v in printed)
        assert printed[11:] == ["0.0"] * 19


class TestCli:
    def test_fixture_run_to_files(self, tmp_path, capsys):
        code = cli.main(
            ["--fixture", "fig3", "--out", str(tmp_path / "out")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "report.txt" in out
        assert (tmp_path / "out" / "report.txt").exists()

    def test_stdout_report_without_out(self, capsys):
        assert cli.main(["--fixture", "fig3"]) == 0
        out = capsys.readouterr().out
        assert "[score weights]" in out

    def test_stdout_report_follows_format(self, capsys):
        assert cli.main(["--fixture", "fig3", "--format", "delim"]) == 0
        golden = Path(__file__).parent / "golden" / "fig3_varimax.csv"
        assert capsys.readouterr().out.encode("utf-8") == golden.read_bytes()

    def test_table_run_delim(self, tmp_path):
        table = planted_panel_table(15)
        source = write_table(table, tmp_path / "t.csv")
        code = cli.main(
            ["--input", str(source), "--out", str(tmp_path / "out"), "--format", "delim"]
        )
        assert code == 0
        assert (tmp_path / "out" / "report.csv").exists()
        assert (tmp_path / "out" / "scatter_pairs.csv").exists()

    def test_missing_source_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main([])
        assert excinfo.value.code == 2

    def test_unknown_fixture_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["--fixture", "nope"])
        assert excinfo.value.code == 2

    def test_bad_components_value_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["--fixture", "fig3", "--components", "two"])
        assert excinfo.value.code == 2

    def test_zero_components_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(["--fixture", "fig3", "--components", "0", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            'error: [input] components must be "auto" or a positive integer, got 0\n'
        )
        assert "[failure]\nstage: input\n" in (out / "report.txt").read_text()

    def test_short_wide_panel_names_a_count_that_fits(self, tmp_path, capsys):
        # 5 increments leave room for 3 components, while Kaiser keeps 4
        # and 5 eigenvalues are nonzero.  The default run keeps 3 and
        # says so; every explicit count above 3 fails in the pca stage
        # naming 3.
        source = str(write_table(short_wide_panel(), tmp_path / "wide.csv"))
        assert cli.main(["--input", source]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert (
            "[retention]\nretained 3 of 30 components (auto)\n"
            "kaiser rule kept 4; capped at 3\n\n"
        ) in out
        for count in ("5", "4"):
            assert cli.main(["--input", source, "--components", count]) == 4
            assert capsys.readouterr().err == (
                f"error: [pca] component count must be in [1, 3], got {count}\n"
            )
        assert cli.main(["--input", source, "--components", "3"]) == 0
        assert "capped" not in capsys.readouterr().out

    def test_one_predictor_needs_an_explicit_count(self, tmp_path, capsys):
        # A lone variable's eigenvalue is exactly 1, and Kaiser's rule
        # keeps only eigenvalues above 1.
        rng = np.random.default_rng(1)
        table = TimeSeriesTable(
            years=np.arange(2000, 2010),
            names=("IY", "X"),
            values=100.0 + np.cumsum(rng.standard_normal((10, 2)), axis=0),
        )
        source = str(write_table(table, tmp_path / "one.csv"))
        assert cli.main(["--input", source]) == 4
        assert capsys.readouterr().err == (
            "error: [pca] automatic retention kept no components: largest eigenvalue "
            "1.0 does not exceed 1.0\n"
        )
        assert cli.main(["--input", source, "--components", "1"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "source, args",
        [
            (dict(fixture="fig3"), ["--fixture", "fig3"]),
            (
                dict(input_path=str(PANEL9), components=3),
                ["--input", str(PANEL9), "--components", "3"],
            ),
        ],
        ids=["fig3", "panel9"],
    )
    def test_a_rotation_stopped_at_its_cap_keeps_the_run(self, source, args, monkeypatch, capsys):
        # fig3 takes 2 sweeps to settle, panel9 with 3 components more.
        # The run completes, and its [rotation] section says where it stopped.
        monkeypatch.setattr(pca, "VARIMAX_MAX_SWEEPS", 1)
        report = run_pipeline(RunConfig(**source))
        solution = report.solution
        assert solution.rotation_sweeps == 1
        assert solution.last_sweep_angle > pca.VARIMAX_TOL
        k = solution.n_components
        assert np.abs(solution.rotation.T @ solution.rotation - np.eye(k)).max() <= 1e-12
        angle = repr(solution.last_sweep_angle)
        line = f"varimax stopped after 1 sweeps; last sweep turned {angle} rad"
        for format, expected in (
            ("text", f"\n[rotation]\n{line}\n"), ("delim", f"\nrotation,stopped,1,{angle}\n")
        ):
            assert cli.main([*args, "--format", format]) == 0
            out = capsys.readouterr().out
            assert out == pipeline.render_report(report, format)
            assert expected in out
        if report.pcr is not None:
            unrotated = run_pipeline(RunConfig(**source, rotation="none")).pcr
            assert abs(report.pcr.r_squared - unrotated.r_squared) <= 1e-12
            np.testing.assert_allclose(report.pcr.fitted, unrotated.fitted, rtol=0, atol=1e-12)

    def test_header_without_data_columns_is_input_error(self, tmp_path, capsys):
        p = tmp_path / "years.csv"
        p.write_text("year\n2000\n2001\n")
        assert cli.main(["--input", str(p)]) == 2
        assert capsys.readouterr().err == "error: [input] line 1: header has no data columns\n"

    @pytest.mark.parametrize("header", ["year,,IY", "year,  ,IY"], ids=["empty", "blank"])
    def test_empty_column_name_is_input_error(self, tmp_path, capsys, header):
        p = tmp_path / "unnamed.csv"
        p.write_text(f"{header}\n2000,5,1\n2001,9,4\n2002,4,2\n2003,8,5\n")
        assert cli.main(["--input", str(p)]) == 2
        assert capsys.readouterr().err == "error: [input] column name 1 of 2 is empty\n"

    def test_input_error_exit_code(self, tmp_path, capsys):
        code = cli.main(["--input", str(tmp_path / "absent.csv")])
        assert code == 2
        assert "[input]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content",
        [
            b"year,IY,A\n2000,1,\xff\n",
            b"year,IY,A\n2000,1," + b"7" * 140_000 + b"\n",
            b"year,IY,A\n" + b"".join(
                b"%d,%d,%d\n" % (10**19 + i, i * i, i % 3) for i in range(4)
            ),
        ],
        ids=["not_utf8", "field_over_csv_limit", "year_over_int64"],
    )
    def test_unreadable_input_is_input_error(self, tmp_path, capsys, content):
        p = tmp_path / "bad.csv"
        p.write_bytes(content)
        assert cli.main(["--input", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [input] ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "diff, a",
        [("absolute", (0, 1.7e308, -1.7e308, 1.7e308)), ("percent", (1, 1e-320, 1e300, 1))],
    )
    def test_overflowing_increment_is_preprocess_error(self, tmp_path, diff, a):
        # A separate process, so that a numpy warning would reach stderr.
        p = tmp_path / "huge.csv"
        p.write_text(
            "year,IY,A,B\n"
            + "".join(f"{2000 + i},{i * i + 1},{v!r},{i % 3 + 1}\n" for i, v in enumerate(a))
        )
        env = dict(os.environ, PYTHONPATH=str(Path(pcrkit.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "pcrkit", "--input", str(p), "--diff", diff],
            env=env, capture_output=True, text=True,
        )
        assert done.returncode == 3
        assert done.stderr == (
            f"error: [preprocess] {diff} differencing overflows at year 2002, column 'A'\n"
        )

    def test_preprocess_error_exit_code(self, tmp_path, capsys):
        p = tmp_path / "two.csv"
        p.write_text("year,IY,GVA\n2000,1,2\n2001,2,3\n")
        assert cli.main(["--input", str(p)]) == 3

    def test_pca_error_exit_code(self, tmp_path, capsys):
        table = planted_panel_table(16)
        source = write_table(table, tmp_path / "t.csv")
        assert cli.main(["--input", str(source), "--components", "20"]) == 4

    def test_regression_error_exit_code(self, tmp_path, capsys, monkeypatch):
        p = tmp_path / "tiny.csv"
        p.write_text(
            "year,IY,A,B\n2000,1,5,3\n2001,4,9,2\n2002,2,4,7\n2003,5,8,1\n"
        )
        monkeypatch.setattr(pipeline, "fit_pcr", fail_pcr)
        assert cli.main(["--input", str(p), "--components", "1"]) == 5
        assert capsys.readouterr().err == "error: [regression] pcr failed\n"

    def test_output_error_exit_code(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("in the way")
        code = cli.main(
            ["--fixture", "fig3", "--out", str(blocker / "sub")]
        )
        assert code == 6
        assert "[output]" in capsys.readouterr().err

    def test_report_onto_a_directory_is_output_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "report.txt").mkdir(parents=True)
        assert cli.main(["--fixture", "fig3", "--out", str(out)]) == 6
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: [output] cannot write {out / 'report.txt'}: ")
        assert captured.out == ""

    def test_partial_report_written_on_failure(self, tmp_path, capsys):
        table = planted_panel_table(17)
        source = write_table(table, tmp_path / "t.csv")
        out = tmp_path / "out"
        code = cli.main(
            ["--input", str(source), "--components", "20", "--out", str(out)]
        )
        assert code == 4
        text = (out / "report.txt").read_text()
        assert "[failure]" in text
        assert "stage: pca" in text

    def test_partial_report_onto_a_file_is_skipped(self, tmp_path, capsys):
        # The partial report cannot be written under a regular file; the
        # stage's own error is the only one printed and the file is kept.
        source = Path(__file__).parent / "golden" / "panel9.csv"
        out = tmp_path / "taken"
        out.write_bytes(b"keep me\n")
        assert cli.main(["--input", str(source), "--components", "40", "--out", str(out)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: [pca] component count must be in [1, 9], got 40\n"
        assert out.read_bytes() == b"keep me\n"

    def test_ridge_flag_unblocks_duplicate(self, tmp_path, capsys):
        # The duplicate runs without any flag, and --ridge no longer exists.
        table = planted_panel_table(18, duplicate="GVA")
        source = write_table(table, tmp_path / "t.csv")
        assert cli.main(["--input", str(source), "--components", "2"]) == 0
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["--input", str(source), "--components", "2", "--ridge"])
        assert excinfo.value.code == 2

    def test_wide_panel_completes(self, tmp_path, capsys):
        # 10 predictors over 9 years: every VIF is infinite and the
        # baseline has too few observations, but the PCR product runs.
        rng = np.random.default_rng(23)
        names = ("IY",) + tuple(f"X{j:02d}" for j in range(1, 11))
        table = TimeSeriesTable(
            years=np.arange(2000, 2009),
            names=names,
            values=100.0 + np.cumsum(rng.standard_normal((9, 11)), axis=0),
        )
        source = write_table(table, tmp_path / "wide.csv")
        assert cli.main(["--input", str(source), "--out", str(tmp_path / "out")]) == 0
        text = (tmp_path / "out" / "report.txt").read_text()
        assert "X01 inf" in text and "[pcr]" in text and "[failure]" not in text

    def test_scores_flag_is_usage_error(self, capsys):
        # Regression weights are the only score method, so there is no flag.
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["--fixture", "fig3", "--scores", "regression"])
        assert excinfo.value.code == 2

    def test_import_does_not_load_scipy(self):
        probe = "import sys, pcrkit.cli; print([m for m in sys.modules if m.startswith('scipy')])"
        env = dict(os.environ, PYTHONPATH=str(Path(pcrkit.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert done.stdout.strip() == "[]"

    def test_import_builds_dataclasses_only_for_staged_records(self):
        # Every other record is a named tuple, which costs less to define
        # at import time than a dataclass.
        probe = (
            "import dataclasses, sys, pcrkit.cli; print(sorted({"
            "o.__qualname__ for m in list(sys.modules.values()) for o in vars(m).values()"
            " if isinstance(o, type) and o.__module__.startswith('pcrkit')"
            " and dataclasses.is_dataclass(o)}))"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(pcrkit.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        staged = ["CorrelationMatrix", "Report", "RunConfig", "TimeSeriesTable"]
        assert done.stdout.strip() == repr(staged)

    def test_records_keep_only_what_they_computed(self):
        # Shares of variance, communalities, the component count (the
        # width of the loadings) and the fixture's repair shift are
        # properties of these fields.  The score weights are a function
        # of the solution, so the report does not keep them, and the
        # fixture's name is the caller's argument, so it does not either.
        assert len(PcaSolution._fields) == 7
        assert PcaSolution._fields == (
            "names", "eigenvalues", "loadings",
            "rotated_loadings", "rotation", "rotation_sweeps", "last_sweep_angle",
        )
        assert len(FixtureData._fields) == 2
        assert FixtureData._fields == ("printed", "matrix")
        assert "weights" not in {f.name for f in dataclasses.fields(pipeline.Report)}
        assert not hasattr(pca, "ScoreWeights")

    @pytest.mark.parametrize(
        "components, code", [("1", 0), ("auto", 4)], ids=["fixed", "auto"]
    )
    def test_one_predictor(self, tmp_path, capsys, components, code):
        # The lone predictor's VIF is 1; its only eigenvalue is exactly 1,
        # so automatic retention stops at the pca stage and says so.
        p = tmp_path / "one.csv"
        p.write_text("year,IY,A\n2000,1,5\n2001,4,9\n2002,2,4\n2003,5,8\n2004,3,1\n2005,8,2\n")
        out = tmp_path / "out"
        assert cli.main(["--input", str(p), "--components", components, "--out", str(out)]) == code
        text = (out / "report.txt").read_text()
        assert "[vif]\nA 1.0\n" in text
        err = capsys.readouterr().err
        if code == 0:
            assert "[pcr]" in text and err == ""
        else:
            assert err.startswith("error: [pca] ") and "eigenvalue 1.0" in err

    def test_response_only_table_is_input_error(self, tmp_path, capsys):
        p = tmp_path / "alone.csv"
        p.write_text("year,IY\n2000,1\n2001,4\n2002,2\n2003,5\n")
        assert cli.main(["--input", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [input] ")
        assert "no predictor columns besides the response 'IY'" in err

    def test_unknown_fixture_response_is_input_error(self, capsys):
        assert cli.main(["--fixture", "fig3", "--response", "nope"]) == 2
        assert capsys.readouterr().err == (
            f"error: [input] response column 'nope' not among {list(INDICATOR_NAMES)}\n"
        )

    def test_year_gap_is_input_error(self, tmp_path, capsys):
        p = tmp_path / "gap.csv"
        p.write_text("year,IY,A\n2000,1,5\n2001,4,9\n2003,2,4\n2004,5,1\n")
        assert cli.main(["--input", str(p)]) == 2
        assert capsys.readouterr().err == (
            "error: [input] years must be consecutive: 2001 is followed by 2003\n"
        )

    def test_repeated_column_is_named(self, tmp_path, capsys):
        p = tmp_path / "twice.csv"
        p.write_text("year,IY,A,A\n2000,1,5,5\n2001,4,9,9\n2002,2,4,4\n")
        assert cli.main(["--input", str(p)]) == 2
        assert capsys.readouterr().err == "error: [input] duplicate column name 'A'\n"

    def test_rotation_none_flag(self, capsys):
        assert cli.main(["--fixture", "fig3", "--rotation", "none"]) == 0
        out = capsys.readouterr().out
        assert "[rotated loadings]" not in out
        assert "PC1" in out


class TestScatterWriter:
    @pytest.mark.parametrize("format", ["text", "delim"])
    def test_each_array_is_formatted_once(self, format, tmp_path, monkeypatch):
        # One repr per increment, however many pairs share its column.
        increments = golden_panel9_report(tmp_path).increments
        calls = []

        def counting(value):
            calls.append(value)
            return repr(value)

        monkeypatch.setattr(pipeline, "repr", counting, raising=False)
        "".join(pipeline._scatter_parts(increments, format))
        assert sorted(calls) == sorted(increments.values.ravel().tolist())
