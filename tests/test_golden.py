"""Reports on committed inputs against committed golden reports.

``golden/README.md`` says how each golden was produced.  A change that
only rearranges code must leave the reports byte-identical; a change to
the floating-point path must stay within the token-wise tolerance of
:mod:`golden_compare`.  The scatter-pair file carries input values only,
so it must match byte for byte, and so must the reports written by the
current floating-point path (``EXACT_CASES``).  The files written for
``panel30.csv`` are pinned by their sha256 digests (``panel30.sha256``).
"""

import hashlib
from pathlib import Path

import pytest

from golden_compare import report_differences
from pcrkit.cli import main
from pcrkit.pipeline import (
    RunConfig,
    emit_report,
    render_report_delim,
    render_report_text,
    run_pipeline,
)

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    ("fig3_varimax.txt", dict(fixture="fig3"), render_report_text),
    ("fig3_none.txt", dict(fixture="fig3", rotation="none"), render_report_text),
    ("panel30_report.txt", dict(input_path="panel30.csv"), render_report_text),
    ("panel30_report.csv", dict(input_path="panel30.csv"), render_report_delim),
]


@pytest.mark.parametrize("golden, config, render", CASES, ids=[c[0] for c in CASES])
def test_report_matches_golden(golden, config, render, monkeypatch):
    # The panel report names its input by the path it was given.
    monkeypatch.chdir(GOLDEN)
    first = render(run_pipeline(RunConfig(**config)))
    second = render(run_pipeline(RunConfig(**config)))
    assert report_differences(second, first, exact=True) == []
    expected = (GOLDEN / golden).read_text(encoding="utf-8")
    assert report_differences(first, expected) == []


# (golden, CLI arguments, exit code); each is ``report.txt`` or
# ``report.csv`` as ``--out DIR`` writes it, so the partial report of a
# failed run is covered too.
EXACT_CASES = [
    ("fig3_varimax.csv", ["--fixture", "fig3"], 0),
    ("panel9_report.txt", ["--input", "panel9.csv"], 0),
    ("panel9_report.csv", ["--input", "panel9.csv"], 0),
    *(
        (f"panel9_percent.{ext}", ["--input", "panel9.csv", "--diff", "percent",
                                   "--rotation", "none", "--components", "1"], 0)
        for ext in ("txt", "csv")
    ),
    *(
        (f"panel9_failure.{ext}", ["--input", "panel9.csv", "--components", "40"], 4)
        for ext in ("txt", "csv")
    ),
    *(
        (f"panel9_short_report.{ext}", ["--input", "panel9_short.csv"], 0)
        for ext in ("txt", "csv")
    ),
    *(
        (f"panel9_input_failure.{ext}", ["--input", "panel9.csv", "--response", "NOPE"], 2)
        for ext in ("txt", "csv")
    ),
    *(
        (f"two_years_failure.{ext}", ["--input", "two_years.csv"], 3)
        for ext in ("txt", "csv")
    ),
    *(
        (f"panel9_short_failure.{ext}", ["--input", "panel9_short.csv", "--components", "9"], 4)
        for ext in ("txt", "csv")
    ),
    *(
        (f"short_wide_report.{ext}", ["--input", "short_wide.csv"], 0)
        for ext in ("txt", "csv")
    ),
    *(
        (f"unsettled_report.{ext}", ["--input", "unsettled.csv"], 0)
        for ext in ("txt", "csv")
    ),
]


@pytest.mark.parametrize("golden, args, code", EXACT_CASES, ids=[c[0] for c in EXACT_CASES])
def test_report_matches_golden_exactly(golden, args, code, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(GOLDEN)
    suffix = Path(golden).suffix
    format = "text" if suffix == ".txt" else "delim"
    assert main([*args, "--out", str(tmp_path), "--format", format]) == code
    written = (tmp_path / f"report{suffix}").read_text(encoding="utf-8")
    expected = (GOLDEN / golden).read_text(encoding="utf-8")
    assert report_differences(written, expected, exact=True) == []


# Goldens rewritten when the n-th eigenvalue of n centred increments became
# an exact 0.0: the golden, that eigenvalue's index, the rounding residue it
# printed before, and the sha256 of the file as it was then.
RESIDUE_REWRITES = [
    ("short_wide_report.txt", 5, "3.3786219536510032e-31",
     "c0ae1747c111841cfbf81e7d26acb0371bd6b6fd8f7f6b35248205737ed5ec72"),
    ("short_wide_report.csv", 5, "3.3786219536510032e-31",
     "424a9c67c8e34dae63de2e3580d96190c69751bb3f8961dd2dd55d76792cf0a4"),
    ("unsettled_report.txt", 14, "1.2394193060546306e-31",
     "3feb347183b97bbfe210976b235eb5a0f148c65832405f652d524217a37d3262"),
    ("unsettled_report.csv", 14, "1.2394193060546306e-31",
     "11835da9a5803c0a80f4234385747a3402d7d5d8d764f9071f4982f434eff3ce"),
]


@pytest.mark.parametrize(
    "golden, k, residue, digest", RESIDUE_REWRITES, ids=[c[0] for c in RESIDUE_REWRITES]
)
def test_residue_rewrite_moved_one_token(golden, k, residue, digest):
    # Putting the residue back in place of the 0.0 gives the old file.
    lines = (GOLDEN / golden).read_bytes().decode("utf-8").split("\n")
    if golden.endswith(".txt"):
        i = lines.index("[eigenvalues]") + 1
        tokens = lines[i].split(" ")
        assert tokens[k - 1] == "0.0"
        tokens[k - 1] = residue
        lines[i] = " ".join(tokens)
    else:
        i = lines.index(f"eigenvalues,{k},,0.0")
        lines[i] = f"eigenvalues,{k},,{residue}"
    assert hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("format", ["text", "delim"])
def test_scatter_pairs_match_golden_exactly(format, tmp_path, monkeypatch):
    # The report's format does not reach the scatter file.
    monkeypatch.chdir(GOLDEN)
    report = run_pipeline(RunConfig(input_path="panel9.csv"))
    written = emit_report(report, tmp_path, format=format)[-1]
    assert written.name == "scatter_pairs.csv"
    expected = (GOLDEN / "panel9_scatter_pairs.csv").read_text(encoding="utf-8")
    assert report_differences(written.read_text(encoding="utf-8"), expected, exact=True) == []


# ``sha256sum`` lines: the digest, two spaces, the file name under ``--out``.
PANEL30_DIGESTS = dict(
    line.split()[::-1]
    for line in (GOLDEN / "panel30.sha256").read_text(encoding="utf-8").splitlines()
)


@pytest.mark.parametrize("name", sorted(PANEL30_DIGESTS))
def test_panel30_files_match_digests(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(GOLDEN)
    assert main(["--input", "panel30.csv", "--out", str(tmp_path), "--format", "delim"]) == 0
    digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert digest == PANEL30_DIGESTS[name]


class TestComparator:
    OLD = "[eigenvalues]\nX01 1.5 -0.25 3e-05\nretained 2 of 9 components (auto)\n"

    def test_identical_texts_pass_both_modes(self):
        assert report_differences(self.OLD, self.OLD, exact=True) == []
        assert report_differences(self.OLD, self.OLD) == []

    def test_exact_mode_flags_one_ulp(self):
        new = self.OLD.replace("1.5", repr(1.5 + 2.0**-52))
        assert len(report_differences(new, self.OLD, exact=True)) == 1
        assert report_differences(new, self.OLD) == []

    def test_numbers_within_relative_tolerance(self):
        assert report_differences(self.OLD.replace("-0.25", "-0.25000000001"), self.OLD) == []
        problems = report_differences(self.OLD.replace("-0.25", "-0.2500000002"), self.OLD)
        assert problems == ["line 2: -0.2500000002 != golden -0.25"]

    def test_text_must_match(self):
        assert report_differences(self.OLD.replace("X01", "X02"), self.OLD)
        assert report_differences(self.OLD.replace("auto", "Auto"), self.OLD)
        assert report_differences(self.OLD.replace("1.5 ", "1.5  "), self.OLD)

    def test_missing_line_reported(self):
        new = self.OLD.replace("[eigenvalues]\n", "")
        assert report_differences(new, self.OLD) == ["3 lines, golden has 4"]
