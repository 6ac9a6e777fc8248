"""The shipped process entry points, each run as its own process.

``python -m pcrkit``, ``python -m pcrkit.cli`` and the ``pcrkit``
console script all go through :func:`pcrkit.cli.run`, which freezes the
import-time heap and exits with :func:`pcrkit.cli.main`'s code.  These
tests check that a process prints, writes and fails exactly as an
in-process ``main`` call does.
"""

import contextlib
import gc
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pcrkit
from golden_compare import report_differences
from pcrkit import cli

GOLDEN = Path(__file__).parent / "golden"
PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"

# What a console script generated for ``pcrkit.cli:run`` does.
SCRIPT = "import sys; from pcrkit.cli import run; sys.argv[0] = 'pcrkit'; sys.exit(run())"
LAUNCHERS = {
    "module": ["-m", "pcrkit"],
    "cli-module": ["-m", "pcrkit.cli"],
    "script": ["-c", SCRIPT],
}


def run_process(launcher, args, cwd=None):
    # Buffered stdio, as a plain shell gives it, so an exit that skipped
    # the flush would lose output.
    env = dict(os.environ, PYTHONPATH=str(Path(pcrkit.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run(
        [sys.executable, *launcher, *args], cwd=cwd, env=env, capture_output=True
    )


def run_in_process(args):
    """(exit code, stdout, stderr) of ``cli.main(args)`` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(args)
        except SystemExit as stop:
            code = stop.code
    return code, out.getvalue().encode(), err.getvalue().encode()


@pytest.mark.parametrize("launcher", LAUNCHERS.values(), ids=LAUNCHERS)
def test_fig3_report_on_stdout(launcher):
    done = run_process(launcher, ["--fixture", "fig3"])
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == run_in_process(["--fixture", "fig3"])[1]
    # The text golden predates the current eigensolver, so it holds
    # within the token tolerance; the CSV golden holds byte for byte.
    golden = (GOLDEN / "fig3_varimax.txt").read_text(encoding="utf-8")
    assert report_differences(done.stdout.decode(), golden) == []
    delim = run_process(launcher, ["--fixture", "fig3", "--format", "delim"])
    assert delim.stdout == (GOLDEN / "fig3_varimax.csv").read_bytes()


@pytest.mark.parametrize("launcher", LAUNCHERS.values(), ids=LAUNCHERS)
@pytest.mark.parametrize(
    "args, code",
    [([], 2), (["--input", "two_years.csv"], 3)], ids=["usage", "preprocess"],
)
def test_failures_exit_and_print_as_main_does(launcher, args, code, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    done = run_process(launcher, args, cwd=GOLDEN)
    assert (done.returncode, done.stdout, done.stderr) == run_in_process(args)
    assert done.returncode == code and done.stderr.startswith((b"usage: pcrkit", b"error: ["))


@pytest.mark.parametrize("format, suffix", [("text", "txt"), ("delim", "csv")])
def test_out_files_are_complete(format, suffix, tmp_path):
    done = run_process(
        LAUNCHERS["module"],
        ["--input", "panel9.csv", "--out", str(tmp_path), "--format", format], cwd=GOLDEN,
    )
    assert (done.returncode, done.stderr) == (0, b"")
    # The scatter file is CSV whatever the report's format is.
    written = [tmp_path / f"report.{suffix}", tmp_path / "scatter_pairs.csv"]
    assert done.stdout.decode() == "".join(f"wrote {path}\n" for path in written)
    for path, golden in zip(written, (f"panel9_report.{suffix}", "panel9_scatter_pairs.csv")):
        assert path.read_bytes() == (GOLDEN / golden).read_bytes()


def test_the_heap_is_frozen_before_main_runs():
    probe = (
        "import gc; from pcrkit import cli; before = gc.get_freeze_count(); "
        "cli.main = lambda: print(before, gc.get_freeze_count(), len(gc.get_objects())) or 7; "
        "cli.run()"
    )
    done = run_process(["-c", probe], [])
    assert done.returncode == 7
    before, frozen, tracked = map(int, done.stdout.split())
    # numpy's import alone leaves thousands of tracked objects; after the
    # freeze only what was made since is left for a collection to scan.
    assert before == 0 and frozen > 5000 and tracked < frozen // 20


def test_main_in_process_freezes_nothing(capsys):
    before = gc.get_freeze_count()
    assert cli.main(["--fixture", "fig3"]) == 0
    assert gc.get_freeze_count() == before


def test_console_script_is_run():
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    assert scripts == {"pcrkit": "pcrkit.cli:run"}
