"""The demos run, and the README's library example runs.

Both read only the package's public surface, so they fail when a name
the documentation relies on stops being exported from ``pcrkit`` or a
call it shows stops working.  The demos run with warnings as errors,
the error classes are pinned to the four that callers catch or read,
and every exported name has a reader outside the tests.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pcrkit
from pcrkit import errors
from pcrkit.pca import score_weights
from pcrkit.pipeline import RunConfig, load_table, run_pipeline

ROOT = Path(__file__).parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PANEL9 = ROOT / "tests" / "golden" / "panel9.csv"


def readme_library():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return readme.split("## Library", 1)[1].split("\n## ", 1)[0]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # Twice: the analysis is deterministic, so the output must be too.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    outputs = []
    for _ in range(2):
        done = subprocess.run(
            [sys.executable, "-W", "error", str(demo)], cwd=tmp_path, env=env,
            capture_output=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr.decode()
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]


def test_readme_library_names_resolve():
    block = re.search(r"from pcrkit import \((.*?)\)", readme_library(), re.S).group(1)
    names = [name.strip() for name in block.split(",") if name.strip()]
    assert names
    for name in names:
        assert name in pcrkit.__all__ and hasattr(pcrkit, name), name


def test_readme_library_example_runs_on_golden_panel9():
    # The example's free names are the columns of a table; on golden
    # panel9 it repeats, call for call, what run_pipeline does.
    code = re.search(r"```python\n(.*?)```", readme_library(), re.S).group(1)
    table = load_table(PANEL9)
    scope = {"years": table.years, "names": table.names, "values": table.values}
    exec(code, scope)
    report = run_pipeline(RunConfig(input_path=PANEL9))
    assert scope["inflation"] == report.vif
    assert scope["fit"].r_squared == report.pcr.r_squared
    assert np.array_equal(scope["scores"], report.scores)
    assert np.array_equal(score_weights(scope["sol"]), score_weights(report.solution))
    assert np.array_equal(scope["path"].levels, report.prices.levels)


def test_errors_defines_only_the_classes_callers_use():
    classes = {
        name for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, Exception)
    }
    assert classes == {"PcrError", "RankDeficiencyError", "StageError", "TableFormatError"}


def test_every_export_has_a_user():
    # Export nothing that only tests use: the README's code, a demo or
    # the CLI names every entry of ``__all__``.  README prose does not
    # count, since names such as ``difference`` are also plain words.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = re.findall(r"```.*?```|`[^`\n]+`", readme, re.S)
    code += [path.read_text(encoding="utf-8") for path in (ROOT / "src/pcrkit/cli.py", *DEMOS)]
    text = "\n".join(code)
    unused = [name for name in pcrkit.__all__ if not re.search(rf"\b{name}\b", text)]
    assert unused == []
