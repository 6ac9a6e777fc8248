"""Command-line driver.

Maps flags onto a :class:`~pcrkit.pipeline.RunConfig`, runs the
pipeline, and writes or prints the report.  Exit codes identify the
failing stage: 0 success, 2 input validation (including flag misuse),
3 preprocessing, 4 component extraction, 5 regression, 6 output.
"""

from __future__ import annotations

import argparse
import gc
import sys

from .errors import PcrError, StageError
from .fixtures import FIXTURE_NAMES
from .pipeline import (
    REPORT_FORMATS,
    ROTATION_MODES,
    RunConfig,
    emit_report,
    render_report,
    run_pipeline,
)
from .preprocess import DIFFERENCE_MODES


def _components_arg(text: str):
    if text == "auto":
        return text
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'auto' or a positive integer, got {text!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcrkit",
        description=(
            "Principal-components regression over yearly indicator tables: "
            "difference, standardize, correlate, extract and rotate "
            "components, regress the response increment on component "
            "scores, and rebuild the level path."
        ),
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--input", metavar="PATH", help="delimited yearly table (header: year,<name>,...)"
    )
    source.add_argument(
        "--fixture",
        choices=FIXTURE_NAMES,
        help="bundled correlation matrix; runs matrix-only (no regression)",
    )
    parser.add_argument(
        "--response", default=RunConfig.response, metavar="NAME",
        help="response column (default: %(default)s)",
    )
    parser.add_argument(
        "--diff",
        choices=DIFFERENCE_MODES,
        default=RunConfig.diff,
        help="year-over-year differencing mode (default: %(default)s)",
    )
    parser.add_argument(
        "--components",
        type=_components_arg,
        default=RunConfig.components,
        metavar="auto|K",
        help="components to retain: 'auto' keeps eigenvalues above 1, at most as many as fit",
    )
    parser.add_argument(
        "--rotation",
        choices=ROTATION_MODES,
        default=RunConfig.rotation,
        help="loading rotation (default: %(default)s)",
    )
    parser.add_argument(
        "--out",
        metavar="DIR",
        help="directory for report files; omit to print the report to stdout",
    )
    parser.add_argument(
        "--format",
        choices=REPORT_FORMATS,
        default="text",
        help="report layout, in the report file and on stdout (default: %(default)s)",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = RunConfig(
        input_path=args.input,
        fixture=args.fixture,
        response=args.response,
        diff=args.diff,
        components=args.components,
        rotation=args.rotation,
    )
    try:
        report = run_pipeline(config)
        if args.out is None:
            print(render_report(report, args.format), end="")
            return 0
        try:
            paths = emit_report(report, args.out, args.format)
        except PcrError as err:
            raise StageError("output", err) from err
    except StageError as err:
        print(f"error: {err}", file=sys.stderr)
        if args.out is not None and err.report is not None:
            # Best effort: preserve the stages that completed.
            try:
                emit_report(err.report, args.out, args.format)
            except PcrError:
                pass
        return err.exit_code
    for path in paths:
        print(f"wrote {path}")
    return 0


def run() -> None:
    """Process entry point behind ``python -m pcrkit`` and the ``pcrkit`` script.

    Freezes the import-time heap, mostly numpy's, before :func:`main` runs, so
    the full collections of shutdown (run even with gc disabled) skip it;
    scanning it took longer than a fig3 run's work.
    """
    gc.freeze()
    raise SystemExit(main())


if __name__ == "__main__":
    run()
