"""Alternating parent/change benchmark pairs, summarised by the pair rule.

Usage::

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload fig3-cli \\
        --pairs 10 --seed 501 [--seconds 30]

PARENT_DIR and CHANGE_DIR are two source checkouts.  For pair i the
benchmark command that each checkout's ``BENCHMARK.json`` declares runs
``--workload W --seed S+i --seconds T --trace 0`` in that checkout, one
run at a time; the parent runs first in even pairs and the change in odd
ones.  Each run's last output line is its JSON result, and a run that is
not ``correct`` stops the tool.

Two states would make a comparison meaningless:

- Bytecode.  A CLI op compiles every pcrkit module that has no current
  bytecode, ~15 ms of a ~145 ms ``fig3-cli`` op.  Both sides run as a
  fresh checkout does, with no bytecode: before the first pair the tool
  deletes ``src/pcrkit/__pycache__`` in each checkout, and every run
  has ``PYTHONDONTWRITEBYTECODE=1`` so that none is written.
- Short runs.  ``op_ms_tail`` is the sample with ten above it, which
  lies at or under the median in a short run.  Each run's details line
  (its second to last) gives the tail's percentile, so when any run's is
  at most 50 the tool prints ``op_ms_tail`` as not comparable instead of
  a verdict.

For every end-to-end metric of the parent's ``BENCHMARK.json`` it prints
each side's median and quartiles, the pairs the change won (ties count
for neither side), and whether the medians differ by more than the
parent's interquartile range, in the direction the metric calls better.
A gain may be claimed only when the change wins at least nine pairs in
ten and that column reads ``yes``.  Then come the relative change of
the medians, (change - parent) / parent, and a verdict against the
metric's ``bound``, read as a fraction of the parent's median:
``worse`` when the change is worse than the parent by more than the
bound; otherwise ``unresolved`` when the parent's interquartile range
is wider than the bound, unless every change run beats every parent
run; otherwise ``ok``.  Apart from deleting that bytecode, the tool
writes nothing.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``checkout``: its metrics, name to value, and
    its tail's percentile under ``tail_percentile``."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"error: {checkout} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result.get("correct"):
        sys.exit(f"error: {checkout} seed {seed} was not correct: {lines[-1]}")
    details = json.loads(lines[-2])
    return {"tail_percentile": details["tail_percentile"],
            **{name: m["value"] for name, m in result["metrics"].items()}}


def quartiles(xs: list) -> tuple[float, float, float]:
    """The first quartile, the median and the third quartile of ``xs``."""
    return tuple(statistics.quantiles(xs, n=4, method="inclusive"))


def verdict(better: str, bound: float, parent: list, change: list) -> str:
    """``worse``, ``unresolved`` or ``ok``: the change against the parent
    for a metric whose ``better`` is ``lower`` or ``higher`` and whose
    regression ``bound`` is a fraction of the parent's median."""
    sign = 1 if better == "higher" else -1
    q1, pm, q3 = quartiles(parent)
    limit = bound * abs(pm)
    if sign * (quartiles(change)[1] - pm) < -limit:
        return "worse"
    beats_every_run = min(sign * c for c in change) > max(sign * p for p in parent)
    if q3 - q1 > limit and not beats_every_run:
        return "unresolved"
    return "ok"


def summary(metric: dict, parent: list, change: list) -> str:
    def cell(xs):
        q1, med, q3 = quartiles(xs)
        return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"

    name, better, bound = metric["name"], metric["better"], metric["bound"]
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    (q1, pm, q3), cm = quartiles(parent), quartiles(change)[1]
    beyond = "yes" if sign * (cm - pm) > q3 - q1 else "no"
    return (f"{name:<12} {cell(parent):<28} {cell(change):<28} "
            f"{f'{wins}/{len(parent)}':<6} {beyond:<6} {(cm - pm) / abs(pm):<+9.2%} "
            f"{verdict(better, bound, parent, change):<11} "
            f"(bound {bound:.0%}; gap {cm - pm:+.4g}, parent IQR {q3 - q1:.4g})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, to give quartiles")

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for path in sides.values():
        shutil.rmtree(path / "src" / "pcrkit" / "__pycache__", ignore_errors=True)
    runs = {side: [] for side in sides}
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            runs[side].append(run_once(sides[side], args.workload, args.seed + i, args.seconds))
        print(f"pair {i + 1}/{args.pairs}, seed {args.seed + i}, {order[0]} first",
              file=sys.stderr)

    spec = json.loads((sides["parent"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    print(f"{args.workload}: {args.pairs} pairs, {args.seconds:g} s each run")
    print(f"{'metric':<12} {'parent median [q1, q3]':<28} {'change median [q1, q3]':<28} "
          f"{'wins':<6} {'> IQR':<6} {'change':<9} verdict")
    lowest = min(r["tail_percentile"] for side in runs.values() for r in side)
    for metric in spec["end_to_end"]:
        name = metric["name"]
        if name == "op_ms_tail" and lowest <= 50:
            print(f"{name:<12} not comparable: a run's tail lies at its "
                  f"{lowest:g}th percentile, not above the median")
            continue
        print(summary(metric, [r[name] for r in runs["parent"]],
                      [r[name] for r in runs["change"]]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
