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

For every end-to-end metric of the parent's ``BENCHMARK.json`` it prints
each side's median and quartiles, the pairs the change won (ties count
for neither side), and whether the medians differ by more than the
parent's interquartile range, in the direction the metric calls better.
A gain may be claimed only when the change wins at least nine pairs in
ten and that last column reads ``yes``.  The tool reads what the
benchmark prints and writes nothing.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``checkout``: its metrics, name to value."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"error: {checkout} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result.get("correct"):
        sys.exit(f"error: {checkout} seed {seed} was not correct: {lines[-1]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(name: str, better: str, parent: list, change: list) -> str:
    def stats(xs):
        q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
        return med, q3 - q1, f"{med:.4g} [{q1:.4g}, {q3:.4g}]"

    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    (pm, iqr, pcell), (cm, _, ccell) = stats(parent), stats(change)
    beyond = "yes" if sign * (cm - pm) > iqr else "no"
    return (f"{name:<12} {pcell:<28} {ccell:<28} {f'{wins}/{len(parent)}':<6} "
            f"{beyond:<4} (gap {cm - pm:+.4g}, parent IQR {iqr:.4g})")


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
          f"{'wins':<6} better by more than the parent's IQR")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        print(summary(name, metric["better"], [r[name] for r in runs["parent"]],
                      [r[name] for r in runs["change"]]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
