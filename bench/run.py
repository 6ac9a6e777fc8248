"""pcrkit benchmark: one closed-loop client, one operation at a time.

Usage, from the root of a source checkout (nothing needs installing;
``src/`` is put on the path)::

    python3 bench/run.py --workload fig3-cli --seed 1 --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json``):

``fig3-cli``
    a fresh ``python -m pcrkit --fixture fig3`` process, stdout captured;
    the same input every time.
``panel30-inproc``
    ``run_pipeline`` plus ``render_report_text`` in this process, on a
    new planted panel (30 predictors, 41 years, 3 factors) each time.
``panel60-cli``
    a fresh ``python -m pcrkit --input <panel> --out <dir> --format delim``
    process on a new planted panel (60 predictors, 71 years, 6 factors).

Each run sets up ``SETUP_REPS`` times (the median is ``setup_s``), then
runs operations back to back for ``--seconds`` (and at least
``MIN_OPS``), checks every output, and prints as its last line a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

The end-to-end times are wall times scaled to a reference speed.  The
run is pinned to one CPU, its children too.  A fixed CPU-bound kernel
(:func:`reference_ms`, timed in CPU time so that preemption does not
count) runs between consecutive operations and, while a child process
works, in short slices every ``PROBE_EVERY_S``; each operation's wall
time, less the CPU time of the slices taken during it, is multiplied by
``REF_UNIT_MS`` over the mean kernel time per unit seen before, during
and after it.  A shared machine whose speed drifts by tens of percent
within a minute thus gives steady figures, while a change to pcrkit
moves them as it moves wall time.  The unscaled figures are printed on
the details line.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs each
operation a second time in this process, the CLI ones through
``cli.main``, with spans around pcrkit's public functions, and reports
per-layer numbers instead (see ``spans.py``).  Lines before the last one
record the environment and sample details.  BLAS is pinned to one thread
here and in every child; a child that imports pcrkit and does not see
the pin stops the run with exit 3.
"""

import os
import sys

PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
NUMPY_BEFORE_PIN = "numpy" in sys.modules
for _var in PIN_VARS:  # must precede every numpy import
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import importlib.metadata  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import panels  # noqa: E402
import spans  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"

SETUP_REPS = 3
# Nominal time of one unit of the reference kernel, in ms: about what it
# takes on an idle core of the 2.1 GHz x86 machine the benchmark was
# written on.  Operations are bracketed by BRACKET_UNITS units; a child
# process is interrupted for one unit every PROBE_EVERY_S seconds.
REF_UNIT_MS = 1.0
BRACKET_UNITS = 10
PROBE_EVERY_S = 0.05
MIN_OPS = {0: 11, 1: 3}  # 11 leaves ten samples above the tail percentile
TAIL_ABOVE = 10
CHILD_TIMEOUT_S = 120

# Metric names and units, as BENCHMARK.json lists them.
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

IMPORT_PROBE = (
    "import json, os, time; t = time.perf_counter(); import pcrkit.cli; "
    "ms = 1000.0 * (time.perf_counter() - t); "
    f"print(json.dumps({{'import_ms': ms, 'pin': {{v: os.environ.get(v) for v in {PIN_VARS!r}}}}}))"
)


class PinError(RuntimeError):
    """A process of the run does not have BLAS pinned to one thread."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    for var in PIN_VARS:
        env[var] = "1"
    return env


def check_pin(seen: dict, who: str) -> dict:
    missing = [v for v in PIN_VARS if seen.get(v) != "1"]
    if missing:
        raise PinError(f"{who}: BLAS thread pin missing or wrong: {missing} in {seen}")
    return seen


def run_child(argv: list[str], cwd: Path, speed=None) -> subprocess.CompletedProcess:
    """Run ``python argv`` to the end; while it runs, ``speed.probe()`` is
    called every ``PROBE_EVERY_S`` if a :class:`Speed` is given."""
    argv = [sys.executable, *argv]
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    with subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        while True:
            try:
                stdout, stderr = proc.communicate(timeout=PROBE_EVERY_S)
                break
            except subprocess.TimeoutExpired:
                if time.monotonic() > deadline:
                    proc.kill()
                    proc.wait()
                    raise
                if speed is not None:
                    speed.probe()
    return subprocess.CompletedProcess(argv, proc.returncode, stdout, stderr)


def child_json(argv: list[str], cwd: Path, speed=None) -> dict:
    proc = run_child(argv, cwd, speed)
    if proc.returncode != 0:
        raise RuntimeError(f"probe {argv[:2]} exited {proc.returncode}: {proc.stderr.decode()}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """One kind of operation: prepare an input, run it, check the output."""

    name = ""
    cli = True

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def prepare(self, index: int) -> dict:
        raise NotImplementedError

    def run(self, ctx: dict, speed=None):
        """Do the operation; a CLI child is sampled by ``speed`` while it runs."""
        raise NotImplementedError

    def report(self, result) -> str:
        """The report an operation's result holds (text or delim layout)."""
        raise NotImplementedError

    def check(self, ctx: dict, result) -> list[str]:
        raise NotImplementedError

    def replay(self, tracer, ctx: dict) -> tuple[str, int]:
        """The operation run in this process under ``spans.instrumented``:
        (report, bytes of report output)."""
        raise NotImplementedError

    def cli_op(self, argv: list[str], speed) -> tuple[int, bytes]:
        proc = run_child(["-m", "pcrkit", *argv], self.work, speed)
        return proc.returncode, proc.stdout


def cli_in_process(tracer, argv: list[str]) -> str:
    """``pcrkit.cli.main(argv)`` inside a ``cli.main`` span; returns its stdout."""
    from pcrkit import cli

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), tracer.span("cli.main"):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"cli.main exited {code}")
    return stdout.getvalue()


class Fig3Cli(Workload):
    name = "fig3-cli"
    ARGV = ["--fixture", "fig3"]

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.reference = None
        self.corr = checks.fig3_predictor_correlation()

    def prepare(self, index):
        return {"argv": self.ARGV}

    def run(self, ctx, speed=None):
        return self.cli_op(ctx["argv"], speed)

    def report(self, result):
        return result[1].decode()

    def check(self, ctx, result):
        code, stdout = result
        if code != 0:
            return [f"exit code {code}"]
        if self.reference is None:
            self.reference = stdout
        elif stdout != self.reference:
            return ["stdout differs from the run's first operation"]
        return checks.check_fig3_report(checks.parse_text(self.report(result)), self.corr)

    def replay(self, tracer, ctx):
        text = cli_in_process(tracer, ctx["argv"])
        return text, len(text.encode())


class PanelWorkload(Workload):
    spec: panels.PanelSpec

    def prepare(self, index):
        panel = panels.generate(self.spec, self.seed, index)
        path = panels.write_csv(panel, self.work / f"{self.name}.csv")
        return {"panel": panel, "path": path}


class Panel30Inproc(PanelWorkload):
    name = "panel30-inproc"
    cli = False
    spec = panels.PanelSpec(n_predictors=30, n_years=41)

    def run(self, ctx, speed=None):
        from pcrkit import pipeline

        config = pipeline.RunConfig(input_path=ctx["path"])
        return pipeline.render_report_text(pipeline.run_pipeline(config))

    def report(self, result):
        return result

    def check(self, ctx, result):
        return checks.check_panel_report(checks.parse_text(result), ctx["panel"].levels)

    def replay(self, tracer, ctx):
        text = self.run(ctx)
        return text, len(text.encode())


class Panel60Cli(PanelWorkload):
    name = "panel60-cli"
    spec = panels.PanelSpec(n_predictors=60, n_years=71)

    def argv(self, ctx, out: Path) -> list[str]:
        return ["--input", str(ctx["path"]), "--out", str(out), "--format", "delim"]

    def prepare(self, index):
        shutil.rmtree(self.work / "out", ignore_errors=True)  # no stale files to check
        return super().prepare(index)

    def run(self, ctx, speed=None):
        out = self.work / "out"
        code, _stdout = self.cli_op(self.argv(ctx, out), speed)
        return code, out

    def report(self, result):
        return (result[1] / "report.csv").read_text(encoding="utf-8")

    def check(self, ctx, result):
        code, out = result
        if code != 0:
            return [f"exit code {code}"]
        return checks.check_panel_report(
            checks.parse_delim(self.report(result)), ctx["panel"].levels
        ) + checks.check_scatter_rows(
            out / "scatter_pairs.csv", self.spec.n_predictors, self.spec.n_years
        )

    def replay(self, tracer, ctx):
        out = self.work / "replay"
        shutil.rmtree(out, ignore_errors=True)
        cli_in_process(tracer, self.argv(ctx, out))
        nbytes = sum(p.stat().st_size for p in out.iterdir())
        return self.report((0, out)), nbytes


WORKLOADS = {w.name: w for w in (Fig3Cli, Panel30Inproc, Panel60Cli)}
WARMUP_INDEX = 1_000_000  # panel indices of warm-ups; measured ops count from 0


# ---------------------------------------------------------------------------
# measurement

_REF_MATRIX = np.random.default_rng(0).standard_normal((12, 12))


def reference_ms(units: int) -> float:
    """CPU ms per unit of a fixed kernel: a pure-Python loop plus small
    numpy column rotations, the same mix of work as pcrkit's Jacobi sweeps."""
    t0 = time.thread_time()
    for _ in range(units):
        total = 0
        for i in range(20_000):
            total += i
        b = _REF_MATRIX.copy()
        for _ in range(30):
            r = b[:, 1].copy()
            b[:, 1] = 0.6 * r - 0.8 * b[:, 2]
            b[:, 2] = 0.8 * r + 0.6 * b[:, 2]
    return 1000.0 * (time.thread_time() - t0) / units


class Speed:
    """Wall times of consecutive pieces of work, and the same times scaled
    to the reference speed.

    The kernel runs for ``BRACKET_UNITS`` on creation and after each
    :meth:`add`, so every piece of work is bracketed; :meth:`probe` adds
    samples taken while a child process does the work.  Run on the same
    CPU as the child, a probe holds it up, so a piece's seconds less the
    CPU time of its probes are scaled by ``REF_UNIT_MS`` over the mean of
    its samples.  :attr:`raw` keeps the seconds as given.
    """

    def __init__(self) -> None:
        self.refs = [reference_ms(BRACKET_UNITS)]
        self._pending = [self.refs[0]]
        self.raw: list[float] = []
        self.scaled: list[float] = []

    def probe(self) -> None:
        self._pending.append(reference_ms(1))

    def add(self, seconds: float) -> float:
        after = reference_ms(BRACKET_UNITS)
        probe_s = sum(self._pending[1:]) / 1000.0  # one unit each: its CPU ms
        scaled = (seconds - probe_s) * REF_UNIT_MS / statistics.fmean(self._pending + [after])
        self.refs.append(after)
        self._pending = [after]
        self.raw.append(seconds)
        self.scaled.append(scaled)
        return scaled


def attempt(workload: Workload, ctx: dict, speed=None):
    """Run one operation; returns (seconds, result, problems)."""
    t0 = time.perf_counter()
    try:
        result = workload.run(ctx, speed)
    except Exception as err:  # an operation failing must not end the run
        return time.perf_counter() - t0, None, [f"{type(err).__name__}: {err}"]
    elapsed = time.perf_counter() - t0
    try:
        problems = workload.check(ctx, result)
    except Exception as err:  # unparseable output is a failed check
        problems = [f"check raised {type(err).__name__}: {err}"]
    return elapsed, result, problems


def setup_once(workload: Workload, rep: int, speed=None) -> tuple[float, list[str]]:
    """Import pcrkit (in-process workloads), make an input, run a warm-up.

    Returns the set-up seconds and the warm-up's check problems.
    """
    t0 = time.perf_counter()
    if not workload.cli:
        importlib.import_module("pcrkit.pipeline")
    ctx = workload.prepare(WARMUP_INDEX + rep)
    t_prep = time.perf_counter() - t0
    elapsed, _result, problems = attempt(workload, ctx, speed)
    return t_prep + elapsed, problems


def setup(workload: Workload, reps: int, pins: list) -> tuple[Speed, list[str]]:
    """Set up ``reps`` times; in-process workloads repeat in fresh children,
    since a module is imported only once per process."""
    times, problems = Speed(), []
    for rep in range(reps):
        if rep == 0 or workload.cli:
            seconds, found = setup_once(workload, rep, times)
        else:
            probe = child_json(
                [str(BENCH / "run.py"), "--setup-probe", "--workload", workload.name,
                 "--seed", str(workload.seed), "--rep", str(rep)],
                ROOT, times,
            )
            pins.append(check_pin(probe["pin"], "set-up child"))
            seconds, found = probe["setup_s"], probe["problems"]
        times.add(seconds)
        problems += [f"warm-up {rep}: {p}" for p in found]
    return times, problems


def tail(samples: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest rank with TAIL_ABOVE samples above it."""
    ordered = sorted(samples)
    rank = max(1, len(ordered) - TAIL_ABOVE)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def peak_rss_mb(workload: Workload) -> float:
    who = resource.RUSAGE_CHILDREN if workload.cli else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def end_to_end(workload: Workload, seconds: float) -> dict:
    timer = Speed()
    samples, raw, failures, attempted = [], [], [], 0
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline or attempted < MIN_OPS[0]:
        ctx = workload.prepare(attempted)
        elapsed, _result, problems = attempt(workload, ctx, timer)
        scaled = timer.add(elapsed)
        attempted += 1
        if problems:
            failures.append(f"op {attempted - 1}: {'; '.join(problems)}")
        else:
            samples.append(scaled)
            raw.append(elapsed)
    ms = [1000.0 * s for s in samples]
    metrics = {}
    details = {"samples": len(ms), "failures": failures[:5],
               "ref_ms_p50": statistics.median(timer.refs)}
    if ms:
        tail_ms, tail_pct = tail(ms)
        details["tail_percentile"] = round(tail_pct, 2)
        details["wall_op_ms_p50"] = 1000.0 * statistics.median(raw)
        details["wall_ops_per_s"] = len(raw) / sum(raw)
        metrics.update(
            op_ms_p50=statistics.median(ms),
            op_ms_tail=tail_ms,
            ops_per_s=len(samples) / sum(samples),
        )
    metrics["ok_ratio"] = (attempted - len(failures)) / attempted
    return {"attempted": attempted, "failed": len(failures), "metrics": metrics,
            "details": details}


def traced(workload: Workload, seconds: float, trace_path: Path) -> dict:
    importlib.import_module("pcrkit.cli")  # keep imports out of the first traced op
    untraced, layers, failures, all_spans = [], [], [], []
    attempted = 0
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline or attempted < MIN_OPS[1]:
        index = attempted
        attempted += 1
        ctx = workload.prepare(index)
        elapsed, result, problems = attempt(workload, ctx)
        if problems:
            failures.append(f"op {index}: {'; '.join(problems)}")
            continue
        untraced.append(1000.0 * elapsed)

        t0 = time.perf_counter()
        run_child(["-c", "pass"], ROOT)
        interpreter_ms = 1000.0 * (time.perf_counter() - t0)
        probe = child_json(["-c", IMPORT_PROBE], ROOT)
        check_pin(probe["pin"], "import probe child")

        tracer = spans.Tracer()
        try:
            with spans.instrumented(tracer), tracer.span("op") as op:
                replayed, nbytes = workload.replay(tracer, ctx)
            # the wrappers must not change what the program computes
            if replayed != workload.report(result):
                raise RuntimeError("traced report differs from the untraced one")
            row = spans.op_layers(tracer.spans)
        except Exception as err:  # a traced op that fails measures nothing
            failures.append(f"op {index}: traced run: {type(err).__name__}: {err}")
            continue
        row["cli.interpreter_ms"] = interpreter_ms
        row["cli.import_ms"] = probe["import_ms"]
        row["pipeline.emit_bytes"] = nbytes
        op_ms = 1000.0 * (op["end"] - op["start"])
        row["trace.op_ms"] = op_ms + (interpreter_ms + probe["import_ms"] if workload.cli else 0.0)
        # paired with the untraced run of the same input just before it
        row["trace.overhead_ms"] = row["trace.op_ms"] - untraced[-1]
        layers.append(row)
        all_spans += [dict(s, op=index) for s in tracer.spans]

    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(json.dumps(all_spans), encoding="utf-8")
    metrics = {}
    if layers:
        for name in PER_LAYER:
            metrics[name] = statistics.median(row.get(name, 0.0) for row in layers)
        tried = sum(row["baseline_attempts"] for row in layers)
        ok = sum(row["baseline_ok"] for row in layers)
        metrics["regression.baseline_ok_ratio"] = ok / tried if tried else 0.0
    details = {"samples": len(layers), "failures": failures[:5], "spans": str(trace_path),
               "untraced_op_ms_p50": statistics.median(untraced) if untraced else None}
    return {"attempted": attempted, "failed": len(failures), "metrics": metrics,
            "details": details}


def environment(pins: list) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "pin_parent": {v: os.environ.get(v) for v in PIN_VARS},
        "pin_children": [dict(t) for t in {tuple(sorted(p.items())) for p in pins}],
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--rep", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pcrkit" / "__init__.py").is_file():
        print(f"error: no pcrkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if NUMPY_BEFORE_PIN:
        print("error: numpy was imported before the BLAS pin was set", file=sys.stderr)
        return 3

    # One CPU for the run and its children: the speed samples then come
    # from the core the measured work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = WORK / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, work)
    try:
        if args.setup_probe:
            seconds, problems = setup_once(workload, args.rep)
            pin = {v: os.environ.get(v) for v in PIN_VARS}
            print(json.dumps({"setup_s": seconds, "problems": problems, "pin": pin}))
            return 0
        pins = [check_pin(child_json(["-c", IMPORT_PROBE], ROOT)["pin"], "import probe child")]
        reps = SETUP_REPS if args.trace == 0 else 1
        setup_times, warmup_problems = setup(workload, reps, pins)
        if args.trace == 0:
            out = end_to_end(workload, args.seconds)
            out["metrics"]["setup_s"] = statistics.median(setup_times.scaled)
            out["metrics"]["peak_rss_mb"] = peak_rss_mb(workload)
            units = END_TO_END
        else:
            trace_path = WORK / "traces" / f"{args.workload}-seed{args.seed}.json"
            out = traced(workload, args.seconds, trace_path)
            units = PER_LAYER
        env = environment(pins)
    except PinError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    out["details"]["warmup_failures"] = warmup_problems
    out["details"]["setup_s_reps"] = setup_times.scaled
    out["details"]["wall_setup_s_reps"] = setup_times.raw
    print(json.dumps({"environment": env}))
    print(json.dumps({"workload": args.workload, "seed": args.seed, **out["details"]}))
    metrics = out["metrics"]
    correct = out["failed"] == 0 and not warmup_problems and set(metrics) == set(units)
    print(json.dumps({
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
