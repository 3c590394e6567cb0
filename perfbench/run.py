"""Run one csmark benchmark workload and print its metrics.

    python3 perfbench/run.py --workload density-grid --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seconds 15

Run from the root of a checkout: the package is imported from ``src/``.
Each op is one in-process ``csmark.cli.main([...])`` call on a config
generated from the workload (see ``workloads.py``); every op's output files
are read and checked outside the timed region (see ``checks.py``).

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced batches of the same ops and
reports the per-layer metrics (see ``tracing.py``).  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the same result, plus the
environment, is appended to ``.bench_run/results.jsonl`` (``--results``).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
from calibration import Calibration
from tracing import LAYERS, ROOT as ROOT_SPAN, Tracer, layer_metrics
from workloads import WORKLOADS, Workload, write_configs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
REFERENCE = BENCH / "reference.json"
DEFAULT_SEED = 0
SETUP_PROBES = 5
# A calibration sample is taken before an op when the last one is older
# than this, so that short ops do not spend most of a run on samples; the
# host's speed drifts over seconds.
CALIBRATION_INTERVAL_S = 0.25
# glibc's mallopt options (malloc.h) and the values its adaptive mmap
# threshold converges to on 64-bit hosts: the threshold's upper limit, and
# twice that for the trim threshold
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 32 * 1024 * 1024
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}
PER_LAYER = {
    "scenarios.sample.calls": "count",
    "scenarios.sample.rows": "count",
    "scenarios.sample.busy_s": "s",
    "scenarios.self_s": "s",
    "kernels.evals": "count",
    "kernels.busy_s": "s",
    "kernels.support_hit_ratio": "ratio",
    "kernels.self_s": "s",
    "estimators.points": "count",
    "estimators.f1.busy_s": "s",
    "estimators.f2.busy_s": "s",
    "estimators.f2_density.busy_s": "s",
    "estimators.evaluate_grid.self_s": "s",
    "estimators.unstable": "count",
    "estimators.self_s": "s",
    "asymptotics.replications": "count",
    "asymptotics.replications_failed": "count",
    "asymptotics.driver.self_s": "s",
    "asymptotics.mean_functional.busy_s": "s",
    "asymptotics.thread_busy_ratio": "ratio",
    "asymptotics.self_s": "s",
    "bandwidth.pilot_fit.busy_s": "s",
    "bandwidth.pilot_density.points": "count",
    "bandwidth.pilot_density.busy_s": "s",
    "bandwidth.draw_xy.busy_s": "s",
    "bandwidth.draw_xy.acceptance": "ratio",
    "bandwidth.candidates": "count",
    "bandwidth.candidates.busy_s": "s",
    "bandwidth.candidates_failed": "count",
    "bandwidth.bootstrap.self_s": "s",
    "bandwidth.self_s": "s",
    "cli.invocations": "count",
    "cli.self_s": "s",
    "cli.bytes_written": "B",
    "trace.wall_s": "s",
    "trace.self_coverage": "ratio",
    "trace.overhead_ratio": "ratio",
}

# Measures set-up in a fresh interpreter: cold import of the package plus
# generation of the workload's configs.  Interpreter start-up is excluded.
_SETUP_PROBE = """\
import sys, time
start = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import csmark.cli, workloads
workloads.write_configs(workloads.WORKLOADS[sys.argv[3]], sys.argv[4])
print(time.perf_counter() - start)
"""


class BenchmarkError(Exception):
    """The benchmark itself cannot run (as opposed to an op failing)."""


def fix_malloc_thresholds() -> bool:
    """Fix glibc's mmap and trim thresholds; True if that was possible.

    glibc raises both thresholds each time it frees a mapped block larger
    than the current one, so how often the 1.6 MB temporaries of an
    n = 200 000 op are mapped and faulted in afresh depends on the order of
    the process's earlier allocations: one process faulted in 27 000 pages
    per ``density-grid`` op and the next 55 000, 1.3 times as slow.  Fixing
    the thresholds at the values the adaptation converges to gives every
    process the same state, in which such temporaries reuse heap memory.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return False
    return (mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
            and mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1)


def import_cli():
    """Import ``csmark.cli`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "csmark" / "cli.py").is_file():
        raise BenchmarkError(f"no csmark package under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import csmark.cli

    if Path(csmark.cli.__file__).resolve().parent != (SRC / "csmark").resolve():
        raise BenchmarkError(f"csmark imported from {csmark.cli.__file__}, not {SRC}")
    return csmark.cli


@dataclass
class OpResult:
    seconds: float
    scale: float  # reference over measured time of the latest calibration sample
    files: dict[str, bytes]

    @property
    def scaled(self) -> float:
        """``seconds`` at the calibration's reference host speed."""
        return self.seconds * self.scale


class Runner:
    """Runs a workload's ops, checks each one and counts failures."""

    def __init__(self, cli, workload: Workload, seed: int, workdir: Path,
                 reference: list[dict]) -> None:
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.configs = write_configs(workload, workdir / "configs")
        self.outdir = workdir / "out"
        self.reference = reference
        self.calibration = Calibration(workload.threads)
        self.scale = 1.0
        self.scaled_at = float("-inf")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_op(self, index: int, call=None, threads: int | None = None,
               expect: dict[str, bytes] | None = None) -> OpResult:
        """Run op ``index``; ``expect`` are outputs it must reproduce byte for byte."""
        spec = self.workload.op(index)
        seed = self.seed + index
        argv = [
            spec.command,
            "--config", str(self.configs[spec.name]),
            "--out", str(self.outdir),
            "--seed", str(seed),
            "--threads", str(spec.threads if threads is None else threads),
        ]
        call = call or self.cli.main
        shutil.rmtree(self.outdir, ignore_errors=True)
        if time.perf_counter() - self.scaled_at >= CALIBRATION_INTERVAL_S:
            self.scale = self.calibration.scale()
            self.scaled_at = time.perf_counter()
        scale = self.scale
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            try:
                status = call(argv)
            except Exception as exc:  # a crashing op is a failed op
                status = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
        files = (
            {p.name: p.read_bytes() for p in self.outdir.iterdir()}
            if self.outdir.is_dir() else {}
        )
        if status != 0:
            problems = [f"exit status {status}: {stderr.getvalue().strip()}"]
        else:
            reference = self.reference[index] if index < len(self.reference) else None
            problems = checks.check_op(spec, files, reference)
            if expect is not None and files != expect:
                problems.append("outputs differ byte for byte from the first run")
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"op {index} ({spec.name}, seed {seed}): {p}" for p in problems]
        return OpResult(seconds, scale, files)

    def batch(self, number: int, call=None, expect: list[OpResult] | None = None):
        size = len(self.workload.batch)
        return [
            self.run_op(number * size + i, call,
                        expect=None if expect is None else expect[i].files)
            for i in range(size)
        ]

    def warm_up(self) -> None:
        """Run batch 0 untimed; threaded ops must match a ``--threads 1`` rerun."""
        first = self.batch(0)
        if self.workload.threaded:
            for index, result in enumerate(first):
                self.run_op(index, threads=1, expect=result.files)


def load_reference(workload: str, seed: int) -> list[dict]:
    """Reference outputs of the workload's first ops; empty for other seeds."""
    recorded = json.loads(REFERENCE.read_text())
    return recorded["workloads"][workload] if seed == recorded["seed"] else []


def setup_seconds(workload: Workload, workdir: Path) -> float:
    """Median set-up time over ``SETUP_PROBES`` fresh interpreters."""
    values = []
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(SRC), str(BENCH),
             workload.name, str(workdir / "setup-probe")],
            capture_output=True, text=True, timeout=120,
        )
        if probe.returncode != 0:
            raise BenchmarkError(f"set-up probe failed: {probe.stderr.strip()}")
        values.append(float(probe.stdout.split()[-1]))
    return statistics.median(values)


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return max(values)
    return statistics.quantiles(values, n=10)[-1]


def _times(batches: list[list[float]]) -> dict[str, float]:
    """Batch and op times from the median time of each op of the batch.

    A batch's time is their sum and the median op time their median: the
    median of all ops would fall into the gap between two kinds of op
    that take different times, as the F1 and F2 ops of ``mc-large`` do.
    """
    ops = [t for batch in batches for t in batch]
    kinds = [statistics.median(kind) for kind in zip(*batches)]
    return {
        "wall_s": sum(kinds),
        "op_p50_ms": 1e3 * statistics.median(kinds),
        "op_p90_ms": 1e3 * _p90(ops),
    }


def measure_untraced(runner: Runner, seconds: float) -> tuple[dict[str, float], dict]:
    """End-to-end metrics, with times at the reference host speed.

    Also returns the same times unscaled, and the median speed factor.
    """
    batches = []
    start = time.perf_counter()
    number = 0
    while not batches or time.perf_counter() - start < seconds:
        batches.append(runner.batch(number))
        number += 1
    metrics = _times([[r.scaled for r in batch] for batch in batches])
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["ok_ratio"] = (runner.attempted - runner.failed) / runner.attempted
    raw = _times([[r.seconds for r in batch] for batch in batches])
    raw["host_scale"] = statistics.median(r.scale for batch in batches for r in batch)
    return metrics, raw


def measure_traced(runner: Runner, seconds: float, spans_path: Path) -> dict[str, float]:
    """Alternate untraced and traced runs of each batch; per-layer metrics.

    Totals are per batch.  A traced op must reproduce its untraced outputs
    byte for byte.
    """
    tracer = Tracer()
    root = tracer.wrap(
        runner.cli.main, ROOT_SPAN,
        lambda args, status: (int(args[0][args[0].index("--threads") + 1]), 0),
    )
    plain_walls, traced_walls = [], []
    written = 0
    start = time.perf_counter()
    number = 0
    while not traced_walls or time.perf_counter() - start < seconds:
        plain = runner.batch(number)
        tracer.install()
        try:
            traced = runner.batch(number, call=root, expect=plain)
        finally:
            tracer.uninstall()
        plain_walls.append(sum(r.seconds for r in plain))
        traced_walls.append(sum(r.seconds for r in traced))
        written += sum(len(data) for r in traced for data in r.files.values())
        number += 1
    table, names = tracer.spans()
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.save(spans_path)
    totals, ratios = layer_metrics(table, names)
    metrics = {name: value / number for name, value in totals.items()}
    metrics.update(ratios)
    metrics["cli.bytes_written"] = written / number
    metrics["trace.wall_s"] = sum(traced_walls) / number
    metrics["trace.self_coverage"] = sum(
        totals[f"{layer}.self_s"] for layer in LAYERS) / sum(traced_walls)
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0)
    return metrics


def _git(*args: str) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(seed: int, malloc_fixed: bool) -> dict:
    import numpy
    import scipy

    status = _git("status", "--porcelain")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "workload_seed": seed,
        "malloc_thresholds_fixed": malloc_fixed,
    }


def run_workload(args) -> dict:
    cli = import_cli()
    workload = WORKLOADS[args.workload]
    workdir = WORK / workload.name
    shutil.rmtree(workdir, ignore_errors=True)
    metrics: dict[str, float] = {}
    raw: dict[str, float] = {}
    if not args.trace:
        metrics["setup_s"] = setup_seconds(workload, workdir)
    runner = Runner(cli, workload, args.seed, workdir,
                    load_reference(workload.name, args.seed))
    runner.warm_up()
    if args.trace:
        metrics.update(measure_traced(runner, args.seconds, workdir / "spans.npz"))
        units = PER_LAYER
    else:
        scaled, raw = measure_untraced(runner, args.seconds)
        metrics.update(scaled)
        units = END_TO_END
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
        "problems": runner.problems[:20],
        "raw": raw,
    }


def run_all(args) -> int:
    """Run every workload in its own process and print a table."""
    ok = True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--results", str(args.results)],
            stdout=subprocess.PIPE, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: benchmark exited with status {proc.returncode}")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} "
              f"failed_ratio={result['failed'] / result['attempted']:.4g}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:<36} {entry['value']:>14.6g} {entry['unit']}")
    return 0 if ok else 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path, default=WORK / "results.jsonl",
                        help="JSON-lines file the result is appended to")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    malloc_fixed = fix_malloc_thresholds()
    try:
        result = run_workload(args)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    problems = result.pop("problems")
    raw = result.pop("raw")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    env = environment(args.seed, malloc_fixed)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, **result, "raw": raw, "problems": problems}
    args.results.parent.mkdir(parents=True, exist_ok=True)
    with open(args.results, "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(f"# env {json.dumps(env)}")
    for name, entry in result["metrics"].items():
        print(f"# {name} = {entry['value']:.6g} {entry['unit']}")
    for name, value in raw.items():
        print(f"# raw {name} = {value:.6g}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
