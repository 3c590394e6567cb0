"""Smoke tests of the benchmark itself, on one batch of each workload.

    python3 -m pytest -q perfbench/test_smoke.py

They run real ops (the smallest unit a workload has) but measure nothing:
every duration is zero seconds, so each measuring loop stops after one
batch.  Outputs go to pytest's temporary directory.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from calibration import Calibration  # noqa: E402
from tracing import LAYERS, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


def runner_for(cli, name: str, seed: int, workdir: Path) -> run.Runner:
    return run.Runner(cli, WORKLOADS[name], seed, workdir, run.load_reference(name, seed))


def test_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == [BENCH.name]


@pytest.mark.parametrize(
    "seed, corrupt",
    [
        # default seed: a change in the 7th digit breaks the reference match
        (run.DEFAULT_SEED, lambda mse: repr(float(mse) * (1.0 + 1e-7))),
        # any seed: a non-finite or negative value breaks an invariant
        (7, lambda mse: "inf"),
        (8, lambda mse: "-0.5"),
    ],
)
def test_corrupted_output_counts_as_failure(cli, tmp_path, seed, corrupt):
    def corrupting_main(argv):
        status = cli.main(argv)
        if "mse-F2.cfg" in argv[argv.index("--config") + 1]:
            path = Path(argv[argv.index("--out") + 1]) / "mse.csv"
            header, row = path.read_text().splitlines()
            fields = row.split(",")
            fields[6] = corrupt(fields[6])
            path.write_text(f"{header}\n{','.join(fields)}\n")
        return status

    runner = runner_for(cli, "mc-small", seed, tmp_path)
    runner.cli = SimpleNamespace(main=corrupting_main)
    metrics, _ = run.measure_untraced(runner, 0.0)
    assert (runner.attempted, runner.failed) == (5, 1)
    assert metrics["ok_ratio"] == pytest.approx(0.8)
    assert "mse-F2" in runner.problems[0]


def test_scaled_times_follow_the_raw_ones(cli, tmp_path):
    runner = runner_for(cli, "mc-small", 5, tmp_path)
    metrics, raw = run.measure_untraced(runner, 0.0)
    assert set(metrics) == set(run.END_TO_END) - {"setup_s"}
    for name in ("wall_s", "op_p50_ms", "op_p90_ms"):
        assert metrics[name] > 0.0 and raw[name] > 0.0
    assert 0.2 < raw["host_scale"] < 5.0


def test_batch_times_use_the_median_of_each_op():
    # two kinds of op, 10 and 30 ms, with one slow outlier each
    batches = [[0.010, 0.030], [0.011, 0.031], [0.050, 0.029], [0.010, 0.090]]
    times = run._times(batches)
    assert times["wall_s"] == pytest.approx(0.0105 + 0.0305)
    assert times["op_p50_ms"] == pytest.approx(1e3 * (0.0105 + 0.0305) / 2)


@pytest.mark.parametrize("threads", [1, 2])
def test_calibration_gives_a_positive_scale(threads):
    assert 0.0 < Calibration(threads).scale() < 100.0


def test_failed_exit_status_counts_as_failure(cli, tmp_path):
    runner = runner_for(cli, "mc-small", 3, tmp_path)
    runner.cli = SimpleNamespace(main=lambda argv: 3)
    run.measure_untraced(runner, 0.0)
    assert (runner.attempted, runner.failed) == (5, 5)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_and_untraced_ops_report_the_same_results(cli, tmp_path, name):
    runner = runner_for(cli, name, run.DEFAULT_SEED, tmp_path)
    plain = runner.batch(0)
    tracer = Tracer()
    tracer.install()
    try:
        traced = runner.batch(0, call=tracer.wrap(cli.main, "cli.main"))
    finally:
        tracer.uninstall()
    assert [r.files for r in traced] == [r.files for r in plain]
    assert runner.failed == 0, runner.problems
    assert not hasattr(cli.sample, "__wrapped__")
    totals, _ = layer_metrics(*tracer.spans())
    assert totals["cli.invocations"] == len(WORKLOADS[name].batch)
    layer_self = sum(totals[f"{layer}.self_s"] for layer in LAYERS)
    assert layer_self == pytest.approx(sum(r.seconds for r in traced), rel=0.05)


def test_traced_run_reports_every_per_layer_metric(cli, tmp_path):
    runner = runner_for(cli, "mc-small", run.DEFAULT_SEED, tmp_path)
    metrics = run.measure_traced(runner, 0.0, tmp_path / "spans.npz")
    assert set(metrics) == set(run.PER_LAYER)
    assert runner.failed == 0, runner.problems
    assert metrics["asymptotics.replications"] == 4 * 50 + 10
    assert metrics["scenarios.sample.rows"] == 4 * 50 * 5000 + 10 * 10_000
    assert 0.0 < metrics["asymptotics.thread_busy_ratio"] <= 1.0
    assert (tmp_path / "spans.npz").is_file()


def test_self_times_split_threaded_time_between_open_leaves():
    # root [0, 100] > driver [10, 90] > two worker spans [20, 60] and [30, 80]
    start = np.array([0, 10, 20, 30])
    end = np.array([100, 90, 60, 80])
    parent = np.array([-1, 0, 1, 1])
    assert self_times(start, end, parent).tolist() == [20.0, 20.0, 25.0, 35.0]


def test_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "mc-small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
