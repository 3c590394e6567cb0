"""Config parsing and the end-to-end command-line entry points."""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from csmark import (
    BandwidthSchedule, BootstrapPlan, CsmarkError, EstimatorConfig, Sample,
    UnstableDenominatorError, asymptotics, equivalence_curve, evaluate_grid, mc_functional,
    mc_mse, mc_normality, sample, scenario_a, scenario_b, write_grid_csv,
)
from csmark import cli
from csmark.cli import ConfigError, main, parse_config


def run(tmp_path, command, config_text, out="out", extra=()):
    cfg = tmp_path / f"{command}.cfg"
    cfg.write_text(config_text)
    outdir = tmp_path / out
    code = main(
        [command, "--config", str(cfg), "--out", str(outdir), *extra]
    )
    return code, outdir


def test_parse_config_layout():
    text = (
        "# a comment line\n"
        "scenario = B\n"
        "\n"
        "n = 50   # trailing comment\n"
        "alpha_grid = 0.1, 0.2\n"
    )
    cfg = parse_config(text)
    assert cfg["scenario"].value == "B"
    assert cfg["n"].value == "50"
    assert cfg["n"].line == 4
    assert cfg["alpha_grid"].value == "0.1, 0.2"


def test_parse_config_errors_carry_positions():
    with pytest.raises(ConfigError) as exc:
        parse_config("scenario = B\nscenario = A\n")
    assert exc.value.line == 2
    with pytest.raises(ConfigError) as exc:
        parse_config("n 50\n")
    assert exc.value.line == 1
    with pytest.raises(ConfigError):
        parse_config("= 5\n")
    with pytest.raises(ConfigError) as exc:
        parse_config("n =\n")
    assert exc.value.line == 1 and exc.value.col is not None


def test_simulate_writes_sample_and_manifest(tmp_path):
    text = "kind = simulate\nscenario = B\nn = 50\nseed = 9\n"
    code, outdir = run(tmp_path, "simulate", text)
    assert code == 0
    csv_path = outdir / "sample.csv"
    assert csv_path.read_text().splitlines()[0] == "t,z,delta"
    assert len(csv_path.read_text().splitlines()) == 51
    loaded = Sample.from_csv(csv_path)
    assert len(loaded) == 50

    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 9
    assert manifest["outputs"] == ["sample.csv"]
    assert manifest["config"]["scenario"] == "B"
    assert manifest["config_text"] == text

    code2, outdir2 = run(tmp_path, "simulate", text, out="out2")
    assert code2 == 0
    assert (outdir2 / "sample.csv").read_bytes() == csv_path.read_bytes()

    code3, outdir3 = run(tmp_path, "simulate", text, out="out3", extra=("--seed", "10"))
    assert code3 == 0
    assert (outdir3 / "sample.csv").read_bytes() != csv_path.read_bytes()
    assert json.loads((outdir3 / "manifest.json").read_text())["seed"] == 10


def test_estimate_grid_outputs(tmp_path):
    text = (
        "kind = estimate-grid\nscenario = B\nn = 150\nseed = 4\n"
        "alpha = 0.25\nbeta = 0.2\n"
        "t_grid = 0.4, 0.6\nz_grid = 0.3, 0.5, 0.7\n"
    )
    code, outdir = run(tmp_path, "estimate-grid", text)
    assert code == 0
    lines = (outdir / "grid.csv").read_text().splitlines()
    assert lines[0] == "t,z,F1,F2,f2"
    assert len(lines) == 7
    assert all(line.count(",") == 4 and not line.endswith(",") for line in lines[1:])

    no_beta = text.replace("beta = 0.2\n", "")
    code, outdir = run(tmp_path, "estimate-grid", no_beta, out="nobeta")
    assert code == 0
    lines = (outdir / "grid.csv").read_text().splitlines()
    assert all(line.endswith(",,") for line in lines[1:])


def test_estimate_grid_runs_scenario_a(tmp_path):
    # scenario A is a config option of its own: the grid is the one of
    # scenario A's sample, not scenario B's
    text = (
        "kind = estimate-grid\nscenario = A\nn = 150\nseed = 4\n"
        "alpha = 0.25\nbeta = 0.2\nt_grid = 0.4, 0.6\nz_grid = 0.3, 0.5, 0.7\n"
    )
    code, outdir = run(tmp_path, "estimate-grid", text)
    assert code == 0
    lines = (outdir / "grid.csv").read_text().splitlines()
    assert lines[0] == "t,z,F1,F2,f2" and len(lines) == 7
    config = EstimatorConfig(alpha=0.25, beta=0.2)
    grid = (np.array([0.4, 0.6]), np.array([0.3, 0.5, 0.7]))
    for scenario, name in ((scenario_a(), "a.csv"), (scenario_b(), "b.csv")):
        write_grid_csv(evaluate_grid(sample(scenario, 150, 4), config, *grid), tmp_path / name)
    assert (outdir / "grid.csv").read_text() == (tmp_path / "a.csv").read_text()
    assert (tmp_path / "a.csv").read_text() != (tmp_path / "b.csv").read_text()


def test_mc_normality_command(tmp_path):
    text = (
        "kind = mc-normality\nscenario = B\nestimator = F1\n"
        "t0 = 0.5\nz0 = 0.5\nn = 250\nm = 12\nalpha = 0.2\nseed = 1\n"
    )
    code, outdir = run(tmp_path, "mc-normality", text)
    assert code == 0
    assert len((outdir / "values.csv").read_text().splitlines()) == 13
    summary = json.loads((outdir / "summary.json").read_text())
    for key in ("ks", "mu", "sigma2", "mean", "variance", "m", "failures"):
        assert key in summary
    assert summary["m"] == 12
    assert summary["failures"] == 0


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_mc_normality_with_a_degenerate_law_writes_a_null_ks(tmp_path):
    # F0(t0, 0) = 0 on scenario B: sigma2 = 0 and the KS distance is undefined
    text = (
        "kind = mc-normality\nscenario = B\nestimator = F1\n"
        "t0 = 0.5\nz0 = 0\nn = 100\nm = 4\nalpha = 0.2\nseed = 1\n"
    )
    code, outdir = run(tmp_path, "mc-normality", text)
    assert code == 0
    text = (outdir / "summary.json").read_text()
    summary = json.loads(text, parse_constant=_reject_constant)
    assert summary["sigma2"] == 0.0
    assert summary["ks"] is None


def test_values_csv_numbers_rows_by_replicate(tmp_path, monkeypatch):
    text = (
        "kind = mc-normality\nscenario = B\nestimator = F1\n"
        "t0 = 0.5\nz0 = 0.5\nn = 200\nm = 100\nalpha = 0.2\nseed = 1\n"
    )
    code, full = run(tmp_path, "mc-normality", text, out="full")
    draw = asymptotics.sample

    def fail_replicate_3(scenario, n, seed):
        if seed == 1 + 3:
            raise UnstableDenominatorError("forced failure", g_value=0.0)
        return draw(scenario, n, seed)

    monkeypatch.setattr(asymptotics, "sample", fail_replicate_3)
    code_failed, failed = run(tmp_path, "mc-normality", text, out="failed")
    assert code == code_failed == 0
    assert json.loads((failed / "summary.json").read_text())["failures"] == 1
    rows = (full / "values.csv").read_text().splitlines()
    kept = (failed / "values.csv").read_text().splitlines()
    assert kept == rows[:4] + rows[5:]  # the header, then every row but replicate 3's
    assert [row.split(",")[0] for row in kept[1:]] == [str(r) for r in range(100) if r != 3]


def test_mc_mse_command_matches_library(tmp_path):
    text = (
        "kind = mc-mse\nscenario = B\nestimator = F1\n"
        "t0 = 0.4\nz0 = 0.4\nn = 120\nreplications = 10\nalpha = 0.25\nseed = 4\n"
    )
    code, outdir = run(tmp_path, "mc-mse", text)
    assert code == 0
    header, data = (outdir / "mse.csv").read_text().splitlines()
    assert header == "t0,z0,n,estimator,alpha,beta,mse,se"
    cells = data.split(",")
    expected = mc_mse(
        scenario_b(), "F1", (0.4, 0.4), 120, 10, alpha=0.25, seed=4
    )
    assert float(cells[6]) == expected.mse
    assert float(cells[7]) == expected.mse_se


def test_table1_command(tmp_path):
    text = (
        "kind = table1\nscenario = B\nreplications = 5\nseed = 0\n"
        "cell.1 = 0.4, 0.4, 80, F1, 0.25\n"
        "cell.2 = 0.5, 0.5, 80, F2, 0.25, 0.2\n"
    )
    code, outdir = run(tmp_path, "table1", text)
    assert code == 0
    lines = (outdir / "table1.csv").read_text().splitlines()
    assert lines[0] == "t0,z0,n,estimator,alpha,beta,mse,se"
    assert len(lines) == 3
    assert lines[1].split(",")[3] == "F1"
    assert lines[2].split(",")[3] == "F2"

    empty = "kind = table1\nscenario = B\nreplications = 5\nseed = 0\n"
    code, outdir = run(tmp_path, "table1", empty, out="empty")
    assert code == 0
    assert (outdir / "table1.csv").read_text().splitlines() == [
        "t0,z0,n,estimator,alpha,beta,mse,se"
    ]

    bad = text + "cell.3 = 0.4, 0.4, 80\n"
    code, _ = run(tmp_path, "table1", bad, out="bad")
    assert code == 2


def test_equivalence_command(tmp_path):
    text = (
        "kind = equivalence\nscenario = B\nt0 = 0.5\nz0 = 0.5\n"
        "c1 = 0.5\nc2 = 0.5\nbeta_exponent = 0.45\n"
        "n_grid = 400, 900, 1600\nseed = 12\n"
    )
    code, outdir = run(tmp_path, "equivalence", text)
    assert code == 0
    lines = (outdir / "equivalence.csv").read_text().splitlines()
    assert lines[0] == "n,diff,envelope"
    assert len(lines) == 4
    summary = json.loads((outdir / "summary.json").read_text())
    assert 0.0 <= summary["fraction_inside"] <= 1.0


def test_functional_command(tmp_path):
    text = (
        "kind = functional\nscenario = B\nn = 300\nm = 6\nseed = 3\n"
    )
    code, outdir = run(tmp_path, "functional", text)
    assert code == 0
    assert len((outdir / "values.csv").read_text().splitlines()) == 7
    summary = json.loads((outdir / "summary.json").read_text())
    assert summary["true_mean"] == pytest.approx(7.0 / 12.0, abs=1e-9)
    assert summary["efficient_variance"] == pytest.approx(19.0 / 96.0, abs=1e-9)


def test_bw_select_command_reproducible(tmp_path):
    text = (
        "kind = bw-select\nscenario = B\nn = 50\nt0 = 0.5\nz0 = 0.5\n"
        "replications = 12\nalpha_grid = 0.25, 0.45\nbeta_grid = 0.3\nseed = 6\n"
    )
    code, outdir = run(tmp_path, "bw-select", text)
    assert code == 0
    lines = (outdir / "bootstrap_mse.csv").read_text().splitlines()
    assert lines[0] == "estimator,alpha,beta,mse_hat,mse_tilde,failures"
    assert len(lines) == 1 + 2 + 2
    selected = json.loads((outdir / "selected.json").read_text())
    assert set(selected) == {"F1", "F2"}
    assert selected["F1"]["beta"] is None
    assert selected["F2"]["beta"] == 0.3

    code2, outdir2 = run(tmp_path, "bw-select", text, out="again")
    assert code2 == 0
    assert (outdir2 / "bootstrap_mse.csv").read_bytes() == (
        outdir / "bootstrap_mse.csv"
    ).read_bytes()
    assert (outdir2 / "selected.json").read_bytes() == (
        outdir / "selected.json"
    ).read_bytes()


def test_bw_select_compare_truth_accepts_only_booleans(tmp_path, capsys):
    base = (
        "kind = bw-select\nscenario = B\nn = 50\nt0 = 0.5\nz0 = 0.5\n"
        "replications = 2\nalpha_grid = 0.45\nbeta_grid = 0.3\nseed = 6\n"
    )
    for value, compared in (("YES", True), ("1", True), ("False", False), ("no", False)):
        code, outdir = run(tmp_path, "bw-select", base + f"compare_truth = {value}\n",
                           out=f"ok-{value}")
        assert code == 0
        first_row = (outdir / "bootstrap_mse.csv").read_text().splitlines()[1]
        assert (first_row.split(",")[4] != "") == compared

    code, _ = run(tmp_path, "bw-select", base + "compare_truth = treu\n", out="bad")
    assert code == 2
    err = capsys.readouterr().err
    assert "line 10, column" in err and "compare_truth" in err and "treu" in err


def test_threads_flag_does_not_change_results(tmp_path, monkeypatch):
    # a pool for any sample size, so the 200-row samples run threaded
    monkeypatch.setattr(asymptotics, "_THREAD_MIN_ROWS", 1)
    monkeypatch.setattr(asymptotics, "_usable_cpus", lambda: 4)
    text = (
        "kind = mc-normality\nscenario = B\nestimator = F2\n"
        "t0 = 0.5\nz0 = 0.5\nn = 200\nm = 10\nalpha = 0.25\nbeta = 0.2\nseed = 21\n"
    )
    _, out1 = run(tmp_path, "mc-normality", text, out="t1")
    _, out4 = run(tmp_path, "mc-normality", text, out="t4", extra=("--threads", "4"))
    assert (out1 / "values.csv").read_bytes() == (out4 / "values.csv").read_bytes()


def test_threads_must_be_positive(tmp_path, capsys):
    cfg = tmp_path / "mse.cfg"
    cfg.write_text("kind = mc-mse\n")
    for value in ("0", "-3", "two"):
        with pytest.raises(SystemExit) as exc:
            main(["mc-mse", "--config", str(cfg), "--out", str(tmp_path / "o"),
                  "--threads", value])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_seed_flag_must_be_nonnegative(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("kind = simulate\nscenario = B\nn = 5\nseed = 1\n")
    for value in ("-4", "four"):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o"),
                  "--seed", value])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# a valid config per command; each bad case below replaces or adds one key
VALID = {
    "simulate": "scenario = B\nn = 5\nseed = 1\n",
    "estimate-grid": "scenario = B\nn = 150\nseed = 4\nalpha = 0.25\nt_grid = 0.4\n"
    "z_grid = 0.5\n",
    "mc-normality": "scenario = B\nestimator = F1\nt0 = 0.5\nz0 = 0.5\nn = 250\nm = 12\n"
    "alpha = 0.2\nseed = 1\n",
    "mc-mse": "scenario = B\nestimator = F1\nt0 = 0.4\nz0 = 0.4\nn = 120\n"
    "replications = 10\nalpha = 0.25\nseed = 4\n",
    "table1": "scenario = B\nreplications = 5\nseed = 0\ncell.1 = 0.4, 0.4, 80, F1, 0.25\n",
    "equivalence": "scenario = B\nt0 = 0.5\nz0 = 0.5\nc1 = 0.5\nc2 = 0.5\n"
    "beta_exponent = 0.45\nn_grid = 400\nseed = 12\n",
    "functional": "scenario = B\nn = 300\nm = 6\nseed = 3\n",
    "bw-select": "scenario = B\nn = 50\nt0 = 0.5\nz0 = 0.5\nreplications = 2\n"
    "alpha_grid = 0.45\nbeta_grid = 0.3\nseed = 6\n",
}
CELL = "0.4, 0.4, 80, F1, 0.25"

# the size rule's bound: the largest size numpy can allocate
INDEX_MAX = np.iinfo(np.intp).max
# command, key, bad value (None drops the key), extra arguments, expected
# message, and where it points: the key's value, the key itself, or nowhere
BAD_CONFIGS = [
    ("simulate", "n", "five", (), "n must be an integer, got 'five'", "value"),
    ("simulate", "n", "0", (), f"n must be an integer >= 1 and <= {INDEX_MAX}, got 0",
     "value"),
    # sizes numpy cannot allocate are refused by the size rule, not by numpy
    ("simulate", "n", "18446744073709551616", (),
     f"n must be an integer >= 1 and <= {INDEX_MAX}, got 18446744073709551616", "value"),
    ("mc-normality", "m", "1", (), f"m must be an integer >= 2 and <= {INDEX_MAX}, got 1",
     "value"),
    # so are counts of replications, each an array entry; seeds are not bounded
    ("mc-normality", "m", "18446744073709551616", (),
     f"m must be an integer >= 2 and <= {INDEX_MAX}, got 18446744073709551616", "value"),
    ("functional", "m", "18446744073709551616", (),
     f"m must be an integer >= 2 and <= {INDEX_MAX}, got 18446744073709551616", "value"),
    ("mc-mse", "replications", "18446744073709551616", (),
     f"replications must be an integer >= 2 and <= {INDEX_MAX}, got 18446744073709551616",
     "value"),
    ("table1", "replications", "18446744073709551616", (),
     f"replications must be an integer >= 2 and <= {INDEX_MAX}, got 18446744073709551616",
     "value"),
    ("bw-select", "replications", "18446744073709551616", (),
     f"replications must be an integer >= 1 and <= {INDEX_MAX}, got 18446744073709551616",
     "value"),
    ("mc-mse", "t0", "abc", (), "t0 must be a number, got 'abc'", "value"),
    ("estimate-grid", "t_grid", "0.3, x", (),
     "t_grid must be comma-separated numbers, got '0.3, x'", "value"),
    ("estimate-grid", "t_grid", ",", (),
     "t_grid must be comma-separated numbers, got ','", "value"),
    ("bw-select", "alpha_grid", ",", (),
     "alpha_grid must be comma-separated numbers, got ','", "value"),
    ("equivalence", "n_grid", "400, 9.5", (),
     "n_grid must be comma-separated integers, got '400, 9.5'", "value"),
    ("equivalence", "n_grid", "0, -5", (),
     f"n_grid must be an integer >= 1 and <= {INDEX_MAX}, got 0", "value"),
    ("equivalence", "n_grid", "400, 100000000000000000000", (),
     f"n_grid must be an integer >= 1 and <= {INDEX_MAX}, got 100000000000000000000",
     "value"),
    ("equivalence", "n_grid", ",", (),
     "n_grid must be comma-separated integers, got ','", "value"),
    ("simulate", "scenario", "Q", (), "scenario must be one of ['A', 'B'], got 'Q'",
     "value"),
    ("mc-mse", "estimator", "F3", (), "estimator must be one of ['F1', 'F2'], got 'F3'",
     "value"),
    ("bw-select", "compare_truth", "treu", (),
     "compare_truth must be one of 1/0/true/false/yes/no, got 'treu'", "value"),
    ("estimate-grid", "t_grid", None, (), "missing required key 't_grid'", None),
    ("simulate", "seed", None, (), "missing required key 'seed'", None),
    ("simulate", "bogus", "3", (), "unknown key 'bogus'", "key"),
    ("simulate", "kind", "mc-mse", (), "config is for 'mc-mse', not 'simulate'", "value"),
    ("simulate", "seed", "-4", (), "seed must be an integer >= 0, got -4", "value"),
    ("simulate", "seed", "abc", ("--seed", "3"), "seed must be an integer, got 'abc'",
     "value"),
    ("table1", "cell.x", CELL, (), "'cell.x' needs an index of digits", "key"),
    ("table1", "cell.", CELL, (), "'cell.' needs an index of digits", "key"),
    ("table1", "cell.01", CELL, (), "'cell.01' repeats the index of 'cell.1'", "key"),
    ("table1", "cell.2", "0.4, 0.4, 0, F1, 0.25", (),
     f"cell.2.n must be an integer >= 1 and <= {INDEX_MAX}, got 0", "value"),
    ("table1", "cell.2", "0.4, 0.4, 80, F3, 0.25", (),
     "cell.2.estimator must be one of ['F1', 'F2'], got 'F3'", "value"),
    ("table1", "cell.2", "0.4, 0.4, 80", (),
     "cell.2 must be t0,z0,n,estimator,alpha[,beta], got '0.4, 0.4, 80'", "value"),
    # times are finite; a mark is any number but NaN, +-inf giving the limits
    ("mc-mse", "t0", "nan", (), "t0 must be a finite number, got nan", "value"),
    ("mc-mse", "t0", "inf", (), "t0 must be a finite number, got inf", "value"),
    ("mc-mse", "alpha", "-inf", (), "alpha must be finite and positive, got -inf", "value"),
    ("mc-mse", "alpha", "1e400", (), "alpha must be finite and positive, got inf", "value"),
    ("mc-mse", "z0", "nan", (), "z0 must be a number other than NaN, got nan", "value"),
    ("estimate-grid", "z_grid", "0.5, nan", (),
     "z_grid must be a number other than NaN, got nan", "value"),
    ("bw-select", "alpha0", "inf", (), "alpha0 must be finite and positive, got inf",
     "value"),
    ("table1", "cell.2", "nan, 0.4, 80, F1, 0.25", (),
     "cell.2.t0 must be a finite number, got nan", "value"),
    ("table1", "cell.2", "0.4, 0.4, 80, F2, 0.25, nan", (),
     "cell.2.beta must be finite and positive, got nan", "value"),
    # bandwidths, and the constants that scale them, are positive too
    ("estimate-grid", "alpha", "-0.1", (), "alpha must be finite and positive, got -0.1",
     "value"),
    ("estimate-grid", "beta", "0", (), "beta must be finite and positive, got 0.0", "value"),
    ("mc-normality", "c1", "-1", (), "c1 must be finite and positive, got -1.0", "value"),
    ("equivalence", "c2", "0", (), "c2 must be finite and positive, got 0.0", "value"),
    ("bw-select", "alpha0", "0", (), "alpha0 must be finite and positive, got 0.0",
     "value"),
    ("bw-select", "beta0", "-0.4", (), "beta0 must be finite and positive, got -0.4",
     "value"),
    ("bw-select", "alpha_grid", "0.2, -0.1", (),
     "alpha_grid must be finite and positive, got -0.1", "value"),
    ("bw-select", "beta_grid", "0", (), "beta_grid must be finite and positive, got 0.0",
     "value"),
    ("table1", "cell.2", "0.4, 0.4, 80, F1, 0", (),
     "cell.2.alpha must be finite and positive, got 0.0", "value"),
    ("table1", "cell.2", "0.4, 0.4, 80, F2, 0.25, -0.2", (),
     "cell.2.beta must be finite and positive, got -0.2", "value"),
    # an F2 cell needs a beta, refused before the valid cell.1 runs
    ("table1", "cell.2", "0.4, 0.4, 80, F2, 0.25", (),
     "cell.2.beta must be finite and positive, got None", "value"),
    # the kernel, the envelope's constant and the functional's grid are fixed
    ("estimate-grid", "kernel_z", "uniform", (), "unknown key 'kernel_z'", "key"),
    ("estimate-grid", "kernel", "uniform", (), "unknown key 'kernel'", "key"),
    ("mc-normality", "kernel", "uniform", (), "unknown key 'kernel'", "key"),
    ("equivalence", "envelope_constant", "2", (), "unknown key 'envelope_constant'", "key"),
    ("functional", "grid_points", "400", (), "unknown key 'grid_points'", "key"),
    # an exponent whose power n^-exponent overflows, refused by the library
    ("functional", "alpha_exponent", "-1000", (),
     "alpha_exponent = -1000.0 makes n ** -alpha_exponent overflow at n = 300", None),
    ("equivalence", "beta_exponent", "-200", (),
     "beta_exponent = -200.0 makes n ** -beta_exponent overflow at n = 400", None),
    # and one whose power underflows to 0, refused by naming the exponent too
    ("functional", "alpha_exponent", "18446744073709551616", (),
     "alpha_exponent = 1.8446744073709552e+19 makes n ** -alpha_exponent underflow at n = 300",
     None),
    ("equivalence", "beta_exponent", "18446744073709551616", (),
     "beta_exponent = 1.8446744073709552e+19 makes n ** -beta_exponent underflow at n = 400",
     None),
]


@pytest.mark.parametrize(
    "command, key, value, extra, message, where", BAD_CONFIGS,
    ids=[f"{c[0]}-{c[1]}-{c[2]}" for c in BAD_CONFIGS],
)
def test_bad_config_exits_2_with_position_and_no_output(
    tmp_path, capsys, command, key, value, extra, message, where
):
    lines = [line for line in VALID[command].splitlines()
             if not line.startswith(f"{key} =")]
    if value is not None:
        lines.append(f"{key} = {value}")
    code, outdir = run(tmp_path, command, "\n".join(lines) + "\n", extra=extra)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: ") and message in err
    if where is None:
        assert "line " not in err
    else:
        col = 1 if where == "key" else len(key) + 4
        assert f"line {len(lines)}, column {col}: " in err
    assert not outdir.exists()


def test_z0_inf_is_the_marginal_distribution(tmp_path):
    mse = VALID["mc-mse"].replace("z0 = 0.4", "z0 = inf")
    code, outdir = run(tmp_path, "mc-mse", mse, out="mse")
    assert code == 0
    row = (outdir / "mse.csv").read_text().splitlines()[1].split(",")
    assert row[1] == "inf"
    library = mc_mse(scenario_b(), "F1", (0.4, float("inf")), 120, 10, alpha=0.25,
                     seed=4)
    assert float(row[6]) == library.mse
    cell = VALID["table1"] + "cell.2 = 0.4, inf, 80, F1, 0.25\n"
    code, outdir = run(tmp_path, "table1", cell, out="table1")
    assert code == 0
    assert (outdir / "table1.csv").read_text().splitlines()[2].startswith("0.4,inf,80,")


def _normality_limits(outdir, tmp_path):
    values = (outdir / "values.csv").read_text().splitlines()[1:]
    assert [row.split(",")[1] for row in values] == ["0.0"] * 12  # F1 = F0 = 0


def _table1_limits(outdir, tmp_path):
    rows = (outdir / "table1.csv").read_text().splitlines()[2:]
    assert rows == ["0.4,-inf,80,F1,0.25,,0.0,0.0", "0.4,-inf,80,F2,0.25,0.2,0.0,0.0"]


def _grid_limits(outdir, tmp_path):
    config = EstimatorConfig(alpha=0.25, beta=0.2)
    write_grid_csv(evaluate_grid(sample(scenario_b(), 150, 4), config, [0.4],
                                 [-math.inf, 0.5, math.inf]), tmp_path / "grid.csv")
    lines = (outdir / "grid.csv").read_text().splitlines()
    assert lines == (tmp_path / "grid.csv").read_text().splitlines()
    assert lines[1] == "0.4,-inf,0.0,0.0,0.0" and lines[3].endswith(",0.0")


# configs with an infinite mark, once refused by the CLI: the command, the key,
# its text, a further line and the check of the limits written
INFINITE_MARKS = [
    ("mc-normality", "z0", "-inf", "", _normality_limits),
    ("table1", "cell.2", "0.4, -inf, 80, F1, 0.25", "cell.3 = 0.4, -inf, 80, F2, 0.25, 0.2",
     _table1_limits),
    ("estimate-grid", "z_grid", "-inf, 0.5, inf", "beta = 0.2", _grid_limits),
]


@pytest.mark.parametrize(
    "command, key, value, more, check", INFINITE_MARKS,
    ids=[f"{c[0]}-{c[1]}-{c[2]}" for c in INFINITE_MARKS],
)
def test_infinite_marks_write_the_limits(tmp_path, command, key, value, more, check):
    """A mark is any number but NaN: z0 = -inf and infinite z_grid entries
    run, and write the limits in the mark."""
    lines = [line for line in VALID[command].splitlines()
             if not line.startswith(f"{key} =")]
    lines += [f"{key} = {value}", *([more] if more else [])]
    code, outdir = run(tmp_path, command, "\n".join(lines) + "\n")
    assert code == 0
    check(outdir, tmp_path)


# one bad value for each config key that names a library parameter: the
# command, the key, its text, the library call given the same value and the
# library's name for the parameter; --threads is a flag, not a config key
_MSE = dict(scenario=scenario_b(), estimator="F1", point=(0.4, 0.4), n=120,
            replications=10, alpha=0.25, seed=4)
_PLAN = dict(alpha0=0.4, beta0=0.4, replications=2, alpha_grid=(0.45,), beta_grid=(0.3,),
             point=(0.5, 0.5), seed=7)
_SCHEDULE = BandwidthSchedule(0.5, 0.5, 0.45)
SAME_RULE = [
    ("mc-mse", "alpha", "-1", lambda: mc_mse(**{**_MSE, "alpha": -1.0}), "alpha"),
    ("mc-mse", "beta", "0", lambda: mc_mse(**{**_MSE, "beta": 0.0}), "beta"),
    ("mc-normality", "c1", "-1", lambda: BandwidthSchedule(-1.0), "c1"),
    ("equivalence", "c2", "0", lambda: BandwidthSchedule(0.5, 0.0, 0.45), "c2"),
    ("bw-select", "alpha0", "0", lambda: BootstrapPlan(**{**_PLAN, "alpha0": 0.0}), "alpha0"),
    ("bw-select", "beta0", "inf", lambda: BootstrapPlan(**{**_PLAN, "beta0": math.inf}),
     "beta0"),
    ("mc-mse", "t0", "nan", lambda: mc_mse(**{**_MSE, "point": (math.nan, 0.4)}), "t0"),
    ("mc-mse", "z0", "nan", lambda: mc_mse(**{**_MSE, "point": (0.4, math.nan)}), "z0"),
    ("simulate", "n", str(2**64), lambda: sample(scenario_b(), 2**64, 1), "n"),
    ("mc-normality", "m", "1",
     lambda: mc_normality(scenario_b(), "F1", (0.5, 0.5), 250, 1, seed=1, alpha=0.2), "m"),
    ("mc-mse", "replications", "1", lambda: mc_mse(**{**_MSE, "replications": 1}),
     "replications"),
    ("simulate", "seed", "-4", lambda: sample(scenario_b(), 5, -4), "seed"),
    ("mc-mse", "threads", "0", lambda: mc_mse(**{**_MSE, "workers": 0}), "workers"),
    ("equivalence", "n_grid", "400, 100000000000000000000",
     lambda: equivalence_curve(scenario_b(), (0.5, 0.5), [400, 10**20], _SCHEDULE, seed=12),
     "n_grid"),
    ("bw-select", "alpha_grid", "0.3, 0.2",
     lambda: BootstrapPlan(**{**_PLAN, "alpha_grid": (0.3, 0.2)}), "alpha_grid"),
    ("bw-select", "beta_grid", "0.3, -0.1",
     lambda: BootstrapPlan(**{**_PLAN, "beta_grid": (0.3, -0.1)}), "beta_grid"),
    ("equivalence", "beta_exponent", "nan", lambda: BandwidthSchedule(0.5, 0.5, math.nan),
     "beta_exponent"),
    ("functional", "alpha_exponent", "inf",
     lambda: mc_functional(scenario_b(), 300, 6, alpha_exponent=math.inf, seed=3),
     "alpha_exponent"),
    ("mc-mse", "estimator", "F3", lambda: mc_mse(**{**_MSE, "estimator": "F3"}),
     "estimator"),
]


@pytest.mark.parametrize("command, key, value, library, name", SAME_RULE,
                         ids=[row[1] for row in SAME_RULE])
def test_the_cli_and_the_library_refuse_a_value_in_the_same_words(
    tmp_path, capsys, monkeypatch, command, key, value, library, name
):
    def no_draws(*args):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(asymptotics, "sample", no_draws)
    with pytest.raises(CsmarkError) as refused:
        library()
    message = str(refused.value)
    assert message.startswith(f"{name} must be ")
    if key == "threads":  # argparse refuses a flag, and names it
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, command, VALID[command], extra=("--threads", value))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith(f": error: argument --threads: threads{message[len(name):]}\n")
        assert not (tmp_path / "out").exists()
        return
    lines = [line for line in VALID[command].splitlines()
             if not line.startswith(f"{key} =")] + [f"{key} = {value}"]
    code, outdir = run(tmp_path, command, "\n".join(lines) + "\n")
    assert code == 2
    position = f"line {len(lines)}, column {len(key) + 4}"
    assert capsys.readouterr().err == f"config error: {position}: {message}\n"
    assert not outdir.exists()


def test_out_that_cannot_be_created_is_a_config_error(tmp_path, capsys, monkeypatch):
    drawn = []
    monkeypatch.setattr(cli, "sample", lambda *args: drawn.append(args))
    (tmp_path / "file").write_text("")
    for out in ("file/sub", "file/sub/deeper", "file"):
        code, outdir = run(tmp_path, "simulate", VALID["simulate"], out=out)
        err = capsys.readouterr().err
        assert code == 2
        assert err == (f"config error: cannot create --out directory: "
                       f"{tmp_path / 'file'} is not a directory\n")
    assert drawn == []
    assert (tmp_path / "file").read_text() == ""



@pytest.mark.skipif(os.geteuid() == 0, reason="root searches any directory")
def test_out_under_a_directory_that_cannot_be_searched_is_a_config_error(
    tmp_path, capsys, monkeypatch
):
    drawn = []
    monkeypatch.setattr(cli, "sample", lambda *args: drawn.append(args))
    (tmp_path / "locked").mkdir(mode=0)
    try:
        code, _ = run(tmp_path, "simulate", VALID["simulate"], out="locked/x/out")
    finally:
        (tmp_path / "locked").chmod(0o700)
    assert code == 2
    # pathlib raises EACCES up to Python 3.13; later ones see no such path
    # and name the locked directory as not writable
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot create --out directory: ")
    assert drawn == []
    assert list((tmp_path / "locked").iterdir()) == []


def test_out_whose_ancestors_cannot_be_examined_is_a_config_error(
    tmp_path, capsys, monkeypatch
):
    # what pathlib does for a user who cannot search tmp_path / "locked"
    def exists(path):
        if Path(tmp_path, "locked") in path.parents:
            raise PermissionError(13, "Permission denied", str(path))
        return os.path.exists(path)

    drawn = []
    monkeypatch.setattr(cli, "sample", lambda *args: drawn.append(args))
    monkeypatch.setattr(Path, "exists", exists)
    code, outdir = run(tmp_path, "simulate", VALID["simulate"], out="locked/x/out")
    assert code == 2
    assert capsys.readouterr().err == (
        "config error: cannot create --out directory: [Errno 13] Permission "
        f"denied: '{tmp_path / 'locked' / 'x' / 'out'}'\n"
    )
    assert drawn == []
    assert not (tmp_path / "locked").exists()

def test_bw_select_unsorted_grid_is_a_config_error(tmp_path, capsys):
    # the grid rule names one key, so its refusal points at that key's value
    text = VALID["bw-select"].replace("alpha_grid = 0.45", "alpha_grid = 0.3, 0.2")
    code, outdir = run(tmp_path, "bw-select", text)
    assert code == 2
    assert capsys.readouterr().err == ("config error: line 6, column 14: alpha_grid must be "
                                       "non-empty and strictly increasing, got (0.3, 0.2)\n")
    assert not outdir.exists()


# key combinations that only the library checks: keys dropped from the valid
# config, lines added to it, and the message
LIBRARY_CHECKED = [
    ((), "c1 = 0.5", "pass either fixed bandwidths or a schedule, not both"),
    (("alpha",), "", "a time bandwidth is required"),
    (("alpha",), "c1 = 0.5\nc2 = 0.3", "c2 and beta_exponent must be given together"),
    (("alpha",), "c1 = 0.5\nc2 = 0.3\nbeta_exponent = -1000",
     "beta_exponent = -1000.0 makes n ** -beta_exponent overflow at n = 250"),
]


@pytest.mark.parametrize("dropped, added, message", LIBRARY_CHECKED)
def test_mc_normality_key_combinations_exit_2_with_no_output(
    tmp_path, capsys, dropped, added, message
):
    lines = [line for line in VALID["mc-normality"].splitlines()
             if line.partition(" =")[0] not in dropped]
    code, outdir = run(tmp_path, "mc-normality", "\n".join(lines) + f"\n{added}\n")
    assert code == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not outdir.exists()


def test_readme_grid_example(tmp_path, capsys):
    """The README's grid.cfg run reproduces the rows it prints, digit for digit."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    config = re.search(r"\$ cat grid.cfg\n(.*?)\n\n", readme, re.S).group(1)
    shown = re.search(r"\$ head -3 run1/grid.csv\n(.*?)\n```", readme, re.S).group(1)
    code, outdir = run(tmp_path, "estimate-grid", config + "\n", out="run1")
    assert code == 0
    assert capsys.readouterr().out == f"wrote grid.csv to {outdir}\n"
    assert (outdir / "grid.csv").read_text().splitlines()[:3] == shown.splitlines()
    assert len(shown.splitlines()) == 3


def test_help_lists_each_commands_keys(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["estimate-grid", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "required: seed, scenario, n, alpha, t_grid, z_grid" in out
    assert "  optional: beta\n" in out
    with pytest.raises(SystemExit):
        main(["table1", "--help"])
    assert "cell.<i> = t0,z0,n,estimator,alpha[,beta]" in capsys.readouterr().out


def test_exit_code_2_for_config_problems(tmp_path, capsys):
    code = main(
        ["simulate", "--config", str(tmp_path / "missing.cfg"), "--out", str(tmp_path / "o")]
    )
    assert code == 2
    assert "config error" in capsys.readouterr().err

    cases = [
        "kind = simulate\nscenario = Q\nn = 5\nseed = 1\n",  # unknown scenario
        "kind = simulate\nscenario = B\nn = 0\nseed = 1\n",  # n below minimum
        "kind = simulate\nscenario = B\nn = 5\nseed = 1\nbogus = 3\n",  # unknown key
        "kind = mc-mse\nscenario = B\nn = 5\nseed = 1\n",  # wrong kind for simulate
    ]
    for i, text in enumerate(cases):
        code, _ = run(tmp_path, "simulate", text, out=f"e{i}")
        assert code == 2, text
        assert "config error" in capsys.readouterr().err

    # estimator misuse surfaced by the library is still a config problem
    negative_alpha = (
        "kind = mc-mse\nscenario = B\nestimator = F1\nt0 = 0.5\nz0 = 0.5\n"
        "n = 50\nreplications = 4\nalpha = -0.2\nseed = 1\n"
    )
    code, _ = run(tmp_path, "mc-mse", negative_alpha, out="neg")
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_exit_code_3_for_runtime_failures(tmp_path, capsys):
    text = (
        "kind = mc-mse\nscenario = B\nestimator = F1\nt0 = 0.98\nz0 = 0.5\n"
        "n = 40\nreplications = 20\nalpha = 0.005\nseed = 5\n"
    )
    code, outdir = run(tmp_path, "mc-mse", text, out="fail")
    assert code == 3
    assert "run failed" in capsys.readouterr().err
    assert not outdir.exists()  # the run failed before its first output


# tiny configs of every command
_CONFIGS = {
    "simulate": "scenario = B\nn = 50\nseed = 9\n",
    "estimate-grid": "scenario = B\nn = 150\nseed = 4\nalpha = 0.25\nbeta = 0.2\n"
                     "t_grid = 0.4, 0.6\nz_grid = 0.3, 0.5\n",
    "mc-mse": "scenario = B\nestimator = F2\nt0 = 0.4\nz0 = 0.4\nn = 120\n"
              "replications = 4\nalpha = 0.25\nbeta = 0.2\nseed = 4\n",
    "table1": "scenario = A\nreplications = 3\nseed = 0\n"
              "cell.1 = 0.4, 0.4, 80, F1, 0.25\ncell.2 = 0.5, 0.5, 80, F2, 0.25, 0.2\n",
    "equivalence": "scenario = B\nt0 = 0.5\nz0 = 0.5\nc1 = 0.5\nc2 = 0.5\n"
                   "beta_exponent = 0.45\nn_grid = 100, 200\nseed = 12\n",
    "bw-select": "scenario = B\nn = 50\nt0 = 0.5\nz0 = 0.5\nreplications = 2\n"
                 "alpha_grid = 0.25, 0.45\nbeta_grid = 0.3\nseed = 6\n",
    "mc-normality": "scenario = B\nestimator = F1\nt0 = 0.5\nz0 = 0.5\nn = 100\n"
                    "m = 4\nalpha = 0.25\nseed = 1\n",
    "functional": "scenario = B\nn = 100\nm = 3\nseed = 3\n",
}

# makes scipy unimportable, then runs each command and the library's
# integrals and KS distance; prints the exit codes, the results and the
# scipy modules that got loaded regardless
_PROBE = """\
import json, sys
sys.modules["scipy"] = None  # "import scipy" and its submodules now raise
import numpy as np
import csmark.cli
from csmark import (MonteCarloSummary, custom_kernel, efficient_variance,
                    epanechnikov_kernel, scenario_b, true_mean_event_time,
                    validate_conditions)

codes = [csmark.cli.main([command, "--config", config, "--out", out])
         for command, config, out in json.loads(sys.argv[1])]
epa = epanechnikov_kernel()
copy = custom_kernel("epanechnikov copy", epa.pdf, epa.cdf)
summary = MonteCarloSummary(np.array([-0.3, 0.1, 0.4]), np.arange(3), 0, mu=0.0, sigma2=1.0)
print(json.dumps({
    "codes": codes, "valid": validate_conditions(copy).all_ok,
    "efficient_variance": efficient_variance(scenario_b()),
    "true_mean": true_mean_event_time(scenario_b()), "ks": summary.ks_distance,
    "scipy": sorted(m for m, mod in sys.modules.items()
                    if m.startswith("scipy") and mod is not None),
    "statistics": "statistics" in sys.modules,
}))
"""


def test_every_command_runs_with_scipy_unimportable(tmp_path):
    runs = []
    for command, text in _CONFIGS.items():
        (tmp_path / f"{command}.cfg").write_text(text)
        runs.append([command, str(tmp_path / f"{command}.cfg"), str(tmp_path / command)])
    src = str(Path(__file__).resolve().parents[1] / "src")
    probe = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(runs)], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=300,
    )
    assert probe.returncode == 0, probe.stderr
    report = json.loads(probe.stdout.splitlines()[-1])
    assert report["codes"] == [0] * len(_CONFIGS), probe.stderr
    assert report["valid"] is True
    assert report["efficient_variance"] == pytest.approx(19.0 / 96.0, abs=1e-15)
    assert report["true_mean"] == pytest.approx(7.0 / 12.0, abs=1e-15)
    # the largest gap: the empirical cdf is 0 just below -0.3, Phi(-0.3) = 0.38209
    assert report["ks"] == pytest.approx(0.3820885778110474, abs=1e-15)
    assert report["scipy"] == []
    assert report["statistics"] is False
