"""Config parsing and the end-to-end command-line entry points."""

from __future__ import annotations

import json

import numpy as np
import pytest

from csmark import Sample, UnstableDenominatorError, asymptotics, mc_mse, scenario_b
from csmark.cli import ConfigError, format_config, main, parse_config


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

    reparsed = parse_config(format_config(cfg))
    assert {k: e.value for k, e in reparsed.items()} == {
        k: e.value for k, e in cfg.items()
    }


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
        "kind = functional\nscenario = B\nn = 300\nm = 6\n"
        "grid_points = 400\nseed = 3\n"
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


def test_threads_flag_does_not_change_results(tmp_path):
    text = (
        "kind = mc-normality\nscenario = B\nestimator = F2\n"
        "t0 = 0.5\nz0 = 0.5\nn = 200\nm = 10\nalpha = 0.25\nbeta = 0.2\nseed = 21\n"
    )
    _, out1 = run(tmp_path, "mc-normality", text, out="t1")
    _, out4 = run(tmp_path, "mc-normality", text, out="t4", extra=("--threads", "4"))
    assert (out1 / "values.csv").read_bytes() == (out4 / "values.csv").read_bytes()


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
    code, _ = run(tmp_path, "mc-mse", text, out="fail")
    assert code == 3
    assert "run failed" in capsys.readouterr().err
