"""Command-line interface: seeded experiment runs that write CSV + JSON.

Every subcommand reads a flat ``key = value`` config file (``#`` starts a
comment), draws everything from an explicit seed, and writes its outputs
plus a ``manifest.json`` echoing the exact configuration into the output
directory.  Outputs contain no timestamps or environment details, so a rerun
with the same config and seed reproduces them byte for byte.

Exit codes: 0 success, 2 configuration error (with line/column), 3 a
replication or selection failure at run time.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .asymptotics import (
    BandwidthSchedule,
    MonteCarloSummary,
    equivalence_curve,
    mc_functional,
    mc_mse,
    mc_normality,
    true_mean_event_time,
)
from .bandwidth import BootstrapPlan, bootstrap_mse, select
from .errors import CsmarkError
from .estimators import EstimatorConfig, evaluate_grid, write_grid_csv
from .kernels import Bandwidths, epanechnikov_kernel, product_kernel, uniform_kernel
from .scenarios import sample, scenario_a, scenario_b

__all__ = ["main"]

_SCENARIOS = {"A": scenario_a, "B": scenario_b}
_KERNELS = {"epanechnikov": epanechnikov_kernel, "uniform": uniform_kernel}


class ConfigError(CsmarkError):
    """Configuration problem with a source position when known."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}, column {col or 1}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class _Entry:
    value: str
    line: int
    col: int


def parse_config(text: str) -> dict[str, _Entry]:
    """Parse ``key = value`` lines; duplicate keys and blank values error."""
    entries: dict[str, _Entry] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        if not body.strip():
            continue
        if "=" not in body:
            raise ConfigError("expected 'key = value'", lineno, 1)
        key, _, value = body.partition("=")
        k = key.strip()
        if not k:
            raise ConfigError("missing key before '='", lineno, 1)
        if k in entries:
            raise ConfigError(f"duplicate key {k!r}", lineno, raw.find(k) + 1)
        v = value.strip()
        vcol = body.find("=") + 2
        if not v:
            raise ConfigError(f"missing value for {k!r}", lineno, vcol)
        entries[k] = _Entry(v, lineno, vcol)
    return entries


def format_config(entries: dict[str, _Entry]) -> str:
    """Inverse of :func:`parse_config` up to layout."""
    return "".join(f"{k} = {e.value}\n" for k, e in entries.items())


def _take(cfg: dict[str, _Entry], key: str) -> _Entry | None:
    return cfg.pop(key, None)


def _require(cfg: dict[str, _Entry], key: str) -> _Entry:
    entry = _take(cfg, key)
    if entry is None:
        raise ConfigError(f"missing required key {key!r}")
    return entry


def _as_int(entry: _Entry, key: str, minimum: int | None = None) -> int:
    try:
        val = int(entry.value)
    except ValueError:
        raise ConfigError(
            f"{key!r} must be an integer, got {entry.value!r}", entry.line, entry.col
        ) from None
    if minimum is not None and val < minimum:
        raise ConfigError(
            f"{key!r} must be >= {minimum}, got {val}", entry.line, entry.col
        )
    return val


def _as_float(entry: _Entry, key: str) -> float:
    try:
        return float(entry.value)
    except ValueError:
        raise ConfigError(
            f"{key!r} must be a number, got {entry.value!r}", entry.line, entry.col
        ) from None


def _int_of(cfg, key, default=None, minimum=None) -> int | None:
    entry = _take(cfg, key)
    if entry is None:
        return default
    return _as_int(entry, key, minimum)


def _float_of(cfg, key, default=None) -> float | None:
    entry = _take(cfg, key)
    if entry is None:
        return default
    return _as_float(entry, key)


_BOOLEANS = {
    "1": True, "true": True, "yes": True, "0": False, "false": False, "no": False
}


def _bool_of(cfg, key, default: bool) -> bool:
    entry = _take(cfg, key)
    if entry is None:
        return default
    try:
        return _BOOLEANS[entry.value.lower()]
    except KeyError:
        raise ConfigError(
            f"{key!r} must be one of 1/0/true/false/yes/no, got {entry.value!r}",
            entry.line,
            entry.col,
        ) from None


def _float_list(cfg, key, default=None) -> tuple[float, ...] | None:
    entry = _take(cfg, key)
    if entry is None:
        return default
    try:
        return tuple(float(p) for p in entry.value.split(",") if p.strip())
    except ValueError:
        raise ConfigError(
            f"{key!r} must be comma-separated numbers, got {entry.value!r}",
            entry.line,
            entry.col,
        ) from None


def _int_list(cfg, key, default=None) -> tuple[int, ...] | None:
    entry = _take(cfg, key)
    if entry is None:
        return default
    try:
        return tuple(int(p) for p in entry.value.split(",") if p.strip())
    except ValueError:
        raise ConfigError(
            f"{key!r} must be comma-separated integers, got {entry.value!r}",
            entry.line,
            entry.col,
        ) from None


def _scenario_of(cfg):
    entry = _require(cfg, "scenario")
    try:
        return _SCENARIOS[entry.value]()
    except KeyError:
        raise ConfigError(
            f"scenario must be one of {sorted(_SCENARIOS)}, got {entry.value!r}",
            entry.line,
            entry.col,
        ) from None


def _kernel_of(cfg, key, default):
    entry = _take(cfg, key)
    if entry is None:
        return default
    try:
        return _KERNELS[entry.value]()
    except KeyError:
        raise ConfigError(
            f"{key!r} must be one of {sorted(_KERNELS)}, got {entry.value!r}",
            entry.line,
            entry.col,
        ) from None


def _estimator_of(cfg) -> str:
    entry = _require(cfg, "estimator")
    if entry.value not in ("F1", "F2"):
        raise ConfigError(
            f"estimator must be 'F1' or 'F2', got {entry.value!r}",
            entry.line,
            entry.col,
        )
    return entry.value


def _seed_of(cfg, args) -> int:
    if args.seed is not None:
        _take(cfg, "seed")
        return args.seed
    return _as_int(_require(cfg, "seed"), "seed")


def _reject_unknown(cfg: dict[str, _Entry]) -> None:
    if cfg:
        key, entry = next(iter(cfg.items()))
        raise ConfigError(f"unknown key {key!r}", entry.line, entry.col)


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _write_csv(path: Path, header: list[str], rows) -> None:
    import csv as _csv

    with open(path, "w", newline="") as fh:
        writer = _csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) if not isinstance(v, str) else v for v in row])


def _write_values_csv(path: Path, summary: MonteCarloSummary) -> None:
    _write_csv(
        path,
        ["replicate", "statistic"],
        zip(summary.replicates, summary.values),
    )


class _Run:
    """Output directory plus the manifest accumulated during a run."""

    def __init__(self, args, command: str, cfg_text: str, seed: int) -> None:
        self.outdir = Path(args.out)
        self.outdir.mkdir(parents=True, exist_ok=True)
        self.command = command
        self.cfg_text = cfg_text
        self.seed = seed
        self.outputs: list[str] = []

    def path(self, name: str) -> Path:
        self.outputs.append(name)
        return self.outdir / name

    def write_json(self, name: str, payload: dict) -> None:
        with open(self.path(name), "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")

    def finish(self) -> None:
        manifest = {
            "command": self.command,
            "config": {
                k: e.value for k, e in parse_config(self.cfg_text).items()
            },
            "config_text": self.cfg_text,
            "outputs": sorted(self.outputs),
            "seed": self.seed,
            "version": __version__,
        }
        with open(self.outdir / "manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _cmd_simulate(cfg, args, run: _Run) -> None:
    scenario = _scenario_of(cfg)
    n = _as_int(_require(cfg, "n"), "n", minimum=1)
    _reject_unknown(cfg)
    s = sample(scenario, n, run.seed)
    s.to_csv(run.path("sample.csv"))


def _cmd_estimate_grid(cfg, args, run: _Run) -> None:
    scenario = _scenario_of(cfg)
    n = _as_int(_require(cfg, "n"), "n", minimum=1)
    alpha = _as_float(_require(cfg, "alpha"), "alpha")
    beta = _float_of(cfg, "beta")
    t_grid = _float_list(cfg, "t_grid")
    z_grid = _float_list(cfg, "z_grid")
    if t_grid is None or z_grid is None:
        raise ConfigError("estimate-grid needs 't_grid' and 'z_grid'")
    kernel_t = _kernel_of(cfg, "kernel", epanechnikov_kernel())
    kernel_z = _kernel_of(cfg, "kernel_z", kernel_t)
    _reject_unknown(cfg)
    s = sample(scenario, n, run.seed)
    config = EstimatorConfig(
        kernel_t=kernel_t,
        bandwidths=Bandwidths(alpha, beta),
        kernel_tz=product_kernel(kernel_t, kernel_z) if beta is not None else None,
    )
    rows = evaluate_grid(s, config, np.array(t_grid), np.array(z_grid))
    write_grid_csv(rows, run.path("grid.csv"))


def _normality_summary_payload(summary: MonteCarloSummary) -> dict:
    return {
        "m": int(summary.values.size + summary.failures),
        "failures": summary.failures,
        "ks": summary.ks_distance,
        "mu": summary.mu,
        "sigma2": summary.sigma2,
        "mean": summary.mean,
        "variance": summary.variance,
    }


def _cmd_mc_normality(cfg, args, run: _Run) -> None:
    scenario = _scenario_of(cfg)
    estimator = _estimator_of(cfg)
    t0 = _as_float(_require(cfg, "t0"), "t0")
    z0 = _as_float(_require(cfg, "z0"), "z0")
    n = _as_int(_require(cfg, "n"), "n", minimum=1)
    m = _as_int(_require(cfg, "m"), "m", minimum=2)
    alpha = _float_of(cfg, "alpha")
    beta = _float_of(cfg, "beta")
    c1 = _float_of(cfg, "c1")
    c2 = _float_of(cfg, "c2")
    beta_exponent = _float_of(cfg, "beta_exponent")
    kernel_t = _kernel_of(cfg, "kernel", epanechnikov_kernel())
    _reject_unknown(cfg)
    schedule = None
    if c1 is not None:
        schedule = BandwidthSchedule(c1=c1, c2=c2, beta_exponent=beta_exponent)
    summary = mc_normality(
        scenario,
        estimator,
        (t0, z0),
        n,
        m,
        seed=run.seed,
        alpha=alpha,
        beta=beta,
        schedule=schedule,
        kernel_t=kernel_t,
        workers=args.threads,
    )
    _write_values_csv(run.path("values.csv"), summary)
    run.write_json("summary.json", _normality_summary_payload(summary))


def _cmd_mc_mse(cfg, args, run: _Run) -> None:
    scenario = _scenario_of(cfg)
    estimator = _estimator_of(cfg)
    t0 = _as_float(_require(cfg, "t0"), "t0")
    z0 = _as_float(_require(cfg, "z0"), "z0")
    n = _as_int(_require(cfg, "n"), "n", minimum=1)
    replications = _as_int(_require(cfg, "replications"), "replications", minimum=2)
    alpha = _as_float(_require(cfg, "alpha"), "alpha")
    beta = _float_of(cfg, "beta")
    _reject_unknown(cfg)
    summary = mc_mse(
        scenario,
        estimator,
        (t0, z0),
        n,
        replications,
        alpha=alpha,
        beta=beta,
        seed=run.seed,
        workers=args.threads,
    )
    _write_csv(
        run.path("mse.csv"),
        ["t0", "z0", "n", "estimator", "alpha", "beta", "mse", "se"],
        [(t0, z0, n, estimator, alpha, beta, summary.mse, summary.mse_se)],
    )


def _cmd_table1(cfg, args, run: _Run) -> None:
    scenario = _scenario_of(cfg)
    replications = _as_int(_require(cfg, "replications"), "replications", minimum=2)
    cells = []
    for key in sorted(
        [k for k in cfg if k.startswith("cell.")],
        key=lambda k: int(k.split(".", 1)[1]),
    ):
        entry = _take(cfg, key)
        parts = [p.strip() for p in entry.value.split(",")]
        if len(parts) not in (5, 6):
            raise ConfigError(
                f"{key!r} must be 't0,z0,n,estimator,alpha[,beta]'",
                entry.line,
                entry.col,
            )
        try:
            t0, z0 = float(parts[0]), float(parts[1])
            n = int(parts[2])
            estimator = parts[3]
            alpha = float(parts[4])
            beta = float(parts[5]) if len(parts) == 6 else None
        except ValueError:
            raise ConfigError(
                f"{key!r} has a malformed field", entry.line, entry.col
            ) from None
        if estimator not in ("F1", "F2"):
            raise ConfigError(
                f"{key!r}: estimator must be 'F1' or 'F2'", entry.line, entry.col
            )
        cells.append((t0, z0, n, estimator, alpha, beta))
    _reject_unknown(cfg)
    rows = []
    for t0, z0, n, estimator, alpha, beta in cells:
        summary = mc_mse(
            scenario,
            estimator,
            (t0, z0),
            n,
            replications,
            alpha=alpha,
            beta=beta,
            seed=run.seed,
            workers=args.threads,
        )
        rows.append((t0, z0, n, estimator, alpha, beta, summary.mse, summary.mse_se))
    _write_csv(
        run.path("table1.csv"),
        ["t0", "z0", "n", "estimator", "alpha", "beta", "mse", "se"],
        rows,
    )


def _cmd_equivalence(cfg, args, run: _Run) -> None:
    scenario = _scenario_of(cfg)
    t0 = _as_float(_require(cfg, "t0"), "t0")
    z0 = _as_float(_require(cfg, "z0"), "z0")
    c1 = _as_float(_require(cfg, "c1"), "c1")
    c2 = _as_float(_require(cfg, "c2"), "c2")
    beta_exponent = _as_float(_require(cfg, "beta_exponent"), "beta_exponent")
    n_grid = _int_list(cfg, "n_grid")
    if n_grid is None:
        raise ConfigError("equivalence needs 'n_grid'")
    envelope_constant = _float_of(cfg, "envelope_constant", 1.5)
    _reject_unknown(cfg)
    schedule = BandwidthSchedule(c1=c1, c2=c2, beta_exponent=beta_exponent)
    curve = equivalence_curve(
        scenario,
        (t0, z0),
        np.array(n_grid),
        schedule,
        seed=run.seed,
        envelope_constant=envelope_constant,
    )
    _write_csv(
        run.path("equivalence.csv"),
        ["n", "diff", "envelope"],
        zip(curve.n_grid, curve.diffs, curve.envelopes),
    )
    run.write_json(
        "summary.json", {"fraction_inside": curve.fraction_inside()}
    )


def _cmd_functional(cfg, args, run: _Run) -> None:
    scenario = _scenario_of(cfg)
    n = _as_int(_require(cfg, "n"), "n", minimum=1)
    m = _as_int(_require(cfg, "m"), "m", minimum=2)
    alpha_exponent = _float_of(cfg, "alpha_exponent", 1.0 / 3.0)
    grid_points = _int_of(cfg, "grid_points", 2000, minimum=1)
    _reject_unknown(cfg)
    summary = mc_functional(
        scenario,
        n,
        m,
        alpha_exponent=alpha_exponent,
        seed=run.seed,
        grid_points=grid_points,
        workers=args.threads,
    )
    _write_values_csv(run.path("values.csv"), summary)
    run.write_json(
        "summary.json",
        {
            "mean": summary.mean,
            "variance": summary.variance,
            "efficient_variance": summary.sigma2,
            "true_mean": true_mean_event_time(scenario),
            "failures": summary.failures,
        },
    )


def _cmd_bw_select(cfg, args, run: _Run) -> None:
    scenario = _scenario_of(cfg)
    n = _as_int(_require(cfg, "n"), "n", minimum=1)
    t0 = _as_float(_require(cfg, "t0"), "t0")
    z0 = _as_float(_require(cfg, "z0"), "z0")
    replications = _as_int(_require(cfg, "replications"), "replications", minimum=1)
    alpha0 = _float_of(cfg, "alpha0", 0.4)
    beta0 = _float_of(cfg, "beta0", 0.4)
    alpha_grid = _float_list(cfg, "alpha_grid")
    beta_grid = _float_list(cfg, "beta_grid")
    if alpha_grid is None or beta_grid is None:
        raise ConfigError("bw-select needs 'alpha_grid' and 'beta_grid'")
    compare_truth = _bool_of(cfg, "compare_truth", False)
    _reject_unknown(cfg)
    s = sample(scenario, n, run.seed)
    plan = BootstrapPlan(
        alpha0=alpha0,
        beta0=beta0,
        replications=replications,
        alpha_grid=alpha_grid,
        beta_grid=beta_grid,
        point=(t0, z0),
        seed=run.seed + 1,
    )
    true_value = None
    if compare_truth:
        true_value = float(scenario.cdf(t0, z0))
    table = bootstrap_mse(s, plan, true_value=true_value)
    table.to_csv(run.path("bootstrap_mse.csv"))
    chosen = select(table)
    run.write_json(
        "selected.json",
        {
            est: {"alpha": alpha, "beta": beta}
            for est, (alpha, beta) in chosen.items()
        },
    )


_COMMANDS = {
    "simulate": _cmd_simulate,
    "estimate-grid": _cmd_estimate_grid,
    "mc-normality": _cmd_mc_normality,
    "mc-mse": _cmd_mc_mse,
    "table1": _cmd_table1,
    "equivalence": _cmd_equivalence,
    "functional": _cmd_functional,
    "bw-select": _cmd_bw_select,
}


def _thread_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csmark",
        description="Seeded estimation and simulation runs for current "
        "status data with marks.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="key = value config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="overrides config seed")
        p.add_argument(
            "--threads", type=_thread_count, default=1, metavar="K",
            help="worker threads for replications of samples of 20 000 rows or more",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg_text = Path(args.config).read_text()
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(cfg_text)
        kind = _take(cfg, "kind")
        if kind is not None and kind.value != args.command:
            raise ConfigError(
                f"config is for {kind.value!r}, not {args.command!r}",
                kind.line,
                kind.col,
            )
        seed = _seed_of(cfg, args)
        run = _Run(args, args.command, cfg_text, seed)
        _COMMANDS[args.command](cfg, args, run)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CsmarkError as exc:
        # misuse-class errors (bad bandwidths, malformed samples) are
        # configuration problems; data-driven failures are runtime ones
        if isinstance(exc, ValueError):
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        print(f"run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    run.finish()
    print(f"wrote {', '.join(sorted(run.outputs))} to {run.outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
