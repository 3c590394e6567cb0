"""Command-line interface: seeded experiment runs that write CSV + JSON.

Every subcommand reads a flat ``key = value`` config file (``#`` starts a
comment), draws everything from an explicit seed, and writes its outputs
plus a ``manifest.json`` echoing the exact configuration into the output
directory.  Outputs contain no timestamps or environment details, so a rerun
with the same config and seed reproduces them byte for byte.  Each command's
keys are declared once, in ``_COMMANDS``; a config is checked in full before
the run starts, and the output directory is created with the first output.

Exit codes: 0 success, 2 configuration error (with line/column), 3 a
replication or selection failure at run time.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, replace
from itertools import zip_longest
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import __version__
from .asymptotics import BandwidthSchedule, equivalence_curve, mc_functional
from .asymptotics import mc_mse, mc_normality, true_mean_event_time
from .bandwidth import BootstrapPlan, bootstrap_mse, select
from .errors import CsmarkError
from .estimators import EstimatorConfig, evaluate_grid, write_grid_csv
from .kernels import Bandwidths, epanechnikov_kernel, uniform_kernel
from .scenarios import _write_csv, sample, scenario_a, scenario_b

__all__ = ["main"]

_SCENARIOS = {"A": scenario_a, "B": scenario_b}


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
    """A config value with its 1-based line and the columns of value and key."""

    value: str
    line: int | None
    col: int | None
    key_col: int | None


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
        kcol = raw.find(k) + 1
        if k in entries:
            raise ConfigError(f"duplicate key {k!r}", lineno, kcol)
        v = value.strip()
        if not v:
            raise ConfigError(f"missing value for {k!r}", lineno, len(key) + 2)
        entries[k] = _Entry(v, lineno, len(key) + 2 + value.index(v[0]), kcol)
    return entries


def _items(parse: Callable[[str], Any]) -> Callable[[str], tuple]:
    def items(text: str) -> tuple:
        values = tuple(parse(p) for p in text.split(",") if p.strip())
        if not values:
            raise ValueError("empty list")
        return values

    return items


class _Refused(ValueError):
    """A number that parsed, but lies outside the values the key accepts;
    the message says what it must be."""


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise _Refused("finite")
    return value


def _positive(text: str) -> float:
    """A bandwidth or a constant that scales one: finite and above 0."""
    value = _finite(text)
    if not value > 0.0:
        raise _Refused("positive")
    return value


def _mark(text: str) -> float:
    """A mark: finite, or ``inf`` for the marginal ``F0(t, inf)``."""
    value = float(text)
    if not (math.isfinite(value) or value == math.inf):
        raise _Refused("finite or inf")
    return value


def _boolean(text: str) -> bool:
    return {"1": True, "true": True, "yes": True,
            "0": False, "false": False, "no": False}[text.lower()]


_floats, _positives, _ints = _items(_finite), _items(_positive), _items(int)
_WHAT = {int: "an integer", _finite: "a number", _positive: "a number",
         _mark: "a number", _boolean: "one of 1/0/true/false/yes/no",
         _ints: "comma-separated integers", _floats: "comma-separated numbers",
         _positives: "comma-separated numbers"}


def _kernel(name: str):
    # looked up per call, so a kernel factory patched on this module is used
    return {"epanechnikov": epanechnikov_kernel, "uniform": uniform_kernel}[name]()


@dataclass(frozen=True)
class _Key:
    """One config key.  ``default`` is config text, parsed like a value from
    the file (an optional key without one is ``None`` when absent);
    ``minimum`` bounds a number or every item of a list."""

    name: str
    parse: Callable[[str], Any] = _finite
    required: bool = True
    default: str | None = None
    minimum: int | None = None
    choices: tuple[str, ...] = ()

    def value(self, entry: _Entry | None) -> Any:
        if entry is None:
            if self.required:
                raise ConfigError(f"missing required key {self.name!r}")
            return None if self.default is None else self.parse(self.default)

        def error(what: str, got) -> ConfigError:
            return ConfigError(f"{self.name!r} must be {what}, got {got}",
                               entry.line, entry.col)

        if self.choices and entry.value not in self.choices:
            raise error(f"one of {list(self.choices)}", repr(entry.value))
        try:
            value = self.parse(entry.value)
        except _Refused as exc:
            raise error(str(exc), repr(entry.value)) from None
        except (KeyError, ValueError):
            raise error(_WHAT[self.parse], repr(entry.value)) from None
        low = min(value) if isinstance(value, tuple) else value
        if self.minimum is not None and low < self.minimum:
            raise error(f">= {self.minimum}", low)
        return value


def _optional(name: str, default: str | None = None, parse=_finite, **checks) -> _Key:
    return _Key(name, parse, required=False, default=default, **checks)


_SEED = _Key("seed", int, minimum=0)
_SCENARIO = _Key("scenario", lambda name: _SCENARIOS[name](), choices=tuple(_SCENARIOS))
_N, _M = _Key("n", int, minimum=1), _Key("m", int, minimum=2)
_T0, _Z0 = _Key("t0"), _Key("z0", _mark)
_ALPHA, _BETA = _Key("alpha", _positive), _optional("beta", parse=_positive)
_ESTIMATOR = _Key("estimator", str, choices=("F1", "F2"))
_KERNEL = _optional("kernel", "epanechnikov", _kernel,
                    choices=("epanechnikov", "uniform"))
_REPLICATIONS = _Key("replications", int, minimum=2)
# one mc-mse run, in the order of a table1 cell's fields and of its CSV row
_MSE_CELL = (_T0, _Z0, _N, _ESTIMATOR, _ALPHA, _BETA)
_MSE_HEADER = [key.name for key in _MSE_CELL] + ["mse", "se"]
_CELL_SYNTAX = ",".join(key.name for key in _MSE_CELL[:-1]) + f"[,{_BETA.name}]"


def _cells(cfg: dict[str, _Entry]) -> list[dict[str, Any]]:
    """Pop the ``cell.<i>`` keys of a table1 config; parse them in index order."""
    cells: dict[int, tuple[str, _Entry]] = {}
    for key in [k for k in cfg if k.startswith("cell.")]:
        entry = cfg.pop(key)
        if not key[len("cell."):].isdecimal():
            raise ConfigError(f"{key!r} needs an index of digits, as in 'cell.1'",
                              entry.line, entry.key_col)
        index = int(key[len("cell."):])
        if index in cells:
            raise ConfigError(f"{key!r} repeats the index of {cells[index][0]!r}",
                              entry.line, entry.key_col)
        cells[index] = key, entry
    parsed = []
    for _, (key, entry) in sorted(cells.items()):
        fields = [replace(entry, value=part.strip()) for part in entry.value.split(",")]
        if len(fields) not in (len(_MSE_CELL) - 1, len(_MSE_CELL)):
            raise ConfigError(f"{key!r} must be {_CELL_SYNTAX!r}",
                              entry.line, entry.col)
        parsed.append({k.name: replace(k, name=f"{key}.{k.name}").value(field)
                       for k, field in zip_longest(_MSE_CELL, fields)})
    return parsed


class _Run:
    """Output directory (created for the first output) and a run's manifest."""

    def __init__(self, args, cfg_text: str, entries: dict, seed: int) -> None:
        self.outdir = Path(args.out)
        self.command, self.threads = args.command, args.threads
        self.cfg_text, self.entries, self.seed = cfg_text, entries, seed
        self.outputs: list[str] = []

    def path(self, name: str) -> Path:
        if not self.outputs:
            try:
                self.outdir.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise ConfigError(f"cannot create --out directory: {exc}") from None
        self.outputs.append(name)
        return self.outdir / name

    def write_json(self, name: str, payload: dict) -> None:
        with open(self.path(name), "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")

    def finish(self) -> list[str]:
        """Write ``manifest.json``; the outputs written before it."""
        outputs = sorted(self.outputs)
        self.write_json("manifest.json", {
            "command": self.command, "config_text": self.cfg_text,
            "config": {k: e.value for k, e in self.entries.items()},
            "outputs": outputs, "seed": self.seed, "version": __version__,
        })
        return outputs


# per command: its config keys, in the order they are checked, and the run
# function that takes their values as keyword arguments
_COMMANDS: dict[str, tuple[tuple[_Key, ...], Callable[..., None]]] = {}


def _command(name: str, *keys: _Key):
    """Register the decorated run function as command ``name`` with ``keys``."""
    return lambda run: _COMMANDS.setdefault(name, (keys, run))[1]


@_command("simulate", _SCENARIO, _N)
def _simulate(run: _Run, scenario, n) -> None:
    sample(scenario, n, run.seed).to_csv(run.path("sample.csv"))


@_command("estimate-grid", _SCENARIO, _N, _ALPHA, _BETA, _Key("t_grid", _floats),
          _Key("z_grid", _floats), _KERNEL)
def _estimate_grid(run: _Run, scenario, n, alpha, beta, t_grid, z_grid, kernel) -> None:
    config = EstimatorConfig(kernel, Bandwidths(alpha, beta))
    s = sample(scenario, n, run.seed)
    rows = evaluate_grid(s, config, np.array(t_grid), np.array(z_grid))
    write_grid_csv(rows, run.path("grid.csv"))


@_command("mc-normality", _SCENARIO, _ESTIMATOR, _T0, _Z0, _N, _M,
          _optional("alpha", parse=_positive), _BETA, _optional("c1", parse=_positive),
          _optional("c2", parse=_positive), _optional("beta_exponent"), _KERNEL)
def _mc_normality(run: _Run, scenario, estimator, t0, z0, n, m, alpha, beta, c1, c2,
                  beta_exponent, kernel) -> None:
    schedule = None if c1 is None else BandwidthSchedule(c1, c2, beta_exponent)
    summary = mc_normality(scenario, estimator, (t0, z0), n, m, seed=run.seed,
                           alpha=alpha, beta=beta, schedule=schedule, kernel_t=kernel,
                           workers=run.threads)
    _write_csv(run.path("values.csv"), ["replicate", "statistic"],
               zip(summary.replicates, summary.values))
    run.write_json("summary.json", {
        "m": int(summary.values.size + summary.failures), "failures": summary.failures,
        "ks": summary.ks_distance, "mu": summary.mu, "sigma2": summary.sigma2,
        "mean": summary.mean, "variance": summary.variance,
    })


def _mse_row(run: _Run, scenario, replications, t0, z0, n, estimator, alpha, beta):
    summary = mc_mse(scenario, estimator, (t0, z0), n, replications, alpha=alpha,
                     beta=beta, seed=run.seed, workers=run.threads)
    return t0, z0, n, estimator, alpha, beta, summary.mse, summary.mse_se


@_command("mc-mse", _SCENARIO, _ESTIMATOR, _T0, _Z0, _N, _REPLICATIONS, _ALPHA, _BETA)
def _mc_mse(run: _Run, scenario, replications, **cell) -> None:
    row = _mse_row(run, scenario, replications, **cell)
    _write_csv(run.path("mse.csv"), _MSE_HEADER, [row])


@_command("table1", _SCENARIO, _REPLICATIONS)  # and the cells, parsed by _cells
def _table1(run: _Run, scenario, replications, cells) -> None:
    rows = [_mse_row(run, scenario, replications, **cell) for cell in cells]
    _write_csv(run.path("table1.csv"), _MSE_HEADER, rows)


@_command("equivalence", _SCENARIO, _T0, _Z0, _Key("c1", _positive),
          _Key("c2", _positive), _Key("beta_exponent"),
          _Key("n_grid", _ints, minimum=1), _optional("envelope_constant", "1.5", _positive))
def _equivalence(run: _Run, scenario, t0, z0, c1, c2, beta_exponent, n_grid,
                 envelope_constant) -> None:
    schedule = BandwidthSchedule(c1, c2, beta_exponent)
    curve = equivalence_curve(scenario, (t0, z0), np.array(n_grid), schedule,
                              seed=run.seed, envelope_constant=envelope_constant)
    _write_csv(run.path("equivalence.csv"), ["n", "diff", "envelope"],
               zip(curve.n_grid, curve.diffs, curve.envelopes))
    run.write_json("summary.json", {"fraction_inside": curve.fraction_inside()})


@_command("functional", _SCENARIO, _N, _M, _optional("alpha_exponent", repr(1.0 / 3.0)),
          _optional("grid_points", "2000", int, minimum=1))
def _functional(run: _Run, scenario, n, m, alpha_exponent, grid_points) -> None:
    summary = mc_functional(scenario, n, m, alpha_exponent=alpha_exponent,
                            seed=run.seed, grid_points=grid_points, workers=run.threads)
    _write_csv(run.path("values.csv"), ["replicate", "statistic"],
               zip(summary.replicates, summary.values))
    run.write_json("summary.json", {
        "mean": summary.mean, "variance": summary.variance,
        "efficient_variance": summary.sigma2, "failures": summary.failures,
        "true_mean": true_mean_event_time(scenario),
    })


@_command("bw-select", _SCENARIO, _N, _T0, _Z0, _Key("replications", int, minimum=1),
          _optional("alpha0", "0.4", _positive), _optional("beta0", "0.4", _positive),
          _Key("alpha_grid", _positives), _Key("beta_grid", _positives),
          _optional("compare_truth", "false", _boolean))
def _bw_select(run: _Run, scenario, n, t0, z0, replications, alpha0, beta0, alpha_grid,
               beta_grid, compare_truth) -> None:
    plan = BootstrapPlan(alpha0, beta0, replications, alpha_grid, beta_grid,
                         point=(t0, z0), seed=run.seed + 1)
    true_value = float(scenario.cdf(t0, z0)) if compare_truth else None
    table = bootstrap_mse(sample(scenario, n, run.seed), plan, true_value=true_value)
    table.to_csv(run.path("bootstrap_mse.csv"))
    run.write_json("selected.json", {est: {"alpha": alpha, "beta": beta}
                                     for est, (alpha, beta) in select(table).items()})


def _parse(args, cfg: dict[str, _Entry]) -> tuple[int, dict[str, Any]]:
    """Check every key of ``cfg`` for ``args.command``; the seed and the values."""
    kind = cfg.pop("kind", None)
    if kind is not None and kind.value != args.command:
        raise ConfigError(f"config is for {kind.value!r}, not {args.command!r}",
                          kind.line, kind.col)
    # the config's seed is checked even where --seed overrides it
    seed = replace(_SEED, required=args.seed is None).value(cfg.pop("seed", None))
    keys = _COMMANDS[args.command][0]
    values = {key.name: key.value(cfg.pop(key.name, None)) for key in keys}
    if args.command == "table1":
        values["cells"] = _cells(cfg)
    if cfg:
        key, entry = next(iter(cfg.items()))
        raise ConfigError(f"unknown key {key!r}", entry.line, entry.key_col)
    return (seed if args.seed is None else args.seed), values


def _epilog(command: str) -> str:
    keys = _COMMANDS[command][0]
    optional = [k.name if k.default is None else f"{k.name} = {k.default}"
                for k in keys if not k.required]
    lines = [f"config keys ('kind = {command}' is optional; --seed overrides seed):",
             "  required: " + ", ".join(k.name for k in (_SEED, *keys) if k.required),
             "  optional: " + (", ".join(optional) or "none")]
    if command == "table1":
        lines.append(f"  cells:    cell.<i> = {_CELL_SYNTAX}, one mc-mse row each")
    return "\n".join(lines)


def _flag(key: _Key) -> Callable[[str], Any]:
    """An argparse type that checks a command-line value like config ``key``."""

    def parse(text: str) -> Any:
        try:
            return key.value(_Entry(text, None, None, None))
        except ConfigError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


@functools.cache  # _COMMANDS is complete once the module is imported
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csmark", description="Seeded estimation and simulation runs for "
        "current status data with marks.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, epilog=_epilog(name),
                           formatter_class=argparse.RawDescriptionHelpFormatter)
        p.add_argument("--config", required=True, help="key = value config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=_flag(_SEED), help="overrides config seed")
        p.add_argument("--threads", type=_flag(_Key("threads", int, minimum=1)),
                       default=1, metavar="K", help="worker threads for replications "
                       "of samples of 20 000 rows or more")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg_text = Path(args.config).read_text()
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        entries = parse_config(cfg_text)
        seed, values = _parse(args, dict(entries))
        run = _Run(args, cfg_text, entries, seed)
        _COMMANDS[args.command][1](run, **values)
    except CsmarkError as exc:
        # misuse-class errors (bad bandwidths, malformed samples) are
        # configuration problems; data-driven failures are runtime ones
        if isinstance(exc, (ConfigError, ValueError)):
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        print(f"run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {', '.join(run.finish())} to {run.outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
