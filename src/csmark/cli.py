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
import os
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
from .errors import (CsmarkError, check_bandwidth, check_choice, check_count, check_estimator,
                     check_finite, check_grid, check_mark, check_mark_bandwidth, check_size,
                     check_sizes)
from .estimators import EstimatorConfig, evaluate_grid, write_grid_csv
from .kernels import epanechnikov_kernel
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


def _boolean(text: str) -> bool:
    return {"1": True, "true": True, "yes": True,
            "0": False, "false": False, "no": False}[text.lower()]


def _each(rule: Callable[[Any, str], Any]) -> Callable[[tuple, str], list]:
    """``rule`` on every entry of a list, naming the list."""
    return lambda values, name: [rule(value, name) for value in values]


def _count(minimum: int, bounded: bool = False) -> Callable[[Any, str], None]:
    return functools.partial(check_count, minimum=minimum, bounded=bounded)


_floats, _ints = _items(float), _items(int)
_WHAT = {int: "an integer", float: "a number", _boolean: "one of 1/0/true/false/yes/no",
         _ints: "comma-separated integers", _floats: "comma-separated numbers"}


@dataclass(frozen=True)
class _Key:
    """One config key: its text, one of ``choices`` if any, read by ``parse``
    and checked by the library's ``rule`` under the key's name.  ``default``
    is config text (an optional key without one is ``None`` when absent)."""

    name: str
    parse: Callable[[str], Any] = float
    rule: Callable[[Any, str], Any] | None = None
    required: bool = True
    default: str | None = None
    choices: tuple[str, ...] = ()

    def value(self, entry: _Entry | None) -> Any:
        if entry is None:
            if self.required:
                raise ConfigError(f"missing required key {self.name!r}")
            return None if self.default is None else self.parse(self.default)
        try:
            if self.choices:
                check_choice(entry.value, self.name, self.choices)
            try:
                value = self.parse(entry.value)
            except (KeyError, ValueError):  # positioned below, as a rule's refusal is
                raise ConfigError(f"{self.name} must be {_WHAT[self.parse]}, "
                                  f"got {entry.value!r}") from None
            if self.rule is not None:
                self.rule(value, self.name)
        except CsmarkError as exc:  # the rule's message at the value's position
            raise ConfigError(str(exc), entry.line, entry.col) from None
        return value


def _optional(name: str, rule=None, default: str | None = None, parse=float) -> _Key:
    return _Key(name, parse, rule, required=False, default=default)


_SEED = _Key("seed", int, _count(0))
_SCENARIO = _Key("scenario", lambda name: _SCENARIOS[name](), choices=tuple(_SCENARIOS))
# counts of replications, each an array entry, are bounded as sizes are
_N, _M = _Key("n", int, check_size), _Key("m", int, _count(2, bounded=True))
_T0, _Z0 = _Key("t0", float, check_finite), _Key("z0", float, check_mark)
_ALPHA, _BETA = _Key("alpha", float, check_bandwidth), _optional("beta", check_bandwidth)
_ESTIMATOR = _Key("estimator", str, check_estimator)
_REPLICATIONS = _Key("replications", int, _count(2, bounded=True))
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
            raise ConfigError(f"{key} must be {_CELL_SYNTAX}, got {entry.value!r}",
                              entry.line, entry.col)
        cell = {k.name: replace(k, name=f"{key}.{k.name}").value(field)
                for k, field in zip_longest(_MSE_CELL, fields)}
        try:  # the drivers' rule on an F2 cell's beta, before any cell runs
            check_mark_bandwidth(cell["beta"], f"{key}.beta", cell["estimator"])
        except CsmarkError as exc:
            raise ConfigError(str(exc), entry.line, entry.col) from None
        parsed.append(cell)
    return parsed


class _Run:
    """Output directory (created for the first output) and a run's manifest.

    An ``--out`` whose nearest existing ancestor is not a writable directory
    raises :class:`ConfigError` here, before the run computes anything.
    """

    def __init__(self, args, cfg_text: str, entries: dict, seed: int) -> None:
        self.outdir = Path(args.out)
        self.command, self.threads = args.command, args.threads
        self.cfg_text, self.entries, self.seed = cfg_text, entries, seed
        self.outputs: list[str] = []
        try:  # pathlib raises on a directory that cannot be searched
            ancestor = next(p for p in (self.outdir, *self.outdir.absolute().parents)
                            if p.exists())
            is_dir = ancestor.is_dir()
        except OSError as exc:
            raise ConfigError(f"cannot create --out directory: {exc}") from None
        if not is_dir:
            raise ConfigError(
                f"cannot create --out directory: {ancestor} is not a directory")
        if not os.access(ancestor, os.W_OK | os.X_OK):
            raise ConfigError(
                f"cannot create --out directory: {ancestor} is not writable")

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


@_command("estimate-grid", _SCENARIO, _N, _ALPHA, _BETA,
          _Key("t_grid", _floats, _each(check_finite)),
          _Key("z_grid", _floats, _each(check_mark)))
def _estimate_grid(run: _Run, scenario, n, alpha, beta, t_grid, z_grid) -> None:
    # looked up per call, so a kernel factory patched on this module is used
    config = EstimatorConfig(epanechnikov_kernel(), alpha, beta)
    s = sample(scenario, n, run.seed)
    rows = evaluate_grid(s, config, np.array(t_grid), np.array(z_grid))
    write_grid_csv(rows, run.path("grid.csv"))


@_command("mc-normality", _SCENARIO, _ESTIMATOR, _T0, _Z0, _N, _M,
          _optional("alpha", check_bandwidth), _BETA, _optional("c1", check_bandwidth),
          _optional("c2", check_bandwidth), _optional("beta_exponent", check_finite))
def _mc_normality(run: _Run, scenario, estimator, t0, z0, n, m, alpha, beta, c1, c2,
                  beta_exponent) -> None:
    schedule = None if c1 is None else BandwidthSchedule(c1, c2, beta_exponent)
    summary = mc_normality(scenario, estimator, (t0, z0), n, m, seed=run.seed,
                           alpha=alpha, beta=beta, schedule=schedule, workers=run.threads)
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


@_command("equivalence", _SCENARIO, _T0, _Z0, _Key("c1", float, check_bandwidth),
          _Key("c2", float, check_bandwidth), _Key("beta_exponent", float, check_finite),
          _Key("n_grid", _ints, check_sizes))
def _equivalence(run: _Run, scenario, t0, z0, c1, c2, beta_exponent, n_grid) -> None:
    schedule = BandwidthSchedule(c1, c2, beta_exponent)
    curve = equivalence_curve(scenario, (t0, z0), np.array(n_grid), schedule, seed=run.seed)
    _write_csv(run.path("equivalence.csv"), ["n", "diff", "envelope"],
               zip(curve.n_grid, curve.diffs, curve.envelopes))
    run.write_json("summary.json", {"fraction_inside": curve.fraction_inside()})


@_command("functional", _SCENARIO, _N, _M,
          _optional("alpha_exponent", check_finite, repr(1.0 / 3.0)))
def _functional(run: _Run, scenario, n, m, alpha_exponent) -> None:
    summary = mc_functional(scenario, n, m, alpha_exponent=alpha_exponent,
                            seed=run.seed, workers=run.threads)
    _write_csv(run.path("values.csv"), ["replicate", "statistic"],
               zip(summary.replicates, summary.values))
    run.write_json("summary.json", {
        "mean": summary.mean, "variance": summary.variance,
        "efficient_variance": summary.sigma2, "failures": summary.failures,
        "true_mean": true_mean_event_time(scenario),
    })


@_command("bw-select", _SCENARIO, _N, _T0, _Z0,
          _Key("replications", int, _count(1, bounded=True)),
          _optional("alpha0", check_bandwidth, "0.4"),
          _optional("beta0", check_bandwidth, "0.4"),
          _Key("alpha_grid", _floats, check_grid), _Key("beta_grid", _floats, check_grid),
          _optional("compare_truth", default="false", parse=_boolean))
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
        p.add_argument("--threads", type=_flag(_Key("threads", int, _count(1))),
                       default=1, metavar="K", help="worker threads for the replications "
                       "of mc-normality, mc-mse, table1 and functional, on samples of "
                       "20 000 rows or more; simulate, estimate-grid, equivalence and "
                       "bw-select accept it and run on one thread")
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
