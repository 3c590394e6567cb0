"""Correctness gate for one op's output files.

Two kinds of checks run on every op, outside the timed region:

* invariants that hold for any seed: every value finite or recorded as
  missing, F1 and F2 in [0, 1], F2 non-decreasing along z in each grid row,
  selected bandwidths members of their grids, row counts as configured;
* for the default workload seed, agreement with reference values recorded
  from the package as first committed (``reference.json``): numbers to
  1e-9 relative (1e-12 absolute, which only matters below 1e-3), the same
  missing-value pattern, and ``selected.json`` exactly.

Only result files are compared with the reference; ``manifest.json`` and
any output a later version adds are ignored there.
"""

from __future__ import annotations

import csv
import io
import json
import math

from workloads import OpSpec

REL_TOL = 1e-9
ABS_TOL = 1e-12


def _cell(text: str):
    """A CSV cell as float, None for missing ('' or nan), or the string."""
    if text == "":
        return None
    try:
        value = float(text)
    except ValueError:
        return text
    return None if math.isnan(value) else value


def parse_result(name: str, data: bytes):
    """Parse a result file: CSV into columns, JSON as is."""
    text = data.decode()
    if name.endswith(".json"):
        return json.loads(text)
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    return {h: [_cell(r[i]) for r in body] for i, h in enumerate(header)}


def parse_results(spec: OpSpec, files: dict[str, bytes]) -> dict:
    return {name: parse_result(name, files[name]) for name in spec.outputs}


def _finite_or_missing(label: str, values) -> list[str]:
    bad = [v for v in values if v is not None and not (
        isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v))]
    return [f"{label}: non-finite or non-numeric values {bad[:3]}"] if bad else []


def _floats(spec: OpSpec, key: str) -> list[float]:
    return [float(p) for p in spec.key(key).split(",")]


def check_invariants(spec: OpSpec, parsed: dict) -> list[str]:
    """Seed-independent checks; returns a list of problems."""
    problems = []
    for name, content in parsed.items():
        if isinstance(content, dict) and all(isinstance(v, list) for v in content.values()):
            for col, values in content.items():
                if col != "estimator":
                    problems += _finite_or_missing(f"{name}:{col}", values)
    if "grid.csv" in parsed:
        problems += _check_grid(spec, parsed["grid.csv"])
    if "mse.csv" in parsed:
        mse = parsed["mse.csv"]["mse"]
        if len(mse) != 1 or mse[0] is None or mse[0] < 0.0:
            problems.append(f"mse.csv: bad mse {mse}")
    if "summary.json" in parsed:
        summary = parsed["summary.json"]
        problems += _finite_or_missing(
            "summary.json", [v for v in summary.values() if v is not None])
        if "values.csv" in parsed:
            count = len(parsed["values.csv"]["statistic"])
            if count != int(spec.key("m")) - summary["failures"]:
                problems.append(f"values.csv: {count} rows for m={spec.key('m')}")
    if "bootstrap_mse.csv" in parsed:
        problems += _check_bootstrap(spec, parsed["bootstrap_mse.csv"])
    if "selected.json" in parsed:
        problems += _check_selected(spec, parsed["selected.json"])
    return problems


def _check_grid(spec: OpSpec, grid: dict) -> list[str]:
    problems = []
    z_grid = _floats(spec, "z_grid")
    if grid["z"] != z_grid or set(grid["t"]) != set(_floats(spec, "t_grid")):
        return [f"grid.csv: rows do not match the configured grid: {grid['z']}"]
    for col in ("F1", "F2"):
        outside = [v for v in grid[col] if v is not None and not 0.0 <= v <= 1.0]
        if outside:
            problems.append(f"grid.csv: {col} outside [0, 1]: {outside[:3]}")
    f2 = [v for v in grid["F2"] if v is not None]
    if any(b < a for a, b in zip(f2, f2[1:])):
        problems.append("grid.csv: F2 decreases along z")
    for i, v1 in enumerate(grid["F1"]):
        if v1 is None and (grid["F2"][i] is not None or grid["f2"][i] is not None):
            problems.append("grid.csv: F1 missing but F2 or f2 present")
    return problems


def _check_bootstrap(spec: OpSpec, table: dict) -> list[str]:
    n_alpha = len(_floats(spec, "alpha_grid"))
    n_beta = len(_floats(spec, "beta_grid"))
    problems = []
    if table["estimator"] != ["F1"] * n_alpha + ["F2"] * (n_alpha * n_beta):
        problems.append("bootstrap_mse.csv: unexpected candidate rows")
    negative = [v for v in table["mse_hat"] + table["mse_tilde"] if v is not None and v < 0]
    if negative:
        problems.append(f"bootstrap_mse.csv: negative MSE {negative[:3]}")
    replications = int(spec.key("replications"))
    if any(not 0 <= f <= replications for f in table["failures"]):
        problems.append("bootstrap_mse.csv: failure counts out of range")
    return problems


def _check_selected(spec: OpSpec, selected: dict) -> list[str]:
    alphas, betas = _floats(spec, "alpha_grid"), _floats(spec, "beta_grid")
    f1, f2 = selected.get("F1", {}), selected.get("F2", {})
    if (
        set(selected) != {"F1", "F2"}
        or f1.get("alpha") not in alphas
        or f1.get("beta") is not None
        or f2.get("alpha") not in alphas
        or f2.get("beta") not in betas
    ):
        return [f"selected.json: not grid members: {selected}"]
    return []


def _close(value, ref) -> bool:
    if ref is None or value is None:
        return value is ref
    if isinstance(ref, float) or isinstance(value, float):
        return isinstance(value, (int, float)) and math.isclose(
            value, ref, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    return value == ref


def compare_reference(parsed: dict, reference: dict) -> list[str]:
    """Compare result files against the recorded reference for this op."""
    problems = []
    for name, ref in reference.items():
        got = parsed[name]
        if name == "selected.json":
            if got != ref:
                problems.append(f"selected.json: {got} != reference {ref}")
            continue
        for key, ref_value in ref.items():
            value = got.get(key)
            refs = ref_value if isinstance(ref_value, list) else [ref_value]
            values = value if isinstance(value, list) else [value]
            if len(values) != len(refs):
                problems.append(f"{name}:{key}: {len(values)} values, reference has {len(refs)}")
                continue
            bad = [i for i, (v, r) in enumerate(zip(values, refs)) if not _close(v, r)]
            if bad:
                problems.append(
                    f"{name}:{key}[{bad[0]}]: {values[bad[0]]!r} != reference {refs[bad[0]]!r}")
    return problems


def check_op(spec: OpSpec, files: dict[str, bytes], reference: dict | None) -> list[str]:
    """All checks for one op's output files; returns a list of problems."""
    missing = [name for name in spec.outputs if name not in files]
    if missing:
        return [f"missing outputs {missing}"]
    try:
        parsed = parse_results(spec, files)
        problems = check_invariants(spec, parsed)
        if reference is not None:
            problems += compare_reference(parsed, reference)
    except (ValueError, IndexError, KeyError, TypeError) as exc:
        return [f"malformed outputs: {exc!r}"]
    return problems
