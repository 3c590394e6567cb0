"""The benchmark's workloads: which ``csmark`` subcommands run, on which configs.

Every op is one ``csmark <command> --config <file> --out <dir> --seed <s>
--threads <k>`` call.  A workload's configs are fixed; only the seed varies,
so op ``i`` of a run uses seed ``workload_seed + i`` and the config of
``batch[i % len(batch)]``.  All workloads use scenario B, with inputs taken
from cells of the acceptance battery in ``tests/test_acceptance.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

GRID = ("0.2", "0.3", "0.4", "0.5", "0.6", "0.7", "0.8")
ALPHA_GRID = tuple(f"{0.10 + 0.05 * i:.2f}" for i in range(17))
BETA_GRID = ("0.1", "0.2", "0.3", "0.4", "0.5")


@dataclass(frozen=True)
class OpSpec:
    """One kind of op: a subcommand, its config and its thread count."""

    name: str
    command: str
    keys: tuple[tuple[str, str], ...]
    threads: int
    outputs: tuple[str, ...]

    def config_text(self) -> str:
        lines = [f"kind = {self.command}", "scenario = B"]
        lines += [f"{k} = {v}" for k, v in self.keys]
        return "\n".join(lines) + "\n"

    def key(self, name: str) -> str:
        return dict(self.keys)[name]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    batch: tuple[OpSpec, ...]

    def op(self, index: int) -> OpSpec:
        return self.batch[index % len(self.batch)]

    @property
    def threads(self) -> int:
        return max(spec.threads for spec in self.batch)

    @property
    def threaded(self) -> bool:
        return self.threads > 1


def _density_row(t: str) -> OpSpec:
    n = 200_000
    return OpSpec(
        name=f"grid-t{t}",
        command="estimate-grid",
        keys=(
            ("n", str(n)),
            # test_08 bandwidths: alpha = n^-1/6, beta = n^-1/5
            ("alpha", repr(float(n) ** (-1.0 / 6.0))),
            ("beta", repr(float(n) ** (-1.0 / 5.0))),
            ("t_grid", t),
            ("z_grid", ", ".join(GRID)),
        ),
        threads=1,
        outputs=("grid.csv",),
    )


def _mse(name: str, n: int, replications: int, estimator: str, beta: str | None):
    keys = [
        ("estimator", estimator),
        ("t0", "0.4"),
        ("z0", "0.4"),
        ("n", str(n)),
        ("replications", str(replications)),
        ("alpha", "0.15"),
    ]
    if beta is not None:
        keys.append(("beta", beta))
    return OpSpec(name, "mc-mse", tuple(keys), threads=2, outputs=("mse.csv",))


def _normality(name: str, estimator: str, alpha: str, beta: str | None) -> OpSpec:
    keys = [
        ("estimator", estimator),
        ("t0", "0.5"),
        ("z0", "0.5"),
        ("n", "5000"),
        ("m", "50"),
        ("alpha", alpha),
    ]
    if beta is not None:
        keys.append(("beta", beta))
    return OpSpec(
        name, "mc-normality", tuple(keys), threads=2,
        outputs=("values.csv", "summary.json"),
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="density-grid",
            why="dense O(n) kernel sums at n=2e5 on the test_08 7x7 grid; "
            "where a windowed or sorted smoothing engine must show",
            batch=tuple(_density_row(t) for t in GRID),
        ),
        Workload(
            name="mc-small",
            why="many fresh small samples, one point each, 2 threads; "
            "sampling, per-call and thread-pool overhead dominate",
            batch=(
                _mse("mse-F1", 5000, 50, "F1", None),
                _mse("mse-F2", 5000, 50, "F2", "0.10"),
                _normality("normality-F1", "F1", "0.09", None),
                _normality("normality-F2", "F2", "0.091", "0.029"),
                OpSpec(
                    "functional", "functional", (("n", "10000"), ("m", "10")),
                    threads=2, outputs=("values.csv", "summary.json"),
                ),
            ),
        ),
        Workload(
            name="mc-large",
            why="mc-mse at n=2e5 with 2 threads; large draws dominate and "
            "the threaded replication path pays off",
            batch=(
                _mse("mse-F1", 200_000, 10, "F1", None),
                _mse("mse-F2", 200_000, 10, "F2", "0.10"),
            ),
        ),
        Workload(
            name="bootstrap-select",
            why="bw-select at n=100 with the test_10 grids, 25 replications; "
            "pilot fit, rejection draws and 102 scalar candidates per replication",
            batch=(
                OpSpec(
                    "bw-select",
                    "bw-select",
                    (
                        ("n", "100"),
                        ("t0", "0.5"),
                        ("z0", "0.5"),
                        ("replications", "25"),
                        ("alpha0", "0.4"),
                        ("beta0", "0.4"),
                        ("alpha_grid", ", ".join(ALPHA_GRID)),
                        ("beta_grid", ", ".join(BETA_GRID)),
                        ("compare_truth", "true"),
                    ),
                    threads=1,
                    outputs=("bootstrap_mse.csv", "selected.json"),
                ),
            ),
        ),
    )
}


def write_configs(workload: Workload, directory: str | Path) -> dict[str, Path]:
    """Write one config file per op kind; return their paths by op name."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for spec in workload.batch:
        path = directory / f"{spec.name}.cfg"
        path.write_text(spec.config_text())
        paths[spec.name] = path
    return paths
