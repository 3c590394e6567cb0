"""Bandwidth selection by a smoothed bootstrap.

The selection problem has no usable plug-in rule here because the estimators'
bias involves second derivatives of the unknown distribution.  Instead, a
pilot estimate with deliberately generous bandwidths plays the role of the
truth: bootstrap samples are drawn from the pilot's smooth density, the
estimators are recomputed on each bootstrap sample for every candidate
bandwidth, and the candidate minimizing the bootstrap mean squared error
around the pilot value wins.

This module holds the run's plan, the pilot's fit (:func:`fit_pilot`; the
model and its draws are :class:`~csmark.pilot.PilotModel`), the table of
bootstrap MSEs and the selection from it.  Replications run in lockstep
groups.  Each keeps its own generator and draws what it would draw alone:
one :meth:`~csmark.pilot.PilotModel.draw_xy` call draws the whole group's
latent pairs, and one call evaluates both estimators at every ``(alpha,
beta)`` candidate on a stack of the group's samples, so the two share each
time window.  A point's estimate does not depend on the other points of its
call, so results do not depend on the grouping.
"""

from __future__ import annotations

import io
import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import estimators
from .asymptotics import MAX_FAILURE_FRACTION
from .errors import (SelectionError, check_bandwidth, check_count, check_finite, check_grid,
                     check_instance, check_pair)
# f1 and f2 are not called here, but stay importable from this module, where
# perfbench/tracing.py wraps them
from .estimators import EstimatorConfig, _estimates, f1, f2  # noqa: F401
from .kernels import epanechnikov_kernel
from .pilot import PilotModel
from .scenarios import Sample, _observed, _write_csv

__all__ = [
    "BootstrapPlan",
    "fit_pilot",
    "MseRow",
    "BootstrapMseTable",
    "bootstrap_mse",
    "select",
]


@dataclass(frozen=True)
class BootstrapPlan:
    """Everything a bootstrap MSE run needs besides the sample itself.

    ``alpha0``/``beta0`` are the pilot bandwidths, ``replications`` the
    number of bootstrap samples, the grids enumerate candidate bandwidths,
    ``point`` is where the estimators are compared, and ``seed`` feeds the
    per-replication generators (replication ``b`` uses ``seed + b``).
    The grids and the point are kept, once checked, as tuples of floats,
    so the plan does not change when the caller's lists do.
    """

    alpha0: float
    beta0: float
    replications: int
    alpha_grid: tuple[float, ...]
    beta_grid: tuple[float, ...]
    point: tuple[float, float]
    seed: int

    def __post_init__(self) -> None:
        check_bandwidth(self.alpha0, "alpha0")
        check_bandwidth(self.beta0, "beta0")
        check_count(self.replications, "replications", 1, bounded=True)
        check_count(self.seed, "seed", 0)
        check_grid(self.alpha_grid, "alpha_grid")
        check_grid(self.beta_grid, "beta_grid")
        point = check_pair(self.point)
        for name, values in (("alpha_grid", self.alpha_grid), ("beta_grid", self.beta_grid),
                             ("point", point)):
            object.__setattr__(self, name, tuple(float(x) for x in values))


def fit_pilot(sample_: Sample, alpha0: float, beta0: float) -> PilotModel:
    """Fit the smooth pilot model at the pilot bandwidths.

    The pilot smooths time and mark with the Epanechnikov kernel, the one
    :class:`PilotModel` takes: its density needs the kernel's derivative,
    and its bounds and noise are exact for that kernel.
    """
    check_bandwidth(alpha0, "alpha0")
    check_bandwidth(beta0, "beta0")
    return PilotModel(sample_, EstimatorConfig(epanechnikov_kernel(), alpha0, beta0))


@dataclass(frozen=True)
class MseRow:
    """Bootstrap MSE of one candidate; ``beta`` is None for f1 rows."""

    estimator: str
    alpha: float
    beta: float | None
    mse_hat: float
    mse_tilde: float | None
    failures: int
    valid: bool


@dataclass(frozen=True)
class BootstrapMseTable:
    """All candidate rows of one bootstrap run plus its context."""

    rows: tuple[MseRow, ...]
    point: tuple[float, float]
    replications: int
    target: float

    def for_estimator(self, estimator: str) -> list[MseRow]:
        return [r for r in self.rows if r.estimator == estimator]

    def to_csv(self, path: str | Path | io.TextIOBase) -> None:
        """Write the rows as CSV ('' = missing)."""
        header = ["estimator", "alpha", "beta", "mse_hat", "mse_tilde", "failures"]
        _write_csv(path, header, [(r.estimator, r.alpha, r.beta, r.mse_hat,
                                   r.mse_tilde, r.failures) for r in self.rows])


def _mse(values: np.ndarray, center: float) -> float:
    # np.mean's sum and division, without its wrapper
    d = values - center
    return float(np.add.reduce(d * d) / d.size) if d.size else math.nan


def _mse_rows(values: np.ndarray, center: float) -> np.ndarray:
    """``_mse`` of each row's non-NaN entries, bit for bit.

    The rows without NaN go through one reduction along their contiguous
    axis, which sums each row as ``_mse`` sums it alone; a reduction over a
    strided view does not from 8 entries a row on.
    """
    out = np.empty(len(values))
    whole = ~np.isnan(values).any(axis=1)
    d = values[whole] - center
    out[whole] = np.add.reduce(d * d, axis=1) / values.shape[1]
    for i in (~whole).nonzero()[0]:
        out[i] = _mse(values[i][~np.isnan(values[i])], center)
    return out


def bootstrap_mse(
    sample_: Sample,
    plan: BootstrapPlan,
    *,
    true_value: float | None = None,
) -> BootstrapMseTable:
    """Bootstrap MSE curves for every candidate bandwidth.

    Replication ``b`` (seeded ``plan.seed + b``) draws latent pairs and
    censoring times of the original sample size from the pilot model
    (:func:`fit_pilot` at ``plan``'s pilot bandwidths),
    assembles the induced current status sample, and evaluates each
    candidate: every ``alpha`` for the singly-smoothed estimator and every
    ``(alpha, beta)`` pair for the doubly-smoothed one.  A candidate's
    ``mse_hat`` averages squared deviations from the pilot value; when
    ``true_value`` is given (simulations only), ``mse_tilde`` additionally
    averages deviations from the truth, which must be finite.  Candidates
    use the pilot's kernels and denominator floor; those whose estimate
    failed in more than 1% of replications are marked invalid.

    Replications go in lockstep groups of ``_CHUNK_BUDGET // n`` (at least
    one): per group, one :meth:`PilotModel.draw_xy` call on the group's
    generators, their :meth:`PilotModel.draw_t` calls, and one stack of the
    group's samples on which one call evaluates both estimators at every
    ``(alpha, beta)`` pair; an ``alpha``'s F1 value, which never reads
    ``beta``, is taken at its first ``beta``.  Each replication's draws are
    those of its own generator and each estimate is the one its sample alone
    gives, so results do not depend on the grouping.
    """
    check_instance(sample_, "sample", Sample)
    check_instance(plan, "plan", BootstrapPlan)
    if true_value is not None:
        check_finite(true_value, "true_value")
    pilot = fit_pilot(sample_, plan.alpha0, plan.beta0)
    t0, z0 = plan.point
    target = pilot.target(t0, z0)
    n = len(sample_)
    group = max(1, estimators._CHUNK_BUDGET // n)

    # all (alpha, beta) pairs in one batch, each with its own bandwidths; F1
    # never reads beta, so an alpha's F1 value is the one at its first beta
    pairs = list(itertools.product(plan.alpha_grid, plan.beta_grid))
    k, m = len(plan.alpha_grid), len(pairs)
    pair_alpha, pair_beta = np.array(pairs, dtype=float).T
    # a candidate's replications side by side in a row
    estimates = np.full((k + m, plan.replications), np.nan)

    for b0 in range(0, plan.replications, group):
        b1 = min(b0 + group, plan.replications)
        rngs = [np.random.default_rng(plan.seed + b) for b in range(b0, b1)]
        x, y = pilot.draw_xy(rngs, n)
        t = np.stack([pilot.draw_t(rng, n) for rng in rngs])
        boot = _observed(x, y, t)
        # every pair on every row, row by row; unstable candidates are NaN
        row = np.arange(b1 - b0).repeat(m)
        t_m, z_m = np.full(row.size, t0), np.full(row.size, z0)
        _, (v1, v2) = _estimates(boot, pilot.config, t_m, z_m, ("F1", "F2"),
                                 np.tile(pair_alpha, b1 - b0), np.tile(pair_beta, b1 - b0), row)
        estimates[:k, b0:b1] = v1.reshape(b1 - b0, k, len(plan.beta_grid))[:, :, 0].T
        estimates[k:, b0:b1] = v2.reshape(b1 - b0, m).T

    labels: list[tuple[str, float, float | None]] = [("F1", a, None) for a in plan.alpha_grid]
    labels += [("F2", a, b) for a, b in pairs]

    mse_hat = _mse_rows(estimates, target).tolist()
    mse_tilde = ([None] * len(labels) if true_value is None
                 else _mse_rows(estimates, true_value).tolist())
    failed = np.isnan(estimates).sum(axis=1).tolist()
    rows = []
    max_failures = MAX_FAILURE_FRACTION * plan.replications
    for (kind, alpha, beta), hat, tilde, failures in zip(labels, mse_hat, mse_tilde, failed):
        rows.append(
            MseRow(
                estimator=kind,
                alpha=float(alpha),
                beta=None if beta is None else float(beta),
                mse_hat=hat,
                mse_tilde=tilde,
                failures=failures,
                valid=failures <= max_failures and failures < plan.replications,
            )
        )
    return BootstrapMseTable(
        rows=tuple(rows),
        point=plan.point,
        replications=plan.replications,
        target=target,
    )


def select(table: BootstrapMseTable) -> dict[str, tuple[float, float | None]]:
    """Pick the minimizing candidate per estimator from a bootstrap table.

    Ties resolve toward the smallest ``alpha``, then the smallest ``beta``.
    An estimator whose candidates are all invalid raises
    :class:`SelectionError`.
    """
    check_instance(table, "table", BootstrapMseTable)
    if not table.rows:
        raise SelectionError("empty bootstrap table")
    chosen: dict[str, tuple[float, float | None]] = {}
    for estimator in dict.fromkeys(r.estimator for r in table.rows):
        valid = [r for r in table.for_estimator(estimator) if r.valid]
        if not valid:
            raise SelectionError(
                f"no valid bandwidth candidate for {estimator}"
            )
        best = min(
            valid,
            key=lambda r: (
                r.mse_hat,
                r.alpha,
                r.beta if r.beta is not None else 0.0,
            ),
        )
        chosen[estimator] = (best.alpha, best.beta)
    return chosen
