"""Bandwidth selection by a smoothed bootstrap.

The selection problem has no usable plug-in rule here because the estimators'
bias involves second derivatives of the unknown distribution.  Instead, a
pilot estimate with deliberately generous bandwidths plays the role of the
truth: bootstrap samples are drawn from the pilot's smooth density, the
estimators are recomputed on each bootstrap sample for every candidate
bandwidth, and the candidate minimizing the bootstrap mean squared error
around the pilot value wins.

Resampling works directly from the smooth pilot model rather than the
empirical distribution -- naive resampling cannot see the effect of the mark
bandwidth at all.  Censoring times are drawn by perturbing resampled observed
times with pilot-bandwidth kernel noise (that is exactly a draw from the
kernel estimate of the censoring density); latent pairs come from the pilot
density by rejection sampling on the unit box, the support of both
scenarios, under a grid-based envelope.
"""

from __future__ import annotations

import io
import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .asymptotics import MAX_FAILURE_FRACTION
from .errors import (
    DegeneratePilotError,
    InvalidBandwidthError,
    SelectionError,
    SupportError,
)
# f1 is not called here, but stays importable as bandwidth.f1, which
# perfbench/tracing.py wraps
from .estimators import EstimatorConfig, _estimates, f1, f2  # noqa: F401
from .kernels import (
    Bandwidths,
    KernelFamily,
    UnivariateKernel,
    epanechnikov_kernel,
    product_kernel,
)
from .scenarios import Sample, _current_status, _write_csv

__all__ = [
    "BootstrapPlan",
    "PilotModel",
    "pilot_bandwidth",
    "fit_pilot",
    "MseRow",
    "BootstrapMseTable",
    "bootstrap_mse",
    "select",
]

# rejection envelope: this factor times the largest pilot density seen
_ENVELOPE_SAFETY = 1.1

# pilot smoothing reference: generous bandwidth 0.4 at sample size 100,
# scaled by the usual n^{-1/5} law for other sizes
_PILOT_REFERENCE = (0.4, 100)

# rejection rounds after which draw_xy gives up on a pilot density that
# (almost) never accepts a proposal
_MAX_DRAW_ROUNDS = 1000


def pilot_bandwidth(n: int, reference: float | None = None) -> float:
    """Default pilot bandwidth ``0.4 * (100 / n)^{1/5}``."""
    ref, n_ref = _PILOT_REFERENCE
    if reference is not None:
        ref = reference
    if n < 1:
        raise ValueError(f"sample size must be positive, got {n}")
    return ref * (n_ref / n) ** 0.2


@dataclass(frozen=True)
class BootstrapPlan:
    """Everything a bootstrap MSE run needs besides the sample itself.

    ``alpha0``/``beta0`` are the pilot bandwidths, ``replications`` the
    number of bootstrap samples, the grids enumerate candidate bandwidths,
    ``point`` is where the estimators are compared, and ``seed`` feeds the
    per-replication generators (replication ``b`` uses ``seed + b``).
    """

    alpha0: float
    beta0: float
    replications: int
    alpha_grid: tuple[float, ...]
    beta_grid: tuple[float, ...]
    point: tuple[float, float]
    seed: int

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) and v > 0.0 for v in (self.alpha0, self.beta0)):
            raise InvalidBandwidthError("pilot bandwidths must be finite and positive")
        if self.replications < 1:
            raise InvalidBandwidthError("need at least one bootstrap replication")
        for label, grid in (("alpha", self.alpha_grid), ("beta", self.beta_grid)):
            if len(grid) == 0:
                raise InvalidBandwidthError(f"{label}_grid must be nonempty")
            if not all(math.isfinite(v) and v > 0.0 for v in grid):
                raise InvalidBandwidthError(f"{label}_grid must be finite and positive")
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise InvalidBandwidthError(f"{label}_grid must be strictly increasing")
        t0, z0 = self.point
        if not math.isfinite(t0) or math.isnan(z0):
            raise SupportError(
                f"point needs a finite t0 and a z0 that is not NaN, got {self.point!r}"
            )


class PilotModel:
    """A smooth surrogate for the data-generating model, fitted once.

    Holds the original sample, the pilot estimator configuration, the
    clipped pilot density (negative values and unstable denominators are
    treated as zero) and a rejection envelope precomputed on a grid over
    the unit box, 1.1 times the largest density seen there.  The envelope
    is immutable; rejection batches that encounter density values above it
    enlarge a local copy and continue, so every draw is a pure function of
    the generator passed in.
    """

    def __init__(
        self, sample_: Sample, config: EstimatorConfig, envelope_grid: int = 200
    ) -> None:
        self.sample = sample_
        self.config = config
        grid = np.linspace(0.0, 1.0, envelope_grid)
        tt, zz = np.meshgrid(grid, grid, indexing="ij")
        dens = self.density(tt.ravel(), zz.ravel())
        peak = float(np.max(dens))
        if peak <= 0.0:
            raise DegeneratePilotError(
                "pilot density is nonpositive everywhere on the envelope grid"
            )
        self.envelope = _ENVELOPE_SAFETY * peak

    def density(self, t, z) -> np.ndarray:
        """Clipped pilot density: max(density estimate, 0), 0 where unstable."""
        _, (density,) = _estimates(self.sample, self.config, t, z, ("density",))
        return np.fmax(density, 0.0)

    def target(self, t0: float, z0: float) -> float:
        """The pilot's own distribution value, the bootstrap 'truth'."""
        return f2(self.sample, self.config, t0, z0)

    def draw_t(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw censoring times from the pilot censoring-density estimate.

        A draw is a resampled observed time plus pilot-bandwidth kernel
        noise; values may spill slightly outside the box, exactly as the
        kernel estimate does.
        """
        idx = rng.integers(0, len(self.sample), size)
        noise = _kernel_noise(self.config.kernel_t, rng, size)
        return self.sample.t[idx] + self.config.bandwidths.alpha * noise

    def draw_xy(
        self, rng: np.random.Generator, size: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw latent pairs from the pilot density by rejection on the unit box;
        :class:`DegeneratePilotError` after ``_MAX_DRAW_ROUNDS`` rounds."""
        envelope = self.envelope
        xs: list[np.ndarray] = []
        ys: list[np.ndarray] = []
        got = proposed = 0
        while got < size:
            if len(xs) == _MAX_DRAW_ROUNDS:
                raise DegeneratePilotError(
                    f"rejection sampling accepted {got} of {proposed} proposals "
                    f"in {len(xs)} rounds, {size} needed"
                )
            batch = max(256, 2 * (size - got))
            x = rng.uniform(0.0, 1.0, batch)
            y = rng.uniform(0.0, 1.0, batch)
            u = rng.random(batch)
            dens = self.density(x, y)
            peak = float(np.max(dens))
            if peak > envelope:
                # local refresh: the precomputed envelope missed a spike
                envelope = _ENVELOPE_SAFETY * peak
            keep = u * envelope <= dens
            xs.append(x[keep])
            ys.append(y[keep])
            got += int(np.count_nonzero(keep))
            proposed += batch
        x_all = np.concatenate(xs)[:size]
        y_all = np.concatenate(ys)[:size]
        return x_all, y_all


def _kernel_noise(
    kernel: UnivariateKernel, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Inverse-CDF draws from a kernel density on [-1, 1]."""
    u = rng.random(size)
    if kernel.family is KernelFamily.UNIFORM:
        return 2.0 * u - 1.0
    if kernel.family is KernelFamily.EPANECHNIKOV:
        # closed-form inverse of (2 + 3w - w^3)/4 = u via the trigonometric
        # root of the depressed cubic
        return 2.0 * np.cos((np.arccos(1.0 - 2.0 * u) + 4.0 * np.pi) / 3.0)
    grid = np.linspace(-1.0, 1.0, 4097)
    return np.interp(u, kernel.cdf(grid), grid)


def fit_pilot(sample_: Sample, alpha0: float, beta0: float) -> PilotModel:
    """Fit the smooth pilot model at the pilot bandwidths.

    The pilot smooths with the Epanechnikov kernel and its product kernel:
    its density needs the kernel's derivative.
    """
    kt = epanechnikov_kernel()
    config = EstimatorConfig(
        kernel_t=kt, bandwidths=Bandwidths(alpha0, beta0), kernel_tz=product_kernel(kt)
    )
    return PilotModel(sample_, config)


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
    return float(np.mean((values - center) ** 2)) if values.size else math.nan


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
    averages deviations from the truth.  Candidates use the pilot's kernels
    and denominator floor; those whose estimate failed in more than 1% of
    replications are marked invalid.

    Replications are processed in a fixed order, so results do not depend
    on scheduling.
    """
    pilot = fit_pilot(sample_, plan.alpha0, plan.beta0)
    t0, z0 = plan.point
    target = pilot.target(t0, z0)
    n = len(sample_)

    # one batch of candidates, each with its own bandwidths, per estimator:
    # the alphas for F1, all (alpha, beta) pairs for F2
    pairs = list(itertools.product(plan.alpha_grid, plan.beta_grid))
    k = len(plan.alpha_grid)
    pair_alpha, pair_beta = np.array(pairs, dtype=float).T
    batches = (
        ("F1", slice(0, k), np.array(plan.alpha_grid, dtype=float), None),
        ("F2", slice(k, None), pair_alpha, pair_beta),
    )
    estimates = np.full((plan.replications, k + len(pairs)), np.nan)

    for b in range(plan.replications):
        rng = np.random.default_rng(plan.seed + b)
        x, y = pilot.draw_xy(rng, n)
        boot = _current_status(x, y, pilot.draw_t(rng, n))
        for kind, cols, alpha, beta in batches:
            t_m, z_m = np.full(alpha.size, t0), np.full(alpha.size, z0)
            # unstable candidates are NaN
            _, (estimates[b, cols],) = _estimates(
                boot, pilot.config, t_m, z_m, (kind,), alpha, beta
            )

    labels: list[tuple[str, float, float | None]] = [
        ("F1", alpha, None) for alpha in plan.alpha_grid
    ] + [("F2", alpha, beta) for alpha, beta in pairs]

    rows = []
    max_failures = MAX_FAILURE_FRACTION * plan.replications
    for col, (estimator, alpha, beta) in zip(estimates.T, labels):
        ok = col[~np.isnan(col)]
        failures = plan.replications - ok.size
        rows.append(
            MseRow(
                estimator=estimator,
                alpha=float(alpha),
                beta=None if beta is None else float(beta),
                mse_hat=_mse(ok, target),
                mse_tilde=None if true_value is None else _mse(ok, true_value),
                failures=failures,
                valid=failures <= max_failures and ok.size > 0,
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
