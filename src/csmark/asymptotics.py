"""Limit-law constants, Monte Carlo experiment drivers, and the mean
functional.

For bandwidths ``alpha = c n^{-1/5}`` the singly-smoothed distribution
estimator satisfies

    n^{2/5} (f1_n(t0, z0) - F0(t0, z0))  ->  N(mu1, sigma2),

with

    mu1    = (c^2 / 2) m2(k) [ d11 F0 + 2 g' d1 F0 / g ](t0, z0),
    sigma2 = (1 / c)  F0 (1 - F0) int k^2 / g(t0).

The doubly-smoothed estimator shares this limit when the mark bandwidth
shrinks strictly faster than ``n^{-1/5}``; at the boundary rate
``beta = c2 n^{-1/5}`` the mean acquires the extra term
``(c2^2 / 2) m2(k) d22 F0``, and for slower rates the two estimators are no
longer asymptotically equivalent.  These facts drive the seeded Monte Carlo
helpers below, which standardize replicated estimates and compare them
against the limiting normal.

The module also contains the smoothed mean functional ``int x dF0(x, inf)``
estimated as ``int (1 - f1(x, z_max)) dx`` with the Uniform time kernel and a
midpoint grid; undersmoothing (time bandwidth shrinking faster than
``n^{-1/4}``) recovers the root-n rate, and the limiting variance has the
closed form ``int F (1 - F) / g`` computed by :func:`efficient_variance`.

scipy (quadrature, the KS statistic, normal quantiles) is imported inside
the functions and properties that call it, so the Monte Carlo MSE and
equivalence drivers run without loading it.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    BandwidthRegimeError,
    InvalidBandwidthError,
    QuadratureError,
    ReplicationFailureError,
    UnstableDenominatorError,
)
from .estimators import EstimatorConfig, f1, f2
from .kernels import (
    Bandwidths,
    UnivariateKernel,
    _check_bandwidth,
    _check_count,
    epanechnikov_kernel,
    l2_norm_sq,
    second_moment,
)
from .scenarios import Sample, Scenario, sample

__all__ = [
    "BandwidthSchedule",
    "AsymptoticParams",
    "MonteCarloSummary",
    "EquivalenceCurve",
    "mu1_sigma2",
    "mu2",
    "mc_normality",
    "mc_mse",
    "equivalence_curve",
    "difference_sample",
    "mean_functional",
    "MeanFunctionalResult",
    "true_mean_event_time",
    "efficient_variance",
    "mc_functional",
    "qq_points",
]

MAX_FAILURE_FRACTION = 0.01
# smaller samples replicate serially: threads there lose to the GIL (see _replicate)
_THREAD_MIN_ROWS = 20_000


@dataclass(frozen=True)
class BandwidthSchedule:
    """Deterministic bandwidth sequences ``alpha_n = c1 n^{-1/5}``,
    ``beta_n = c2 n^{-beta_exponent}``.

    The time exponent is pinned to 1/5, the rate at which the pointwise
    limit distribution is nondegenerate.  The mark exponent is free so the
    three decay regimes (slower, critical, faster) can be exercised.
    """

    c1: float
    c2: float | None = None
    beta_exponent: float | None = None

    def __post_init__(self) -> None:
        _check_bandwidth(self.c1, "c1")
        if (self.c2 is None) != (self.beta_exponent is None):
            raise InvalidBandwidthError(
                "c2 and beta_exponent must be given together"
            )
        if self.c2 is not None:
            _check_bandwidth(self.c2, "c2")
        if self.beta_exponent is not None and not math.isfinite(self.beta_exponent):
            raise InvalidBandwidthError(
                f"beta_exponent must be finite, got {self.beta_exponent!r}"
            )

    def alpha(self, n: int) -> float:
        return self.c1 * float(n) ** -0.2

    def beta(self, n: int) -> float | None:
        if self.c2 is None:
            return None
        return self.c2 * float(n) ** -float(self.beta_exponent)


@dataclass(frozen=True)
class AsymptoticParams:
    """Limiting mean and variance of the standardized estimator.

    ``degenerate_bias`` flags points where the bias bracket vanishes (the
    limit is then centered, and bias-based diagnostics are uninformative).
    """

    mu1: float
    sigma2: float
    degenerate_bias: bool


def mu1_sigma2(
    scenario: Scenario,
    point: tuple[float, float],
    c: float,
    kernel: UnivariateKernel,
) -> AsymptoticParams:
    """Evaluate the limit-law constants at an interior point.

    Parameters
    ----------
    scenario : Scenario
        Supplies ``F0``, its partials and the censoring density.
    point : (t0, z0)
        Interior evaluation point with ``g(t0) > 0``.
    c : float
        Bandwidth constant in ``alpha = c n^{-1/5}``.
    kernel : UnivariateKernel
        The time-direction kernel.
    """
    _check_bandwidth(c, "c")
    t0, z0 = point
    g0 = float(scenario.g(t0))
    if g0 <= 0.0:
        raise UnstableDenominatorError(
            f"censoring density vanishes at t0={t0!r}", g_value=g0
        )
    bracket = float(
        scenario.d11(t0, z0) + 2.0 * scenario.g_prime(t0) * scenario.d1(t0, z0) / g0
    )
    mu1 = 0.5 * c * c * second_moment(kernel) * bracket
    F0v = float(scenario.cdf(t0, z0))
    sigma2 = (F0v * (1.0 - F0v) / g0) * l2_norm_sq(kernel) / c
    return AsymptoticParams(
        mu1=mu1, sigma2=sigma2, degenerate_bias=(abs(bracket) < 1e-12)
    )


def mu2(
    scenario: Scenario,
    point: tuple[float, float],
    schedule: BandwidthSchedule,
    kernel: UnivariateKernel,
) -> float:
    """Limiting mean of the doubly-smoothed estimator under a schedule.

    ``kernel`` is the time kernel.  The result equals ``mu1`` whenever the
    mark bandwidth decays strictly faster than ``n^{-1/5}``; at the critical
    exponent (1/5, to within 1e-9) it gains ``(c2^2 / 2) m2(k) d22 F0``;
    slower decay makes the standardized bias diverge and raises
    :class:`BandwidthRegimeError`.  The estimators smooth the mark with
    the time kernel itself, so the extra term's second moment is
    ``kernel``'s too.
    """
    if schedule.beta_exponent is None:
        raise InvalidBandwidthError("schedule carries no mark bandwidth")
    base = mu1_sigma2(scenario, point, schedule.c1, kernel)
    # an exponent written as, say, 0.3 - 0.1 misses 1/5 by an ulp
    critical = math.isclose(schedule.beta_exponent, 0.2, abs_tol=1e-9)
    if not critical and schedule.beta_exponent < 0.2:
        raise BandwidthRegimeError(
            f"mark bandwidth exponent {schedule.beta_exponent!r} below 1/5: "
            "standardized bias diverges"
        )
    if critical:
        t0, z0 = point
        extra = (
            0.5
            * schedule.c2**2
            * second_moment(kernel)
            * float(scenario.d22(t0, z0))
        )
        return base.mu1 + extra
    return base.mu1


@dataclass(frozen=True, eq=False)
class MonteCarloSummary:
    """Replicated statistics plus the reference law's mean and variance.

    ``values`` holds an error ``estimate - F0``, its ``n^{2/5}`` scaling, or
    the functional's ``sqrt(n)`` analogue for each replication that produced
    one, ``replicates`` the index ``r`` (seed offset) of each of them;
    ``failures`` counts those that did not.  ``mu``/``sigma2`` may be None.
    """

    values: np.ndarray
    replicates: np.ndarray
    failures: int
    mu: float | None = None
    sigma2: float | None = None

    @property
    def mean(self) -> float:
        return float(np.mean(self.values))

    @property
    def variance(self) -> float:
        return float(np.var(self.values, ddof=1))

    @property
    def mse(self) -> float:
        return float(np.mean(self.values**2))

    @property
    def mse_se(self) -> float:
        """Sampling standard error of :attr:`mse`."""
        return float(np.std(self.values**2, ddof=1) / math.sqrt(self.values.size))

    @property
    def ks_distance(self) -> float | None:
        """Kolmogorov-Smirnov distance of the values from N(mu, sigma2), if set."""
        if self.mu is None or self.sigma2 is None:
            return None
        from scipy import stats

        args = (self.mu, math.sqrt(self.sigma2))
        return float(stats.kstest(self.values, "norm", args=args).statistic)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _replicate(
    scenario: Scenario,
    n: int,
    m: int,
    seed: int,
    statistic: Callable[[Sample], float],
    workers: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Evaluate ``statistic(sample(scenario, n, seed + r))`` for ``r < m``.

    Returns the kept values, their replication indices and the number of
    replications whose statistic raised :class:`UnstableDenominatorError`;
    more than 1% of those raise :class:`ReplicationFailureError`.  A NaN
    statistic is a bug, not a failure: it raises ``RuntimeError`` naming
    its seed.  A pool of ``min(workers, m, usable CPUs)`` threads is used
    only from ``_THREAD_MIN_ROWS`` rows on: below that, threads mostly trade
    the GIL between short numpy calls and lose.  Values are kept in replication
    order, so the output is bitwise identical for any ``workers``.  Counts out
    of range raise ``ValueError`` before any sample is drawn.
    """
    _check_count(m, "m", 2)
    _check_count(seed, "seed", 0)
    _check_count(workers, "workers", 1)

    def one(r: int) -> float:
        try:
            value = statistic(sample(scenario, n, seed + r))
        except UnstableDenominatorError:
            return math.nan  # marks a failed replication
        if math.isnan(value):
            raise RuntimeError(f"the statistic is NaN at seed {seed + r}")
        return value

    threads = min(workers, m, _usable_cpus()) if n >= _THREAD_MIN_ROWS else 1
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            raw = np.fromiter(pool.map(one, range(m)), float, count=m)
    else:
        raw = np.fromiter(map(one, range(m)), float, count=m)
    replicates = np.flatnonzero(~np.isnan(raw))
    failures = m - replicates.size
    if failures > MAX_FAILURE_FRACTION * m:
        raise ReplicationFailureError(
            f"{failures} of {m} replications failed (> {MAX_FAILURE_FRACTION:.0%})"
        )
    return raw[replicates], replicates, failures


def _resolve_config(
    estimator: str,
    alpha: float,
    beta: float | None,
    kernel_t: UnivariateKernel | None,
) -> EstimatorConfig:
    if estimator not in ("F1", "F2"):
        raise ValueError(f"estimator must be 'F1' or 'F2', got {estimator!r}")
    kt = kernel_t if kernel_t is not None else epanechnikov_kernel()
    return EstimatorConfig(kernel_t=kt, bandwidths=Bandwidths(alpha, beta))


def mc_normality(
    scenario: Scenario,
    estimator: str,
    point: tuple[float, float],
    n: int,
    m: int,
    *,
    seed: int,
    alpha: float | None = None,
    beta: float | None = None,
    schedule: BandwidthSchedule | None = None,
    kernel_t: UnivariateKernel | None = None,
    workers: int = 1,
) -> MonteCarloSummary:
    """Replicate an estimator and compare with its limiting normal.

    Takes the :func:`mc_mse` errors at ``point`` (replication ``r`` draws
    a fresh sample with seed ``seed + r``) and records
    ``n^{2/5} (estimate - F0(point))``.  The summary's reference law is
    N(mu, sigma2), whose mean respects the mark-bandwidth regime when a
    schedule is given; its ``ks_distance`` compares the values with it.

    Bandwidths come either from ``alpha``/``beta`` directly or from a
    ``schedule`` evaluated at ``n`` (exactly one of the two forms must be
    used).  The time kernel defaults to Epanechnikov and smooths F2's marks
    too.  More than 1% failed replications raise
    :class:`ReplicationFailureError`.
    Threads (``workers``, capped at the usable CPUs) share replications
    only when ``n >= 20_000``; results do not depend on ``workers``.
    """
    _check_count(m, "m", 2)
    if schedule is not None:
        if alpha is not None or beta is not None:
            raise InvalidBandwidthError(
                "pass either fixed bandwidths or a schedule, not both"
            )
        alpha = schedule.alpha(n)
        beta = schedule.beta(n)
    if alpha is None:
        raise InvalidBandwidthError("a time bandwidth is required")
    kt = kernel_t if kernel_t is not None else epanechnikov_kernel()
    errors = mc_mse(
        scenario, estimator, point, n, m,
        alpha=alpha, beta=beta, seed=seed, kernel_t=kt, workers=workers,
    )
    c = alpha * float(n) ** 0.2
    params = mu1_sigma2(scenario, point, c, kt)
    mu = params.mu1
    if estimator == "F2" and schedule is not None and schedule.beta_exponent is not None:
        mu = mu2(scenario, point, schedule, kt)
    return MonteCarloSummary(
        values=float(n) ** 0.4 * errors.values, replicates=errors.replicates,
        failures=errors.failures, mu=mu, sigma2=params.sigma2,
    )


def mc_mse(
    scenario: Scenario,
    estimator: str,
    point: tuple[float, float],
    n: int,
    replications: int,
    *,
    alpha: float,
    beta: float | None = None,
    seed: int,
    kernel_t: UnivariateKernel | None = None,
    workers: int = 1,
) -> MonteCarloSummary:
    """Monte Carlo mean squared error of an estimator at fixed bandwidths.

    Replication ``r`` uses seed ``seed + r``; ``values`` holds the raw
    (unstandardized) errors ``estimate - F0(point)`` of the successful
    replications, so the summary's ``mse`` is their mean square and
    ``mse_se`` its sampling standard error.  The time kernel defaults to
    Epanechnikov and smooths F2's marks too.
    Threads (``workers``, capped at the usable CPUs) share replications
    only when ``n >= 20_000``; results do not depend on ``workers``.
    """
    _check_count(replications, "replications", 2)
    config = _resolve_config(estimator, alpha, beta, kernel_t)
    t0, z0 = point
    truth = float(scenario.cdf(t0, z0))
    est = f1 if estimator == "F1" else f2

    errors, replicates, failures = _replicate(
        scenario, n, replications, seed,
        lambda s: est(s, config, t0, z0) - truth, workers,
    )
    return MonteCarloSummary(values=errors, replicates=replicates, failures=failures)


@dataclass(frozen=True, eq=False)
class EquivalenceCurve:
    """Scaled differences ``n^{2/5} (f2 - f1)`` along a sample-size grid."""

    n_grid: np.ndarray
    diffs: np.ndarray
    envelopes: np.ndarray

    def fraction_inside(self) -> float:
        return float(np.mean(np.abs(self.diffs) <= self.envelopes))


def equivalence_curve(
    scenario: Scenario,
    point: tuple[float, float],
    n_grid: np.ndarray,
    schedule: BandwidthSchedule,
    *,
    seed: int,
    envelope_constant: float = 1.5,
) -> EquivalenceCurve:
    """One realization of the scaled difference per grid sample size.

    Entry ``i`` draws a sample of size ``n_grid[i]`` with seed ``seed + i``
    and records ``n^{2/5} (f2 - f1)`` at ``point`` next to the reference
    envelope ``envelope_constant * n^{-1/6}``; when the mark bandwidth
    shrinks faster than ``n^{-1/5}`` the differences should sit inside the
    envelope for most sizes.  Both estimators use the Epanechnikov kernel,
    F2 in time and mark.  An empty ``n_grid``, a size that is not a whole
    number of at least 1 and an ``envelope_constant`` that is not finite and
    positive raise ``ValueError`` before any sample is drawn.
    """
    if schedule.beta_exponent is None:
        raise InvalidBandwidthError("the schedule must include a mark bandwidth")
    given = np.asarray(n_grid)
    sizes = given.astype(float)
    if sizes.size == 0 or not np.all(
        np.isfinite(sizes) & (sizes >= 1.0) & (sizes == np.floor(sizes))
    ):
        raise ValueError(
            f"n_grid must hold whole sizes of at least 1, got {given.tolist()}"
        )
    n_grid = sizes.astype(int)
    _check_bandwidth(envelope_constant, "envelope_constant", ValueError)
    t0, z0 = point
    diffs = np.empty(n_grid.size)
    envelopes = envelope_constant * n_grid.astype(float) ** (-1.0 / 6.0)
    for i, n in enumerate(n_grid):
        n = int(n)
        config = _resolve_config("F2", schedule.alpha(n), schedule.beta(n), None)
        s = sample(scenario, n, seed + i)
        diffs[i] = float(n) ** 0.4 * (
            f2(s, config, t0, z0) - f1(s, config, t0, z0)
        )
    return EquivalenceCurve(n_grid=n_grid, diffs=diffs, envelopes=envelopes)


def difference_sample(
    scenario: Scenario,
    point: tuple[float, float],
    n: int,
    m: int,
    schedule: BandwidthSchedule,
    *,
    seed: int,
    workers: int = 1,
) -> MonteCarloSummary:
    """Replicated scaled differences ``n^{2/5} (f2 - f1)`` at fixed ``n``.

    At the critical mark-bandwidth exponent 1/5 the mean difference tends
    to ``mu2 - mu1``; the summary's ``mu`` records that reference value.
    Both estimators use the Epanechnikov kernel, F2 in time and mark.
    Threads (``workers``, capped at the usable CPUs) share replications
    only when ``n >= 20_000``; results do not depend on ``workers``.
    """
    if schedule.beta_exponent is None:
        raise InvalidBandwidthError("the schedule must include a mark bandwidth")
    config = _resolve_config("F2", schedule.alpha(n), schedule.beta(n), None)
    t0, z0 = point
    rate = float(n) ** 0.4

    values, replicates, failures = _replicate(
        scenario, n, m, seed,
        lambda s: rate * (f2(s, config, t0, z0) - f1(s, config, t0, z0)), workers,
    )
    base = mu1_sigma2(scenario, point, schedule.c1, config.kernel_t)
    shift = mu2(scenario, point, schedule, config.kernel_t) - base.mu1
    return MonteCarloSummary(values, replicates, failures, mu=shift)


@dataclass(frozen=True)
class MeanFunctionalResult:
    """Mean-functional estimate plus grid diagnostics."""

    value: float
    fallback_count: int


def mean_functional(
    s: Sample, alpha: float, grid_points: int = 2000
) -> MeanFunctionalResult:
    """Estimate ``int x dF0(x, inf)`` from a current status sample.

    Uses the identity ``E X = int_0^1 (1 - F0(x, inf)) dx`` with the
    distribution replaced by the singly-smoothed estimator at mark infinity
    and the Uniform time kernel, integrated by a composite midpoint rule on
    ``grid_points`` cells of [0, 1].  With the Uniform kernel the estimator
    at grid point ``x`` is the fraction of uncensored observations among
    those with ``|t_i - x| <= alpha``, which is computed for all grid points
    at once by binary search in the sorted censoring times, once among all
    of them and once among the uncensored ones.

    Grid points with no censoring time within ``alpha`` borrow the value of
    the nearest evaluable grid point (ties resolve to the left);
    ``fallback_count`` reports how many needed this.  If no grid point is
    evaluable, :class:`UnstableDenominatorError` is raised.
    """
    _check_bandwidth(alpha, "alpha")
    _check_count(grid_points, "grid_points", 1)
    ts = np.sort(s.t)
    tu = np.sort(s.t[s.delta == 1])
    x = (np.arange(grid_points) + 0.5) / grid_points
    left, right = x - alpha, x + alpha
    den = np.searchsorted(ts, right, "right") - np.searchsorted(ts, left, "left")
    good = den > 0
    if not np.any(good):
        raise UnstableDenominatorError(
            "no censoring times within the bandwidth of any grid point",
            g_value=0.0,
        )
    num = np.searchsorted(tu, right, "right") - np.searchsorted(tu, left, "left")
    fx = np.empty(grid_points)
    fx[good] = num[good] / den[good]
    fallback = int(np.count_nonzero(~good))
    if fallback:
        gi = np.flatnonzero(good)
        bi = np.flatnonzero(~good)
        pos = np.searchsorted(gi, bi)
        left = np.clip(pos - 1, 0, gi.size - 1)
        right = np.clip(pos, 0, gi.size - 1)
        nearest = np.where(
            np.abs(gi[right] - bi) < np.abs(bi - gi[left]),
            gi[right],
            gi[left],
        )
        fx[bi] = fx[nearest]
    return MeanFunctionalResult(
        value=float(np.mean(1.0 - fx)), fallback_count=fallback
    )


def true_mean_event_time(scenario: Scenario) -> float:
    """``E X = int (1 - F0(x, inf)) dx`` over the scenario's support."""
    from scipy import integrate

    lo, hi = scenario.support[0]
    val, _ = integrate.quad(
        lambda x: 1.0 - float(scenario.marginal_cdf(x)), lo, hi
    )
    return float(val)


def efficient_variance(scenario: Scenario) -> float:
    """Lower bound for the variance of root-n mean-functional estimates.

    Computes ``int F0(t, inf) (1 - F0(t, inf)) / g(t) dt`` over the
    censoring support by adaptive quadrature.  Scenarios whose integrand
    misbehaves enough that the quadrature cannot reach roughly eight
    accurate digits raise :class:`QuadratureError`.
    """
    from scipy import integrate

    lo, hi = scenario.support[0]

    def integrand(t: float) -> float:
        F = float(scenario.marginal_cdf(t))
        g = float(scenario.g(t))
        num = F * (1.0 - F)
        if num == 0.0:
            return 0.0
        if g <= 0.0:
            raise QuadratureError(
                f"censoring density vanishes at t={t!r} inside the support"
            )
        return num / g

    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            val, err = integrate.quad(integrand, lo, hi)
        except integrate.IntegrationWarning as exc:
            raise QuadratureError(f"quadrature did not converge: {exc}") from exc
    if not np.isfinite(val) or err > 1e-8 * max(1.0, abs(val)):
        raise QuadratureError(
            f"quadrature error {err:.3e} too large for value {val!r}"
        )
    return float(val)


def mc_functional(
    scenario: Scenario,
    n: int,
    m: int,
    *,
    alpha_exponent: float = 1.0 / 3.0,
    seed: int,
    grid_points: int = 2000,
    workers: int = 1,
) -> MonteCarloSummary:
    """Replicate ``sqrt(n) (mean_functional - E X)``.

    The time bandwidth is ``n^{-alpha_exponent}``; exponents above 1/4
    undersmooth enough for the centered statistic to stabilize at the
    efficient variance, while the pointwise-optimal 1/5 leaves a visible
    bias.  The summary's ``sigma2`` records :func:`efficient_variance`.
    Threads (``workers``, capped at the usable CPUs) share replications
    only when ``n >= 20_000``; results do not depend on ``workers``.
    """
    _check_count(grid_points, "grid_points", 1)
    truth = true_mean_event_time(scenario)
    alpha = float(n) ** -float(alpha_exponent)
    root_n = math.sqrt(n)

    # mean_functional is looked up at call time, where perfbench/tracing.py wraps it
    values, replicates, failures = _replicate(
        scenario, n, m, seed,
        lambda s: root_n * (mean_functional(s, alpha, grid_points).value - truth),
        workers,
    )
    return MonteCarloSummary(values, replicates, failures,
                             sigma2=efficient_variance(scenario))


def qq_points(summary: MonteCarloSummary) -> tuple[np.ndarray, np.ndarray]:
    """Normal quantiles versus ordered values for a QQ plot.

    The reference line is ``y = mu + x * sqrt(sigma2)`` with the summary's
    own parameters.
    """
    m = summary.values.size
    probs = (np.arange(1, m + 1) - 0.5) / m
    from scipy import stats

    return stats.norm.ppf(probs), np.sort(summary.values)
