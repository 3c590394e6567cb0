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
midpoint grid of 2000 cells; undersmoothing (time bandwidth shrinking faster
than ``n^{-1/4}``) recovers the root-n rate, and the limiting variance has the
closed form ``int F (1 - F) / g`` computed by :func:`efficient_variance`.
Both of the functional's integrals use the Gauss-Legendre rule of
:mod:`csmark.kernels`, and the KS distance the normal law through ``math.erf``.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (BandwidthRegimeError, InvalidBandwidthError, QuadratureError,
                     ReplicationFailureError, UnstableDenominatorError, _refused)
from .errors import (check_bandwidth, check_count, check_estimator, check_finite,
                     check_instance, check_mark_bandwidth, check_pair, check_size, check_sizes)
from .estimators import EstimatorConfig, f1, f2
from .kernels import UnivariateKernel, _quad, epanechnikov_kernel, l2_norm_sq, second_moment
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
]

MAX_FAILURE_FRACTION = 0.01
# midpoint cells of [0, 1] that mean_functional integrates over
_GRID_POINTS = 2000
# smaller samples replicate serially: threads there lose to the GIL (see _replicate)
_THREAD_MIN_ROWS = 20_000


def _decay(n: int, exponent: float, name: str) -> float:
    """``n ** -exponent``; a power that overflows, or underflows to 0,
    raises :class:`InvalidBandwidthError` naming the exponent ``name``."""
    try:
        power = float(n) ** -float(exponent)
    except OverflowError:
        power = math.inf
    if 0.0 < power < math.inf:
        return power
    way = "overflow" if power else "underflow"
    raise InvalidBandwidthError(f"{name} = {exponent!r} makes n ** -{name} {way} at n = {n}")


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
        check_bandwidth(self.c1, "c1")
        if (self.c2 is None) != (self.beta_exponent is None):
            raise InvalidBandwidthError("c2 and beta_exponent must be given together")
        if self.c2 is not None:  # and so beta_exponent
            check_bandwidth(self.c2, "c2")
            check_finite(self.beta_exponent, "beta_exponent", InvalidBandwidthError)

    def alpha(self, n: int) -> float:
        return self.c1 * float(n) ** -0.2

    def beta(self, n: int) -> float | None:
        if self.c2 is None:
            return None
        return self.c2 * _decay(n, self.beta_exponent, "beta_exponent")


def _check_schedule(value, marked: bool = True) -> float | None:
    """The rule on a ``schedule``, kept with its class: a
    :class:`BandwidthSchedule`, with ``marked`` one with a mark bandwidth;
    its mark exponent."""
    check_instance(value, "schedule", BandwidthSchedule, InvalidBandwidthError)
    if marked and value.beta_exponent is None:
        raise _refused(InvalidBandwidthError, "schedule",
                       "one with a mark bandwidth (c2, beta_exponent)", value)
    return value.beta_exponent


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
        Interior evaluation point with ``g(t0) > 0``, refused as
        :func:`~csmark.errors.check_pair` refuses one; ``z0 = inf`` gives
        the constants of the marginal in ``t``.
    c : float
        Bandwidth constant in ``alpha = c n^{-1/5}``.
    kernel : UnivariateKernel
        The time-direction kernel.
    """
    check_instance(scenario, "scenario", Scenario)
    check_instance(kernel, "kernel", UnivariateKernel)
    check_bandwidth(c, "c")
    t0, z0 = check_pair(point)
    g0 = float(scenario.g(t0))
    if g0 <= 0.0:
        raise UnstableDenominatorError(f"censoring density vanishes at t0={t0!r}", g_value=g0)
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
    exponent = _check_schedule(schedule)
    base = mu1_sigma2(scenario, point, schedule.c1, kernel)
    # an exponent written as, say, 0.3 - 0.1 misses 1/5 by an ulp
    critical = math.isclose(exponent, 0.2, abs_tol=1e-9)
    if not critical and exponent < 0.2:
        raise BandwidthRegimeError(f"mark bandwidth exponent {exponent!r} below 1/5: "
                                   "standardized bias diverges")
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
        """KS distance of the values from N(mu, sigma2); None if unset or degenerate."""
        if self.mu is None or self.sigma2 is None or self.sigma2 == 0.0:
            return None
        mu, scale = float(self.mu), math.sqrt(self.sigma2) * math.sqrt(2.0)
        n = self.values.size
        # the normal cdf as statistics.NormalDist(mu, sigma).cdf evaluates it
        F = np.fromiter((0.5 * (1.0 + math.erf((x - mu) / scale))
                         for x in np.sort(self.values).tolist()), float, count=n)
        i = np.arange(1, n + 1)
        return float(np.max(np.maximum(i / n - F, F - (i - 1) / n)))


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
    its seed.  From ``_THREAD_MIN_ROWS`` rows on, the calling thread
    replicates beside ``min(workers, m, usable CPUs) - 1`` helper threads,
    all started first, each taking the next replication index in turn;
    below that, threads mostly trade the GIL between short numpy calls and
    lose.  Values are kept in replication order, so the output is bitwise
    identical for any ``workers``.  Once a replication raises, no further
    index is handed out; the ones running finish, every helper is joined,
    and the exception of the lowest index is raised: the one a serial run
    raises, since every lower index was handed out before it.  Sizes and
    counts out of range are refused before any sample is drawn.
    """
    check_size(n, "n")
    check_count(m, "m", 2, bounded=True)
    check_count(seed, "seed", 0)
    check_count(workers, "workers", 1)

    def one(r: int) -> float:
        try:
            value = statistic(sample(scenario, n, seed + r))
        except UnstableDenominatorError:
            return math.nan  # marks a failed replication
        if math.isnan(value):
            raise RuntimeError(f"the statistic is NaN at seed {seed + r}")
        return value

    raw = np.empty(m)
    lock = threading.Lock()
    next_r = 0  # the next index to hand out; m once hand-out stops
    errors: dict[int, BaseException] = {}

    def work() -> None:
        nonlocal next_r
        while True:
            with lock:
                r = next_r
                if r == m:
                    return
                next_r = r + 1
            try:
                raw[r] = one(r)
            except BaseException as exc:  # raised again by the calling thread
                with lock:
                    errors[r] = exc
                    next_r = m
                return

    threads = min(workers, m, _usable_cpus()) if n >= _THREAD_MIN_ROWS else 1
    helpers = [threading.Thread(target=work) for _ in range(threads - 1)]
    for helper in helpers:
        helper.start()
    try:
        work()
    finally:
        with lock:
            next_r = m
        for helper in helpers:
            helper.join()
    if errors:
        raise errors.pop(min(errors))
    replicates = np.flatnonzero(~np.isnan(raw))
    failures = m - replicates.size
    if failures > MAX_FAILURE_FRACTION * m:
        raise ReplicationFailureError(
            f"{failures} of {m} replications failed (> {MAX_FAILURE_FRACTION:.0%})"
        )
    return raw[replicates], replicates, failures


def _resolve_config(estimator: str, alpha: float, beta: float | None) -> EstimatorConfig:
    """The Epanechnikov config of every driver, with these bandwidths; F2
    needs ``beta``."""
    check_estimator(estimator)
    check_mark_bandwidth(beta, "beta", estimator)
    return EstimatorConfig(epanechnikov_kernel(), alpha, beta)


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
    used).  The kernel is Epanechnikov, in time and, for F2, in mark, and
    the reference law takes its constants.  More than 1% failed
    replications raise :class:`ReplicationFailureError`.
    Threads (``workers``, capped at the usable CPUs) share replications
    only when ``n >= 20_000``; results do not depend on ``workers``.  A
    point or regime the reference law refuses is refused before any draw.
    """
    check_instance(scenario, "scenario", Scenario)
    check_count(m, "m", 2, bounded=True)
    check_size(n, "n")
    if schedule is not None:
        if alpha is not None or beta is not None:
            raise InvalidBandwidthError("pass either fixed bandwidths or a schedule, not both")
        # F1 takes any schedule; F2 smooths the mark with the schedule's beta
        _check_schedule(schedule, marked=estimator == "F2")
        alpha, beta = schedule.alpha(n), schedule.beta(n)
    if alpha is None:
        raise InvalidBandwidthError("a time bandwidth is required")
    # estimator and bandwidth errors first
    kt = _resolve_config(estimator, alpha, beta).kernel_t
    c = alpha * float(n) ** 0.2
    params = mu1_sigma2(scenario, point, c, kt)
    mu = params.mu1
    if estimator == "F2" and schedule is not None:
        mu = mu2(scenario, point, schedule, kt)
    errors = mc_mse(scenario, estimator, point, n, m,
                    alpha=alpha, beta=beta, seed=seed, workers=workers)
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
    workers: int = 1,
) -> MonteCarloSummary:
    """Monte Carlo mean squared error of an estimator at fixed bandwidths.

    Replication ``r`` uses seed ``seed + r``; ``values`` holds the raw
    (unstandardized) errors ``estimate - F0(point)`` of the successful
    replications, so the summary's ``mse`` is their mean square and
    ``mse_se`` its sampling standard error.  The kernel is Epanechnikov,
    in time and, for F2, in mark.  An F2 without ``beta`` and a point that
    is not a pair of numbers are refused before any sample is drawn.
    Threads (``workers``, capped at the usable CPUs) share replications
    only when ``n >= 20_000``; results do not depend on ``workers``.
    """
    check_instance(scenario, "scenario", Scenario)
    check_count(replications, "replications", 2, bounded=True)
    config = _resolve_config(estimator, alpha, beta)
    t0, z0 = check_pair(point)  # before any sample is drawn
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


def _scaled_difference(
    point: tuple[float, float], n: int, schedule: BandwidthSchedule
) -> Callable[[Sample], float]:
    """The statistic ``n^{2/5} (f2 - f1)`` at ``point`` of a sample of size
    ``n``, both estimators with the Epanechnikov kernel and the schedule's
    bandwidths at ``n``, which are checked here."""
    config = _resolve_config("F2", schedule.alpha(n), schedule.beta(n))
    t0, z0 = check_pair(point)
    rate = float(n) ** 0.4
    return lambda s: rate * (f2(s, config, t0, z0) - f1(s, config, t0, z0))


def equivalence_curve(
    scenario: Scenario,
    point: tuple[float, float],
    n_grid: np.ndarray,
    schedule: BandwidthSchedule,
    *,
    seed: int,
) -> EquivalenceCurve:
    """One realization of the scaled difference per grid sample size.

    Entry ``i`` draws a sample of size ``n_grid[i]`` with seed ``seed + i``
    and records ``n^{2/5} (f2 - f1)`` at ``point`` next to the reference
    envelope ``1.5 n^{-1/6}``; when the mark bandwidth shrinks faster than
    ``n^{-1/5}`` the differences should sit inside the envelope for most
    sizes.  Both estimators use the Epanechnikov kernel, F2 in time and
    mark.  A schedule without a mark bandwidth, an ``n_grid`` that is not a
    list of sizes, a point no estimate is defined at and an entry the
    schedule gives no valid bandwidths are refused before any draw.
    """
    _check_schedule(schedule)
    n_grid = check_sizes(n_grid, "n_grid")
    # every entry's bandwidths, and the point, are checked before the first draw
    sizes = n_grid.tolist()
    scaled = [_scaled_difference(point, n, schedule) for n in sizes]
    diffs = np.array([statistic(sample(scenario, n, seed + i))
                      for i, (n, statistic) in enumerate(zip(sizes, scaled))])
    # scalar powers, libm's pow: numpy's array power may take SIMD code that
    # rounds otherwise, depending on the CPU
    envelopes = np.array([1.5 * float(n) ** (-1.0 / 6.0) for n in sizes])
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
    to ``mu2 - mu1``; the summary's ``mu`` records that reference value,
    computed before any sample is drawn.  Both estimators use the
    Epanechnikov kernel, F2 in time and mark.
    Threads (``workers``, capped at the usable CPUs) share replications
    only when ``n >= 20_000``; results do not depend on ``workers``.
    """
    check_instance(scenario, "scenario", Scenario)
    check_size(n, "n")
    _check_schedule(schedule)
    statistic = _scaled_difference(point, n, schedule)
    kt = epanechnikov_kernel()
    base = mu1_sigma2(scenario, point, schedule.c1, kt)
    shift = mu2(scenario, point, schedule, kt) - base.mu1
    values, replicates, failures = _replicate(scenario, n, m, seed, statistic, workers)
    return MonteCarloSummary(values, replicates, failures, mu=shift)


@dataclass(frozen=True)
class MeanFunctionalResult:
    """Mean-functional estimate plus grid diagnostics."""

    value: float
    fallback_count: int


def mean_functional(s: Sample, alpha: float) -> MeanFunctionalResult:
    """Estimate ``int x dF0(x, inf)`` from a current status sample.

    Uses the identity ``E X = int_0^1 (1 - F0(x, inf)) dx`` with the
    distribution replaced by the singly-smoothed estimator at mark infinity
    and the Uniform time kernel, integrated by a composite midpoint rule on
    2000 cells of [0, 1].  With the Uniform kernel the estimator at grid
    point ``x`` is the fraction of uncensored observations among those with
    ``|t_i - x| <= alpha``, which is computed for all grid points at once by
    binary search in the sorted censoring times, the uncensored ones counted
    by a running sum over them.

    Grid points with no censoring time within ``alpha`` borrow the value of
    the nearest evaluable grid point (ties resolve to the left);
    ``fallback_count`` reports how many needed this.  If no grid point is
    evaluable, :class:`UnstableDenominatorError` is raised.
    """
    check_instance(s, "s", Sample)
    check_bandwidth(alpha, "alpha")
    order = np.argsort(s.t)
    ts = s.t[order]
    uncensored = np.zeros(ts.size + 1, dtype=np.int64)  # [k]: those among ts[:k]
    np.cumsum(s.delta[order], out=uncensored[1:])
    x = (np.arange(_GRID_POINTS) + 0.5) / _GRID_POINTS
    left, right = x - alpha, x + alpha
    hi, lo = np.searchsorted(ts, right, "right"), np.searchsorted(ts, left, "left")
    den = hi - lo
    good = den > 0
    if not np.any(good):
        raise UnstableDenominatorError(
            "no censoring times within the bandwidth of any grid point",
            g_value=0.0,
        )
    num = uncensored[hi] - uncensored[lo]
    fx = np.empty(_GRID_POINTS)
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
    check_instance(scenario, "scenario", Scenario)
    lo, hi = scenario.support[0]
    return _quad(lambda x: 1.0 - scenario.cdf(x, np.inf), lo, hi)[0]


def efficient_variance(scenario: Scenario) -> float:
    """Lower bound for the variance of root-n mean-functional estimates.

    Computes ``int F0(t, inf) (1 - F0(t, inf)) / g(t) dt`` over the
    censoring support by Gauss-Legendre quadrature.  A value that is not
    finite, an error estimate above ``1e-8 max(1, |value|)``, or a node
    where ``g <= 0`` but ``F0 (1 - F0) != 0`` raises :class:`QuadratureError`.
    """
    check_instance(scenario, "scenario", Scenario)
    lo, hi = scenario.support[0]

    def integrand(t: np.ndarray) -> np.ndarray:
        F, g = scenario.cdf(t, np.inf), scenario.g(t)
        num = F * (1.0 - F)
        vanishing = t[(num != 0.0) & (g <= 0.0)]
        if vanishing.size:
            raise QuadratureError(f"censoring density vanishes at t={float(vanishing[0])!r} "
                                  "inside the support")
        return np.divide(num, g, out=np.zeros_like(num), where=num != 0.0)

    val, err = _quad(integrand, lo, hi)
    if not (np.isfinite(val) and err <= 1e-8 * max(1.0, abs(val))):
        raise QuadratureError(
            f"quadrature error {err:.3e} too large for value {val!r}"
        )
    return val


def mc_functional(
    scenario: Scenario,
    n: int,
    m: int,
    *,
    alpha_exponent: float = 1.0 / 3.0,
    seed: int,
    workers: int = 1,
) -> MonteCarloSummary:
    """Replicate ``sqrt(n) (mean_functional - E X)``.

    The time bandwidth is ``n^{-alpha_exponent}``; exponents above 1/4
    undersmooth enough for the centered statistic to stabilize at the
    efficient variance, while the pointwise-optimal 1/5 leaves a visible
    bias.  :func:`mean_functional` integrates over its fixed grid of 2000
    midpoint cells.  The summary's ``sigma2`` records
    :func:`efficient_variance`, computed before any sample is drawn.
    Threads (``workers``, capped at the usable CPUs) share replications
    only when ``n >= 20_000``; results do not depend on ``workers``.
    """
    check_instance(scenario, "scenario", Scenario)
    check_size(n, "n")
    check_finite(alpha_exponent, "alpha_exponent", InvalidBandwidthError)
    alpha = _decay(n, alpha_exponent, "alpha_exponent")
    check_bandwidth(alpha, "alpha")  # before any sample is drawn
    truth = true_mean_event_time(scenario)
    variance = efficient_variance(scenario)
    root_n = math.sqrt(n)

    # mean_functional is looked up at call time, where perfbench/tracing.py wraps it
    values, replicates, failures = _replicate(
        scenario, n, m, seed,
        lambda s: root_n * (mean_functional(s, alpha).value - truth),
        workers,
    )
    return MonteCarloSummary(values, replicates, failures, sigma2=variance)
