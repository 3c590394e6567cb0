"""Limit-law constants, Monte Carlo drivers, and the mean functional."""

from __future__ import annotations

import dataclasses
import inspect
import math
import os
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csmark import (
    BandwidthRegimeError,
    BandwidthSchedule,
    BootstrapPlan,
    EstimatorConfig,
    Bandwidths,
    InvalidBandwidthError,
    MonteCarloSummary,
    PilotModel,
    QuadratureError,
    ReplicationFailureError,
    Sample,
    SupportError,
    UnstableDenominatorError,
    bootstrap_mse,
    difference_sample,
    efficient_variance,
    epanechnikov_kernel,
    equivalence_curve,
    eval_rescaled,
    f1_counting,
    fit_pilot,
    mc_functional,
    mc_mse,
    mc_normality,
    mean_functional,
    mu1_sigma2,
    mu2,
    sample,
    scenario_a,
    scenario_b,
    true_mean_event_time,
    uniform_kernel,
    validate_conditions,
)
import csmark
from csmark import asymptotics
from csmark.asymptotics import _replicate

B = scenario_b()
EPA = epanechnikov_kernel()


def fd_bracket(scenario, t0, z0):
    """Bias bracket recomputed from the distribution function alone."""
    h1, h2 = 1e-6, 1e-4
    d1 = (float(scenario.cdf(t0 + h1, z0)) - float(scenario.cdf(t0 - h1, z0))) / (
        2 * h1
    )
    d11 = (
        float(scenario.cdf(t0 + h2, z0))
        - 2 * float(scenario.cdf(t0, z0))
        + float(scenario.cdf(t0 - h2, z0))
    ) / (h2 * h2)
    g = float(scenario.g(t0))
    return d11 + 2.0 * float(scenario.g_prime(t0)) * d1 / g


def test_limit_constants_at_reference_point():
    c = 0.09 * 5000.0**0.2
    params = mu1_sigma2(B, (0.5, 0.5), c, EPA)
    assert params.mu1 == pytest.approx(0.048876828, abs=1e-6)
    assert params.sigma2 == pytest.approx(0.13274947, abs=1e-6)
    assert not params.degenerate_bias

    # independent reconstruction from finite differences of the cdf
    mu1_fd = 0.5 * c * c * 0.2 * fd_bracket(B, 0.5, 0.5)
    assert abs(params.mu1 - mu1_fd) < 1e-5
    F = float(B.cdf(0.5, 0.5))
    sigma2_direct = F * (1 - F) / float(B.g(0.5)) * 0.6 / c
    assert abs(params.sigma2 - sigma2_direct) < 1e-9


def test_degenerate_bias_flag():
    params = mu1_sigma2(scenario_a(), (0.3, 0.6), 0.5, EPA)
    assert params.mu1 == 0.0
    assert params.degenerate_bias
    assert not mu1_sigma2(B, (0.4, 0.4), 0.5, EPA).degenerate_bias


def test_mu1_domain_errors():
    with pytest.raises(InvalidBandwidthError):
        mu1_sigma2(B, (0.5, 0.5), 0.0, EPA)
    with pytest.raises(InvalidBandwidthError):
        mu1_sigma2(B, (0.5, 0.5), -1.0, EPA)
    for c in (math.nan, math.inf):
        with pytest.raises(InvalidBandwidthError):
            mu1_sigma2(B, (0.5, 0.5), c, EPA)
    with pytest.raises(UnstableDenominatorError):
        mu1_sigma2(B, (0.0, 0.5), 0.5, EPA)  # g(0) = 0 in scenario B
    critical = BandwidthSchedule(c1=0.5, c2=0.5, beta_exponent=0.2)
    for point in ((0.5, math.nan), (math.nan, 0.5), (math.inf, 0.5)):
        with pytest.raises(SupportError):
            mu1_sigma2(B, point, 0.5, EPA)
        with pytest.raises(SupportError):
            mu2(B, point, critical, EPA)
    # z0 = inf is the marginal in t: F0 = 0.5 and a flat bracket at t0 = 0.5
    marginal = mu1_sigma2(B, (0.5, math.inf), 0.5, EPA)
    assert (marginal.mu1, marginal.sigma2) == (0.125, 0.28125)
    assert mu2(B, (0.5, math.inf), critical, EPA) == 0.125


def test_mu2_regimes():
    point = (0.5, 0.5)
    critical = BandwidthSchedule(c1=0.5, c2=0.5, beta_exponent=0.2)
    base = mu1_sigma2(B, point, 0.5, EPA).mu1
    # increment = c2^2/2 * m2 * d22 F0 = 0.125 * 0.2 * 0.5
    assert mu2(B, point, critical, EPA) - base == pytest.approx(0.0125, abs=1e-10)
    # the increment takes the time kernel's m2: 1/3 for the uniform kernel
    uni = uniform_kernel()
    increment = mu2(B, point, critical, uni) - mu1_sigma2(B, point, 0.5, uni).mu1
    assert increment == pytest.approx(0.125 / 6.0, abs=1e-10)
    # 0.3 - 0.1 is 0.19999999999999998, one ulp below 1/5
    rounded = BandwidthSchedule(c1=0.5, c2=0.5, beta_exponent=0.3 - 0.1)
    assert mu2(B, point, rounded, EPA) == mu2(B, point, critical, EPA)

    for exponent in (1.0 / 3.0, 0.2 + 1e-3):
        fast = BandwidthSchedule(c1=0.5, c2=0.5, beta_exponent=exponent)
        assert mu2(B, point, fast, EPA) == base

    for exponent in (0.1, 0.2 - 1e-3):
        slow = BandwidthSchedule(c1=0.5, c2=0.5, beta_exponent=exponent)
        with pytest.raises(BandwidthRegimeError):
            mu2(B, point, slow, EPA)

    no_mark = BandwidthSchedule(c1=0.5)
    with pytest.raises(InvalidBandwidthError):
        mu2(B, point, no_mark, EPA)


def test_bandwidth_schedule_values_and_validation():
    sched = BandwidthSchedule(c1=0.7, c2=0.5, beta_exponent=0.5)
    assert sched.alpha(1024) == pytest.approx(0.175, rel=1e-12)
    assert sched.beta(1024) == pytest.approx(0.015625, rel=1e-12)
    assert BandwidthSchedule(c1=0.7).beta(1024) is None
    with pytest.raises(InvalidBandwidthError):
        BandwidthSchedule(c1=0.0)
    with pytest.raises(InvalidBandwidthError):
        BandwidthSchedule(c1=0.5, c2=0.5)
    with pytest.raises(InvalidBandwidthError):
        BandwidthSchedule(c1=0.5, beta_exponent=0.2)
    with pytest.raises(InvalidBandwidthError):
        BandwidthSchedule(c1=0.5, c2=-0.1, beta_exponent=0.2)


def test_bandwidth_schedule_rejects_non_finite_constants(monkeypatch):
    for bad in (math.nan, math.inf):
        with pytest.raises(InvalidBandwidthError):
            BandwidthSchedule(c1=bad)
        with pytest.raises(InvalidBandwidthError):
            BandwidthSchedule(c1=0.5, c2=bad, beta_exponent=0.2)
    # a bool or a string is not an exponent, as it is not a bandwidth
    for bad in (math.nan, math.inf, True, np.True_, "0.2", 10**400):
        with pytest.raises(InvalidBandwidthError, match="^beta_exponent must be a finite number"):
            BandwidthSchedule(c1=0.5, c2=0.5, beta_exponent=bad)
    # a finite exponent whose power n^-beta_exponent overflows, refused by
    # every driver before its first draw
    monkeypatch.setattr(asymptotics, "sample", lambda *args: pytest.fail("a sample was drawn"))
    overflow = "^beta_exponent = -1000 makes n \\*\\* -beta_exponent overflow at n = 100$"
    with pytest.raises(InvalidBandwidthError, match=overflow):
        BandwidthSchedule(1, 1, -1000).beta(100)
    with pytest.raises(InvalidBandwidthError, match=overflow):
        mc_normality(B, "F2", (0.5, 0.5), 100, 3, seed=0,
                     schedule=BandwidthSchedule(1, 1, -1000))
    with pytest.raises(InvalidBandwidthError, match=overflow):
        difference_sample(B, (0.5, 0.5), 100, 3, BandwidthSchedule(1, 1, -1000), seed=0)
    with pytest.raises(InvalidBandwidthError, match="^beta_exponent .* at n = 200000$"):
        equivalence_curve(B, (0.5, 0.5), [400, 200_000], BandwidthSchedule(1, 1, -60),
                          seed=0)


def test_mc_normality_plumbing():
    summary = mc_normality(B, "F1", (0.5, 0.5), 300, 8, seed=123, alpha=0.25)
    assert summary.values.size == 8
    assert summary.failures == 0
    assert np.isfinite(summary.ks_distance)
    assert summary.mu is not None and summary.sigma2 is not None
    assert summary.mse is not None and summary.mse_se is not None

    with pytest.raises(ValueError):
        mc_normality(B, "F1", (0.5, 0.5), 300, 1, seed=1, alpha=0.25)
    with pytest.raises(ValueError):
        mc_normality(B, "F3", (0.5, 0.5), 300, 4, seed=1, alpha=0.25)
    with pytest.raises(InvalidBandwidthError):
        mc_normality(B, "F1", (0.5, 0.5), 300, 4, seed=1)
    with pytest.raises(InvalidBandwidthError):
        mc_normality(
            B,
            "F1",
            (0.5, 0.5),
            300,
            4,
            seed=1,
            alpha=0.2,
            schedule=BandwidthSchedule(c1=0.5),
        )


def test_mc_normality_scales_the_mc_mse_errors():
    schedule = BandwidthSchedule(0.5, 0.3, 0.2)
    summary = mc_normality(B, "F2", (0.5, 0.5), 400, 6, seed=9, schedule=schedule)
    errors = mc_mse(B, "F2", (0.5, 0.5), 400, 6, seed=9,
                    alpha=schedule.alpha(400), beta=schedule.beta(400))
    assert summary.values.tobytes() == (400.0**0.4 * errors.values).tobytes()
    assert summary.replicates.tolist() == errors.replicates.tolist()
    assert summary.mu == mu2(B, (0.5, 0.5), schedule, EPA)
    # the derived statistics, recomputed from the values
    for run in (errors, summary):
        sq = run.values**2
        assert run.mse == float(np.mean(sq))
        assert run.mse_se == float(np.std(sq, ddof=1) / math.sqrt(sq.size))
    stats = pytest.importorskip("scipy.stats")  # the KS distance's oracle
    ks = stats.kstest(summary.values, "norm", args=(summary.mu, math.sqrt(summary.sigma2)))
    assert summary.ks_distance == float(ks.statistic)
    assert errors.ks_distance is None
    # a degenerate law (F0 in {0, 1}) has no KS distance either
    assert dataclasses.replace(summary, sigma2=0.0).ks_distance is None


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=500),
       st.floats(-10.0, 10.0), st.floats(1e-3, 1e2))
def test_ks_distance_matches_scipy(values, mu, sigma):
    """The KS distance from the standard library's normal law agrees with
    scipy's one-sample test to within 4e-16."""
    stats = pytest.importorskip("scipy.stats")
    values = np.array(values)
    summary = MonteCarloSummary(values, np.arange(values.size), 0, mu=mu,
                                sigma2=sigma * sigma)
    oracle = stats.kstest(values, "norm", args=(mu, math.sqrt(sigma * sigma)))
    assert abs(summary.ks_distance - oracle.statistic) <= 4e-16


def test_driver_and_bootstrap_parameters_are_pinned():
    """Kernels, g_floor, the box, the envelope safety, the equivalence
    envelope's constant and the mean functional's grid are fixed, not options."""
    expected = {
        mc_normality: "scenario estimator point n m seed alpha beta schedule workers",
        mc_mse: "scenario estimator point n replications alpha beta seed workers",
        equivalence_curve: "scenario point n_grid schedule seed",
        difference_sample: "scenario point n m schedule seed workers",
        mean_functional: "s alpha",
        mc_functional: "scenario n m alpha_exponent seed workers",
        bootstrap_mse: "sample_ plan true_value",
        fit_pilot: "sample_ alpha0 beta0",
        PilotModel: "sample_ config",
        EstimatorConfig: "kernel_t bandwidths g_floor",
        mu2: "scenario point schedule kernel",
        validate_conditions: "kernel_t kernel_mark",
        sample: "scenario n seed",
    }
    for fn, names in expected.items():
        assert list(inspect.signature(fn).parameters) == names.split(), fn.__name__
    fields = [f.name for f in dataclasses.fields(MonteCarloSummary)]
    assert fields == "values replicates failures mu sigma2".split()


def test_public_names_are_pinned():
    """The package exports these names and no others, and each resolves."""
    assert sorted(csmark.__all__) == [
        "AsymptoticParams", "BandwidthRegimeError", "BandwidthSchedule", "Bandwidths",
        "BootstrapMseTable", "BootstrapPlan", "CsmarkError", "DegeneratePilotError",
        "DerivativeUnavailableError", "EmptySampleError", "EquivalenceCurve",
        "EstimatorConfig", "InvalidBandwidthError", "KernelAssumptionError",
        "KernelValidationReport", "MeanFunctionalResult", "MonteCarloSummary",
        "MseRow", "PilotModel", "QuadratureError", "ReplicationFailureError",
        "Sample", "Scenario", "SelectionError", "SupportError", "UnivariateKernel",
        "UnstableDenominatorError", "__version__", "bootstrap_mse", "custom_kernel",
        "difference_sample", "efficient_variance", "epanechnikov_kernel",
        "equivalence_curve", "eval_rescaled", "eval_rescaled_cdf", "evaluate_grid",
        "f1", "f1_counting", "f2", "f2_density", "fit_pilot", "l2_norm_sq",
        "mc_functional", "mc_mse", "mc_normality", "mean_functional", "mu1_sigma2",
        "mu2", "sample", "scenario_a", "scenario_b", "second_moment", "select",
        "true_mean_event_time", "uniform_kernel", "validate_conditions", "write_grid_csv",
    ]
    for name in csmark.__all__:
        assert getattr(csmark, name) is not None, name


def test_finite_positive_checks_name_their_parameter():
    """Bandwidths and the constants that scale them share one check, whose
    message names the parameter; g_floor keeps raising a plain ValueError."""
    s = sample(B, 50, 1)
    schedule = BandwidthSchedule(0.5, 0.5, 0.3)
    plan = dict(alpha0=0.4, beta0=0.4, replications=2, alpha_grid=(0.2,),
                beta_grid=(0.2,), point=(0.5, 0.5), seed=1)
    cases = [
        ("alpha", InvalidBandwidthError, lambda: Bandwidths(-0.1)),
        # a bool is not a bandwidth, nor is a string, even of a number
        ("alpha", InvalidBandwidthError, lambda: Bandwidths(True)),
        ("alpha", InvalidBandwidthError, lambda: Bandwidths(np.True_)),
        ("alpha", InvalidBandwidthError, lambda: Bandwidths("0.1")),
        ("c1", InvalidBandwidthError, lambda: BandwidthSchedule(True)),
        ("c", InvalidBandwidthError, lambda: mu1_sigma2(B, (0.5, 0.5), True, EPA)),
        ("alpha_grid", InvalidBandwidthError,
         lambda: BootstrapPlan(**{**plan, "alpha_grid": (True,)})),
        ("beta_grid", InvalidBandwidthError,
         lambda: BootstrapPlan(**{**plan, "beta_grid": (0.2, np.True_)})),
        ("g_floor", ValueError, lambda: EstimatorConfig(g_floor="0.1")),
        ("bandwidth", InvalidBandwidthError,
         lambda: eval_rescaled(EPA, np.array([True, True]), [0.1, 0.2])),
        ("bandwidth", InvalidBandwidthError,
         lambda: eval_rescaled(EPA, np.array(["0.1"]), [0.1])),
        ("beta", InvalidBandwidthError, lambda: Bandwidths(0.1, math.nan)),
        ("c1", InvalidBandwidthError, lambda: BandwidthSchedule(0.0)),
        ("c2", InvalidBandwidthError, lambda: BandwidthSchedule(0.5, -1.0, 0.3)),
        ("c", InvalidBandwidthError, lambda: mu1_sigma2(B, (0.5, 0.5), math.inf, EPA)),
        ("alpha", InvalidBandwidthError, lambda: mean_functional(s, -0.1)),
        ("alpha0", InvalidBandwidthError,
         lambda: BootstrapPlan(**{**plan, "alpha0": 0})),
        ("beta0", InvalidBandwidthError,
         lambda: BootstrapPlan(**{**plan, "beta0": math.inf})),
        ("alpha_grid", InvalidBandwidthError,
         lambda: BootstrapPlan(**{**plan, "alpha_grid": (0.2, -0.1)})),
        ("beta_grid", InvalidBandwidthError,
         lambda: BootstrapPlan(**{**plan, "beta_grid": (math.nan,)})),
        ("g_floor", ValueError, lambda: EstimatorConfig(g_floor=0.0)),
        # a Python int too large for a float is no number either
        ("alpha", InvalidBandwidthError, lambda: Bandwidths(10**400)),
        ("alpha0", InvalidBandwidthError,
         lambda: BootstrapPlan(**{**plan, "alpha0": 10**400})),
        ("c", InvalidBandwidthError, lambda: mu1_sigma2(B, (0.5, 0.5), 10**400, EPA)),
        ("alpha", InvalidBandwidthError, lambda: mean_functional(s, 10**400)),
        ("g_floor", ValueError, lambda: EstimatorConfig(g_floor=10**400)),
    ]
    for name, error, call in cases:
        with pytest.raises(ValueError) as exc:
            call()
        assert type(exc.value) is error, name
        assert str(exc.value).startswith(f"{name} must be finite and positive, got ")


def test_mc_functional_refuses_its_bandwidth_before_any_sample_is_drawn(monkeypatch):
    drawn = []
    monkeypatch.setattr(asymptotics, "sample", lambda *args: drawn.append(args))
    for exponent in (math.nan, math.inf, -math.inf, True, "0.3", 10**400):
        with pytest.raises(InvalidBandwidthError, match="^alpha_exponent must be a finite number"):
            mc_functional(B, 100, 3, seed=0, alpha_exponent=exponent)
    # a finite exponent whose bandwidth n^-exponent underflows to 0
    with pytest.raises(InvalidBandwidthError, match="^alpha must be finite and pos"):
        mc_functional(B, 100, 3, seed=0, alpha_exponent=1000)
    # and one whose power overflows
    with pytest.raises(InvalidBandwidthError, match="^alpha_exponent = -1000 makes n"):
        mc_functional(B, 100, 3, seed=0, alpha_exponent=-1000)
    assert drawn == []


def test_counts_are_checked_before_any_sample_is_drawn(monkeypatch):
    """Sizes, seeds, and replication and worker counts share one check, whose ValueError names the parameter; the drivers make it before
    they draw a sample."""
    s = sample(B, 50, 1)
    schedule = BandwidthSchedule(0.5, 0.5, 0.3)
    plan = dict(alpha0=0.4, beta0=0.4, replications=2.5, alpha_grid=(0.2,),
                beta_grid=(0.2,), point=(0.5, 0.5), seed=1)
    mse = dict(scenario=B, estimator="F1", point=(0.5, 0.5), n=100, replications=4,
               alpha=0.2, seed=0)

    def no_draws(*args):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(asymptotics, "sample", no_draws)
    cases = [
        ("n", lambda: sample(B, 2.5, 0)),
        ("n", lambda: sample(B, True, 0)),
        ("seed", lambda: sample(B, 10, -1)),
        ("replications", lambda: mc_mse(**{**mse, "replications": 2.5})),
        ("seed", lambda: mc_mse(**{**mse, "seed": -1})),
        ("workers", lambda: mc_mse(**{**mse, "n": 30_000, "workers": 0})),
        ("m", lambda: mc_normality(B, "F1", (0.5, 0.5), 100, 2.5, seed=0, alpha=0.2)),
        ("m", lambda: difference_sample(B, (0.5, 0.5), 100, 2.5, schedule, seed=0)),
        # n is checked before the schedule is evaluated at it
        ("n", lambda: difference_sample(B, (0.5, 0.5), 0, 10, schedule, seed=0)),
        ("n", lambda: difference_sample(B, (0.5, 0.5), -3, 10, schedule, seed=0)),
        ("n", lambda: mc_functional(B, 0, 3, seed=0)),
        ("n", lambda: mc_functional(B, -5, 3, seed=0)),
        ("replications", lambda: BootstrapPlan(**plan)),
    ]
    for name, call in cases:
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value).startswith(f"{name} must be an integer >= "), name
    with pytest.raises(InvalidBandwidthError):
        BootstrapPlan(**plan)
    # the reference law is refused before the replications, not after them,
    # and so is an F2 without a mark bandwidth
    slow = BandwidthSchedule(0.5, 0.5, 0.1)
    no_beta = BandwidthSchedule(0.5)
    vanishing_g = dataclasses.replace(B, g=lambda t: 3.0 * np.asarray(t, dtype=float) ** 2)
    refused = [
        (InvalidBandwidthError, lambda: mc_mse(**{**mse, "estimator": "F2"})),
        (InvalidBandwidthError,
         lambda: mc_normality(B, "F2", (0.5, 0.5), 100, 20, seed=0, alpha=0.2)),
        (InvalidBandwidthError,
         lambda: mc_normality(B, "F2", (0.5, 0.5), 100, 20, seed=0, schedule=no_beta)),
        (InvalidBandwidthError, lambda: difference_sample(B, (0.5, 0.5), 100, 20, no_beta, seed=0)),
        (BandwidthRegimeError,
         lambda: mc_normality(B, "F2", (0.5, 0.5), 100, 20, seed=0, schedule=slow)),
        (BandwidthRegimeError, lambda: difference_sample(B, (0.5, 0.5), 100, 20, slow, seed=0)),
        (UnstableDenominatorError,  # g(0) = 0
         lambda: mc_normality(B, "F1", (0.0, 0.5), 100, 20, seed=0, alpha=0.2)),
        (QuadratureError, lambda: mc_functional(vanishing_g, 100, 20, seed=0)),
    ]
    for error, call in refused:
        with pytest.raises(error):
            call()


def test_mc_normality_moments_track_the_limit():
    summary = mc_normality(B, "F1", (0.5, 0.5), 2000, 250, seed=777, alpha=0.1)
    sigma = math.sqrt(summary.sigma2)
    assert abs(summary.mean - summary.mu) <= 4.0 * sigma / math.sqrt(250)
    assert abs(summary.variance - summary.sigma2) <= 0.25 * summary.sigma2


def threads_for_any_size(mp):
    """Let the replication pool run on samples of any size, with up to four
    threads, so small samples exercise it."""
    mp.setattr(asymptotics, "_THREAD_MIN_ROWS", 1)
    mp.setattr(asymptotics, "_usable_cpus", lambda: 4)


def test_replication_results_independent_of_worker_count(monkeypatch):
    threads_for_any_size(monkeypatch)
    kwargs = dict(seed=42, alpha=0.2, beta=0.15)
    one = mc_normality(B, "F2", (0.5, 0.5), 400, 30, workers=1, **kwargs)
    four = mc_normality(B, "F2", (0.5, 0.5), 400, 30, workers=4, **kwargs)
    assert np.array_equal(one.values, four.values)
    assert one.ks_distance == four.ks_distance

    m1 = mc_mse(B, "F1", (0.4, 0.4), 300, 20, alpha=0.2, seed=11, workers=1)
    m3 = mc_mse(B, "F1", (0.4, 0.4), 300, 20, alpha=0.2, seed=11, workers=3)
    assert np.array_equal(m1.values, m3.values)
    assert m1.mse == m3.mse


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["F1", "F2"]), st.integers(20, 300), st.integers(2, 8),
       st.integers(0, 2**31), st.floats(0.05, 0.4), st.floats(0.2, 0.8), st.floats(0.1, 0.9))
def test_mc_mse_is_byte_identical_for_any_worker_count(estimator, n, m, seed, alpha, t0, z0):
    beta = 0.15 if estimator == "F2" else None
    results = []
    with pytest.MonkeyPatch.context() as mp:
        threads_for_any_size(mp)
        for workers in (1, 2):
            try:
                results.append(mc_mse(B, estimator, (t0, z0), n, m, alpha=alpha, beta=beta,
                                      seed=seed, workers=workers))
            except ReplicationFailureError:
                results.append(None)
    one, two = results
    if one is None:
        assert two is None
        return
    assert one.values.tobytes() == two.values.tobytes()
    assert one.replicates.tobytes() == two.replicates.tobytes()
    assert (one.failures, one.mse, one.mse_se) == (two.failures, two.mse, two.mse_se)


coordinates = st.floats(0.0, 1.0) | st.floats(-3.0, 4.0) | st.floats(-1e300, 1e300)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["F1", "F2"]), st.integers(10, 120), st.integers(2, 5),
       st.integers(0, 2**31), st.floats(0.05, 0.5), st.floats(0.05, 0.5),
       coordinates, coordinates)
def test_mc_mse_statistics_are_never_nan(estimator, n, m, seed, alpha, beta, t0, z0):
    beta = beta if estimator == "F2" else None
    try:
        summary = mc_mse(B, estimator, (t0, z0), n, m, alpha=alpha, beta=beta, seed=seed)
    except ReplicationFailureError:
        return  # too many replications had no censoring time near t0
    assert not np.isnan(summary.values).any()
    assert not math.isnan(summary.mse) and not math.isnan(summary.mse_se)


def fails_on(*replications):
    """A statistic that fails on the given replications (seed offsets)."""

    def statistic(s):
        if s.seed in replications:
            raise UnstableDenominatorError("empty window", g_value=0.0)
        return float(s.seed)

    return statistic


def test_failure_accounting(monkeypatch):
    threads_for_any_size(monkeypatch)
    kept = [r for r in range(100) if r != 3]
    for workers in (1, 3):
        # one failure in 100 is exactly at the 1% cap: tolerated
        values, replicates, failures = _replicate(B, 5, 100, 0, fails_on(3), workers)
        np.testing.assert_array_equal(replicates, kept)
        np.testing.assert_array_equal(values, np.array(kept, dtype=float))
        assert failures == 1
        with pytest.raises(ReplicationFailureError):
            _replicate(B, 5, 100, 0, fails_on(3, 8), workers)
        # a NaN statistic is a bug, not a failed replication
        nan_on_7 = lambda s: math.nan if s.seed == 7 else float(s.seed)  # noqa: E731
        with pytest.raises(RuntimeError, match="NaN at seed 7"):
            _replicate(B, 5, 100, 0, nan_on_7, workers)
    with pytest.raises(ValueError):
        _replicate(B, 5, 1, 0, fails_on(), 1)


def test_thread_pool_only_for_large_samples_and_capped(monkeypatch):
    helpers = []

    class RecordingThread(threading.Thread):
        """Records each helper thread the driver starts, then starts it."""

        def start(self):
            helpers.append(self)
            super().start()

    monkeypatch.setattr(asymptotics.threading, "Thread", RecordingThread)
    monkeypatch.setattr(asymptotics, "_usable_cpus", lambda: 2)
    first_t = lambda s: float(s.t[0])  # noqa: E731
    large = asymptotics._THREAD_MIN_ROWS
    assert large == 20_000

    serial = _replicate(B, large - 1, 3, 0, first_t, 2)
    assert helpers == []
    _replicate(B, large, 3, 0, first_t, 1)
    assert helpers == []
    pooled = _replicate(B, large, 3, 0, first_t, 2)
    assert len(helpers) == 1
    assert serial[2] == pooled[2] == 0

    def threads(*args):
        """The threads one call runs on: its helpers and the calling thread."""
        before = len(helpers)
        _replicate(B, 5, *args)
        return len(helpers) - before + 1

    # the threads never outnumber the replications or the usable CPUs
    monkeypatch.setattr(asymptotics, "_THREAD_MIN_ROWS", 1)
    totals = [threads(1000, 0, first_t, 1000), threads(3, 0, first_t, 8)]
    monkeypatch.setattr(asymptotics, "_usable_cpus", lambda: 16)
    totals += [threads(3, 0, first_t, 8), threads(20, 0, first_t, 5)]
    assert totals == [2, 2, 3, 5]
    assert not any(helper.is_alive() for helper in helpers)


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_replication_errors_are_those_of_serial_order(monkeypatch, workers):
    """The lowest failing index raises, however the threads interleave, and
    every helper has ended when the driver returns or raises."""
    threads_for_any_size(monkeypatch)

    def raises_on_3_and_8(s):
        if s.seed == 3:
            time.sleep(0.05)  # let another thread reach seed 8 first
        if s.seed in (3, 8):
            raise ValueError(f"seed {s.seed}")
        return float(s.seed)

    nan_on_7 = lambda s: math.nan if s.seed == 7 else float(s.seed)  # noqa: E731
    before = threading.active_count()
    with pytest.raises(ValueError, match="^seed 3$"):
        _replicate(B, 5, 100, 0, raises_on_3_and_8, workers)
    assert threading.active_count() == before
    with pytest.raises(RuntimeError, match="NaN at seed 7"):
        _replicate(B, 5, 100, 0, nan_on_7, workers)
    assert threading.active_count() == before
    values, _, _ = _replicate(B, 5, 100, 0, fails_on(), workers)
    assert values.tolist() == list(range(100))
    assert threading.active_count() == before


def test_replication_hands_out_each_index_once_under_contention(monkeypatch):
    """More threads than cores, switching as often as the interpreter allows:
    a lost update of the shared index would repeat or skip a replication."""
    threads_for_any_size(monkeypatch)
    seen = []

    def record(s):
        seen.append(s.seed)  # list.append is atomic under the GIL
        return float(s.seed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        values, replicates, _ = _replicate(B, 5, 400, 0, record, 4)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(seen) == list(range(400))
    assert values.tolist() == replicates.tolist() == list(range(400))


def test_usable_cpus_is_a_positive_count():
    assert 1 <= asymptotics._usable_cpus() <= (os.cpu_count() or 1)


def test_mc_raises_when_windows_are_usually_empty():
    with pytest.raises(ReplicationFailureError):
        mc_mse(B, "F1", (0.98, 0.5), 40, 40, alpha=0.005, seed=5)


@pytest.mark.parametrize("point", [(0.5, math.nan), (math.nan, 0.5), (math.inf, 0.5)])
def test_mc_rejects_bad_points(monkeypatch, point):
    # not 20 "failed" replications: the point itself is refused, before
    # any sample is drawn
    def no_draws(*args):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(asymptotics, "sample", no_draws)
    schedule = BandwidthSchedule(0.5, 0.5, 0.3)
    for call in (
        lambda: mc_mse(B, "F2", point, 200, 20, alpha=0.2, beta=0.1, seed=0),
        lambda: mc_normality(B, "F1", point, 100, 4, seed=0, alpha=0.2),
        lambda: difference_sample(B, point, 100, 4, schedule, seed=0),
        lambda: equivalence_curve(B, point, [100, 200], schedule, seed=0),
    ):
        with pytest.raises(SupportError):
            call()


def test_mark_infinity_is_a_valid_point():
    schedule = BandwidthSchedule(0.5, 0.5, 0.3)
    point = (0.5, math.inf)
    assert mc_mse(B, "F2", point, 100, 4, alpha=0.2, beta=0.2, seed=0).values.size == 4
    normality = mc_normality(B, "F1", point, 100, 4, seed=0, alpha=0.2)
    assert normality.values.size == 4
    assert math.isfinite(normality.mu) and math.isfinite(normality.sigma2)
    assert difference_sample(B, point, 100, 4, schedule, seed=0).values.size == 4
    assert equivalence_curve(B, point, [100, 200], schedule, seed=0).diffs.size == 2


def test_equivalence_curve_shape_and_envelope():
    sched = BandwidthSchedule(c1=0.7, c2=0.5, beta_exponent=0.45)
    ns = np.array([500, 1000, 2000])
    curve = equivalence_curve(B, (0.5, 0.5), ns, sched, seed=3)
    np.testing.assert_array_equal(curve.n_grid, ns)
    np.testing.assert_allclose(
        curve.envelopes, 1.5 * ns.astype(float) ** (-1.0 / 6.0), rtol=1e-15
    )
    assert np.all(np.isfinite(curve.diffs))
    assert 0.0 <= curve.fraction_inside() <= 1.0


@pytest.mark.parametrize("n_grid,c,error", [
    ([500], None, InvalidBandwidthError),  # no mark bandwidth
    ([], 0.5, ValueError),
    ([0], 0.5, ValueError),
    ([500, -3], 0.5, ValueError),
    ([400, 9.5], 0.5, ValueError),  # not cast to 9
    ([500, math.nan], 0.5, ValueError),
    ([500, math.inf], 0.5, ValueError),
    (100, 0.5, ValueError),  # not a grid
    ([True, 100], 0.5, ValueError),  # not cast to 1
    (["100"], 0.5, ValueError),  # not cast to 100
    ([100, [1, 2]], 0.5, ValueError),  # ragged
])
def test_equivalence_curve_rejects_bad_input(monkeypatch, n_grid, c, error):
    def no_draws(*args):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(asymptotics, "sample", no_draws)
    sched = BandwidthSchedule(c1=0.7, c2=c, beta_exponent=None if c is None else 0.45)
    with pytest.raises(error, match="n_grid" if c else "schedule"):
        equivalence_curve(B, (0.5, 0.5), n_grid, sched, seed=3)


def test_difference_shrinks_when_mark_bandwidth_decays_fast():
    sched = BandwidthSchedule(c1=0.5, c2=0.5, beta_exponent=0.45)
    small = difference_sample(B, (0.5, 0.5), 500, 100, sched, seed=50)
    large = difference_sample(B, (0.5, 0.5), 20000, 100, sched, seed=60)
    assert np.mean(np.abs(large.values)) < np.mean(np.abs(small.values))
    # above the critical exponent the reference shift vanishes
    assert small.mu == 0.0


def test_difference_sample_reference_shift_at_critical_exponent():
    sched = BandwidthSchedule(c1=0.5, c2=0.5, beta_exponent=0.2)
    summary = difference_sample(B, (0.5, 0.5), 400, 10, sched, seed=4)
    assert summary.mu == pytest.approx(0.0125, abs=1e-10)
    with pytest.raises(ValueError):
        difference_sample(B, (0.5, 0.5), 400, 1, sched, seed=4)


def test_mean_functional_zero_for_fully_uncensored_sample():
    n = 30
    s = Sample(
        t=np.linspace(0.05, 0.95, n),
        z=np.full(n, 0.5),
        delta=np.ones(n, dtype=int),
    )
    detail = mean_functional(s, 0.2)
    assert detail.value == 0.0
    assert detail.fallback_count == 0


def test_mean_functional_equals_counting_average():
    s = sample(B, 120, 17)
    alpha, grid_points = 0.3, 2000
    config = EstimatorConfig(kernel_t=uniform_kernel(), bandwidths=Bandwidths(alpha))
    z_top = float(s.z.max()) + 1.0
    manual = np.mean(
        [
            1.0 - f1_counting(s, config, (i + 0.5) / grid_points, z_top)
            for i in range(grid_points)
        ]
    )
    assert abs(mean_functional(s, alpha).value - manual) < 1e-15


def test_mean_functional_fallback_and_errors():
    rng = np.random.default_rng(8)
    t = rng.uniform(0.45, 0.55, 30)
    s = Sample(t=t, z=np.zeros(30), delta=np.zeros(30, dtype=int))
    detail = mean_functional(s, 0.03)
    assert detail.fallback_count > 0
    assert 0.0 <= detail.value <= 1.0

    isolated = Sample(t=np.array([0.5, 0.5]), z=np.zeros(2), delta=np.zeros(2, dtype=int))
    with pytest.raises(UnstableDenominatorError):
        mean_functional(isolated, 1e-6)
    with pytest.raises(InvalidBandwidthError):
        mean_functional(s, -0.1)


def test_mean_functional_single_sample_accuracy():
    n = 10_000
    s = sample(B, n, 31)
    err = abs(mean_functional(s, n ** (-1.0 / 3.0)).value - 7.0 / 12.0)
    assert err <= 4.0 * math.sqrt(0.19792 / n)


def test_true_mean_event_time():
    assert true_mean_event_time(B) == pytest.approx(7.0 / 12.0, abs=1e-9)
    assert true_mean_event_time(scenario_a()) == pytest.approx(0.5, abs=1e-9)


def test_efficient_variance_values():
    assert efficient_variance(B) == pytest.approx(19.0 / 96.0, abs=1e-9)
    assert efficient_variance(scenario_a()) == pytest.approx(1.0 / 6.0, abs=1e-10)

    everything_observed = dataclasses.replace(
        scenario_a(), cdf=lambda x, y: np.ones_like(np.asarray(x, dtype=float))
    )
    assert efficient_variance(everything_observed) == 0.0


def test_efficient_variance_divergent_integrand():
    vanishing_g = dataclasses.replace(
        B, g=lambda t: 3.0 * np.asarray(t, dtype=float) ** 2
    )
    with pytest.raises(QuadratureError):
        efficient_variance(vanishing_g)


def test_mc_functional_plumbing():
    summary = mc_functional(B, 400, 6, seed=2)
    assert summary.values.size == 6
    assert summary.sigma2 == pytest.approx(19.0 / 96.0, abs=1e-9)
    with pytest.raises(ValueError):
        mc_functional(B, 400, 1, seed=2)
