"""Plug-in ratio estimators: values, identities, and failure modes."""

from __future__ import annotations

import contextlib
import io
import re
import warnings
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from csmark import (
    Bandwidths,
    BandwidthSchedule,
    BootstrapPlan,
    DegeneratePilotError,
    DerivativeUnavailableError,
    EstimatorConfig,
    InvalidBandwidthError,
    KernelAssumptionError,
    PilotModel,
    Sample,
    SupportError,
    UnstableDenominatorError,
    epanechnikov_kernel,
    eval_rescaled,
    evaluate_grid,
    f1,
    f1_counting,
    f2,
    f2_density,
    difference_sample,
    equivalence_curve,
    mc_mse,
    mc_normality,
    mu1_sigma2,
    mu2,
    sample,
    scenario_a,
    scenario_b,
    uniform_kernel,
    write_grid_csv,
)
from csmark import asymptotics, estimators, pilot as pilot_module
from csmark.scenarios import _Stack

EPA = epanechnikov_kernel()
UNI = uniform_kernel()


def uniform_config(alpha, beta=None):
    return EstimatorConfig(kernel_t=UNI, bandwidths=Bandwidths(alpha, beta))


def epa_config(alpha, beta=None):
    return EstimatorConfig(kernel_t=EPA, bandwidths=Bandwidths(alpha, beta))


def tiny_sample():
    return Sample(
        t=np.array([0.5, 0.52, 0.48]),
        z=np.array([0.3, 0.9, 0.0]),
        delta=np.array([1, 1, 0]),
    )


def g_at(s, config, t0):
    """The censoring density estimate at ``t0``, every estimate's denominator."""
    return float(estimators._estimates(s, config, t0, 0.5, ())[0][0])


def gp_at(s, config, t0):
    """Its derivative at ``t0``, which the density estimate uses."""
    t, z = np.array([t0]), np.array([0.5])
    _, gp = estimators._kernel_sums(s, config, t, z, config.bandwidths.alpha, None, ("g", "gp"))
    return float(gp[0])


def test_g_hat_single_observation():
    s = Sample(t=np.array([0.5]), z=np.array([0.2]), delta=np.array([1]))
    assert g_at(s, uniform_config(0.2), 0.5) == 2.5
    assert g_at(s, epa_config(0.2), 0.5) == 3.75


def test_g_hat_empty_window_is_zero():
    s = Sample(t=np.array([0.1, 0.15]), z=np.array([0.5, 0.0]), delta=np.array([1, 0]))
    assert g_at(s, epa_config(0.05), 0.9) == 0.0


def test_g_hat_recovers_flat_censoring_density():
    s = sample(scenario_a(), 100_000, 3)
    config = epa_config(0.05)
    for t0 in (0.3, 0.5, 0.7):
        assert abs(g_at(s, config, t0) - 1.0) < 0.03


def test_g_hat_prime_exact_cases_and_consistency():
    pair = Sample(t=np.array([0.4, 0.6]), z=np.array([0.2, 0.0]), delta=np.array([1, 0]))
    assert gp_at(pair, epa_config(0.5), 0.5) == 0.0
    single = Sample(t=np.array([0.5]), z=np.array([0.0]), delta=np.array([0]))
    assert gp_at(single, epa_config(0.3), 0.5) == 0.0

    s = sample(scenario_b(), 100_000, 5)
    assert abs(gp_at(s, epa_config(0.08), 0.5) - 2.0) < 0.3

    with pytest.raises(DerivativeUnavailableError):
        gp_at(s, uniform_config(0.1), 0.5)


def test_g_hat_prime_matches_finite_difference_of_g_hat():
    # g_hat is piecewise smooth in t0 with kinks at every t_i +- alpha, so
    # the step must be small enough that the window is almost surely clean
    s = sample(scenario_b(), 5000, 8)
    config = epa_config(0.15)
    d = 1e-5
    for t0 in (0.35, 0.5, 0.65):
        fd = (g_at(s, config, t0 + d) - g_at(s, config, t0 - d)) / (2 * d)
        assert abs(gp_at(s, config, t0) - fd) < 1e-4


def test_f1_three_point_window():
    s = tiny_sample()
    config = uniform_config(0.1)
    assert f1(s, config, 0.5, 0.5) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert f1_counting(s, config, 0.5, 0.5) == pytest.approx(1.0 / 3.0, abs=1e-15)
    # raising the mark threshold includes the second uncensored point
    assert f1(s, config, 0.5, 0.95) == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_f1_not_monotone_in_time():
    """A later censored observation can pull the estimate down."""
    s = Sample(t=np.array([0.5, 0.7]), z=np.array([0.4, 0.0]), delta=np.array([1, 0]))
    config = uniform_config(0.2)
    early = f1(s, config, 0.45, 0.45)
    late = f1(s, config, 0.62, 0.45)
    assert early == 1.0
    assert late == 0.5
    assert early > late


def test_f1_bounds_and_mark_monotonicity():
    rng = np.random.default_rng(1905)
    scenarios = [scenario_a(), scenario_b()]
    for trial in range(50):
        scn = scenarios[trial % 2]
        n = int(rng.integers(20, 200))
        s = sample(scn, n, int(rng.integers(0, 2**31)))
        config = epa_config(0.25, 0.15)
        t0 = float(rng.uniform(0.25, 0.75))
        za, zb = sorted(rng.uniform(0.0, 1.2, size=2))
        try:
            lo1, hi1 = f1(s, config, t0, za), f1(s, config, t0, zb)
            lo2, hi2 = f2(s, config, t0, za), f2(s, config, t0, zb)
        except UnstableDenominatorError:
            continue
        for v in (lo1, hi1, lo2, hi2):
            assert 0.0 <= v <= 1.0
        assert lo1 <= hi1 + 1e-15
        assert lo2 <= hi2 + 1e-15


def test_f1_counting_equals_f1_for_uniform_kernel():
    rng = np.random.default_rng(2024)
    scenarios = [scenario_a(), scenario_b()]
    worst = 0.0
    checked = 0
    for trial in range(100):
        scn = scenarios[trial % 2]
        n = int(rng.integers(20, 300))
        s = sample(scn, n, int(rng.integers(0, 2**31)))
        config = uniform_config(float(rng.uniform(0.1, 0.4)))
        t0 = float(rng.uniform(0.2, 0.8))
        z0 = float(rng.uniform(0.0, 1.0))
        try:
            a = f1(s, config, t0, z0)
            b = f1_counting(s, config, t0, z0)
        except UnstableDenominatorError:
            continue
        worst = max(worst, abs(a - b))
        checked += 1
    assert checked > 90
    assert worst <= 1e-12


def test_f1_counting_requires_uniform_kernel():
    with pytest.raises(KernelAssumptionError):
        f1_counting(tiny_sample(), epa_config(0.1), 0.5, 0.5)


def test_f1_consistency_at_interior_point():
    s = sample(scenario_b(), 100_000, 12)
    assert abs(f1(s, epa_config(0.05), 0.5, 0.5) - 0.125) < 0.02


def test_unstable_denominator_reports_g_value():
    s = tiny_sample()
    with pytest.raises(UnstableDenominatorError) as exc:
        f1(s, epa_config(0.05), 0.9, 0.5)
    assert exc.value.g_value == 0.0
    with pytest.raises(UnstableDenominatorError) as exc:
        f1_counting(s, uniform_config(0.05), 0.9, 0.5)
    assert exc.value.g_value == 0.0


def test_f2_zero_mark_threshold():
    s = tiny_sample()  # uncensored marks 0.3 and 0.9, both > beta
    assert f2(s, epa_config(0.1, 0.2), 0.5, 0.0) == 0.0


def test_f2_equals_f1_at_full_mark_mass():
    rng = np.random.default_rng(31)
    for trial in range(20):
        s = sample(scenario_b(), int(rng.integers(30, 150)), int(rng.integers(0, 2**31)))
        config = epa_config(0.3, 0.15)
        t0 = float(rng.uniform(0.3, 0.7))
        z_top = float(s.z.max()) + 0.15
        try:
            assert abs(f2(s, config, t0, z_top) - f1(s, config, t0, 10.0)) <= 1e-12
        except UnstableDenominatorError:
            continue


def test_f2_collapses_to_f1_for_tiny_beta():
    s = sample(scenario_b(), 200, 44)
    config = epa_config(0.25, 1e-9)
    for t0, z0 in ((0.4, 0.3), (0.5, 0.5), (0.6, 0.8)):
        assert abs(f2(s, config, t0, z0) - f1(s, config, t0, z0)) <= 1e-12


def test_f2_configuration_errors():
    no_beta = EstimatorConfig(kernel_t=EPA, bandwidths=Bandwidths(0.1))
    with pytest.raises(InvalidBandwidthError):
        f2(tiny_sample(), no_beta, 0.5, 0.5)  # no mark bandwidth


def test_f2_density_matches_mixed_finite_difference():
    s = sample(scenario_b(), 2000, 21)
    config = epa_config(0.2, 0.2)
    d = 1e-4
    for t0, z0 in ((0.5, 0.5), (0.4, 0.6)):
        fd = (
            f2(s, config, t0 + d, z0 + d)
            - f2(s, config, t0 + d, z0 - d)
            - f2(s, config, t0 - d, z0 + d)
            + f2(s, config, t0 - d, z0 - d)
        ) / (4.0 * d * d)
        val = f2_density(s, config, t0, z0)
        assert abs(val - fd) <= 1e-3 * max(1.0, abs(val))


def test_f2_density_near_truth_in_large_sample():
    s = sample(scenario_b(), 100_000, 2)
    assert abs(f2_density(s, epa_config(0.1, 0.1), 0.5, 0.5) - 1.0) < 0.15


def test_f2_density_zero_without_uncensored_mass():
    n = 20
    s = Sample(t=np.linspace(0.1, 0.9, n), z=np.zeros(n), delta=np.zeros(n, dtype=int))
    assert f2_density(s, epa_config(0.3, 0.3), 0.5, 0.5) == 0.0


def test_f2_density_requires_differentiable_kernels():
    s = sample(scenario_b(), 100, 3)
    with pytest.raises(DerivativeUnavailableError):
        f2_density(s, uniform_config(0.2, 0.2), 0.5, 0.5)


def test_f2_density_unstable_point():
    s = tiny_sample()
    with pytest.raises(UnstableDenominatorError):
        f2_density(s, epa_config(0.05, 0.1), 0.95, 0.5)


@pytest.mark.parametrize(
    "t0, z0", [(np.nan, 0.5), (0.5, np.nan), (np.inf, 0.5), (-np.inf, 0.5)]
)
def test_points_with_nan_or_infinite_time_are_rejected(t0, z0):
    s = sample(scenario_b(), 200, 1)
    config = epa_config(0.2, 0.1)
    assert issubclass(SupportError, ValueError)
    for estimator in (f1, f2, f2_density):
        with pytest.raises(SupportError):
            estimator(s, config, t0, z0)
    with pytest.raises(SupportError):
        evaluate_grid(s, config, np.array([0.5, t0]), np.array([0.5, z0]))


@pytest.mark.parametrize(
    "bad", [True, np.True_, "0.5", None, Fraction(1, 2), [0.5, 0.6], np.array([0.5, 0.6]),
            [0.5, [1, 2]], pytest.param(10**400, id="10**400")]  # no float holds 10**400
)
@pytest.mark.parametrize("call", ["f1", "f2", "f2_density", "evaluate_grid", "mc_mse",
                                  "BootstrapPlan", "f1_counting", "mu1_sigma2"])
def test_points_that_are_not_real_numbers_are_refused(call, bad, monkeypatch):
    # as bandwidths are: a float cast would read True as 1.0 and "0.5" as 0.5;
    # and a point is one number in each coordinate, not an array, whose
    # extra entries an estimate would drop or a cast would fail on
    s = sample(scenario_b(), 200, 1)
    config = epa_config(0.2, 0.1)

    def no_draws(*args):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(asymptotics, "sample", no_draws)
    run = {
        "f1": lambda t, z: f1(s, config, t, z),
        "f2": lambda t, z: f2(s, config, t, z),
        "f2_density": lambda t, z: f2_density(s, config, t, z),
        "evaluate_grid": lambda t, z: evaluate_grid(s, config, [t], [z]),
        "mc_mse": lambda t, z: mc_mse(
            scenario_b(), "F2", (t, z), 200, 20, alpha=0.2, beta=0.1, seed=0
        ),
        "BootstrapPlan": lambda t, z: BootstrapPlan(0.4, 0.4, 3, (0.2,), (0.2,), (t, z), 0),
        "f1_counting": lambda t, z: f1_counting(s, uniform_config(0.2), t, z),
        "mu1_sigma2": lambda t, z: mu1_sigma2(scenario_b(), (t, z), 0.5, EPA),
    }[call]
    for t, z in [(bad, 0.5), (0.5, bad)]:
        with pytest.raises(SupportError, match=r"^cannot estimate .*0\.5.*must be real numbers"):
            run(t, z)


@pytest.mark.parametrize("point", [0.5, (0.5,), (0.5, 0.5, 0.5), None],
                         ids=["number", "one", "three", "None"])
@pytest.mark.parametrize("call", ["mc_mse", "mc_normality", "difference_sample",
                                  "equivalence_curve", "mu1_sigma2", "mu2", "BootstrapPlan"])
def test_points_that_are_not_pairs_are_refused(call, point, monkeypatch):
    # a point is one (t, z) pair, refused by name rather than by a bare
    # unpacking error, and before any sample is drawn
    def no_draws(*args):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(asymptotics, "sample", no_draws)
    schedule = BandwidthSchedule(0.5, 0.5, 0.3)
    run = {
        "mc_mse": lambda p: mc_mse(scenario_b(), "F1", p, 200, 20, alpha=0.2, seed=0),
        "mc_normality": lambda p: mc_normality(scenario_b(), "F1", p, 200, 20, seed=0,
                                               alpha=0.2),
        "difference_sample": lambda p: difference_sample(scenario_b(), p, 200, 20, schedule,
                                                         seed=0),
        "equivalence_curve": lambda p: equivalence_curve(scenario_b(), p, [200], schedule,
                                                         seed=0),
        "mu1_sigma2": lambda p: mu1_sigma2(scenario_b(), p, 0.5, EPA),
        "mu2": lambda p: mu2(scenario_b(), p, schedule, EPA),
        "BootstrapPlan": lambda p: BootstrapPlan(0.4, 0.4, 3, (0.2,), (0.2,), p, 0),
    }[call]
    with pytest.raises(SupportError, match=rf"^cannot estimate at {re.escape(repr(point))}: "
                                           "a point must be a pair"):
        run(point)


def test_points_of_unequal_lengths_are_refused():
    # pairing would stop at the shorter array and drop the other's extra points
    s = sample(scenario_b(), 200, 1)
    t, z = np.array([0.4, 0.5]), np.array([0.5])
    with pytest.raises(SupportError, match=r"t = \[0.4, 0.5\], z = \[0.5\]: .* one shape"):
        estimators._estimates(s, epa_config(0.2, 0.1), t, z, ("F1", "F2"))


@pytest.mark.parametrize(
    "t0, z0", [(np.nan, 0.5), (0.5, np.nan), (np.inf, 0.5), (-np.inf, 0.5)]
)
def test_f1_counting_rejects_bad_points(t0, z0):
    s = sample(scenario_b(), 200, 1)
    with pytest.raises(SupportError):
        f1_counting(s, uniform_config(0.2), t0, z0)


def test_f1_counting_keeps_the_limits_in_the_mark():
    s = sample(scenario_b(), 200, 1)
    config = uniform_config(0.2)
    top = float(s.z.max())
    assert f1_counting(s, config, 0.5, np.inf) == f1_counting(s, config, 0.5, top) > 0.0
    assert f1_counting(s, config, 0.5, -np.inf) == 0.0


def test_infinite_marks_give_the_limits():
    s = sample(scenario_b(), 200, 1)
    config = epa_config(0.2, 0.1)
    top = float(s.z.max()) + 0.1  # every smoothed mark indicator is one
    for estimator in (f1, f2):
        assert estimator(s, config, 0.5, np.inf) == estimator(s, config, 0.5, top) > 0.0
        assert estimator(s, config, 0.5, -np.inf) == 0.0
    for z0 in (np.inf, -np.inf):
        assert f2_density(s, config, 0.5, z0) == 0.0


def test_huge_finite_mark_warns_nothing():
    s = sample(scenario_b(), 200, 1)
    config = epa_config(0.2, 0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert f2_density(s, config, 0.5, 1e300) == 0.0
        assert f2(s, config, 0.5, 1e300) == f2(s, config, 0.5, np.inf)


def test_evaluate_grid_rows_and_missing_values():
    s = sample(scenario_b(), 300, 18)
    t_grid = np.array([0.3, 0.5, 5.0])
    z_grid = np.array([0.25, 0.5])

    rows = evaluate_grid(s, epa_config(0.2, 0.15), t_grid, z_grid)
    assert len(rows) == 6
    assert [(r.t, r.z) for r in rows[:2]] == [(0.3, 0.25), (0.3, 0.5)]
    for r in rows[:4]:
        assert r.f1 is not None and r.f2 is not None and r.density is not None
    for r in rows[4:]:  # t = 5.0 has an empty window
        assert r.f1 is None and r.f2 is None and r.density is None

    no_beta = evaluate_grid(s, epa_config(0.2), t_grid[:2], z_grid)
    assert all(r.f2 is None and r.density is None for r in no_beta)
    assert all(r.f1 is not None for r in no_beta)

    no_deriv = evaluate_grid(s, uniform_config(0.2, 0.15), t_grid[:2], z_grid)
    assert all(r.f2 is not None and r.density is None for r in no_deriv)


def test_write_grid_csv():
    s = sample(scenario_b(), 100, 1)
    rows = evaluate_grid(s, epa_config(0.3), np.array([0.5, 9.0]), np.array([0.5]))
    buf = io.StringIO()
    write_grid_csv(rows, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,z,F1,F2,f2"
    assert len(lines) == 3
    assert lines[1].count(",") == 4
    assert lines[2].endswith(",,,")  # all estimates missing at t = 9.0


def test_readme_quick_start_digits():
    """Each ``# 0.xxxx`` comment in the README's Python quick start is its
    line's value rounded to 4 places."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Quick start\n\n```python\n(.*?)```", readme, re.S).group(1)
    namespace: dict = {}
    exec(block, namespace)
    shown = re.findall(r"^(\S.*?)\s+#\s+(0\.\d+)\b", block, re.M)
    assert len(shown) == 4
    for expression, digits in shown:
        assert round(float(eval(expression, namespace)), 4) == float(digits), expression


def test_estimator_config_validation():
    with pytest.raises(ValueError):
        EstimatorConfig(g_floor=0.0)
    with pytest.raises(ValueError):
        EstimatorConfig(g_floor=-1e-3)


# --- property tests against a plain dense oracle ---------------------------
#
# The oracle evaluates one point at a time over the whole sample, in the
# arithmetic the estimators are defined by.  The package adds up only the
# terms inside each point's time window, in another order, so its sums agree
# with the oracle's to rounding: within RTOL of the mean of the terms'
# absolute values, since g' and dh/dt cancel.  Grid rows, single-point calls
# and the pilot density share one core and agree with each other bit for bit.

RTOL = 1e-12


def dense_sums(s, config, t0, z0):
    """Kernel means at one point (g, f1 and f2 numerators, g', h, dh/dt),
    and the means of their terms' absolute values."""
    kt, alpha, beta = config.kernel_t, config.bandwidths.alpha, config.bandwidths.beta
    ut = (t0 - s.t) / alpha
    w = kt.pdf(ut) / alpha
    terms = {"g": w, "f1": w * s.delta * (s.z <= z0)}
    if beta is not None:
        terms["f2"] = w * s.delta * kt.cdf((z0 - s.z) / beta)
        if kt.deriv is not None:
            wz = kt.pdf((z0 - s.z) / beta) / beta
            d = kt.deriv(ut) / alpha**2
            terms.update(gp=d, h=w * wz * s.delta, dh=d * wz * s.delta)
    sums = {k: np.mean(x) for k, x in terms.items()}
    return sums, {k: np.mean(np.abs(x)) for k, x in terms.items()}


def dense_oracle(s, config, t0, z0):
    """(value, error bound) of f1, f2 and f2_density at one point, None for
    the ones not computed; None where g is below the floor and "either"
    where g lies within rounding of the floor."""
    v, a = dense_sums(s, config, t0, z0)
    e = {k: RTOL * x for k, x in a.items()}
    g = v["g"]
    if abs(g - config.g_floor) <= e["g"]:
        return "either"
    if g < config.g_floor:
        return None

    def ratio(num):
        value = v[num] / g
        return value, 2 * (e[num] + abs(value) * e["g"]) / g

    dens = None
    if "dh" in v:
        value = (g * v["dh"] - v["gp"] * v["h"]) / (g * g)
        err = (abs(v["dh"]) * e["g"] + g * e["dh"] + abs(v["h"]) * e["gp"]
               + abs(v["gp"]) * e["h"]) / (g * g) + 2 * abs(value) * e["g"] / g
        dens = value, 2 * err
    return ratio("f1"), ratio("f2") if "f2" in v else None, dens


def close(got, expected):
    """``got`` is within the oracle's error bound of its value."""
    if expected is None:
        return got is None
    value, err = expected
    return got is not None and abs(got - value) <= err


def unless_unstable(estimator, *args):
    try:
        return estimator(*args)
    except UnstableDenominatorError:
        return None


unit = st.floats(0.0, 1.0)


@st.composite
def samples(draw, max_n=40, min_n=1):
    n = draw(st.integers(min_n, max_n))
    t = draw(st.lists(unit, min_size=n, max_size=n))
    y = draw(st.lists(unit, min_size=n, max_size=n))
    delta = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    return Sample(t=t, z=np.where(delta == 1, y, 0.0), delta=delta)


@st.composite
def configs(draw, kernel=None, floors=(1e-8, 0.1, 0.5, 2.0)):
    k = kernel or draw(st.sampled_from([EPA, UNI]))
    alpha = draw(st.floats(0.02, 0.6))
    beta = draw(st.one_of(st.none(), st.floats(0.02, 0.6)))
    return EstimatorConfig(
        kernel_t=k,
        bandwidths=Bandwidths(alpha, beta),
        # floors up to the size of a typical g probe both sides of the check
        g_floor=draw(st.sampled_from(floors)),
    )


def grid_axis(lo, hi, ties):
    """Up to four distinct values: anywhere in [lo, hi], or one of ``ties``."""
    value = st.one_of(st.floats(lo, hi), st.sampled_from(ties))
    return st.lists(value, min_size=1, max_size=4, unique=True)


def times(s, config):
    # t0 beyond the data's range reaches empty windows and unstable
    # denominators; t_i +- alpha sits on a window's edge
    alpha = config.bandwidths.alpha
    return grid_axis(-0.4, 1.4, [t + e for t in s.t.tolist() for e in (-alpha, 0.0, alpha)])


def marks(s):
    # z0 equal to an observed mark probes the indicator's tie
    return grid_axis(-0.2, 1.4, s.z.tolist())


PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)


@PROPERTY
@given(samples(), configs(), st.data(), st.integers(1, 100))
def test_estimators_and_grid_match_dense_oracle(s, config, data, budget):
    beta = config.bandwidths.beta
    density = beta is not None and config.kernel_t.deriv is not None
    t_grid = data.draw(times(s, config))
    z_grid = data.draw(marks(s))
    # a small chunk budget splits the grid into chunks of one or more points
    with mock.patch.object(estimators, "_CHUNK_BUDGET", budget):
        rows = evaluate_grid(s, config, np.array(t_grid), np.array(z_grid))
    assert [(r.t, r.z) for r in rows] == [(t0, z0) for t0 in t_grid for z0 in z_grid]
    for r in rows:
        point = (s, config, r.t, r.z)
        assert r.f1 == unless_unstable(f1, *point)
        assert r.f2 == (unless_unstable(f2, *point) if beta is not None else None)
        assert r.density == (unless_unstable(f2_density, *point) if density else None)
        expected = dense_oracle(*point)
        if expected == "either":
            continue
        if expected is None:
            assert (r.f1, r.f2, r.density) == (None, None, None)
            continue
        v1, v2, vd = expected
        assert close(r.f1, v1) and close(r.f2, v2) and close(r.density, vd)


@PROPERTY
@given(samples(), configs(kernel=EPA).filter(lambda c: c.bandwidths.beta is not None),
       st.data(), st.integers(1, 100))
def test_pilot_density_matches_dense_oracle(s, config, data, budget):
    t_points = data.draw(times(s, config))
    z_points = data.draw(marks(s))
    try:
        with mock.patch.object(pilot_module, "_ENVELOPE_GRID", 5):
            pilot = PilotModel(s, config)
    except DegeneratePilotError:
        assume(False)
    t, z = np.meshgrid(t_points, z_points, indexing="ij")
    with mock.patch.object(estimators, "_CHUNK_BUDGET", budget):
        got = pilot.density(t.ravel(), z.ravel())
    for j, (t0, z0) in enumerate(zip(t.ravel(), z.ravel())):
        # bit for bit the clipped single-point density
        single = unless_unstable(f2_density, s, config, t0, z0)
        assert got[j] == (0.0 if single is None else max(single, 0.0))
        expected = dense_oracle(s, config, t0, z0)
        if expected == "either":
            continue
        if expected is None:
            assert got[j] == 0.0
            continue
        value, err = expected[2]
        assert abs(got[j] - max(value, 0.0)) <= err


def test_pilot_density_is_the_clipped_f2_density():
    # pow(g, 2) and g * g differ in the last bit for about 0.08% of doubles,
    # so the two agree at every point only with one spelling of the quotient
    s = sample(scenario_b(), 100, 4)
    config = epa_config(0.4, 0.4)
    with mock.patch.object(pilot_module, "_ENVELOPE_GRID", 5):
        pilot = PilotModel(s, config)
    t, z = np.random.default_rng(7).uniform(-0.1, 1.1, (2, 10_000))
    want = [max(unless_unstable(f2_density, s, config, a, b) or 0.0, 0.0) for a, b in zip(t, z)]
    assert pilot.density(t, z).tolist() == want


@st.composite
def runs(draw, s):
    """Points sharing one time and time bandwidth, the time often on the
    edge of an observation's window, each with its own mark and bandwidth."""
    alpha = draw(st.floats(0.02, 0.6))
    edges = [t + e for t in s.t.tolist() for e in (-alpha, alpha)]
    t0 = draw(st.one_of(st.floats(-0.4, 1.4), st.sampled_from(edges)))
    marks_ = st.one_of(st.floats(-0.2, 1.4), st.sampled_from(s.z.tolist()))
    points = draw(st.lists(st.tuples(marks_, st.floats(0.02, 0.6)), min_size=1, max_size=4))
    return [(t0, z0, alpha, beta) for z0, beta in points]


@PROPERTY
@given(samples(), st.sampled_from([EPA, UNI]), st.data(), st.integers(1, 100))
def test_kernel_sums_of_a_point_do_not_depend_on_its_batch(s, kernel, data, budget):
    terms = ("g", "f1", "f2") + (("gp", "h", "dh") if kernel is EPA else ())
    config = EstimatorConfig(kernel_t=kernel)
    points = [p for run in data.draw(st.lists(runs(s), min_size=1, max_size=5))
              for p in run]
    t, z, alpha, beta = (np.array(column) for column in zip(*points))
    with mock.patch.object(estimators, "_CHUNK_BUDGET", budget):
        batched = estimators._kernel_sums(s, config, t, z, alpha, beta, terms)
    for j, (t0, z0, a, b) in enumerate(points):
        alone = estimators._kernel_sums(s, config, t[j : j + 1], z[j : j + 1], a, b, terms)
        for term, x, y in zip(terms, batched, alone):
            assert x[j] == y[0], term


@PROPERTY
@given(st.integers(1, 30).flatmap(lambda n: st.lists(samples(n, n), min_size=1,
                                                    max_size=5)),
       st.sampled_from([EPA, UNI]), st.data(), st.integers(1, 100))
def test_stacked_kernel_sums_equal_each_sample_alone(stack, kernel, data, budget):
    # the bootstrap's use: replications' samples as the rows of one stack,
    # each point on its own row
    terms = ("g", "f1", "f2") + (("gp", "h", "dh") if kernel is EPA else ())
    config = EstimatorConfig(kernel_t=kernel)
    points = []
    for _ in range(data.draw(st.integers(1, 5))):
        r = data.draw(st.integers(0, len(stack) - 1))
        run = data.draw(runs(stack[r]))
        if points and data.draw(st.booleans()):  # the last run's time and bandwidth
            run = [(points[-1][1], z0, points[-1][3], b) for _, z0, _, b in run]
        points += [(r, *p) for p in run]
    row, t, z, alpha, beta = (np.array(column) for column in zip(*points))
    stacked = _Stack(*(np.stack([getattr(s, name) for s in stack])
                       for name in ("t", "z", "delta")))
    with mock.patch.object(estimators, "_CHUNK_BUDGET", budget):
        sums = estimators._kernel_sums(stacked, config, t, z, alpha, beta, terms, row)
    for j, (r, t0, z0, a, b) in enumerate(points):
        alone = estimators._kernel_sums(stack[r], config, t[j : j + 1], z[j : j + 1], a, b,
                                        terms)
        for term, x, y in zip(terms, sums, alone):
            assert x[j] == y[0], term


@PROPERTY
@given(samples(), st.sampled_from([EPA, UNI]), st.sampled_from([1e-8, 0.1, 0.5, 2.0]),
       st.data(), st.integers(1, 100))
def test_batch_estimates_equal_single_point_estimates(s, kernel, floor, data, budget):
    # the bootstrap's use: one batch of points, each with its own bandwidths
    estimates = {"F1": f1, "F2": f2} | ({"density": f2_density} if kernel is EPA else {})
    config = EstimatorConfig(kernel_t=kernel, g_floor=floor)
    points = [p for run in data.draw(st.lists(runs(s), min_size=1, max_size=5))
              for p in run]
    t, z, alpha, beta = (np.array(column) for column in zip(*points))
    with mock.patch.object(estimators, "_CHUNK_BUDGET", budget):
        _, batched = estimators._estimates(
            s, config, t, z, tuple(estimates), alpha, beta
        )
    for j, (t0, z0, a, b) in enumerate(points):
        alone = replace(config, bandwidths=Bandwidths(a, b))
        for estimator, values in zip(estimates.values(), batched):
            single = unless_unstable(estimator, s, alone, t0, z0)
            if single is None:
                assert np.isnan(values[j])
            else:
                assert values[j] == single


@PROPERTY
@given(samples(), configs().filter(lambda c: c.bandwidths.beta is not None),
       st.floats(-0.2, 1.2))
def test_marginal_identity(s, config, t0):
    # above every mark plus beta each smoothed indicator is one, so f2 is
    # the uncensored share of g and its complement the censored share
    top = unless_unstable(f2, s, config, t0, float(s.z.max()) + config.bandwidths.beta)
    assume(top is not None)
    # the censored share from dense kernel weights, not from the kernel sums
    weights = eval_rescaled(config.kernel_t, config.bandwidths.alpha, t0 - s.t)
    censored = float(np.mean(weights * (1 - s.delta)) / np.mean(weights))
    assert abs(1.0 - top - censored) <= 1e-12


@PROPERTY
@given(samples(), configs(), st.floats(-0.2, 1.2), st.data())
def test_distribution_estimates_are_bounded_and_monotone_in_mark(s, config, t0, data):
    beta = config.bandwidths.beta
    z_points = data.draw(marks(s))
    try:
        v1 = [f1(s, config, t0, z0) for z0 in sorted(z_points)]
        v2 = [f2(s, config, t0, z0) for z0 in sorted(z_points)] if beta is not None else []
    except UnstableDenominatorError:
        assume(False)
    for v in v1 + v2:
        assert 0.0 <= v <= 1.0
    assert all(lo <= hi for lo, hi in zip(v1, v1[1:]))
    assert all(lo <= hi + 1e-12 for lo, hi in zip(v2, v2[1:]))


@PROPERTY
@given(samples(), configs(kernel=UNI, floors=(1e-8,)), st.floats(-0.2, 1.2),
       st.floats(-0.2, 1.2))
def test_f1_with_uniform_kernel_is_the_counting_form(s, config, t0, z0):
    # away from ties at the window's edge, where |t_i - t0| <= alpha and
    # |(t0 - t_i) / alpha| <= 1 may round differently
    gap = np.abs(np.abs(s.t - t0) / config.bandwidths.alpha - 1.0)
    assume(np.all(gap > 1e-9))
    try:
        counted = f1_counting(s, config, t0, z0)
    except UnstableDenominatorError:
        with pytest.raises(UnstableDenominatorError):
            f1(s, config, t0, z0)
        return
    assert abs(f1(s, config, t0, z0) - counted) <= 1e-12


# --- bit identity of the windowed kernel sums -------------------------------
#
# float.hex of the estimates as first computed by evaluating every kernel on
# every observation in each point's time window.  The prefiltered time window
# and the per-point mark window must leave every bit where it was, with one
# run per chunk or many, and one point's pairs at a time or many.

PINNED_N = 20_000
PINNED_T = (0.2, 0.5, 0.8)
PINNED_Z = (0.2, 0.5, 0.8, 1e300)
# (F1, F2, density) on the t x z grid, row by row
PINNED_GRID = [
    ("0x1.1202b49d83e73p-7", "0x1.20d5dc54cd259p-7", "0x1.99bc52b4e014dp-2"),
    ("0x1.72328c63db887p-5", "0x1.7526de554ede8p-5", "0x1.6f872e9f279bap-1"),
    ("0x1.8605388935f22p-4", "0x1.8399e0d16d22fp-4", "0x1.d2bb7d1d3730ap-1"),
    ("0x1.1b7a56ed731fcp-3", "0x1.1b7a56ed731fcp-3", "0x0.0p+0"),
    ("0x1.4d282799eaaabp-5", "0x1.4672d1cc92d54p-5", "0x1.272c400ff0214p-1"),
    ("0x1.0a290fbbbb6d8p-3", "0x1.0cbabd992b4a5p-3", "0x1.8496c46c1abbdp-1"),
    ("0x1.15c933bf605d4p-2", "0x1.19361e3e8593fp-2", "0x1.5d513b3c176d3p+0"),
    ("0x1.9811f7bd83f7dp-2", "0x1.9811f7bd83f7dp-2", "0x0.0p+0"),
    ("0x1.41cc2b3c71969p-4", "0x1.47359a0a9c4bcp-4", "0x1.da78e46140a98p-1"),
    ("0x1.06aac2d676e8ap-2", "0x1.08cc0508e61f4p-2", "0x1.a46d296c14715p+0"),
    ("0x1.0769166e3a221p-1", "0x1.0883d68f32968p-1", "0x1.5bb1f2ea56e04p+0"),
    ("0x1.7641c0ed7e8aap-1", "0x1.7641c0ed7e8aap-1", "0x0.0p+0"),
]
# (F1, F2) of the Uniform kernel at t = 0.5
PINNED_UNIFORM_ROW = [
    ("0x1.4ac17d5135297p-5", "0x1.4ae027816e1e8p-5"),
    ("0x1.0e2ffe6b82414p-3", "0x1.120c67156d9e6p-3"),
    ("0x1.1a4d17cca6095p-2", "0x1.1f01bf3f7e6c8p-2"),
    ("0x1.a1a8814cdccfap-2", "0x1.a1a8814cdccfap-2"),
]


def hexes(*values):
    return tuple(None if v is None else float(v).hex() for v in values)


def constants(**values):
    """``estimators``' module constants patched to ``values`` (none if empty)."""
    return mock.patch.multiple(estimators, **values) if values else contextlib.nullcontext()


@pytest.mark.parametrize("patches", [{}, {"_CHUNK_BUDGET": 1}, {"_CHUNK_BUDGET": 10**9}],
                         ids=["defaults", "one-run-per-chunk", "one-chunk"])
def test_estimates_are_pinned_bit_for_bit(patches):
    n = PINNED_N
    s = sample(scenario_b(), n, 7)
    bw = Bandwidths(n ** (-1 / 6), n ** (-1 / 5))
    epa = EstimatorConfig(kernel_t=EPA, bandwidths=bw)
    uni = EstimatorConfig(kernel_t=UNI, bandwidths=bw)
    with constants(**patches):
        grid = evaluate_grid(s, epa, np.array(PINNED_T), np.array(PINNED_Z))
        row = evaluate_grid(s, uni, np.array([0.5]), np.array(PINNED_Z))
        points = {(t0, z0): hexes(f1(s, epa, t0, z0), f2(s, epa, t0, z0),
                                  f2_density(s, epa, t0, z0))
                  for t0, z0 in ((0.2, 0.8), (0.5, 0.5), (0.8, 0.2))}
        at_infinity = f2(s, epa, 0.5, np.inf)
    assert [hexes(r.f1, r.f2, r.density) for r in grid] == PINNED_GRID
    assert [hexes(r.f1, r.f2) for r in row] == PINNED_UNIFORM_ROW
    for (t0, z0), got in points.items():
        assert got == PINNED_GRID[PINNED_T.index(t0) * len(PINNED_Z) + PINNED_Z.index(z0)]
    assert at_infinity.hex() == "0x1.9811f7bd83f7dp-2"  # F2 at (0.5, 1e300)


ALL_TERMS = ("g", "f1", "f2", "gp", "h", "dh")


def reference_sums(kernel, ti, zi, di, t0, z0, alpha, beta, terms):
    """One point's kernel means with every kernel evaluated on every
    observation in the time window, in sample order."""
    u = (t0 - ti) / alpha
    inside = np.abs(u) <= 1.0
    u, zw, unc = u[inside], zi[inside], di[inside] == 1
    w = kernel.pdf(u)
    s = (z0 - zw[unc]) / beta
    x = {"g": w, "f1": w[unc] * (zw[unc] <= z0), "f2": w[unc] * kernel.cdf(s)}
    if kernel.deriv is not None:
        d = kernel.deriv(u)
        x.update(gp=d, h=w[unc] * kernel.pdf(s), dh=d[unc] * kernel.pdf(s))
    out = []
    for term in terms:
        total = np.add.reduceat(x[term], [0]) if x[term].size else np.zeros(1)
        scale = 1.0 / (ti.size * alpha)
        total *= scale / alpha if term in ("gp", "dh") else scale
        out.append(total / beta if term in ("h", "dh") else total)
    return out


def neighbours(values, steps=3):
    """Each value and the ``steps`` floats on either side of it."""
    out = []
    for v in values:
        up = down = v
        out.append(v)
        for _ in range(steps):
            up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
            out += [up, down]
    return out


@st.composite
def window_edges(draw):
    """A point ``(t0, z0)`` with bandwidths, up to 1e9 bandwidths from 0 or
    with ``z0`` infinite or 1e300, and a stack of two samples whose times and
    marks are the floats on and next to the edges of the point's windows,
    each row pairing them in its own order."""
    alpha, beta = draw(st.floats(1e-3, 1e3)), draw(st.floats(1e-3, 1e3))
    ratio = st.one_of(st.sampled_from([0.0, 0.5, -0.5, 1.0, -1.0, 1e9, -1e9]),
                      st.floats(-1e9, 1e9))
    t0 = alpha * draw(ratio)
    z0 = draw(st.one_of(st.sampled_from([np.inf, -np.inf, 1e300]),
                        ratio.map(lambda c: beta * c)))
    times = neighbours([t0 - alpha, t0 + alpha, t0])
    marks = neighbours([z0 - beta, z0 + beta, z0] if np.isfinite(z0) else [0.0, 1.0, 2.0])
    rows = [(draw(st.permutations(times)), draw(st.permutations(marks)),
             draw(st.lists(st.sampled_from([0, 1, 1]), min_size=len(times),
                           max_size=len(times))))
            for _ in range(2)]
    stack = _Stack(*(np.array(c) for c in zip(*rows)))
    other = (draw(st.sampled_from(times)), draw(st.sampled_from(marks)))
    return stack, (t0, z0, alpha, beta), other


@PROPERTY
@given(window_edges(), st.sampled_from([EPA, UNI]), st.integers(1, 1000))
def test_windowed_kernel_sums_equal_every_kernel_on_the_window(case, kernel, budget):
    stack, (t0, z0, alpha, beta), (t1, z1) = case
    terms = ALL_TERMS if kernel is EPA else ALL_TERMS[:3]
    config = EstimatorConfig(kernel_t=kernel)
    lone = _Stack(stack.t[0], stack.z[0], stack.delta[0])
    # a batch holds the point in a run with another mark, and alone in the
    # time of another observation; the stack holds the same on both rows
    t = np.array([t0, t0, t1, t0])
    z = np.array([z0, z1, z0, z0])
    row = np.array([0, 0, 1, 1])
    with constants(_CHUNK_BUDGET=budget):
        calls = [
            (estimators._kernel_sums(lone, config, t[:1], z[:1], alpha, beta, terms), [0]),
            (estimators._kernel_sums(lone, config, t, z, alpha, beta, terms), [0, 0, 0, 0]),
            (estimators._kernel_sums(stack, config, t, z, alpha, beta, terms, row), row),
        ]
    for sums, rows in calls:
        for j, r in enumerate(rows):
            want = reference_sums(kernel, stack.t[r], stack.z[r], stack.delta[r], t[j], z[j],
                                  alpha, beta, terms)
            for term, got, expected in zip(terms, sums, want):
                assert got[j].hex() == expected[0].hex(), (term, j)


def test_kernel_sums_choose_their_path_from_the_sizes():
    # both paths give a point the same bits, so only the path taken shows
    # that the bootstrap's small stacks are not sent through the per-run
    # loop: one point, and several runs where the vectorized path would pair
    # one point at a time (an eighth of _CHUNK_BUDGET // n at most one, so
    # n > 15 625), go per run; several runs at smaller n go vectorized
    config = EstimatorConfig(bandwidths=Bandwidths(0.2, 0.2))
    small, edge, large = (sample(scenario_b(), n, 3) for n in (100, 15_625, 15_626))
    stack = _Stack(*(np.stack([getattr(s, name) for s in (small, sample(scenario_b(), 100, 4))])
                     for name in ("t", "z", "delta")))
    t, z, row = np.array([0.3, 0.3, 0.6]), np.array([0.2, 0.5, 0.5]), np.array([0, 1, 1])
    cases = [
        ("per-run", small, t[:1], z[:1], None),
        ("per-run", stack, t[1:2], z[1:2], row[1:2]),
        ("per-run", large, t[:1], z[:1], None),
        ("per-run", large, t, z, None),
        ("vectorized", edge, t, z, None),
        ("vectorized", small, t, z, None),
        ("vectorized", stack, t, z, row),
    ]
    for want, s, t0, z0, r in cases:
        with mock.patch.object(estimators, "_run_sums", wraps=estimators._run_sums) as per_run, \
                mock.patch.object(estimators, "_batch_sums",
                                  wraps=estimators._batch_sums) as vectorized:
            estimators._kernel_sums(s, config, t0, z0, 0.2, 0.2, ALL_TERMS, r)
        taken = {"per-run": per_run.call_count, "vectorized": vectorized.call_count}
        assert taken == {path: int(path == want) for path in taken}, (want, len(s.t), t0.size)
