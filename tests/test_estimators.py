"""Plug-in ratio estimators: values, identities, and failure modes."""

from __future__ import annotations

import io
import re
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from csmark import (
    Bandwidths,
    DegeneratePilotError,
    DerivativeUnavailableError,
    EstimatorConfig,
    InvalidBandwidthError,
    KernelAssumptionError,
    PilotModel,
    Sample,
    SupportError,
    UnstableDenominatorError,
    custom_kernel,
    epanechnikov_kernel,
    evaluate_grid,
    f1,
    f1_counting,
    f2,
    f2_density,
    g_hat,
    g_hat_prime,
    h0_hat,
    product_kernel,
    sample,
    scenario_a,
    scenario_b,
    uniform_kernel,
    write_grid_csv,
)
from csmark import estimators

EPA = epanechnikov_kernel()
UNI = uniform_kernel()


def uniform_config(alpha, beta=None):
    ktz = product_kernel(UNI) if beta is not None else None
    return EstimatorConfig(kernel_t=UNI, bandwidths=Bandwidths(alpha, beta), kernel_tz=ktz)


def epa_config(alpha, beta=None):
    ktz = product_kernel(EPA) if beta is not None else None
    return EstimatorConfig(kernel_t=EPA, bandwidths=Bandwidths(alpha, beta), kernel_tz=ktz)


def tiny_sample():
    return Sample(
        t=np.array([0.5, 0.52, 0.48]),
        z=np.array([0.3, 0.9, 0.0]),
        delta=np.array([1, 1, 0]),
    )


def test_g_hat_single_observation():
    s = Sample(t=np.array([0.5]), z=np.array([0.2]), delta=np.array([1]))
    assert g_hat(s, uniform_config(0.2), 0.5) == 2.5
    assert g_hat(s, epa_config(0.2), 0.5) == 3.75


def test_g_hat_empty_window_is_zero():
    s = Sample(t=np.array([0.1, 0.15]), z=np.array([0.5, 0.0]), delta=np.array([1, 0]))
    assert g_hat(s, epa_config(0.05), 0.9) == 0.0


def test_g_hat_recovers_flat_censoring_density():
    s = sample(scenario_a(), 100_000, 3)
    config = epa_config(0.05)
    for t0 in (0.3, 0.5, 0.7):
        assert abs(g_hat(s, config, t0) - 1.0) < 0.03


def test_g_hat_prime_exact_cases_and_consistency():
    pair = Sample(t=np.array([0.4, 0.6]), z=np.array([0.2, 0.0]), delta=np.array([1, 0]))
    assert g_hat_prime(pair, epa_config(0.5), 0.5) == 0.0
    single = Sample(t=np.array([0.5]), z=np.array([0.0]), delta=np.array([0]))
    assert g_hat_prime(single, epa_config(0.3), 0.5) == 0.0

    s = sample(scenario_b(), 100_000, 5)
    assert abs(g_hat_prime(s, epa_config(0.08), 0.5) - 2.0) < 0.3

    with pytest.raises(DerivativeUnavailableError):
        g_hat_prime(s, uniform_config(0.1), 0.5)


def test_g_hat_prime_matches_finite_difference_of_g_hat():
    # g_hat is piecewise smooth in t0 with kinks at every t_i +- alpha, so
    # the step must be small enough that the window is almost surely clean
    s = sample(scenario_b(), 5000, 8)
    config = epa_config(0.15)
    d = 1e-5
    for t0 in (0.35, 0.5, 0.65):
        fd = (g_hat(s, config, t0 + d) - g_hat(s, config, t0 - d)) / (2 * d)
        assert abs(g_hat_prime(s, config, t0) - fd) < 1e-4


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
    s = tiny_sample()
    no_beta = EstimatorConfig(
        kernel_t=EPA, bandwidths=Bandwidths(0.1), kernel_tz=product_kernel(EPA)
    )
    with pytest.raises(InvalidBandwidthError):
        f2(s, no_beta, 0.5, 0.5)  # no mark bandwidth
    config = EstimatorConfig(kernel_t=EPA, bandwidths=Bandwidths(0.1, 0.1))
    with pytest.raises(KernelAssumptionError):
        f2(s, config, 0.5, 0.5)  # no bivariate kernel
    mismatched = EstimatorConfig(
        kernel_t=UNI,
        bandwidths=Bandwidths(0.1, 0.1),
        kernel_tz=product_kernel(EPA),
    )
    with pytest.raises(KernelAssumptionError):
        f2(s, mismatched, 0.5, 0.5)


def test_f2_accepts_pointwise_identical_time_factor():
    clone = custom_kernel("epa-clone", pdf=EPA.pdf, cdf=EPA.cdf, deriv=EPA.deriv)
    config = EstimatorConfig(
        kernel_t=clone,
        bandwidths=Bandwidths(0.2, 0.2),
        kernel_tz=product_kernel(EPA),
    )
    s = sample(scenario_b(), 100, 6)
    assert 0.0 <= f2(s, config, 0.5, 0.5) <= 1.0


def test_h0_decomposes_g_hat():
    s = sample(scenario_b(), 2000, 15)
    config = epa_config(0.2)
    for t0 in (0.3, 0.5, 0.7):
        g = g_hat(s, config, t0)
        uncensored_mass = f1(s, config, t0, 10.0) * g
        assert abs(h0_hat(s, config, t0) + uncensored_mass - g) < 1e-14


def test_h0_value_at_interior_point():
    s = sample(scenario_b(), 100_000, 9)
    # truth: g(0.5) * (1 - F0(0.5, inf)) = 1 * 0.625
    assert abs(h0_hat(s, epa_config(0.05), 0.5) - 0.625) < 0.02


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
        kz = config.kernel_tz.factor_z
        terms["f2"] = w * s.delta * kz.cdf((z0 - s.z) / beta)
        if kt.deriv is not None:
            wz = kz.pdf((z0 - s.z) / beta) / beta
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
def samples(draw, max_n=40):
    n = draw(st.integers(1, max_n))
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
        kernel_tz=product_kernel(k),
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
        pilot = PilotModel(s, config, envelope_grid=5)
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
    pilot = PilotModel(s, config, envelope_grid=5)
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
    terms = ("g", "f1", "f2", "h0") + (("gp", "h", "dh") if kernel is EPA else ())
    config = EstimatorConfig(kernel_t=kernel, kernel_tz=product_kernel(kernel))
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
@given(samples(), st.sampled_from([EPA, UNI]), st.sampled_from([1e-8, 0.1, 0.5, 2.0]),
       st.data(), st.integers(1, 100))
def test_batch_estimates_equal_single_point_estimates(s, kernel, floor, data, budget):
    # the bootstrap's use: one batch of points, each with its own bandwidths
    estimates = {"F1": f1, "F2": f2} | ({"density": f2_density} if kernel is EPA else {})
    config = EstimatorConfig(
        kernel_t=kernel, kernel_tz=product_kernel(kernel), g_floor=floor
    )
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
    assert abs(1.0 - top - h0_hat(s, config, t0) / g_hat(s, config, t0)) <= 1e-12


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
