"""Kernel shapes, rescaling, moment constants, and assumption checks."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from csmark import (
    Bandwidths,
    InvalidBandwidthError,
    KernelAssumptionError,
    custom_kernel,
    epanechnikov_kernel,
    eval_rescaled,
    eval_rescaled_cdf,
    l2_norm_sq,
    mu1_sigma2,
    require_valid,
    scenario_b,
    second_moment,
    uniform_kernel,
    validate_conditions,
)
from csmark.kernels import (
    _epanechnikov_deriv,
    _epanechnikov_deriv_bounds,
    _epanechnikov_pdf,
    _epanechnikov_pdf_bounds,
)


def biweight_kernel():
    """A validated custom kernel with known closed-form constants."""
    return custom_kernel(
        name="biweight",
        pdf=lambda u: np.where(
            np.abs(np.asarray(u, dtype=float)) <= 1.0,
            15.0 / 16.0 * (1.0 - np.asarray(u, dtype=float) ** 2) ** 2,
            0.0,
        ),
        cdf=lambda u: 15.0
        / 16.0
        * (
            np.clip(np.asarray(u, dtype=float), -1.0, 1.0)
            - 2.0 / 3.0 * np.clip(np.asarray(u, dtype=float), -1.0, 1.0) ** 3
            + 0.2 * np.clip(np.asarray(u, dtype=float), -1.0, 1.0) ** 5
        )
        + 0.5,
        deriv=lambda u: np.where(
            np.abs(np.asarray(u, dtype=float)) <= 1.0,
            -15.0
            / 4.0
            * np.asarray(u, dtype=float)
            * (1.0 - np.asarray(u, dtype=float) ** 2),
            0.0,
        ),
    )


def shifted_epanechnikov():
    """Epanechnikov moved off-center: asymmetric, mass outside [-1, 1]."""
    base = epanechnikov_kernel()
    return custom_kernel(
        name="shifted",
        pdf=lambda u: base.pdf(np.asarray(u, dtype=float) - 0.2),
        cdf=lambda u: base.cdf(np.asarray(u, dtype=float) - 0.2),
    )


def test_moment_constants_match_closed_forms():
    # closed forms: m2 = 1/3, 1/5, 1/7 and l2 = 1/2, 3/5, 5/7
    assert abs(second_moment(uniform_kernel()) - 1.0 / 3.0) < 1e-10
    assert abs(second_moment(epanechnikov_kernel()) - 0.2) < 1e-10
    assert abs(second_moment(biweight_kernel()) - 1.0 / 7.0) < 1e-10
    assert abs(l2_norm_sq(uniform_kernel()) - 0.5) < 1e-10
    assert abs(l2_norm_sq(epanechnikov_kernel()) - 0.6) < 1e-10
    assert abs(l2_norm_sq(biweight_kernel()) - 5.0 / 7.0) < 1e-10


def test_product_kernel_moments_use_time_factor():
    # a uniform-time x Epanechnikov-mark kernel: the limit-law constants take
    # the time factor's m2 = 1/3 and ||k||^2 = 1/2, not the mark factor's
    time, mark = uniform_kernel(), epanechnikov_kernel()
    assert abs(second_moment(time) - 1.0 / 3.0) < 1e-10
    assert abs(l2_norm_sq(time) - 0.5) < 1e-10
    scenario, point = scenario_b(), (0.5, 0.5)
    with_time = mu1_sigma2(scenario, point, 0.5, time)
    with_mark = mu1_sigma2(scenario, point, 0.5, mark)
    # mu1 scales with m2 and sigma2 with ||k||^2
    assert with_time.mu1 / with_mark.mu1 == pytest.approx((1.0 / 3.0) / 0.2)
    assert with_time.sigma2 / with_mark.sigma2 == pytest.approx(0.5 / 0.6)


def test_eval_rescaled_point_values():
    assert float(eval_rescaled(uniform_kernel(), 1.0, 0.0)) == 0.5
    assert float(eval_rescaled(epanechnikov_kernel(), 1.0, 0.0)) == 0.75
    assert float(eval_rescaled(epanechnikov_kernel(), 0.5, 0.6)) == 0.0
    # rescaling divides by the bandwidth
    assert float(eval_rescaled(uniform_kernel(), 0.2, 0.0)) == 2.5
    out = eval_rescaled(epanechnikov_kernel(), 0.3, np.array([0.0, 0.1, 5.0]))
    assert out.shape == (3,)
    assert out[2] == 0.0


def test_rescaled_kernel_integrates_to_one():
    for kernel in (uniform_kernel(), epanechnikov_kernel(), biweight_kernel()):
        for alpha in (0.05, 0.1, 0.5, 1.0):
            val, _ = integrate.quad(
                lambda u: float(eval_rescaled(kernel, alpha, u)),
                -alpha,
                alpha,
            )
            assert abs(val - 1.0) < 1e-8, (kernel.name, alpha)


def test_eval_rescaled_rejects_bad_bandwidths():
    for bad in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(InvalidBandwidthError):
            eval_rescaled(uniform_kernel(), bad, 0.0)
        with pytest.raises(InvalidBandwidthError):
            eval_rescaled_cdf(epanechnikov_kernel(), bad, 0.0)


def test_bandwidths_validation():
    bw = Bandwidths(0.1)
    assert bw.beta is None
    assert Bandwidths(0.1, 0.05).beta == 0.05
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(InvalidBandwidthError):
            Bandwidths(bad)
        with pytest.raises(InvalidBandwidthError):
            Bandwidths(0.1, bad)


def test_antiderivatives_match_numeric_integration():
    """Closed-form antiderivatives agree with quadrature of the density."""
    grid = np.linspace(-1.0, 1.0, 100)
    for kernel in (uniform_kernel(), epanechnikov_kernel(), biweight_kernel()):
        assert float(kernel.cdf(-1.0)) == pytest.approx(0.0, abs=1e-12)
        assert float(kernel.cdf(1.0)) == pytest.approx(1.0, abs=1e-12)
        values = kernel.cdf(grid)
        assert np.all(np.diff(values) >= -1e-12)
        for u in grid:
            num, _ = integrate.quad(lambda v: float(kernel.pdf(v)), -1.0, u)
            assert abs(num - float(kernel.cdf(u))) < 1e-8, (kernel.name, u)
        # clipping: the antiderivative saturates outside the support
        assert float(kernel.cdf(-3.0)) == pytest.approx(0.0, abs=1e-12)
        assert float(kernel.cdf(3.0)) == pytest.approx(1.0, abs=1e-12)


def test_symmetry_and_compact_support():
    grid = np.linspace(0.0, 1.0, 57)
    outside = np.array([1.0001, 1.5, 2.0, -1.2, -7.0])
    for kernel in (uniform_kernel(), epanechnikov_kernel(), biweight_kernel()):
        np.testing.assert_allclose(
            kernel.pdf(grid), kernel.pdf(-grid), rtol=0, atol=1e-14
        )
        assert np.all(kernel.pdf(outside) == 0.0)


def test_epanechnikov_derivative_matches_finite_differences():
    k = epanechnikov_kernel()
    h = 1e-6
    for u in np.linspace(-0.9, 0.9, 37):
        fd = (float(k.pdf(u + h)) - float(k.pdf(u - h))) / (2.0 * h)
        assert abs(fd - float(k.deriv(u))) < 1e-6
    assert uniform_kernel().deriv is None


def test_validate_conditions_menu():
    ok = validate_conditions(epanechnikov_kernel())
    assert ok.all_ok
    assert ok.failures() == []
    assert ok.kernel_name == "epanechnikov x epanechnikov"
    assert validate_conditions(epanechnikov_kernel(), epanechnikov_kernel()) == ok

    mixed = validate_conditions(uniform_kernel(), epanechnikov_kernel())
    assert mixed.kernel_name == "uniform x epanechnikov"
    assert not mixed.moments_ok
    assert mixed.shape_ok
    # the residual is the second-moment mismatch 1/3 - 1/5
    assert mixed.moments_residual == pytest.approx(2.0 / 15.0, rel=1e-6)
    assert mixed.failures() == ["moments"]

    # a mark kernel short of unit mass fails the moments group, by its defect
    light_epa = epanechnikov_kernel()
    light = custom_kernel("light", lambda u: 0.9 * light_epa.pdf(u),
                          lambda u: 0.9 * light_epa.cdf(u))
    short = validate_conditions(epanechnikov_kernel(), light)
    assert short.failures() == ["moments"]
    assert short.moments_residual == pytest.approx(0.1, rel=1e-9)

    shifted = validate_conditions(shifted_epanechnikov(), epanechnikov_kernel())
    assert not shifted.shape_ok
    assert "shape" in shifted.failures()


def test_require_valid_raises_on_bad_kernel():
    require_valid(epanechnikov_kernel())
    with pytest.raises(KernelAssumptionError) as exc:
        require_valid(uniform_kernel(), epanechnikov_kernel())
    assert "moments" in str(exc.value)


def masked_uniform_pdf(u):
    u = np.asarray(u, dtype=float)
    return np.where(np.abs(u) <= 1.0, 0.5, 0.0)


def masked_epanechnikov_pdf(u):
    u = np.asarray(u, dtype=float)
    return np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0)


EDGES = np.array(
    [
        -1.0,
        1.0,
        np.nextafter(1.0, 2.0),
        np.nextafter(-1.0, -2.0),
        np.nextafter(1.0, 0.0),
        np.nextafter(-1.0, 0.0),
        0.0,
        -0.0,
        5e-324,
        np.inf,
        -np.inf,
        np.nan,
    ]
)


def test_builtin_pdfs_equal_the_masked_definitions_bit_for_bit():
    u = np.concatenate([np.linspace(-1.5, 1.5, 300_001), EDGES])
    for kernel, masked in (
        (uniform_kernel(), masked_uniform_pdf),
        (epanechnikov_kernel(), masked_epanechnikov_pdf),
    ):
        got, want = kernel.pdf(u), masked(u)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), kernel.name


def test_epanechnikov_antiderivative_is_exactly_0_and_1_off_the_support():
    cdf = epanechnikov_kernel().cdf
    below = np.array([-1.0, np.nextafter(-1.0, -2.0), -1.5, -1e300, -np.inf])
    low, high = cdf(below), cdf(-below)
    assert np.all(low == 0.0) and not np.any(np.signbit(low))
    assert np.all(high == 1.0)


def test_epanechnikov_antiderivative_is_nondecreasing():
    values = epanechnikov_kernel().cdf(np.linspace(-1.5, 1.5, 2_000_000))
    assert np.all(np.diff(values) >= 0.0)


def test_epanechnikov_antiderivative_agrees_with_the_pow_form():
    rng = np.random.default_rng(5)
    u = np.concatenate([np.linspace(-1.5, 1.5, 1_000_001), rng.uniform(-1, 1, 10**6)])
    c = np.clip(u, -1.0, 1.0)
    pow_form = 0.25 * (2.0 + 3.0 * c - c**3)
    assert np.max(np.abs(epanechnikov_kernel().cdf(u) - pow_form)) <= 2.3e-16


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    a=st.floats(-1.6, 1.6),
    width=st.sampled_from([0.0]) | st.floats(0.0, 1.0),
)
def test_epanechnikov_interval_bounds_hold_and_are_attained(a, width):
    b = a + width
    # the ends, the kinks and peak where inside, and points between
    u = np.concatenate(([a, b], np.clip([-1.0, 0.0, 1.0], a, b), np.linspace(a, b, 41)))
    for f, bounds in (
        (_epanechnikov_pdf, _epanechnikov_pdf_bounds),
        (_epanechnikov_deriv, _epanechnikov_deriv_bounds),
    ):
        lo, hi = bounds(np.array([a]), np.array([b]))
        values = f(u)
        assert values.min() == lo[0] and values.max() == hi[0]
