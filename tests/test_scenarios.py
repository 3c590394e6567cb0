"""Truth models, their derivatives, and the exact observation samplers."""

from __future__ import annotations

import io

import numpy as np
import pytest
from scipy import integrate, stats

from csmark import (
    EmptySampleError,
    Sample,
    SupportError,
    observation_density,
    sample,
    scenario_a,
    scenario_b,
)

INTERIOR = np.linspace(0.1, 0.9, 9)


def mixed_fd(f, x, y, h=1e-4):
    return (
        float(f(x + h, y + h))
        - float(f(x + h, y - h))
        - float(f(x - h, y + h))
        + float(f(x - h, y - h))
    ) / (4.0 * h * h)


def central_fd(f, x, h=1e-6):
    return (float(f(x + h)) - float(f(x - h))) / (2.0 * h)


def second_fd(f, x, h=1e-4):
    return (float(f(x + h)) - 2.0 * float(f(x)) + float(f(x - h))) / (h * h)


def test_scenario_a_closed_forms():
    a = scenario_a()
    assert float(a.cdf(0.5, 0.5)) == 0.25
    assert float(a.cdf(0.0, 0.7)) == 0.0
    assert float(a.density(0.3, 0.7)) == 1.0
    assert float(a.marginal_cdf(1.0)) == 1.0
    assert float(a.g(0.5)) == 1.0
    assert float(a.g_prime(0.5)) == 0.0


def test_scenario_b_closed_forms():
    b = scenario_b()
    assert float(b.cdf(0.5, 0.5)) == pytest.approx(0.125, abs=1e-15)
    # oracle: integrate the density over the rectangle
    mass, err = integrate.dblquad(
        lambda y, x: float(b.density(x, y)), 0.0, 0.5, 0.0, 0.5
    )
    assert err < 1e-9
    assert abs(mass - float(b.cdf(0.5, 0.5))) < 1e-9
    assert float(b.d11(0.5, 0.5)) == 0.5
    assert float(b.marginal_cdf(1.0)) == 1.0
    assert float(b.g(0.3)) == pytest.approx(0.6)
    assert float(b.g_prime(0.3)) == 2.0
    # clipping outside the box
    assert float(b.cdf(2.0, 3.0)) == 1.0
    assert float(b.cdf(-0.1, 0.5)) == 0.0


@pytest.mark.parametrize("scenario", [scenario_a(), scenario_b()])
def test_partials_match_finite_differences(scenario):
    for x in INTERIOR:
        for y in INTERIOR:
            assert abs(
                float(scenario.d1(x, y)) - central_fd(lambda u: scenario.cdf(u, y), x)
            ) < 1e-6
            assert abs(
                float(scenario.d2(x, y)) - central_fd(lambda v: scenario.cdf(x, v), y)
            ) < 1e-6
            assert abs(
                float(scenario.d11(x, y)) - second_fd(lambda u: scenario.cdf(u, y), x)
            ) < 1e-5
            assert abs(
                float(scenario.d22(x, y)) - second_fd(lambda v: scenario.cdf(x, v), y)
            ) < 1e-5
            assert abs(
                float(scenario.density(x, y)) - mixed_fd(scenario.cdf, x, y)
            ) < 1e-5


@pytest.mark.parametrize("scenario", [scenario_a(), scenario_b()])
def test_cdf_shape_properties(scenario):
    grid = np.linspace(0.0, 1.0, 21)
    values = np.array([[float(scenario.cdf(x, y)) for y in grid] for x in grid])
    assert np.all(np.diff(values, axis=0) >= -1e-12)
    assert np.all(np.diff(values, axis=1) >= -1e-12)
    np.testing.assert_allclose(values[0, :], 0.0, atol=1e-15)
    np.testing.assert_allclose(values[:, 0], 0.0, atol=1e-15)
    # every rectangle carries nonnegative mass
    rect = values[1:, 1:] - values[1:, :-1] - values[:-1, 1:] + values[:-1, :-1]
    assert rect.min() >= -1e-12


@pytest.mark.parametrize("scenario", [scenario_a(), scenario_b()])
def test_censoring_density_integrates_to_one(scenario):
    val, _ = integrate.quad(lambda t: float(scenario.g(t)), 0.0, 1.0)
    assert abs(val - 1.0) < 1e-8


def test_observation_density_values():
    b = scenario_b()
    assert observation_density(b, 0.5, 0.5, 1) == pytest.approx(0.375, abs=1e-12)
    assert observation_density(b, 0.5, 0.0, 0) == pytest.approx(0.625, abs=1e-12)
    a = scenario_a()
    for t in (0.2, 0.5, 0.9):
        assert observation_density(a, t, 0.3, 1) == pytest.approx(t, abs=1e-12)
    with pytest.raises(SupportError):
        observation_density(b, 1.5, 0.5, 1)
    with pytest.raises(SupportError):
        observation_density(b, -0.1, 0.0, 0)
    with pytest.raises(SupportError):
        observation_density(b, 0.5, 1.5, 1)
    with pytest.raises(ValueError):
        observation_density(b, 0.5, 0.5, 2)


@pytest.mark.parametrize("scenario", [scenario_a(), scenario_b()])
def test_observation_density_total_mass(scenario):
    uncensored, _ = integrate.dblquad(
        lambda z, t: observation_density(scenario, t, z, 1), 0.0, 1.0, 0.0, 1.0
    )
    censored, _ = integrate.quad(
        lambda t: observation_density(scenario, t, 0.0, 0), 0.0, 1.0
    )
    assert abs(uncensored + censored - 1.0) < 1e-6


def test_uncensored_rate_matches_quadrature_oracle():
    """P(delta = 1) = int F0(t, inf) g(t) dt, checked per scenario."""
    a, b = scenario_a(), scenario_b()
    p_a, _ = integrate.quad(
        lambda t: float(a.marginal_cdf(t) * a.g(t)), 0.0, 1.0
    )
    p_b, _ = integrate.quad(
        lambda t: float(b.marginal_cdf(t) * b.g(t)), 0.0, 1.0
    )
    assert abs(p_a - 0.5) < 1e-10
    assert abs(p_b - 7.0 / 12.0) < 1e-10
    assert abs(float(np.mean(sample(a, 100_000, 11).delta)) - p_a) < 0.005
    assert abs(float(np.mean(sample(b, 100_000, 7).delta)) - p_b) < 0.005


def test_latent_sampler_matches_rejection_oracle():
    """Closed-form inverse-CDF draws agree with rejection sampling."""
    b = scenario_b()
    n = 10_000
    _, (x, y) = sample(b, n, 101, return_hidden=True)

    rng = np.random.default_rng(424242)
    xs, ys = [], []
    got = 0
    while got < n:
        cx = rng.uniform(0.0, 1.0, 4 * n)
        cy = rng.uniform(0.0, 1.0, 4 * n)
        keep = rng.uniform(0.0, 2.0, 4 * n) <= (cx + cy)
        xs.append(cx[keep])
        ys.append(cy[keep])
        got += int(np.count_nonzero(keep))
    rx = np.concatenate(xs)[:n]
    ry = np.concatenate(ys)[:n]

    critical = 1.628 * np.sqrt(2.0 / n)  # two-sample KS, 1% level
    assert stats.ks_2samp(x, rx).statistic < critical
    assert stats.ks_2samp(y, ry).statistic < critical


def test_censoring_time_sampler_distributions():
    a, b = scenario_a(), scenario_b()
    ta = sample(a, 10_000, 33).t
    tb = sample(b, 10_000, 34).t
    assert stats.kstest(ta, lambda v: np.clip(v, 0, 1)).pvalue > 0.01
    assert stats.kstest(tb, lambda v: np.clip(v, 0, 1) ** 2).pvalue > 0.01


def test_sample_determinism_and_censoring_structure():
    b = scenario_b()
    s1 = sample(b, 500, 77)
    s2 = sample(b, 500, 77)
    assert np.array_equal(s1.t, s2.t)
    assert np.array_equal(s1.z, s2.z)
    assert np.array_equal(s1.delta, s2.delta)
    assert not np.array_equal(s1.t, sample(b, 500, 700077).t)
    assert s1.seed == 77
    assert len(s1) == 500

    s, (x, y) = sample(b, 500, 77, return_hidden=True)
    np.testing.assert_array_equal(s.delta, (x <= s.t).astype(int))
    np.testing.assert_array_equal(s.z, np.where(s.delta == 1, y, 0.0))
    assert np.all(s.z[s.delta == 0] == 0.0)

    one = sample(b, 1, 5)
    assert len(one) == 1
    assert one.delta[0] in (0, 1)
    with pytest.raises(EmptySampleError):
        sample(b, 0, 5)


def test_sample_validation_errors():
    good_t = np.array([0.1, 0.2])
    with pytest.raises(ValueError):
        Sample(t=good_t, z=np.array([0.5, 0.0]), delta=np.array([1, 2]))
    with pytest.raises(ValueError):
        Sample(t=good_t, z=np.array([-0.5, 0.0]), delta=np.array([1, 0]))
    with pytest.raises(ValueError):
        Sample(t=good_t, z=np.array([0.5, 0.3]), delta=np.array([1, 0]))
    with pytest.raises(ValueError):
        Sample(t=good_t, z=np.array([0.5]), delta=np.array([1]))
    with pytest.raises(ValueError):
        Sample(
            t=good_t.reshape(1, 2),
            z=np.array([[0.5, 0.0]]),
            delta=np.array([[1, 0]]),
        )
    with pytest.raises(EmptySampleError):
        Sample(t=np.array([]), z=np.array([]), delta=np.array([]))

    s = Sample(t=good_t, z=np.array([0.5, 0.0]), delta=np.array([1, 0]))
    with pytest.raises(ValueError):
        s.t[0] = 9.0


def test_sample_rejects_non_finite_times_and_marks():
    with pytest.raises(ValueError, match="finite"):
        Sample(t=[np.nan, 0.5, 0.6], z=[0.0, 0.3, np.inf], delta=[0, 1, 1])
    with pytest.raises(ValueError, match="finite"):
        Sample(t=[0.4, np.inf], z=[0.0, 0.3], delta=[0, 1])
    with pytest.raises(ValueError, match="finite"):
        Sample(t=[0.4, 0.5], z=[0.0, np.nan], delta=[0, 1])


def test_csv_round_trip():
    s = sample(scenario_b(), 64, 123)
    buf = io.StringIO()
    s.to_csv(buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == "t,z,delta"
    back = Sample.from_csv(io.StringIO(text))
    assert np.array_equal(back.t, s.t)
    assert np.array_equal(back.z, s.z)
    assert np.array_equal(back.delta, s.delta)
    with pytest.raises(ValueError):
        Sample.from_csv(io.StringIO("a,b,c\n0.1,0.2,1\n"))


def test_csv_file_round_trip(tmp_path):
    s = sample(scenario_a(), 40, 9)
    path = tmp_path / "sample.csv"
    s.to_csv(path)
    back = Sample.from_csv(path)
    assert np.array_equal(back.t, s.t)
    assert np.array_equal(back.z, s.z)
    assert np.array_equal(back.delta, s.delta)


def test_observations_view():
    s = sample(scenario_b(), 10, 2)
    obs = s.observations()
    assert len(obs) == 10
    assert obs[3].t == float(s.t[3])
    assert obs[3].z == float(s.z[3])
    assert obs[3].delta == int(s.delta[3])
