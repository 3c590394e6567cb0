"""Truth models, their derivatives, and the exact observation samplers."""

from __future__ import annotations

import dataclasses
import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csmark import (
    EmptySampleError,
    Sample,
    sample,
    scenario_a,
    scenario_b,
)
from csmark.scenarios import _observed

INTERIOR = np.linspace(0.1, 0.9, 9)


def central_fd(f, x, h=1e-6):
    return (float(f(x + h)) - float(f(x - h))) / (2.0 * h)


def second_fd(f, x, h=1e-4):
    return (float(f(x + h)) - 2.0 * float(f(x)) + float(f(x - h))) / (h * h)


def test_scenario_a_closed_forms():
    a = scenario_a()
    assert float(a.cdf(0.5, 0.5)) == 0.25
    assert float(a.cdf(0.0, 0.7)) == 0.0
    assert float(a.cdf(1.0, np.inf)) == 1.0
    assert float(a.g(0.5)) == 1.0
    assert float(a.g_prime(0.5)) == 0.0


def test_scenario_b_closed_forms():
    integrate = pytest.importorskip("scipy.integrate")
    b = scenario_b()
    assert float(b.cdf(0.5, 0.5)) == pytest.approx(0.125, abs=1e-15)
    # oracle: integrate the density x + y over the rectangle
    mass, err = integrate.dblquad(lambda y, x: x + y, 0.0, 0.5, 0.0, 0.5)
    assert err < 1e-9
    assert abs(mass - float(b.cdf(0.5, 0.5))) < 1e-9
    assert float(b.d11(0.5, 0.5)) == 0.5
    assert float(b.cdf(1.0, np.inf)) == 1.0
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
                float(scenario.d11(x, y)) - second_fd(lambda u: scenario.cdf(u, y), x)
            ) < 1e-5
            assert abs(
                float(scenario.d22(x, y)) - second_fd(lambda v: scenario.cdf(x, v), y)
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
    integrate = pytest.importorskip("scipy.integrate")
    val, _ = integrate.quad(lambda t: float(scenario.g(t)), 0.0, 1.0)
    assert abs(val - 1.0) < 1e-8


def test_uncensored_rate_matches_quadrature_oracle():
    """P(delta = 1) = int F0(t, inf) g(t) dt, checked per scenario."""
    integrate = pytest.importorskip("scipy.integrate")
    a, b = scenario_a(), scenario_b()
    p_a, _ = integrate.quad(
        lambda t: float(a.cdf(t, np.inf) * a.g(t)), 0.0, 1.0
    )
    p_b, _ = integrate.quad(
        lambda t: float(b.cdf(t, np.inf) * b.g(t)), 0.0, 1.0
    )
    assert abs(p_a - 0.5) < 1e-10
    assert abs(p_b - 7.0 / 12.0) < 1e-10
    assert abs(float(np.mean(sample(a, 100_000, 11).delta)) - p_a) < 0.005
    assert abs(float(np.mean(sample(b, 100_000, 7).delta)) - p_b) < 0.005


def test_latent_sampler_matches_rejection_oracle():
    """Closed-form inverse-CDF draws agree with rejection sampling."""
    stats = pytest.importorskip("scipy.stats")
    b = scenario_b()
    n = 10_000
    x, y = b.draw_xy(np.random.default_rng(101), n)  # what sample(b, n, 101) draws

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
    stats = pytest.importorskip("scipy.stats")
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

    # sample draws the latent pairs first, from the generator seeded with seed
    x, y = b.draw_xy(np.random.default_rng(77), 500)
    np.testing.assert_array_equal(s1.delta, (x <= s1.t).astype(int))
    np.testing.assert_array_equal(s1.z, np.where(s1.delta == 1, y, 0.0))
    assert np.all(s1.z[s1.delta == 0] == 0.0)

    one = sample(b, 1, 5)
    assert len(one) == 1
    assert one.delta[0] in (0, 1)
    with pytest.raises(EmptySampleError):
        sample(b, 0, 5)


def formula_sample(scenario, n, seed):
    """``sample`` as the inverse-CDF formulas read, through the public
    constructor, for the two built-in scenarios."""
    rng = np.random.default_rng(seed)
    u, v = rng.random(n), rng.random(n)
    if scenario.name == "B":
        x = 0.5 * (np.sqrt(1.0 + 8.0 * u) - 1.0)
        y = np.sqrt(x * x + v * (2.0 * x + 1.0)) - x
        t = np.sqrt(rng.random(n))
    else:
        x, y, t = u, v, rng.random(n)
    delta = (x <= t).astype(np.int64)
    return Sample(t=t, z=np.where(delta == 1, y, 0.0), delta=delta, seed=seed)


def assert_same_sample(s, expected):
    for name in ("t", "z", "delta"):
        a = getattr(s, name)
        assert a.dtype == getattr(expected, name).dtype
        assert a.view(np.int64).tobytes() == getattr(expected, name).view(np.int64).tobytes()
        assert a.flags.c_contiguous and not a.flags.writeable
    assert s.delta.dtype == np.int64
    assert s.seed == expected.seed


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["A", "B"]), st.integers(1, 5000), st.integers(0, 2**63))
def test_sample_is_the_formulas_bit_for_bit(name, n, seed):
    scenario = scenario_a() if name == "A" else scenario_b()
    assert_same_sample(sample(scenario, n, seed), formula_sample(scenario, n, seed))


def with_draws(draw_xy=None, draw_t=None):
    b = scenario_b()
    return dataclasses.replace(b, draw_xy=draw_xy or b.draw_xy, draw_t=draw_t or b.draw_t)


def uncensored(marks):
    """Latent pairs at x = 0, so every row is uncensored and shows its mark."""
    return lambda rng, n: (np.zeros(n), np.array(marks, dtype=float))


N = 6
# draws whose values Sample refuses, and draws of the wrong length
BAD_VALUES = {
    "nan mark": with_draws(draw_xy=uncensored([0.5] * (N - 1) + [np.nan])),
    "negative mark": with_draws(draw_xy=uncensored([0.5] * (N - 1) + [-0.5])),
    "infinite mark": with_draws(draw_xy=uncensored([np.inf] + [0.5] * (N - 1))),
    "infinite time": with_draws(draw_t=lambda rng, n: np.full(n, np.inf)),
    "nan time": with_draws(draw_t=lambda rng, n: np.full(n, np.nan)),
}
BAD_LENGTHS = {
    "short pairs": with_draws(draw_xy=lambda rng, n: (rng.random(n - 1), rng.random(n - 1))),
    "long times": with_draws(draw_t=lambda rng, n: rng.random(n + 1)),
}


def public_refusal(scenario):
    """What Sample refuses the scenario's draws with, built as _observed
    builds the observations."""
    rng = np.random.default_rng(3)
    x, y = scenario.draw_xy(rng, N)
    t = scenario.draw_t(rng, N)
    with pytest.raises(ValueError) as refused:
        Sample(*_observed(x, y, t))
    return refused.value


@pytest.mark.parametrize("case", [*BAD_VALUES, *BAD_LENGTHS])
def test_sample_refuses_bad_draws_as_the_public_constructor(case):
    scenario = {**BAD_VALUES, **BAD_LENGTHS}[case]
    expected = public_refusal(scenario)
    with pytest.raises(type(expected)) as drawn:
        sample(scenario, N, 3)
    if case in BAD_VALUES:
        assert str(drawn.value) == str(expected)
    else:
        assert f"length {N}," in str(drawn.value)


def test_sample_takes_any_draw_that_converts_and_writes_only_its_own():
    """Lists, float32, read-only arrays and views are copied, never written
    to; one array returned twice is not overwritten before it is read."""
    b = scenario_b()
    returned, before = [], []

    def draws(convert):
        def kept(a):
            returned.append(convert(a))
            before.append(np.array(returned[-1], dtype=float))
            return returned[-1]

        return with_draws(
            lambda rng, n: tuple(kept(a) for a in b.draw_xy(rng, n)),
            lambda rng, n: kept(b.draw_t(rng, n)),
        )

    def read_only(a):
        a.setflags(write=False)
        return a

    def view(a):
        return np.concatenate([a, a])[: a.size]  # C-contiguous, not owning

    for convert in (list, lambda a: a.astype(np.float32), read_only, view):
        returned.clear()
        before.clear()
        s = sample(draws(convert), 500, 8)
        assert_same_sample(s, Sample(*_observed(*before), seed=8))
        for a, snapshot in zip(returned, before):
            assert np.array(a, dtype=float).tobytes() == snapshot.tobytes()

    twice = with_draws(draw_xy=lambda rng, n: (rng.random(n),) * 2)
    rng = np.random.default_rng(8)
    x = rng.random(500)
    t = twice.draw_t(rng, 500)
    assert_same_sample(sample(twice, 500, 8), Sample(*_observed(x, x, t), seed=8))


def test_sample_validation_errors():
    good_t = np.array([0.1, 0.2])
    with pytest.raises(ValueError):
        Sample(t=good_t, z=np.array([0.5, 0.0]), delta=np.array([1, 2]))
    with pytest.raises(ValueError):
        Sample(t=good_t, z=np.array([-0.5, 0.0]), delta=np.array([1, 0]))
    with pytest.raises(ValueError):
        Sample(t=good_t, z=np.array([0.5, 0.3]), delta=np.array([1, 0]))
    with pytest.raises(ValueError, match="zero mark"):
        Sample(t=good_t, z=np.array([0.5, 5e-324]), delta=np.array([1, 0]))
    Sample(t=good_t, z=np.array([0.5, -0.0]), delta=np.array([1, 0]))
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


def test_sample_rejects_non_integral_delta():
    with pytest.raises(ValueError, match="^delta must be 0 or 1$"):
        Sample(t=[0.1, 0.2], z=[0.0, 0.3], delta=[0.7, 1.9])
    with pytest.raises(ValueError, match="^delta must be 0 or 1$"):
        Sample(t=[0.1, 0.2], z=[0.0, 0.3], delta=[np.nan, 1.0])
    s = Sample(t=[0.1, 0.2], z=[0.0, 0.3], delta=[0.0, 1.0])
    assert s.delta.dtype == np.int64
    assert s.delta.tolist() == [0, 1]


PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)

# latent marks a censored row may carry: they never reach the sample
ANY_MARK = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, np.nan, np.inf, -np.inf, -5e-324, -1.0]),
)
# uncensored marks must pass the sample's checks
VALID_MARK = st.one_of(
    st.floats(0.0, 1e300), st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308])
)


@PROPERTY
@given(
    st.lists(
        st.one_of(st.tuples(st.just(0), ANY_MARK), st.tuples(st.just(1), VALID_MARK)),
        min_size=1,
        max_size=30,
    )
)
def test_current_status_marks_are_the_masked_latent_marks(rows):
    delta = np.array([d for d, _ in rows])
    y = np.array([m for _, m in rows])
    t = np.linspace(0.1, 0.9, delta.size)
    x = np.where(delta == 1, t - 0.05, t + 0.05)
    s = _observed(x, y, t)
    assert s.delta.tolist() == delta.tolist()
    assert s.z.tobytes() == np.where(delta == 1, y, 0.0).tobytes()
    assert s.t.tobytes() == t.tobytes()


def masked_sample_verdict(t, z, delta):
    """The sample checks as written with a boolean gather, for integer delta."""
    t, z = np.asarray(t, dtype=float), np.asarray(z, dtype=float)
    delta = np.asarray(delta, dtype=np.int64)
    if not np.all(np.isfinite(t)):
        return "times must be finite"
    censored = delta == 0
    if not np.all(censored | (delta == 1)):
        return "delta must be 0 or 1"
    if not (np.all(z >= 0.0) and np.all(np.isfinite(z))):
        return "marks must be finite and nonnegative"
    if np.any(z[censored] != 0.0):
        return "censored rows must carry a zero mark"
    return None


ROW = st.tuples(
    st.one_of(st.floats(0.0, 1.0), st.sampled_from([np.nan, np.inf, -np.inf])),
    st.one_of(
        st.floats(0.0, 1.0),
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, np.nan, np.inf, -1.0]),
    ),
    st.integers(-1, 2),
)


@PROPERTY
@given(st.lists(ROW, min_size=1, max_size=6))
@example([(0.5, -0.0, 0), (0.6, 0.3, 1)])  # censored -0.0 is a zero mark
@example([(0.5, 5e-324, 0), (0.6, 0.3, 1)])  # a subnormal one is not
@example([(0.5, 0.0, -1)])
@example([(0.5, 0.3, 2)])
def test_sample_accepts_and_rejects_as_the_masked_checks(rows):
    t, z, delta = (list(col) for col in zip(*rows))
    try:
        Sample(t=t, z=z, delta=delta)
        verdict = None
    except ValueError as exc:
        verdict = str(exc)
    assert verdict == masked_sample_verdict(t, z, delta)


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
    # a row with too few or too many fields, a field that is not a number or
    # a delta that is not an integer is refused by its line number
    for row in ("0.5,0.1", "0.5,0.1,1,9", "0.5,x,1", "y,0.1,1", "0.5,0.1,0.5", "0.5,0.1,"):
        with pytest.raises(ValueError, match="^line 3: "):
            Sample.from_csv(io.StringIO(f"t,z,delta\n0.4,0.2,1\n{row}\n"))


def test_csv_file_round_trip(tmp_path):
    s = sample(scenario_a(), 40, 9)
    path = tmp_path / "sample.csv"
    s.to_csv(path)
    back = Sample.from_csv(path)
    assert np.array_equal(back.t, s.t)
    assert np.array_equal(back.z, s.z)
    assert np.array_equal(back.delta, s.delta)
