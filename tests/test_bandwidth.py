"""Pilot fitting, bootstrap resampling, and bandwidth selection."""

from __future__ import annotations

import io
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from csmark import (
    BootstrapMseTable,
    BootstrapPlan,
    DegeneratePilotError,
    InvalidBandwidthError,
    KernelAssumptionError,
    MseRow,
    Sample,
    SelectionError,
    SupportError,
    UnstableDenominatorError,
    bootstrap_mse,
    custom_kernel,
    epanechnikov_kernel,
    eval_rescaled_cdf,
    f1,
    f2,
    fit_pilot,
    sample,
    scenario_a,
    scenario_b,
    select,
    uniform_kernel,
    EstimatorConfig,
    Bandwidths,
)
from csmark import bandwidth, estimators, pilot as pilot_module
from csmark.pilot import _ENVELOPE_SAFETY, PilotModel, _density_bounds, _epanechnikov_noise

B = scenario_b()


def small_plan(**overrides):
    params = dict(
        alpha0=0.4,
        beta0=0.4,
        replications=30,
        alpha_grid=(0.2, 0.35, 0.5),
        beta_grid=(0.2, 0.4),
        point=(0.5, 0.5),
        seed=101,
    )
    params.update(overrides)
    return BootstrapPlan(**params)


def test_bootstrap_plan_validation():
    small_plan()  # the baseline parameters are valid
    assert issubclass(InvalidBandwidthError, ValueError)
    for bad in (0, 2.5):
        with pytest.raises(InvalidBandwidthError):
            small_plan(replications=bad)
    small_plan(replications=np.int64(3))
    with pytest.raises(InvalidBandwidthError):
        small_plan(alpha_grid=())
    with pytest.raises(InvalidBandwidthError):
        small_plan(beta_grid=(0.4, 0.2))
    with pytest.raises(InvalidBandwidthError):
        small_plan(alpha_grid=(0.0, 0.2))
    with pytest.raises(InvalidBandwidthError):
        small_plan(alpha0=0.0)
    # the seed is checked at construction, not when the first generator is made
    for bad in (-1, 1.5, True):
        with pytest.raises(ValueError, match=r"^seed must be an integer >= 0, got "):
            small_plan(seed=bad)
    small_plan(seed=np.int64(0))


def test_bootstrap_plan_rejects_non_finite_bandwidths():
    for bad in (np.nan, np.inf):
        for field in ("alpha0", "beta0"):
            with pytest.raises(InvalidBandwidthError):
                small_plan(**{field: bad})
        with pytest.raises(InvalidBandwidthError):
            small_plan(alpha_grid=(0.2, bad))
        with pytest.raises(InvalidBandwidthError):
            small_plan(beta_grid=(bad,))


@pytest.mark.parametrize(
    "point", [(np.nan, 0.5), (np.inf, 0.5), (-np.inf, 0.5), (0.5, np.nan)]
)
def test_bootstrap_plan_rejects_bad_points(point):
    with pytest.raises(SupportError):
        small_plan(point=point)


def test_kernel_noise_distributions():
    stats = pytest.importorskip("scipy.stats")  # the KS test's oracle
    rng = np.random.default_rng(90)
    epa = _epanechnikov_noise(rng, 20_000)
    assert np.all(np.abs(epa) <= 1.0)
    assert stats.kstest(epa, lambda u: epanechnikov_kernel().cdf(u)).pvalue > 0.01


def test_fit_pilot_density_envelope_and_target():
    s = sample(B, 100, 14)
    pilot = fit_pilot(s, 0.4, 0.4)
    grid = np.linspace(0.0, 1.0, 60)
    tt, zz = np.meshgrid(grid, grid, indexing="ij")
    dens = pilot.density(tt.ravel(), zz.ravel())
    assert np.all(dens >= 0.0)
    assert pilot.envelope >= 1.1 * dens.max()
    assert pilot.target(0.5, 0.5) == f2(s, pilot.config, 0.5, 0.5)


def test_fit_pilot_degenerate_without_uncensored_mass():
    n = 40
    s = Sample(t=np.linspace(0.05, 0.95, n), z=np.zeros(n), delta=np.zeros(n, dtype=int))
    with pytest.raises(DegeneratePilotError):
        fit_pilot(s, 0.4, 0.4)


def test_pilot_draws_deterministic_and_in_box():
    s = sample(B, 100, 14)
    pilot = fit_pilot(s, 0.4, 0.4)
    (x1,), (y1,) = pilot.draw_xy([np.random.default_rng(7)], 500)
    (x2,), (y2,) = pilot.draw_xy([np.random.default_rng(7)], 500)
    np.testing.assert_array_equal(x1, x2)
    np.testing.assert_array_equal(y1, y2)
    assert np.all((x1 >= 0.0) & (x1 <= 1.0))
    assert np.all((y1 >= 0.0) & (y1 <= 1.0))

    t1 = pilot.draw_t(np.random.default_rng(8), 500)
    t2 = pilot.draw_t(np.random.default_rng(8), 500)
    np.testing.assert_array_equal(t1, t2)
    assert t1.min() >= s.t.min() - 0.4
    assert t1.max() <= s.t.max() + 0.4


def test_proposal_cells_are_the_searchsorted_cells():
    edges = np.linspace(0.0, 1.0, pilot_module._ENVELOPE_GRID)
    x = np.concatenate([
        edges[:-1],  # every node, the float after it and the float before it
        np.nextafter(edges[:-1], 1.0),
        np.nextafter(edges[1:], 0.0),
        np.random.default_rng(0).random(100_000),
    ])
    assert x.min() >= 0.0 and x.max() < 1.0
    want = np.searchsorted(edges, x, "right") - 1
    assert pilot_module._cell_of(edges, x).tobytes() == want.tobytes()


def test_draw_xy_gives_up_when_nothing_is_accepted(monkeypatch):
    pilot = fit_pilot(sample(B, 100, 14), 0.4, 0.4)
    # a density that is zero everywhere, in the squeeze's bounds as well
    monkeypatch.setattr(pilot, "density", lambda t, z: np.zeros(np.shape(t)))
    zeros = np.zeros_like(pilot._cells[0])
    monkeypatch.setattr(pilot, "_cells", (zeros, zeros))
    with pytest.raises(DegeneratePilotError, match="accepted 0 of"):
        pilot.draw_xy([np.random.default_rng(3)], 10)


def _exact_draw_xy(pilot, rng, size):
    """``draw_xy`` without the squeeze: the density at every proposal.

    Returns the draws and the number of local envelope refreshes.
    """
    envelope = pilot.envelope
    xs, ys = [], []
    got = refreshes = 0
    while got < size:
        batch = max(256, 2 * (size - got))
        x = rng.uniform(0.0, 1.0, batch)
        y = rng.uniform(0.0, 1.0, batch)
        u = rng.random(batch)
        dens = pilot.density(x, y)
        peak = float(np.max(dens))
        if peak > envelope:
            envelope = _ENVELOPE_SAFETY * peak
            refreshes += 1
        keep = u * envelope <= dens
        xs.append(x[keep])
        ys.append(y[keep])
        got += int(np.count_nonzero(keep))
    return np.concatenate(xs)[:size], np.concatenate(ys)[:size], refreshes


def test_envelope_is_the_exact_peak_from_a_few_nodes(monkeypatch):
    """One bound pass per fit: the cell bounds of the squeeze also pick the
    nodes that can hold the envelope's peak."""
    s = sample(B, 100, 1)
    calls = []

    def counting(*args):
        calls.append(args)
        return _density_bounds(*args)

    with monkeypatch.context() as m:
        m.setattr(pilot_module, "_density_bounds", counting)
        pilot = fit_pilot(s, 0.4, 0.4)
    grid = np.linspace(0.0, 1.0, 200)
    tt, zz = np.meshgrid(grid, grid, indexing="ij")
    assert pilot.envelope == _ENVELOPE_SAFETY * pilot.density(tt.ravel(), zz.ravel()).max()
    assert len(calls) == 1


@pytest.mark.parametrize("seed,envelope", [
    (0, "0x1.bf78b7337964bp+0"),
    (1, "0x1.3777581db0224p+1"),
    (2, "0x1.1b3155056edcep+2"),
])
def test_envelopes_are_pinned(seed, envelope):
    assert fit_pilot(sample(B, 100, seed), 0.4, 0.4).envelope == float.fromhex(envelope)


PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)

fractions = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


@PROPERTY
@given(
    scenario=st.sampled_from([scenario_a(), B]),
    n=st.integers(10, 150),
    seed=st.integers(0, 10_000),
    alpha=st.floats(0.03, 0.8),
    beta=st.floats(0.03, 0.8),
    g_floor=st.sampled_from([1e-8, 0.1, 0.6]),
    t_cells=st.lists(st.tuples(st.floats(-0.3, 1.3), st.sampled_from([0.0]) | st.floats(0.0, 0.1)),
                     min_size=1, max_size=4),
    z_cells=st.lists(st.tuples(st.floats(-0.3, 1.3), st.sampled_from([0.0]) | st.floats(0.0, 0.1)),
                     min_size=1, max_size=4),
    frac=st.lists(st.tuples(fractions, fractions), min_size=1, max_size=6),
)
def test_density_bounds_hold_the_pilot_density(
    scenario, n, seed, alpha, beta, g_floor, t_cells, z_cells, frac
):
    s = sample(scenario, n, seed)
    epa = epanechnikov_kernel()
    config = EstimatorConfig(
        kernel_t=epa, bandwidths=Bandwidths(alpha, beta), g_floor=g_floor
    )
    try:
        with mock.patch.object(pilot_module, "_ENVELOPE_GRID", 20):
            pilot = PilotModel(s, config)
    except DegeneratePilotError:
        reject()
    (t_lo, t_w), (z_lo, z_w) = (np.array(c).T for c in (t_cells, z_cells))
    t_hi, z_hi = t_lo + t_w, z_lo + z_w
    lower, upper = _density_bounds(s, config, t_lo, t_hi, z_lo, z_hi)
    assert lower.shape == upper.shape == (t_lo.size, z_lo.size)
    # every cell holds the corners, the edges' points and inner points
    ft, fz = np.array(frac).T
    ft, fz = np.concatenate((ft, [0.0, 1.0, 0.0, 1.0])), np.concatenate((fz, [0.0, 0.0, 1.0, 1.0]))
    for i in range(t_lo.size):
        t = np.clip(t_lo[i] + ft * t_w[i], t_lo[i], t_hi[i])
        t = np.where(ft == 1.0, t_hi[i], t)
        for j in range(z_lo.size):
            z = np.clip(z_lo[j] + fz * z_w[j], z_lo[j], z_hi[j])
            z = np.where(fz == 1.0, z_hi[j], z)
            dens = pilot.density(t, z)
            assert np.all(lower[i, j] <= dens), (i, j)
            assert np.all(dens <= upper[i, j]), (i, j)


@PROPERTY
@given(
    scenario=st.sampled_from([scenario_a(), B]),
    n=st.integers(10, 150),
    seed=st.integers(0, 10_000),
    alpha=st.floats(0.03, 0.8),
    beta=st.floats(0.03, 0.8),
    nodes=st.integers(2, 120),
)
def test_envelope_is_the_exact_peak_over_all_nodes(scenario, n, seed, alpha, beta, nodes):
    s = sample(scenario, n, seed)
    config = EstimatorConfig(kernel_t=epanechnikov_kernel(), bandwidths=Bandwidths(alpha, beta))
    grid = np.linspace(0.0, 1.0, nodes)
    tt, zz = np.meshgrid(grid, grid, indexing="ij")
    _, (density,) = estimators._estimates(s, config, tt.ravel(), zz.ravel(), ("density",))
    peak = np.fmax(density, 0.0).max()
    with mock.patch.object(pilot_module, "_ENVELOPE_GRID", nodes):
        if peak <= 0.0:
            with pytest.raises(DegeneratePilotError):
                PilotModel(s, config)
        else:
            assert PilotModel(s, config).envelope == _ENVELOPE_SAFETY * peak


def test_pilot_refuses_other_kernels_and_a_missing_beta(monkeypatch):
    """The pilot's bounds and noise hold for the Epanechnikov kernel alone, so
    any other kernel, even an Epanechnikov copy, is refused before a bound is
    computed; so is a config without a mark bandwidth."""

    def no_bounds(*args):
        raise AssertionError("a bound was computed")

    monkeypatch.setattr(pilot_module, "_density_bounds", no_bounds)
    s = sample(B, 50, 3)
    epa = epanechnikov_kernel()
    copy = custom_kernel("epanechnikov copy", epa.pdf, epa.cdf, epa.deriv)
    for kernel, error in ((uniform_kernel(), KernelAssumptionError),
                          (copy, KernelAssumptionError), (epa, InvalidBandwidthError)):
        beta = None if error is InvalidBandwidthError else 0.3
        config = EstimatorConfig(kernel_t=kernel, bandwidths=Bandwidths(0.3, beta))
        with pytest.raises(error):
            PilotModel(s, config)


def _scaled_fit(scale):
    """fit_pilot with the envelope scaled, to force local refreshes."""
    fit = bandwidth.fit_pilot

    def scaled(sample_, alpha0, beta0):
        pilot = fit(sample_, alpha0, beta0)
        pilot.envelope *= scale
        return pilot

    return scaled


def test_draw_xy_refreshes_as_the_exact_sampler_does():
    pilot = _scaled_fit(0.3)(sample(B, 100, 14), 0.4, 0.4)
    (x,), (y,) = pilot.draw_xy([np.random.default_rng(5)], 300)
    ref_x, ref_y, refreshes = _exact_draw_xy(pilot, np.random.default_rng(5), 300)
    assert refreshes > 0
    np.testing.assert_array_equal(x, ref_x)
    np.testing.assert_array_equal(y, ref_y)


class _Recorded:
    """A generator that records the size of each of its draws."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.sizes = []

    def random(self, size):
        self.sizes.append(size)
        return self._rng.random(size)


@pytest.mark.parametrize("scale", [1.0, 0.3])
@pytest.mark.parametrize("piece", [None, 1])
def test_lockstep_draws_equal_each_generator_alone(scale, piece, monkeypatch):
    # at scale 0.3 the envelope misses the peak and draws refresh it locally;
    # with a floor of 1, a round's exact proposals go to the density in
    # pieces of the largest count, which cut across generators
    pilot = _scaled_fit(scale)(sample(B, 100, 14), 0.4, 0.4)
    if piece is not None:
        monkeypatch.setattr(pilot_module, "_DENSITY_PIECE", piece)
    calls = []
    density = pilot.density
    monkeypatch.setattr(pilot, "density", lambda t, z: calls.append(t.size) or density(t, z))
    # the generators of a round draw batches of different sizes; at size
    # 2000 some also need more rounds than others
    for size, seeds in ((300, (5, 6, 7)), (2000, (5, 6, 7, 8))):
        calls.clear()
        recorded = [_Recorded(seed) for seed in seeds]
        x, y = pilot.draw_xy(recorded, size)
        assert x.shape == y.shape == (len(seeds), size)
        batches = [r.sizes for r in recorded]
        assert any(len(set(round_)) > 1 for round_ in zip(*batches))
        assert size != 2000 or len({len(b) for b in batches}) > 1
        lockstep_calls, alone_calls, refreshes = len(calls), 0, 0
        for r, seed in enumerate(seeds):
            before = len(calls)
            (alone_x,), (alone_y,) = pilot.draw_xy([np.random.default_rng(seed)], size)
            middle = len(calls)
            ref_x, ref_y, count = _exact_draw_xy(pilot, np.random.default_rng(seed), size)
            # alone, one density call per round (the exact sampler's count of
            # calls) and one per refresh, however many exact proposals a
            # round has
            assert middle - before == len(calls) - middle + count
            alone_calls += middle - before
            refreshes += count
            assert x[r].tobytes() == alone_x.tobytes() == ref_x.tobytes()
            assert y[r].tobytes() == alone_y.tobytes() == ref_y.tobytes()
        assert (refreshes > 0) == (scale < 1.0)
        assert lockstep_calls <= alone_calls
        assert max(calls) > pilot_module._DENSITY_PIECE  # a round's count can exceed it


class _Stuck:
    """A generator stand-in whose proposals all land where the density is 0."""

    def random(self, size):
        return np.full(size, 0.5)


def test_lockstep_draws_give_up_on_the_replication_that_never_accepts(monkeypatch):
    pilot = fit_pilot(sample(B, 100, 14), 0.4, 0.4)
    envelope = pilot.envelope
    # the envelope itself left of t = 1/2, zero right of it; every proposal exact
    monkeypatch.setattr(pilot, "density", lambda t, z: np.where(t < 0.5, envelope, 0.0))
    zeros = np.zeros_like(pilot._cells[0])
    monkeypatch.setattr(pilot, "_cells", (zeros, np.full_like(zeros, np.inf)))
    monkeypatch.setattr(pilot_module, "_MAX_DRAW_ROUNDS", 5)
    # the others accept in their first round; the stuck one uses its own five
    message = "accepted 0 of 1280 proposals in 5 rounds, 10 needed"
    rngs = [np.random.default_rng(1), _Stuck(), np.random.default_rng(2)]
    with pytest.raises(DegeneratePilotError, match=message):
        pilot.draw_xy(rngs, 10)
    with pytest.raises(DegeneratePilotError, match=message):
        pilot.draw_xy([_Stuck()], 10)
    x, _ = pilot.draw_xy([rngs[0], rngs[2]], 10)
    assert x.shape == (2, 10) and np.all(x < 0.5)


def _bootstrap_reference(s, plan):
    """bootstrap_mse as a loop over replications, one sample and one
    estimate at a time: (mse_hat, failures) per candidate, in table order."""
    pilot = fit_pilot(s, plan.alpha0, plan.beta0)
    t0, z0 = plan.point
    target = pilot.target(t0, z0)
    candidates = [(f1, Bandwidths(a)) for a in plan.alpha_grid] + [
        (f2, Bandwidths(a, b)) for a in plan.alpha_grid for b in plan.beta_grid
    ]
    values = np.full((plan.replications, len(candidates)), np.nan)
    for b in range(plan.replications):
        rng = np.random.default_rng(plan.seed + b)
        (x,), (y,) = pilot.draw_xy([rng], len(s))
        t = pilot.draw_t(rng, len(s))
        delta = (x <= t).astype(int)
        boot = Sample(t=t, z=np.where(delta == 1, y, 0.0), delta=delta)
        for j, (estimator, bw) in enumerate(candidates):
            try:
                values[b, j] = estimator(boot, replace(pilot.config, bandwidths=bw), t0, z0)
            except UnstableDenominatorError:
                pass
    out = []
    for col in values.T:
        ok = col[~np.isnan(col)]
        out.append((float(np.mean((ok - target) ** 2)), plan.replications - ok.size))
    return out


def test_bootstrap_groups_equal_a_loop_over_replications(monkeypatch):
    s = sample(B, 40, 31)
    # a starved alpha makes some replications fail
    plan = small_plan(replications=7, alpha_grid=(0.01, 0.3), beta_grid=(0.2, 0.4), seed=9)
    # groups of 3, 3 and 1 replications
    monkeypatch.setattr(estimators, "_CHUNK_BUDGET", 3 * len(s))
    table = bootstrap_mse(s, plan)
    got = [(r.mse_hat, r.failures) for r in table.rows]
    assert got == _bootstrap_reference(s, plan)
    assert any(failures for _, failures in got)
    monkeypatch.undo()
    assert bootstrap_mse(s, plan).rows == table.rows


@PROPERTY
@given(
    scenario=st.sampled_from([scenario_a(), B]),
    n=st.integers(20, 150),
    seed=st.integers(0, 10_000),
    alpha0=st.floats(0.15, 0.6),
    beta0=st.floats(0.15, 0.6),
    scale=st.sampled_from([1.0]) | st.floats(0.2, 1.0),
    size=st.integers(1, 400),
    draw_seed=st.integers(0, 2**32 - 1),
)
def test_squeezed_draws_equal_the_exact_sampler(
    scenario, n, seed, alpha0, beta0, scale, size, draw_seed
):
    s = sample(scenario, n, seed)
    try:
        pilot = _scaled_fit(scale)(s, alpha0, beta0)
    except DegeneratePilotError:
        reject()
    (x,), (y,) = pilot.draw_xy([np.random.default_rng(draw_seed)], size)
    ref_x, ref_y, _ = _exact_draw_xy(pilot, np.random.default_rng(draw_seed), size)
    assert x.tobytes() == ref_x.tobytes() and y.tobytes() == ref_y.tobytes()

    plan = small_plan(
        alpha0=alpha0, beta0=beta0, replications=2,
        alpha_grid=(0.2, 0.4), beta_grid=(0.3,), seed=draw_seed,
    )
    tables, groups = [], []

    def exact_draws(self, rngs, k):
        groups.append(len(rngs))
        draws = [_exact_draw_xy(self, rng, k)[:2] for rng in rngs]
        return tuple(np.stack(parts) for parts in zip(*draws))

    with pytest.MonkeyPatch.context() as m:
        m.setattr(bandwidth, "fit_pilot", _scaled_fit(scale))
        tables.append(bootstrap_mse(s, plan))
        m.setattr(PilotModel, "draw_xy", exact_draws)
        tables.append(bootstrap_mse(s, plan))
    assert groups == [2]  # the exact sampler drew both replications
    csv = []
    for table in tables:
        buf = io.StringIO()
        table.to_csv(buf)
        csv.append(buf.getvalue())
    assert csv[0] == csv[1]
    assert tables[0].target == tables[1].target


def test_pilot_resamples_match_observed_censoring_rate():
    # pilot bandwidths this wide shift the event rate noticeably, so the
    # check is deliberately coarse: it catches dropped indicators or a
    # swapped inequality, not smoothing bias
    s = sample(B, 100, 14)
    pilot = fit_pilot(s, 0.4, 0.4)
    rng = np.random.default_rng(99)
    (x,), _ = pilot.draw_xy([rng], 4000)
    t = pilot.draw_t(rng, 4000)
    resampled_rate = float(np.mean(x <= t))
    assert abs(resampled_rate - float(np.mean(s.delta))) < 0.15


@pytest.mark.parametrize("scenario,seed", [(scenario_a(), 20), (B, 14)])
def test_pilot_time_draws_follow_the_smoothed_density(scenario, seed):
    """Binned draw counts match the pilot's own censoring law."""
    s = sample(scenario, 200, seed)
    alpha0 = 0.4
    pilot = fit_pilot(s, alpha0, alpha0)
    m = 4000
    draws = pilot.draw_t(np.random.default_rng(17), m)
    edges = np.linspace(-alpha0, 1.0 + alpha0, 11)
    kernel = pilot.config.kernel_t
    for lo, hi in zip(edges[:-1], edges[1:]):
        p = float(
            np.mean(
                eval_rescaled_cdf(kernel, alpha0, hi - s.t)
                - eval_rescaled_cdf(kernel, alpha0, lo - s.t)
            )
        )
        count = int(np.count_nonzero((draws >= lo) & (draws < hi)))
        slack = 3.0 * np.sqrt(m * p * (1.0 - p))
        assert abs(count - m * p) <= max(slack, 1.0), (lo, hi)


def test_bootstrap_mse_structure_and_determinism():
    s = sample(B, 80, 19)
    plan = small_plan()
    table = bootstrap_mse(s, plan)
    assert table.replications == 30
    assert len(table.rows) == 3 + 6
    f1_rows = table.for_estimator("F1")
    f2_rows = table.for_estimator("F2")
    assert len(f1_rows) == 3 and len(f2_rows) == 6
    assert all(r.beta is None for r in f1_rows)
    assert all(r.beta is not None for r in f2_rows)
    for r in table.rows:
        assert r.mse_hat >= 0.0 and np.isfinite(r.mse_hat)
        assert r.mse_tilde is None
        assert r.failures == 0 and r.valid

    again = bootstrap_mse(s, plan)
    assert again.rows == table.rows
    assert again.target == table.target

    truth = float(B.cdf(0.5, 0.5))
    with_truth = bootstrap_mse(s, plan, true_value=truth)
    assert all(r.mse_tilde is not None and r.mse_tilde >= 0.0 for r in with_truth.rows)


def test_bootstrap_refuses_a_true_value_that_is_not_finite(monkeypatch):
    def no_fit(*args):
        raise AssertionError("a pilot was fitted")

    monkeypatch.setattr(bandwidth, "fit_pilot", no_fit)
    s = sample(B, 60, 23)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="^true_value must be finite, got "):
            bootstrap_mse(s, small_plan(), true_value=bad)


def test_bootstrap_single_replication_is_one_squared_deviation():
    s = sample(B, 60, 23)
    plan = small_plan(replications=1, alpha_grid=(0.3,), beta_grid=(0.3,), seed=400)
    table = bootstrap_mse(s, plan)

    pilot = fit_pilot(s, plan.alpha0, plan.beta0)
    rng = np.random.default_rng(plan.seed)
    (x,), (y,) = pilot.draw_xy([rng], len(s))
    t = pilot.draw_t(rng, len(s))
    delta = (x <= t).astype(int)
    boot = Sample(t=t, z=np.where(delta == 1, y, 0.0), delta=delta)
    assert np.all(boot.z[boot.delta == 0] == 0.0)

    kt = pilot.config.kernel_t
    target = pilot.target(0.5, 0.5)
    v1 = f1(boot, EstimatorConfig(kernel_t=kt, bandwidths=Bandwidths(0.3)), 0.5, 0.5)
    v2 = f2(
        boot,
        EstimatorConfig(kernel_t=kt, bandwidths=Bandwidths(0.3, 0.3)),
        0.5,
        0.5,
    )
    by_est = {r.estimator: r for r in table.rows}
    assert by_est["F1"].mse_hat == (v1 - target) ** 2
    assert by_est["F2"].mse_hat == (v2 - target) ** 2


def test_bootstrap_marks_starved_candidates_invalid():
    s = sample(B, 60, 25)
    plan = small_plan(
        replications=40, alpha_grid=(0.004, 0.3), beta_grid=(0.3,), seed=55
    )
    table = bootstrap_mse(s, plan)
    starved = [r for r in table.rows if r.alpha == 0.004]
    healthy = [r for r in table.rows if r.alpha == 0.3]
    assert all(not r.valid for r in starved)
    assert all(r.failures > 0 for r in starved)
    assert all(r.valid for r in healthy)
    chosen = select(table)
    assert chosen["F1"] == (0.3, None)
    assert chosen["F2"] == (0.3, 0.3)


def row(estimator, alpha, mse, beta=None, valid=True):
    return MseRow(
        estimator=estimator,
        alpha=alpha,
        beta=beta,
        mse_hat=mse,
        mse_tilde=None,
        failures=0 if valid else 99,
        valid=valid,
    )


def test_select_argmin_and_tie_breaking():
    table = BootstrapMseTable(
        rows=(
            row("F1", 0.2, 0.004),
            row("F1", 0.3, 0.002),
            row("F1", 0.4, 0.003),
        ),
        point=(0.5, 0.5),
        replications=10,
        target=0.2,
    )
    assert select(table) == {"F1": (0.3, None)}

    tie = BootstrapMseTable(
        rows=(row("F1", 0.2, 0.002), row("F1", 0.3, 0.002)),
        point=(0.5, 0.5),
        replications=10,
        target=0.2,
    )
    assert select(tie) == {"F1": (0.2, None)}

    beta_tie = BootstrapMseTable(
        rows=(
            row("F2", 0.2, 0.002, beta=0.4),
            row("F2", 0.2, 0.002, beta=0.2),
        ),
        point=(0.5, 0.5),
        replications=10,
        target=0.2,
    )
    assert select(beta_tie) == {"F2": (0.2, 0.2)}


def test_select_failure_modes():
    with pytest.raises(SelectionError):
        select(BootstrapMseTable(rows=(), point=(0.5, 0.5), replications=1, target=0.1))
    all_invalid = BootstrapMseTable(
        rows=(row("F1", 0.2, 0.002, valid=False),),
        point=(0.5, 0.5),
        replications=10,
        target=0.1,
    )
    with pytest.raises(SelectionError):
        select(all_invalid)
    mixed = BootstrapMseTable(
        rows=(row("F1", 0.2, 0.002), row("F2", 0.2, 0.003, beta=0.2, valid=False)),
        point=(0.5, 0.5),
        replications=10,
        target=0.1,
    )
    with pytest.raises(SelectionError, match="F2"):
        select(mixed)


def test_mse_table_csv():
    table = BootstrapMseTable(
        rows=(row("F1", 0.2, 0.004), row("F2", 0.2, 0.003, beta=0.1)),
        point=(0.5, 0.5),
        replications=10,
        target=0.25,
    )
    buf = io.StringIO()
    table.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "estimator,alpha,beta,mse_hat,mse_tilde,failures"
    assert len(lines) == 3
    assert lines[1].startswith("F1,0.2,,")  # no mark bandwidth for F1
    assert lines[2].startswith("F2,0.2,0.1,")
