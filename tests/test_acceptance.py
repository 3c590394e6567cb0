"""End-to-end statistical checks pinning the package's headline numbers.

Each test prints a single pass/fail line (visible under ``pytest -s``) so a
full run doubles as a scoreboard.  The Monte Carlo checks use fixed seeds
and generous tolerance bands (three standard errors, or a 1% critical
value), so they are deterministic and should never flake.
"""

from __future__ import annotations

import io
import math

import numpy as np
from scipy import integrate

from csmark import (
    BandwidthSchedule,
    BootstrapPlan,
    EstimatorConfig,
    bootstrap_mse,
    custom_kernel,
    difference_sample,
    epanechnikov_kernel,
    equivalence_curve,
    eval_rescaled,
    f1,
    f1_counting,
    f2,
    f2_density,
    l2_norm_sq,
    mc_functional,
    mc_mse,
    mc_normality,
    mu1_sigma2,
    mu2,
    sample,
    scenario_b,
    second_moment,
    select,
    uniform_kernel,
    validate_conditions,
)

B = scenario_b()
POINT_MID = (0.5, 0.5)
KS_CRITICAL = 0.0516  # 1% critical value for m = 1000


def report(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} [{label}]: {'PASS' if ok else 'FAIL'} ({detail})")


def inside(value: float, center: float, three_se: float) -> bool:
    return abs(value - center) <= three_se


def test_01_mse_reference_point_small_bandwidths():
    f1_run = mc_mse(B, "F1", (0.4, 0.4), 5000, 250, alpha=0.15, seed=0)
    f2_run = mc_mse(B, "F2", (0.4, 0.4), 5000, 250, alpha=0.15, beta=0.10, seed=0)
    ok1 = inside(f1_run.mse, 8.09e-5, 3 * 8.47e-6)
    ok2 = inside(f2_run.mse, 7.74e-5, 3 * 8.28e-6)
    report(
        1,
        "mse reference point",
        ok1 and ok2,
        f"F1 mse={f1_run.mse:.3e} vs 8.09e-05, F2 mse={f2_run.mse:.3e} vs 7.74e-05",
    )
    assert ok1, f"F1 mse {f1_run.mse} outside 8.09e-5 +- 3*8.47e-6"
    assert ok2, f"F2 mse {f2_run.mse} outside 7.74e-5 +- 3*8.28e-6"


def test_02_mse_reference_point_large_bandwidths():
    f1_run = mc_mse(B, "F1", (0.6, 0.6), 1000, 250, alpha=0.20, seed=0)
    f2_run = mc_mse(B, "F2", (0.6, 0.6), 10000, 250, alpha=0.15, beta=0.05, seed=0)
    ok1 = inside(f1_run.mse, 5.31e-4, 3 * 4.34e-5)
    ok2 = inside(f2_run.mse, 9.14e-5, 3 * 7.31e-6)
    report(
        2,
        "mse spot checks at (0.6, 0.6)",
        ok1 and ok2,
        f"F1 mse={f1_run.mse:.3e} vs 5.31e-04, F2 mse={f2_run.mse:.3e} vs 9.14e-05",
    )
    assert ok1, f"F1 mse {f1_run.mse} outside 5.31e-4 +- 3*4.34e-5"
    assert ok2, f"F2 mse {f2_run.mse} outside 9.14e-5 +- 3*7.31e-6"


def fd_limit_constants(scenario, point, c, kernel):
    """Recompute the limit mean and variance from raw callables only.

    Uses central differences for every derivative and quadrature for the
    kernel constants, so it shares no code path with ``mu1_sigma2``.
    """
    t0, z0 = point
    h1, h2 = 1e-4, 1e-3
    d1 = (scenario.cdf(t0 + h1, z0) - scenario.cdf(t0 - h1, z0)) / (2 * h1)
    d11 = (
        scenario.cdf(t0 + h2, z0)
        - 2.0 * scenario.cdf(t0, z0)
        + scenario.cdf(t0 - h2, z0)
    ) / h2**2
    g0 = scenario.g(t0)
    g_prime = (scenario.g(t0 + h1) - scenario.g(t0 - h1)) / (2 * h1)
    m2, _ = integrate.quad(lambda u: u * u * kernel.pdf(u), -1.0, 1.0)
    l2, _ = integrate.quad(lambda u: kernel.pdf(u) ** 2, -1.0, 1.0)
    f0 = scenario.cdf(t0, z0)
    mu1 = 0.5 * c * c * m2 * (d11 + 2.0 * g_prime * d1 / g0)
    sigma2 = f0 * (1.0 - f0) * l2 / (g0 * c)
    return mu1, sigma2


def test_03_limit_law_singly_smoothed():
    n, m, alpha = 5000, 1000, 0.09
    run = mc_normality(B, "F1", POINT_MID, n, m, seed=0, alpha=alpha)
    c = alpha * float(n) ** 0.2
    params = mu1_sigma2(B, POINT_MID, c, epanechnikov_kernel())
    mu_fd, sigma2_fd = fd_limit_constants(B, POINT_MID, c, epanechnikov_kernel())
    ok_ks = run.ks_distance < KS_CRITICAL
    ok_fd = abs(params.mu1 - mu_fd) < 1e-5 and abs(params.sigma2 - sigma2_fd) < 1e-5
    report(
        3,
        "limit law, singly smoothed",
        ok_ks and ok_fd,
        f"ks={run.ks_distance:.4f} < {KS_CRITICAL}, "
        f"mu1={params.mu1:.6f} (fd {mu_fd:.6f}), "
        f"sigma2={params.sigma2:.6f} (fd {sigma2_fd:.6f})",
    )
    assert run.mu == params.mu1 and run.sigma2 == params.sigma2
    assert ok_fd, "limit constants disagree with finite-difference oracle"
    assert ok_ks, f"KS distance {run.ks_distance} above the 1% critical value"


def test_04_limit_law_doubly_smoothed_critical_beta():
    run = mc_normality(
        B, "F2", POINT_MID, 5000, 1000, seed=0, alpha=0.091, beta=0.029
    )
    ok = run.ks_distance < KS_CRITICAL
    report(
        4,
        "limit law, doubly smoothed",
        ok,
        f"ks={run.ks_distance:.4f} < {KS_CRITICAL}, mean={run.mean:.4f} vs mu={run.mu:.4f}",
    )
    assert ok, f"KS distance {run.ks_distance} above the 1% critical value"


def test_05_equivalence_regimes():
    # fast mark bandwidth: the scaled difference stays inside the envelope
    fast = BandwidthSchedule(c1=0.5, c2=0.5, beta_exponent=1.0 / 3.0)
    n_grid = np.unique(np.round(np.logspace(3.0, 5.0, 41)).astype(int))
    curve = equivalence_curve(B, POINT_MID, n_grid, fast, seed=0)
    frac = curve.fraction_inside()
    ok_fast = frac >= 0.80

    # critical mark bandwidth: the mean difference matches the extra bias
    critical = BandwidthSchedule(c1=0.5, c2=0.5, beta_exponent=0.2)
    diffs = difference_sample(B, POINT_MID, 5000, 500, critical, seed=0)
    sem = math.sqrt(diffs.variance / diffs.values.size)
    ok_shift = abs(diffs.mu - 0.0125) < 1e-12 and inside(diffs.mean, 0.0125, 3 * sem)
    report(
        5,
        "bandwidth-regime equivalence",
        ok_fast and ok_shift,
        f"envelope fraction={frac:.3f} >= 0.80, "
        f"mean diff={diffs.mean:.5f} vs 0.0125 (3 sem = {3 * sem:.5f})",
    )
    assert ok_fast, f"only {frac:.3f} of scaled differences inside the envelope"
    assert ok_shift, f"mean difference {diffs.mean} off 0.0125 by more than 3 sem"


def test_06_identities():
    # uniform-kernel ratio estimator coincides with its counting form
    uniform_cfg = EstimatorConfig(
        kernel_t=uniform_kernel(), alpha=0.25
    )
    worst_counting = 0.0
    for i in range(100):
        s = sample(B, 200, 5000 + i)
        t0 = 0.2 + 0.6 * (i / 99.0)
        z0 = 0.3 + 0.4 * ((i * 7) % 100) / 99.0
        gap = abs(
            f1(s, uniform_cfg, t0, z0) - f1_counting(s, uniform_cfg, t0, z0)
        )
        worst_counting = max(worst_counting, gap)

    # beyond the largest mark the doubly-smoothed cdf complements h0/g
    epa = epanechnikov_kernel()
    worst_tail = 0.0
    for i in range(20):
        s = sample(B, 300, 6000 + i)
        beta = 0.15
        cfg = EstimatorConfig(kernel_t=epa, alpha=0.2, beta=beta)
        t0 = 0.3 + 0.4 * (i / 19.0)
        z_hi = float(s.z.max()) + beta
        weights = eval_rescaled(epa, 0.2, t0 - s.t)
        rhs = float(np.mean(weights * (1.0 - s.delta)) / np.mean(weights))
        worst_tail = max(worst_tail, abs(1.0 - f2(s, cfg, t0, z_hi) - rhs))

    # a fast mark bandwidth adds no bias term
    base = mu1_sigma2(B, POINT_MID, 0.5, epa).mu1
    worst_mu = max(
        abs(mu2(B, POINT_MID, BandwidthSchedule(0.5, 0.5, e), epa) - base)
        for e in (0.25, 1.0 / 3.0, 0.5)
    )
    ok = worst_counting <= 1e-12 and worst_tail <= 1e-12 and worst_mu <= 1e-12
    report(
        6,
        "exact identities",
        ok,
        f"counting gap={worst_counting:.2e}, tail gap={worst_tail:.2e}, "
        f"bias gap={worst_mu:.2e}, all <= 1e-12",
    )
    assert worst_counting <= 1e-12
    assert worst_tail <= 1e-12
    assert worst_mu <= 1e-12


def test_07_functional_variance_and_bias():
    fast = mc_functional(B, 10000, 500, alpha_exponent=1.0 / 3.0, seed=0)
    slow = mc_functional(B, 10000, 500, alpha_exponent=0.2, seed=0)
    ok_var = abs(fast.variance - 0.19792) <= 0.2 * 0.19792
    ok_bias = abs(slow.mean) >= 2.0 * abs(fast.mean)
    report(
        7,
        "mean functional",
        ok_var and ok_bias,
        f"variance={fast.variance:.4f} vs 0.19792 +-20%, "
        f"|bias| slow={abs(slow.mean):.4f} >= 2x fast={abs(fast.mean):.4f}",
    )
    assert abs(fast.sigma2 - 0.19792) < 1e-4
    assert ok_var, f"variance {fast.variance} not within 20% of 0.19792"
    assert ok_bias, "undersmoothing did not reduce bias at least twofold"


def test_08_density_positivity():
    n = 200_000
    alpha = float(n) ** (-1.0 / 6.0)
    beta = float(n) ** (-1.0 / 5.0)
    epa = epanechnikov_kernel()
    cfg = EstimatorConfig(kernel_t=epa, alpha=alpha, beta=beta)
    grid = np.round(np.arange(0.2, 0.81, 0.1), 1)
    positive_runs = 0
    worst_min = math.inf
    for seed in range(50):
        s = sample(B, n, seed)
        values = [f2_density(s, cfg, t0, z0) for t0 in grid for z0 in grid]
        run_min = min(values)
        worst_min = min(worst_min, run_min)
        positive_runs += run_min > 0.0
    ok = positive_runs >= 48
    report(
        8,
        "density positivity",
        ok,
        f"{positive_runs}/50 runs positive on the 7x7 grid, worst min={worst_min:.4f}",
    )
    assert ok, f"only {positive_runs}/50 runs had a positive density everywhere"


def test_09_kernel_constants_and_validation():
    worst = 0.0
    for kernel in (uniform_kernel(), epanechnikov_kernel()):
        m2_quad, _ = integrate.quad(lambda u: u * u * kernel.pdf(u), -1.0, 1.0)
        l2_quad, _ = integrate.quad(lambda u: kernel.pdf(u) ** 2, -1.0, 1.0)
        worst = max(
            worst,
            abs(second_moment(kernel) - m2_quad),
            abs(l2_norm_sq(kernel) - l2_quad),
        )

    epa = epanechnikov_kernel()
    shifted = custom_kernel(
        name="shifted",
        pdf=lambda u: epa.pdf(np.asarray(u, dtype=float) - 0.2),
        cdf=lambda u: epa.cdf(np.asarray(u, dtype=float) - 0.2),
    )
    clean = validate_conditions(epa)
    mismatched = validate_conditions(uniform_kernel(), epa)
    asymmetric = validate_conditions(shifted, epa)
    ok_menu = (
        clean.all_ok
        and mismatched.failures() == ["moments"]
        and "shape" in asymmetric.failures()
    )
    ok = worst <= 1e-10 and ok_menu
    report(
        9,
        "kernel constants and validation",
        ok,
        f"max quadrature gap={worst:.1e} <= 1e-10, menu verdicts "
        f"ok/{'+'.join(mismatched.failures())}/{'+'.join(asymmetric.failures())}",
    )
    assert worst <= 1e-10
    assert ok_menu, (
        clean.failures(),
        mismatched.failures(),
        asymmetric.failures(),
    )


def test_10_bootstrap_bandwidth_selection():
    s = sample(B, 100, 1)
    plan = BootstrapPlan(
        alpha0=0.4,
        beta0=0.4,
        replications=500,
        alpha_grid=tuple(np.round(np.arange(0.10, 0.91, 0.05), 2)),
        beta_grid=(0.1, 0.2, 0.3, 0.4, 0.5),
        point=POINT_MID,
        seed=2,
    )
    table = bootstrap_mse(s, plan)
    curve = [row.mse_hat for row in table.for_estimator("F1")]
    k = int(np.argmin(curve))
    interior = 0 < k < len(curve) - 1
    u_shaped = interior and curve[0] > curve[k] and curve[-1] > curve[k]
    chosen = select(table)

    rerun = bootstrap_mse(s, plan)
    buf_a, buf_b = io.StringIO(), io.StringIO()
    table.to_csv(buf_a)
    rerun.to_csv(buf_b)
    deterministic = buf_a.getvalue() == buf_b.getvalue()

    ok = u_shaped and deterministic
    report(
        10,
        "bootstrap bandwidth selection",
        ok,
        f"curve min at alpha={plan.alpha_grid[k]} (index {k} of {len(curve) - 1}), "
        f"selected F1 alpha={chosen['F1'][0]}, deterministic={deterministic}",
    )
    assert u_shaped, f"bootstrap MSE curve has no interior minimum: {curve}"
    assert 0.15 <= chosen["F1"][0] <= 0.60
    assert deterministic, "identical plan and sample produced different tables"
