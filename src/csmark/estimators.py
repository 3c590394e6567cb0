"""Plug-in estimators built from kernel-smoothed observation densities.

All estimators target the joint distribution function ``F0(t0, z0)`` of an
event time and its mark, observed only through current status data
``(t, z, delta)``.  Writing ``g`` for the censoring density, the observation
density identifies ``F0`` through

    E[ 1{z <= z0} delta | t ] = F0(t, z0),

which suggests estimating numerator and denominator separately by kernel
smoothing and taking the ratio.  Two variants are implemented:

* ``f1`` smooths in the time direction only -- the numerator is a kernel
  average of ``1{z_i <= z0} delta_i``;
* ``f2`` smooths in both directions -- the mark indicator is replaced by its
  kernel smoothing, i.e. each uncensored observation contributes
  ``K2((z0 - z_i) / beta)`` where ``K2`` is the antiderivative of the mark
  factor.  Integrating out the mark recovers the time-only smoother exactly,
  which keeps the marginal identity ``1 - f2(t0, z_max + beta) = h0/g`` an
  algebraic fact rather than an approximation.

The bivariate density estimate differentiates the same ratio:

    f2_density = (g_hat * d/dt h_hat - g_hat' * h_hat) / g_hat^2,

with ``h_hat`` the smoothed sub-density of uncensored observations.  The
ratio form makes a positive floor on ``g_hat`` essential; evaluations where
``g_hat`` falls below ``g_floor`` raise ``UnstableDenominatorError``.

One private routine, :func:`_kernel_sums`, computes every kernel sample mean
these ratios need, at one point or at many points with their own bandwidths.
The kernels vanish outside [-1, 1], so it visits only the observations in
each point's time window ``|t0 - t_i| / alpha <= 1``, and the uncensored
ones among them for the mark-dependent terms.  A point's sums depend only on the
sample, the point and its bandwidths, bit for bit: a grid row, a
single-point call and the pilot density agree exactly.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    DerivativeUnavailableError,
    InvalidBandwidthError,
    KernelAssumptionError,
    UnstableDenominatorError,
)
# eval_rescaled and eval_rescaled_cdf are not called here, but stay
# importable from this module, where perfbench/tracing.py wraps them
from .kernels import (  # noqa: F401
    Bandwidths,
    BivariateKernel,
    KernelFamily,
    UnivariateKernel,
    _check_bandwidth,
    epanechnikov_kernel,
    eval_rescaled,
    eval_rescaled_cdf,
)
from .scenarios import Sample

__all__ = [
    "EstimatorConfig",
    "g_hat",
    "g_hat_prime",
    "h0_hat",
    "f1",
    "f1_counting",
    "f2",
    "f2_density",
    "GridValue",
    "evaluate_grid",
    "write_grid_csv",
]

DEFAULT_G_FLOOR = 1e-8

# bound on the (runs x n) window masks and on the (points x n) pairs of one
# chunk of _kernel_sums: one run per chunk at n = 2e5, thousands at the
# bootstrap's small n
_CHUNK_BUDGET = 250_000


@dataclass(frozen=True)
class EstimatorConfig:
    """Kernels, bandwidths and the denominator floor for one estimation run.

    ``kernel_t`` smooths censoring times; ``kernel_tz`` (a product kernel)
    is required by the doubly-smoothed estimators and must have a time
    factor identical to ``kernel_t``.  ``g_floor`` is the positive floor
    under the estimated censoring density below which ratios are refused.
    """

    kernel_t: UnivariateKernel = field(default_factory=epanechnikov_kernel)
    bandwidths: Bandwidths = field(default_factory=lambda: Bandwidths(0.1))
    kernel_tz: BivariateKernel | None = None
    g_floor: float = DEFAULT_G_FLOOR

    def __post_init__(self) -> None:
        if self.g_floor <= 0.0 or not np.isfinite(self.g_floor):
            raise ValueError(f"g_floor must be positive, got {self.g_floor!r}")


def _require_mark_kernel(config: EstimatorConfig) -> BivariateKernel:
    """Return the product kernel, checking it matches the time kernel."""
    k2 = config.kernel_tz
    if k2 is None:
        raise KernelAssumptionError(
            "doubly-smoothed estimation needs a bivariate kernel (kernel_tz)"
        )
    a, b = config.kernel_t, k2.factor_t
    if a is b:
        return k2
    if a.family is b.family and a.family is not KernelFamily.CUSTOM:
        return k2
    probe = np.linspace(-1.25, 1.25, 101)
    if float(np.max(np.abs(a.pdf(probe) - b.pdf(probe)))) > 1e-12:
        raise KernelAssumptionError(
            "time factor of the bivariate kernel must equal kernel_t"
        )
    return k2


def _segment_sums(x: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Sums of the segments ``x[edges[k]:edges[k + 1]]``, each a pairwise
    sum from its own first entry, so independent of what surrounds it."""
    out = np.zeros(edges.size - 1)
    nonempty = edges[:-1] < edges[1:]
    if x.size:
        out[nonempty] = np.add.reduceat(x, edges[:-1][nonempty])
    return out


def _point_sums(sample, kt, kz, t0, z0, alpha, beta, terms) -> list[np.ndarray]:
    """:func:`_kernel_sums` at one point, in the same arithmetic.

    A single point, the Monte Carlo drivers' case, would otherwise spend
    more on the batch bookkeeping than on its window at moderate ``n``.
    """
    u = (t0 - sample.t) / alpha
    col = (np.abs(u) <= 1.0).nonzero()[0]
    u = u[col]
    w = kt.pdf(u)
    d = kt.deriv(u) if {"gp", "dh"}.intersection(terms) else None
    unc = sample.delta[col] == 1
    keep = unc.nonzero()[0]
    zu = sample.z[col[keep]]
    if kz is not None:
        scaled = (z0 - zu) / beta
        v = kz.pdf(scaled) if {"h", "dh"}.intersection(terms) else None
    scale = 1.0 / (len(sample) * alpha)
    out = []
    for term in terms:
        if term in ("g", "gp"):
            x = w if term == "g" else d
        elif term == "h0":
            x = w[(~unc).nonzero()[0]]
        elif term == "f1":
            x = w[keep] * (zu <= z0)
        elif term == "f2":
            x = w[keep] * kz.cdf(scaled)
        else:
            x = (w if term == "h" else d)[keep] * v
        total = np.add.reduceat(x, [0]) if x.size else np.zeros(1)  # as _segment_sums
        total *= scale / alpha if term in ("gp", "dh") else scale
        out.append(total / beta if term in ("h", "dh") else total)
    return out


def _kernel_sums(sample, config, t, z, alpha, beta, terms) -> list[np.ndarray]:
    """Kernel sample means at the paired points ``(t[j], z[j])``.

    ``t`` and ``z`` are float arrays of the points; ``alpha``/``beta`` are
    shared scalars or arrays of one value per point.  With
    ``w = k_alpha(t_j - t_i)``, ``d = k'((t_j - t_i) / alpha) / alpha^2`` and
    ``v = kz_beta(z_j - z_i)``, returns for each name in ``terms`` the mean
    over ``i`` of: ``g``: w; ``f1``: w delta 1{z_i <= z_j}; ``f2``: w delta
    K2((z_j - z_i) / beta); ``h0``: w (1 - delta); ``gp``: d; ``h``: w v
    delta; ``dh``: d v delta.

    Only observations in a point's time window ``|(t_j - t_i) / alpha| <=
    1`` (the kernels' own support test) are visited.  Consecutive points
    sharing ``(t, alpha)`` form a run with one window, on which the time
    kernel is evaluated once; ``g``, ``gp`` and ``h0`` sum over the window,
    the other terms over (point, uncensored window column) pairs, and the
    sums are scaled by the bandwidths and ``1 / n``.  Runs go
    ``_CHUNK_BUDGET // n`` at a time, their points an eighth of that at a
    time when pairs are formed.  Every sum adds its own entries in sample
    order, so a point's sums are bit for bit the same whatever the chunk
    budget and whatever other points share the call.
    """
    kt = config.kernel_t
    kz = None
    if {"f2", "h", "dh"}.intersection(terms):
        kz = _require_mark_kernel(config).factor_z
        if beta is None:
            raise InvalidBandwidthError(
                "doubly-smoothed estimation needs a mark bandwidth (beta)"
            )
        _check_bandwidth(beta)
        beta = np.full(t.shape, beta, dtype=float)
    differentiated = (kt, kz) if "dh" in terms else (kt,) if "gp" in terms else ()
    for k in differentiated:
        if k.deriv is None:
            raise DerivativeUnavailableError(f"kernel {k.name!r} has no derivative")
    _check_bandwidth(alpha)
    alpha = np.full(t.shape, alpha, dtype=float)
    if t.size == 1:  # spares a single point the batch bookkeeping
        b = None if kz is None else beta[0]
        return _point_sums(sample, kt, kz, t[0], z[0], alpha[0], b, terms)
    n, m = len(sample), t.size
    out = {term: np.empty(m) for term in terms}
    new_run = np.ones(m + 1, dtype=bool)
    new_run[1:m] = (t[1:] != t[:-1]) | (alpha[1:] != alpha[:-1])
    bounds = new_run.nonzero()[0]  # run r holds the points bounds[r]:bounds[r + 1]
    step = max(1, _CHUNK_BUDGET // n)
    for r0 in range(0, bounds.size - 1, step):
        first = bounds[r0 : r0 + step + 1]
        size, first = first[1:] - first[:-1], first[:-1]  # points per run, first points
        p0 = first[0]
        u = ((t[first, None] - sample.t) / alpha[first, None]).ravel()
        flat = (np.abs(u) <= 1.0).nonzero()[0]  # the runs' windows, one after another
        col = flat % n
        ends = np.arange(first.size + 1) * n  # run r's entries of flat lie below ends[r + 1]
        u = u[flat]
        w = kt.pdf(u)
        d = kt.deriv(u) if differentiated else None
        unc = sample.delta[col] == 1
        for term, x in (("g", w), ("gp", d), ("h0", w)):
            if term in out:
                keep = (~unc).nonzero()[0] if term == "h0" else slice(None)
                sums = _segment_sums(x[keep], np.searchsorted(flat[keep], ends))
                out[term][p0 : p0 + size.sum()] = sums.repeat(size)
        # pair each point with its run's uncensored window columns
        keep = unc.nonzero()[0]
        edges = np.searchsorted(flat[keep], ends)
        w, zu = w[keep], sample.z[col[keep]]
        d = d[keep] if d is not None else None
        cols = (edges[1:] - edges[:-1]).repeat(size)  # pairs per point
        start = edges[:-1].repeat(size)
        # about ten pair-sized temporaries live at once, so pairs are formed
        # for an eighth of a chunk's points at a time
        pair_step = max(1, step // 8)
        for j in range(0, cols.size, pair_step):
            counts = cols[j : j + pair_step]
            pair_edges = np.concatenate(([0], np.cumsum(counts)))
            if counts.size == 1:  # one point, whose pairs are a slice of columns
                i = slice(start[j], start[j] + counts[0])
            else:
                offset = start[j : j + pair_step] - pair_edges[:-1]
                i = np.arange(pair_edges[-1]) + offset.repeat(counts)
            points = slice(p0 + j, p0 + j + counts.size)
            zi, zj = zu[i], z[points].repeat(counts)
            if kz is not None:
                scaled = (zj - zi) / beta[points].repeat(counts)
                v = kz.pdf(scaled) if {"h", "dh"}.intersection(terms) else None
            for term in {"f1", "f2", "h", "dh"}.intersection(terms):
                if term == "f1":
                    x = w[i] * (zi <= zj)
                elif term == "f2":
                    x = w[i] * kz.cdf(scaled)
                else:
                    x = (w if term == "h" else d)[i] * v
                out[term][points] = _segment_sums(x, pair_edges)
    scale = 1.0 / (n * alpha)  # the kernels' 1 / bandwidth and the mean's 1 / n
    for term in terms:
        out[term] *= scale / alpha if term in ("gp", "dh") else scale
        if term in ("h", "dh"):
            out[term] /= beta
    return [out[term] for term in terms]


def _at_point(
    sample: Sample, config: EstimatorConfig, t0: float, z0: float, terms: tuple[str, ...]
) -> list[float]:
    """:func:`_kernel_sums` at one point with the config's bandwidths."""
    bw = config.bandwidths
    t, z = np.array([t0], dtype=float), np.array([z0], dtype=float)
    sums = _kernel_sums(sample, config, t, z, bw.alpha, bw.beta, terms)
    return [float(x[0]) for x in sums]


def g_hat(sample: Sample, config: EstimatorConfig, t0: float) -> float:
    """Kernel estimate of the censoring density at ``t0``.

    ``g_hat(t0) = n^{-1} sum_i k_alpha(t0 - t_i)``.  May legitimately be
    zero when no censoring time falls within ``alpha`` of ``t0``.
    """
    return _at_point(sample, config, t0, 0.0, ("g",))[0]


def g_hat_prime(sample: Sample, config: EstimatorConfig, t0: float) -> float:
    """Derivative of :func:`g_hat` at ``t0`` via the kernel derivative."""
    return _at_point(sample, config, t0, 0.0, ("gp",))[0]


def h0_hat(sample: Sample, config: EstimatorConfig, t0: float) -> float:
    """Smoothed sub-density of censored observations at ``t0``.

    Averages ``(1 - delta_i) k_alpha(t0 - t_i)``; together with the
    uncensored sub-density this decomposes ``g_hat``.
    """
    return _at_point(sample, config, t0, 0.0, ("h0",))[0]


def _stable(den: float, g_floor: float) -> float:
    if den < g_floor:
        raise UnstableDenominatorError(
            f"censoring density estimate {den:.3e} below floor {g_floor:.3e}",
            g_value=den,
        )
    return den


def f1(sample: Sample, config: EstimatorConfig, t0: float, z0: float) -> float:
    """Distribution function estimate smoothing in time only.

    ``f1(t0, z0) = [n^{-1} sum_i 1{z_i <= z0} delta_i k_alpha(t0 - t_i)]
    / g_hat(t0)``.  Values always lie in [0, 1] because the numerator terms
    are a subset of the denominator terms; monotonicity in ``t0`` is *not*
    guaranteed.
    """
    g, num = _at_point(sample, config, t0, z0, ("g", "f1"))
    return num / _stable(g, config.g_floor)


def f1_counting(sample: Sample, config: EstimatorConfig, t0: float, z0: float) -> float:
    """Ratio-of-counts form of :func:`f1` for the Uniform time kernel.

    Counts observations with ``|t_i - t0| <= alpha``; equals :func:`f1`
    exactly (up to float rounding) when ``kernel_t`` is Uniform, and is the
    natural unsmoothed reading of the estimator.
    """
    if config.kernel_t.family is not KernelFamily.UNIFORM:
        raise KernelAssumptionError(
            "counting form is only defined for the uniform time kernel"
        )
    alpha = config.bandwidths.alpha
    inside = np.abs(sample.t - t0) <= alpha
    num = float(np.sum(inside & (sample.delta == 1) & (sample.z <= z0)))
    den = float(np.sum(inside))
    # scale both counts to density units so the floor means the same thing
    scale = 1.0 / (2.0 * alpha * len(sample))
    return num * scale / _stable(den * scale, config.g_floor)


def f2(sample: Sample, config: EstimatorConfig, t0: float, z0: float) -> float:
    """Distribution function estimate smoothing in time and mark.

    Each uncensored observation contributes the smoothed mark indicator
    ``K2((z0 - z_i) / beta)`` times ``k_alpha(t0 - t_i)``, where ``K2`` is
    the antiderivative of the mark kernel factor; ``K2`` runs from 0 to 1,
    so the value stays in [0, 1] and increases in ``z0``.  At
    ``z0 >= max mark + beta`` every smoothed indicator equals one and the
    estimator reduces exactly to the uncensored mass over ``g_hat``.
    """
    g, num = _at_point(sample, config, t0, z0, ("g", "f2"))
    return num / _stable(g, config.g_floor)


def _density_quotient(g, gp, h, dh):
    """``(g dh - gp h) / g^2`` in one arithmetic for floats and arrays."""
    return (g * dh - gp * h) / (g * g)


def f2_density(sample: Sample, config: EstimatorConfig, t0: float, z0: float) -> float:
    """Estimate of the joint density ``f0(t0, z0)``.

    Differentiates the smoothed ratio in its time argument:
    ``(g_hat * d/dt h_hat - g_hat' * h_hat) / g_hat^2`` with ``h_hat`` the
    doubly-smoothed uncensored sub-density.  Not guaranteed nonnegative in
    small samples, though it is positive with probability tending to one
    under undersmoothing.
    """
    g, gp, h, dh = _at_point(sample, config, t0, z0, ("g", "gp", "h", "dh"))
    return _density_quotient(_stable(g, config.g_floor), gp, h, dh)


@dataclass(frozen=True)
class GridValue:
    """One evaluated grid point; missing entries are None."""

    t: float
    z: float
    f1: float | None
    f2: float | None
    density: float | None


def evaluate_grid(
    sample: Sample,
    config: EstimatorConfig,
    t_grid: np.ndarray,
    z_grid: np.ndarray,
) -> list[GridValue]:
    """Evaluate the estimators on the Cartesian grid ``t_grid x z_grid``.

    The singly-smoothed estimate is always computed.  The doubly-smoothed
    estimate and the density require a mark bandwidth and (for the density)
    differentiable kernels; when those prerequisites are missing the
    corresponding columns are left as None rather than failing the whole
    grid.  Points whose denominator is unstable get None everywhere.
    """
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    z_grid = np.atleast_1d(np.asarray(z_grid, dtype=float))
    terms: tuple[str, ...] = ("g", "f1")
    if config.kernel_tz is not None and config.bandwidths.beta is not None:
        terms += ("f2",)
        if config.kernel_t.deriv is not None and config.kernel_tz.factor_z.deriv is not None:
            terms += ("gp", "h", "dh")
    t = np.repeat(t_grid, z_grid.size)
    z = np.tile(z_grid, t_grid.size)
    bw = config.bandwidths
    sums = _kernel_sums(sample, config, t, z, bw.alpha, bw.beta, terms)

    rows: list[GridValue] = []
    columns = [x.tolist() for x in sums]
    for t0, z0, *point in zip(t.tolist(), z.tolist(), *columns):
        v = dict(zip(terms, point))
        g = v["g"]
        if g < config.g_floor:
            rows.append(GridValue(t0, z0, None, None, None))
            continue
        v2 = v["f2"] / g if "f2" in v else None
        vd = _density_quotient(g, v["gp"], v["h"], v["dh"]) if "dh" in v else None
        rows.append(GridValue(t0, z0, v["f1"] / g, v2, vd))
    return rows


def write_grid_csv(rows: list[GridValue], path: str | Path | io.TextIOBase) -> None:
    """Write grid values as CSV with header ``t,z,F1,F2,f2`` ('' = missing)."""

    def _write(fh) -> None:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "z", "F1", "F2", "f2"])
        for r in rows:
            writer.writerow(
                [
                    repr(r.t),
                    repr(r.z),
                    "" if r.f1 is None else repr(r.f1),
                    "" if r.f2 is None else repr(r.f2),
                    "" if r.density is None else repr(r.density),
                ]
            )

    if isinstance(path, io.TextIOBase):
        _write(path)
    else:
        with open(path, "w", newline="") as fh:
            _write(fh)
