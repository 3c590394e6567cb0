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
* ``f2`` smooths in both directions with the product ``k(x) k(y)`` of the
  one kernel -- the mark indicator is replaced by its kernel smoothing,
  i.e. each uncensored observation contributes ``K2((z0 - z_i) / beta)``
  where ``K2`` is the antiderivative of the kernel.  The product's time
  factor is the time kernel itself, so integrating out the mark recovers the
  time-only smoother exactly, which keeps the marginal identity -- ``1 -
  f2(t0, z_max + beta)`` is the censored share of ``g_hat`` -- an algebraic
  fact rather than an approximation.

The bivariate density estimate differentiates the same ratio:

    f2_density = (g_hat * d/dt h_hat - g_hat' * h_hat) / g_hat^2,

with ``h_hat`` the smoothed sub-density of uncensored observations.  The
ratio form makes a positive floor on ``g_hat`` essential; evaluations where
``g_hat`` falls below ``g_floor`` raise ``UnstableDenominatorError``.

One private routine, :func:`_kernel_sums`, computes every kernel sample mean
these ratios need, at one or many points with their own bandwidths, on one
sample or a stack of equal-size samples.  The kernel is taken as 0, and
``K2`` as 0 or 1, off [-1, 1], so only a point's time window ``|t0 - t_i| /
alpha <= 1`` is visited, along one of two paths that give a point the same
sums, bit for bit: per run of points at one time, with mark windows, for one
point and at large n; or vectorized over many points at once.
:func:`_estimates` forms every estimate from those means: it refuses bad
points (:func:`~csmark.errors.check_points`) and applies the floor on
``g_hat``, the same way for all of them.
"""

from __future__ import annotations

import io
import math
from dataclasses import astuple, dataclass, field
from pathlib import Path

import numpy as np

from .errors import (DerivativeUnavailableError, InvalidValueError, KernelAssumptionError,
                     UnstableDenominatorError, check_bandwidth, check_bandwidths,
                     check_grid_points, check_instance, check_points)
# eval_rescaled and eval_rescaled_cdf are not called here, but stay
# importable from this module, where perfbench/tracing.py wraps them
from .kernels import (KernelFamily, UnivariateKernel, _support_window,  # noqa: F401
                      epanechnikov_kernel, eval_rescaled, eval_rescaled_cdf)
from .scenarios import Sample, _Stack, _write_csv

__all__ = [
    "EstimatorConfig",
    "f1",
    "f1_counting",
    "f2",
    "f2_density",
    "evaluate_grid",
    "write_grid_csv",
]

DEFAULT_G_FLOOR = 1e-8

# bound on the (runs x n) window masks and on the (points x n) pairs of one
# chunk of _kernel_sums' vectorized path: thousands of runs at the
# bootstrap's small n, and the per-run path where pairs would go singly
_CHUNK_BUDGET = 250_000

_FIRST = np.zeros(1, dtype=np.intp)  # reduceat's start of one whole segment


@dataclass(frozen=True)
class EstimatorConfig:
    """Kernel, bandwidths and the denominator floor for one estimation run.

    ``kernel_t`` smooths censoring times, and marks too in the
    doubly-smoothed estimators, whose product kernel ``kernel_t(x)
    kernel_t(y)`` so has two equal second moments, as the limit law needs.
    ``alpha`` is the time bandwidth; the doubly-smoothed estimators also
    need the mark bandwidth ``beta``, which operations that smooth in time
    only leave None.  Each bandwidth given must be finite and positive.
    ``g_floor`` is the positive floor under the estimated censoring density
    below which ratios are refused.
    """

    kernel_t: UnivariateKernel = field(default_factory=epanechnikov_kernel)
    alpha: float = 0.1
    beta: float | None = None
    g_floor: float = DEFAULT_G_FLOOR

    def __post_init__(self) -> None:
        check_instance(self.kernel_t, "kernel_t", UnivariateKernel)
        check_bandwidth(self.alpha, "alpha")
        if self.beta is not None:
            check_bandwidth(self.beta, "beta")
        check_bandwidth(self.g_floor, "g_floor", InvalidValueError)


def _segment_sums(x: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Sums of the segments ``x[edges[k]:edges[k + 1]]``, each a pairwise
    sum from its own first entry, so independent of what surrounds it."""
    out = np.zeros(edges.size - 1)
    nonempty = edges[:-1] < edges[1:]
    if x.size:
        out[nonempty] = np.add.reduceat(x, edges[:-1][nonempty])
    return out


def _total(x: np.ndarray) -> float:
    """The sum of ``x`` as :func:`_segment_sums` forms a segment's."""
    return np.add.reduceat(x, _FIRST).item() if x.size else 0.0


def _mean(total, term, scale, alpha, beta):
    """A kernel sum of ``term`` as a mean, given ``scale = 1 / (n alpha)``:
    the mean's 1 / n and the kernels' 1 / bandwidth."""
    total = total * (scale / alpha if term in ("gp", "dh") else scale)
    return total / beta if term in ("h", "dh") else total


def _summand(term, w, d, zi, zj, k2, v) -> np.ndarray:
    """Pairs' summands of ``f1``, ``f2``, ``h`` or ``dh``: time kernel ``w``, its
    derivative ``d``, marks ``zi``, ``zj``, mark kernels ``k2`` (``K2``), ``v`` (``k``)."""
    if term == "f1":
        return w * (zi <= zj)
    if term == "f2":
        return w * k2
    return (w if term == "h" else d) * v


def _run_sums(kt, sample, t, z, alpha, beta, terms, row) -> list[np.ndarray]:
    """The per-run path of :func:`_kernel_sums`; off a point's mark window its mark
    kernels take their values unevaluated: ``K2`` 1 below (``z_i < z_j``), 0 above, ``k`` 0."""
    derivative = "gp" in terms or "dh" in terms
    cdf, pdf = "f2" in terms, "h" in terms or "dh" in terms
    n, m = sample.t.shape[-1], t.size
    out, run = [[] for _ in terms], None
    # per point, as Python floats; a shared bandwidth in float64, as arrays hold it
    alphas = alpha.tolist() if isinstance(alpha, np.ndarray) else [float(alpha)] * m
    betas = beta.tolist() if isinstance(beta, np.ndarray) else [beta and float(beta)] * m
    rows = [None] * m if row is None else row.tolist()
    for t0, z0, a, b, r in zip(t.tolist(), z.tolist(), alphas, betas, rows):
        if (r, t0, a) != run:  # a new run: its time window, and the sums over it
            run, scale = (r, t0, a), 1.0 / (n * a)
            ts, zs, ds = (sample.t, sample.z, sample.delta) if r is None else (
                sample.t[r], sample.z[r], sample.delta[r])
            col, u = _support_window(ts, t0, a)
            w = kt.pdf(u)
            d = kt.deriv(u) if derivative else None
            window = {term: _mean(_total(w if term == "g" else d), term, scale, a, None)
                      for term in terms if term in ("g", "gp")}
            keep = (ds[col] == 1).nonzero()[0]
            w, d = w[keep], None if d is None else d[keep]
            zu = zs[col[keep]]  # once the whole window's w and d are freed
        k2 = v = None
        if cdf or pdf:
            mcol, s = _support_window(zu, z0, b)
        if cdf:
            k2 = (zu < z0).astype(float)
            k2[mcol] = kt.cdf(s)
        if pdf:
            v = np.zeros(zu.size)
            v[mcol] = kt.pdf(s)
        for term, x in zip(terms, out):
            x.append(window[term] if term in window else
                     _mean(_total(_summand(term, w, d, zu, z0, k2, v)), term, scale, a, b))
    return [np.array(x) for x in out]


def _batch_sums(kt, stack, t, z, alpha, beta, terms, row) -> list[np.ndarray]:
    """The vectorized path of :func:`_kernel_sums`, on a stack of samples: a
    lone sample comes as a stack of one row, with ``row`` all zeros."""
    ts, zs, ds = stack.t, stack.z.ravel(), stack.delta.ravel()
    n, m = ts.shape[1], t.size
    derivative = "gp" in terms or "dh" in terms
    cdf, pdf = "f2" in terms, "h" in terms or "dh" in terms
    alpha = np.full(m, alpha, dtype=float)
    beta = None if beta is None else np.full(m, beta, dtype=float)
    out = [np.empty(m) for _ in terms]
    new_run = np.ones(m + 1, dtype=bool)
    new_run[1:m] = (t[1:] != t[:-1]) | (alpha[1:] != alpha[:-1]) | (row[1:] != row[:-1])
    bounds = new_run.nonzero()[0]  # run r holds the points bounds[r]:bounds[r + 1]
    step = _CHUNK_BUDGET // n
    for r0 in range(0, bounds.size - 1, step):
        first = bounds[r0 : r0 + step + 1]
        size, first = first[1:] - first[:-1], first[:-1]  # points per run, first points
        p0 = first[0]
        u = ((t[first, None] - ts[row[first]]) / alpha[first, None]).ravel()
        flat = (np.abs(u) <= 1.0).nonzero()[0]  # the runs' windows, one after another
        u = u[flat]
        ends = np.arange(first.size + 1) * n  # run r's entries of flat lie below ends[r + 1]
        window = np.searchsorted(flat, ends)  # run r's window: flat[window[r]:window[r + 1]]
        # the entries' places in the flattened stack: run r's row in place of r
        col = flat + (n * row[first] - ends[:-1]).repeat(np.diff(window))
        w = kt.pdf(u)
        d = kt.deriv(u) if derivative else None
        for x, term in zip(out, terms):
            if term in ("g", "gp"):
                x[p0 : p0 + size.sum()] = _segment_sums(d if term == "gp" else w,
                                                        window).repeat(size)
        keep = (ds[col] == 1).nonzero()[0]
        w, d = w[keep], None if d is None else d[keep]
        zu = zs[col[keep]]  # once the whole windows' w and d are freed
        # pair each point with its run's uncensored window columns
        edges = np.searchsorted(keep, window)
        cols = (edges[1:] - edges[:-1]).repeat(size)  # pairs per point
        start = edges[:-1].repeat(size)
        # about ten pair-sized temporaries live at once, so pairs are formed
        # for an eighth of a chunk's points at a time
        for j in range(0, cols.size, step // 8):
            counts = cols[j : j + step // 8]
            points = slice(p0 + j, p0 + j + counts.size)
            pair_edges = np.concatenate(([0], np.cumsum(counts)))
            offset = start[j : j + counts.size] - pair_edges[:-1]
            # offset falls within a run and holds across runs; where it is one value, as
            # when each run is one point, the pairs are one slice of the columns
            i = (slice(offset[0], offset[0] + pair_edges[-1]) if offset[0] == offset[-1]
                 else np.arange(pair_edges[-1]) + offset.repeat(counts))
            wi, di, zi = w[i], None if d is None else d[i], zu[i]
            zj = z[points].repeat(counts)
            s = (zj - zi) / beta[points].repeat(counts) if cdf or pdf else None
            k2, v = kt.cdf(s) if cdf else None, kt.pdf(s) if pdf else None
            for x, term in zip(out, terms):
                if term in ("f1", "f2", "h", "dh"):
                    x[points] = _segment_sums(_summand(term, wi, di, zi, zj, k2, v), pair_edges)
            del wi, di, zi, zj, s, k2, v  # before the next batch's, not while it is formed
    scale = 1.0 / (n * alpha)
    return [_mean(x, term, scale, alpha, beta) for x, term in zip(out, terms)]


def _kernel_sums(sample, config, t, z, alpha, beta, terms, row=None) -> list[np.ndarray]:
    """Kernel sample means at the paired points ``(t[j], z[j])``.

    ``sample`` is a :class:`Sample`, or with ``row`` a stack of equal-size
    samples (``t``, ``z``, ``delta`` of shape ``(rows, n)``), on whose row
    ``row[j]`` point ``j`` is evaluated.  ``t`` and ``z`` are float arrays of
    the points; ``alpha``/``beta`` are shared scalars or arrays of one value
    per point.  With ``w = k_alpha(t_j - t_i)``, ``d = k'((t_j - t_i) /
    alpha) / alpha^2`` and ``v = k_beta(z_j - z_i)``, returns for each name
    in ``terms`` the mean over the ``n`` observations ``i`` of the point's
    sample of: ``g``: w; ``f1``: w delta 1{z_i <= z_j}; ``f2``: w delta
    K2((z_j - z_i) / beta); ``gp``: d; ``h``: w v delta; ``dh``: d v delta.

    Only observations in a point's time window ``|(t_j - t_i) / alpha| <=
    1`` are visited.  Consecutive points sharing ``(row, t, alpha)`` form a
    run with one window and one time-kernel evaluation; ``g`` and ``gp``
    sum over the window, the others over (point, uncensored window column)
    pairs, along one of two paths chosen from the point count and ``n``:

    * per run (:func:`_run_sums`) for one point, and where the other path
      would pair one point at a time (n > 15 625): a run's window
      by a bounds prefilter (:func:`~csmark.kernels._support_window`), a
      point's mark kernels only in its mark window ``|(z_j - z_i) / beta|
      <= 1``; for single estimates, grids at large n, the bootstrap's target;
    * vectorized (:func:`_batch_sums`) otherwise, a lone sample taken as a
      stack of one row: ``_CHUNK_BUDGET // n`` runs' windows at a time by
      one (runs x n) mask, an eighth of a chunk's points paired at a time,
      by a slice where each is its run's only point and by a gather else,
      every kernel on every pair; for the bootstrap's pilot densities and
      candidate stacks.

    Both add the same values in sample order: a point's sums are bit for
    bit the same whatever the path, the chunk budget, the other points of
    the call, and whether its sample is alone or a row of a stack.
    """
    kt = config.kernel_t
    marked = "f2" in terms or "h" in terms or "dh" in terms
    if marked:
        check_bandwidths(beta, "beta")
    if ("gp" in terms or "dh" in terms) and kt.deriv is None:
        raise DerivativeUnavailableError(f"kernel {kt.name!r} has no derivative")
    check_bandwidths(alpha, "alpha")
    n = sample.t.shape[-1]
    path = _run_sums if t.size == 1 or _CHUNK_BUDGET // n // 8 <= 1 else _batch_sums
    if path is _batch_sums and row is None:  # a lone sample as a stack of one row
        sample = _Stack(sample.t[None], sample.z[None], sample.delta[None])
        row = np.zeros(t.size, dtype=np.intp)
    return path(kt, sample, t, z, alpha, beta if marked else None, terms, row)


# the kernel sums each estimate needs besides g; a ratio's numerator comes first
_TERMS = {"F1": ("f1",), "F2": ("f2",), "density": ("gp", "h", "dh")}


def _estimates(sample, config, t, z, kinds, alpha=None, beta=None, row=None, single=False):
    """g_hat and the estimates ``kinds`` at the paired points ``(t[j], z[j])``.

    ``kinds`` names estimates among ``"F1"`` (:func:`f1`), ``"F2"``
    (:func:`f2`) and ``"density"`` (:func:`f2_density`).  ``t`` and ``z``
    are equal-length arrays, or with ``single`` one point's numbers, whose
    g_hat and estimates are then numpy scalars; ``alpha``/``beta``
    are the config's bandwidths when None, else scalars or arrays of one
    value per point.  With ``row``, ``sample`` is a stack of samples and
    point ``j`` is evaluated on its row ``row[j]`` (see :func:`_kernel_sums`).
    Every estimate is NaN where g_hat falls below ``config.g_floor``.  Points
    are refused as :func:`~csmark.errors.check_points` refuses them, with
    ``single``.
    """
    t, z = check_points(t, z, single)
    alpha = config.alpha if alpha is None else alpha
    beta = config.beta if beta is None else beta
    terms = ("g",) + tuple(term for kind in kinds for term in _TERMS[kind])
    sums = _kernel_sums(sample, config, t, z, alpha, beta, terms, row)
    if single:  # numpy scalars round and warn as arrays do, at less cost per operation
        sums = [x[0] for x in sums]
    sums = dict(zip(terms, sums))
    g = sums["g"]
    # NaN spreads to every estimate
    stable = ((g if g >= config.g_floor else np.nan) if single
              else np.where(g >= config.g_floor, g, np.nan))
    return g, [
        (stable * sums["dh"] - sums["gp"] * sums["h"]) / (stable * stable)
        if kind == "density" else sums[_TERMS[kind][0]] / stable
        for kind in kinds
    ]


def _estimate(sample, config, t0, z0, kind) -> float:
    """One estimate at one point, ``t0`` and ``z0`` one number each;
    :class:`UnstableDenominatorError` below the floor."""
    check_instance(sample, "sample", Sample)
    check_instance(config, "config", EstimatorConfig)
    g, (value,) = _estimates(sample, config, t0, z0, (kind,), single=True)
    if math.isnan(value):
        raise _unstable(float(g), config.g_floor)
    return float(value)


def _unstable(den: float, g_floor: float) -> UnstableDenominatorError:
    return UnstableDenominatorError(
        f"censoring density estimate {den:.3e} below floor {g_floor:.3e}", g_value=den
    )


def f1(sample: Sample, config: EstimatorConfig, t0: float, z0: float) -> float:
    """Distribution function estimate smoothing in time only.

    ``f1(t0, z0) = [n^{-1} sum_i 1{z_i <= z0} delta_i k_alpha(t0 - t_i)]
    / g_hat(t0)``.  Values always lie in [0, 1] because the numerator terms
    are a subset of the denominator terms; monotonicity in ``t0`` is *not*
    guaranteed.
    """
    return _estimate(sample, config, t0, z0, "F1")


def f1_counting(sample: Sample, config: EstimatorConfig, t0: float, z0: float) -> float:
    """Ratio-of-counts form of :func:`f1` for the Uniform time kernel.

    Counts observations with ``|t_i - t0| <= alpha``; equals :func:`f1`
    exactly (up to float rounding) when ``kernel_t`` is Uniform, and is the
    natural unsmoothed reading of the estimator.  Points are refused as
    :func:`f1` refuses them.
    """
    check_instance(sample, "sample", Sample)
    check_instance(config, "config", EstimatorConfig)
    if config.kernel_t.family is not KernelFamily.UNIFORM:
        raise KernelAssumptionError("counting form is only defined for the uniform time kernel")
    check_points(t0, z0, single=True)
    alpha = config.alpha
    inside = np.abs(sample.t - t0) <= alpha
    num = float(np.sum(inside & (sample.delta == 1) & (sample.z <= z0)))
    # scale both counts to density units so the floor means the same thing
    scale = 1.0 / (2.0 * alpha * len(sample))
    den = float(np.sum(inside)) * scale
    if den < config.g_floor:
        raise _unstable(den, config.g_floor)
    return num * scale / den


def f2(sample: Sample, config: EstimatorConfig, t0: float, z0: float) -> float:
    """Distribution function estimate smoothing in time and mark.

    Each uncensored observation contributes the smoothed mark indicator
    ``K2((z0 - z_i) / beta)`` times ``k_alpha(t0 - t_i)``, where ``K2`` is
    the antiderivative of the mark kernel; ``K2`` runs from 0 to 1,
    so the value stays in [0, 1] and increases in ``z0``.  At
    ``z0 >= max mark + beta`` every smoothed indicator equals one and the
    estimator reduces exactly to the uncensored mass over ``g_hat``.
    """
    return _estimate(sample, config, t0, z0, "F2")


def f2_density(sample: Sample, config: EstimatorConfig, t0: float, z0: float) -> float:
    """Estimate of the joint density ``f0(t0, z0)``.

    Differentiates the smoothed ratio in its time argument:
    ``(g_hat * d/dt h_hat - g_hat' * h_hat) / g_hat^2`` with ``h_hat`` the
    doubly-smoothed uncensored sub-density.  Not guaranteed nonnegative in
    small samples, though it is positive with probability tending to one
    under undersmoothing.
    """
    return _estimate(sample, config, t0, z0, "density")


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
    a kernel with a derivative; when those prerequisites are
    missing the corresponding columns are left as None rather than failing
    the whole grid.  Points whose denominator is unstable get None everywhere.
    """
    check_instance(sample, "sample", Sample)
    check_instance(config, "config", EstimatorConfig)
    kinds: tuple[str, ...] = ("F1",)
    if config.beta is not None:
        kinds += ("F2",)
        if config.kernel_t.deriv is not None:
            kinds += ("density",)
    t, z = check_grid_points(t_grid, z_grid)
    _, values = _estimates(sample, config, t, z, kinds)
    columns = [[None if math.isnan(v) else v for v in x.tolist()] for x in values]
    columns += [[None] * t.size] * (3 - len(columns))
    return [GridValue(*row) for row in zip(t.tolist(), z.tolist(), *columns)]


def write_grid_csv(rows: list[GridValue], path: str | Path | io.TextIOBase) -> None:
    """Write grid values as CSV with header ``t,z,F1,F2,f2`` ('' = missing)."""
    _write_csv(path, ["t", "z", "F1", "F2", "f2"], [astuple(r) for r in rows])
