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
  time-only smoother exactly, which keeps the marginal identity
  ``1 - f2(t0, z_max + beta) = h0/g`` an algebraic fact rather than an
  approximation.

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
single-point call and the pilot density agree exactly.  One more,
:func:`_estimates`, forms every estimate from those means: it refuses bad
points and applies the floor on ``g_hat``, the same way for all of them.
"""

from __future__ import annotations

import io
import math
from dataclasses import astuple, dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    DerivativeUnavailableError,
    InvalidBandwidthError,
    KernelAssumptionError,
    SupportError,
    UnstableDenominatorError,
)
# eval_rescaled and eval_rescaled_cdf are not called here, but stay
# importable from this module, where perfbench/tracing.py wraps them
from .kernels import (  # noqa: F401
    Bandwidths,
    KernelFamily,
    UnivariateKernel,
    _check_bandwidth,
    _epanechnikov_deriv_bounds,
    _epanechnikov_pdf_bounds,
    epanechnikov_kernel,
    eval_rescaled,
    eval_rescaled_cdf,
)
from .scenarios import Sample, _write_csv

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
    """Kernel, bandwidths and the denominator floor for one estimation run.

    ``kernel_t`` smooths censoring times, and marks too in the
    doubly-smoothed estimators, whose product kernel ``kernel_t(x)
    kernel_t(y)`` so has two equal second moments, as the limit law needs.
    Those estimators also need the mark bandwidth ``bandwidths.beta``.
    ``g_floor`` is the positive floor under the estimated censoring density
    below which ratios are refused.
    """

    kernel_t: UnivariateKernel = field(default_factory=epanechnikov_kernel)
    bandwidths: Bandwidths = field(default_factory=lambda: Bandwidths(0.1))
    g_floor: float = DEFAULT_G_FLOOR

    def __post_init__(self) -> None:
        _check_bandwidth(self.g_floor, "g_floor", ValueError)


def _segment_sums(x: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Sums of the segments ``x[edges[k]:edges[k + 1]]``, each a pairwise
    sum from its own first entry, so independent of what surrounds it."""
    out = np.zeros(edges.size - 1)
    nonempty = edges[:-1] < edges[1:]
    if x.size:
        out[nonempty] = np.add.reduceat(x, edges[:-1][nonempty])
    return out


def _point_sums(sample, kt, t0, z0, alpha, beta, terms) -> list[np.ndarray]:
    """:func:`_kernel_sums` at one point, in the same arithmetic (``beta`` None
    when no term smooths the mark).

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
    if beta is not None:
        scaled = (z0 - zu) / beta
        v = kt.pdf(scaled) if {"h", "dh"}.intersection(terms) else None
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
            x = w[keep] * kt.cdf(scaled)
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
    ``v = k_beta(z_j - z_i)``, returns for each name in ``terms`` the mean
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
    marked = bool({"f2", "h", "dh"}.intersection(terms))
    if marked:
        if beta is None:
            raise InvalidBandwidthError(
                "doubly-smoothed estimation needs a mark bandwidth (beta)"
            )
        _check_bandwidth(beta, "beta")
        beta = np.full(t.shape, beta, dtype=float)
    differentiated = bool({"gp", "dh"}.intersection(terms))
    if differentiated and kt.deriv is None:
        raise DerivativeUnavailableError(f"kernel {kt.name!r} has no derivative")
    _check_bandwidth(alpha, "alpha")
    alpha = np.full(t.shape, alpha, dtype=float)
    if t.size == 1:  # spares a single point the batch bookkeeping
        b = beta[0] if marked else None
        return _point_sums(sample, kt, t[0], z[0], alpha[0], b, terms)
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
            if marked:
                scaled = (zj - zi) / beta[points].repeat(counts)
                v = kt.pdf(scaled) if {"h", "dh"}.intersection(terms) else None
            for term in {"f1", "f2", "h", "dh"}.intersection(terms):
                if term == "f1":
                    x = w[i] * (zi <= zj)
                elif term == "f2":
                    x = w[i] * kt.cdf(scaled)
                else:
                    x = (w if term == "h" else d)[i] * v
                out[term][points] = _segment_sums(x, pair_edges)
    scale = 1.0 / (n * alpha)  # the kernels' 1 / bandwidth and the mean's 1 / n
    for term in terms:
        out[term] *= scale / alpha if term in ("gp", "dh") else scale
        if term in ("h", "dh"):
            out[term] /= beta
    return [out[term] for term in terms]


def _checked_points(t, z) -> tuple[np.ndarray, np.ndarray]:
    """``t`` and ``z`` as float arrays, refusing points no estimate is defined at.

    A NaN ``t`` or ``z`` or an infinite ``t`` raises :class:`SupportError`;
    ``z = +-inf`` is the limit in the mark.
    """
    t, z = np.array(t, dtype=float, ndmin=1), np.array(z, dtype=float, ndmin=1)
    bad = ~np.isfinite(t) | np.isnan(z)
    if bad.any():
        j = bad.argmax()
        raise SupportError(
            f"cannot estimate at (t, z) = ({t[j]}, {z[j]}): "
            "t must be finite and z a number"
        )
    return t, z


def _at_point(
    sample: Sample, config: EstimatorConfig, t0: float, z0: float, terms: tuple[str, ...]
) -> list[float]:
    """:func:`_kernel_sums` at one checked point with the config's bandwidths."""
    bw = config.bandwidths
    t, z = _checked_points(t0, z0)
    sums = _kernel_sums(sample, config, t, z, bw.alpha, bw.beta, terms)
    return [float(x[0]) for x in sums]


# the kernel sums each estimate needs besides g; a ratio's numerator comes first
_TERMS = {"F1": ("f1",), "F2": ("f2",), "density": ("gp", "h", "dh")}


def _estimates(sample, config, t, z, kinds, alpha=None, beta=None):
    """g_hat and the estimates ``kinds`` at the paired points ``(t[j], z[j])``.

    ``kinds`` names estimates among ``"F1"`` (:func:`f1`), ``"F2"``
    (:func:`f2`) and ``"density"`` (:func:`f2_density`).  ``t`` and ``z``
    are equal-length arrays, or a single point's scalars; ``alpha``/``beta``
    are the config's bandwidths when None, else scalars or arrays of one
    value per point.  Every estimate is NaN where g_hat falls below
    ``config.g_floor``.  A NaN ``t`` or ``z`` or an infinite ``t`` raises
    :class:`SupportError`; ``z = +-inf`` gives the limit in the mark.
    """
    t, z = _checked_points(t, z)
    bw = config.bandwidths
    alpha = bw.alpha if alpha is None else alpha
    beta = bw.beta if beta is None else beta
    terms = ("g",) + tuple(term for kind in kinds for term in _TERMS[kind])
    sums = dict(zip(terms, _kernel_sums(sample, config, t, z, alpha, beta, terms)))
    g = sums["g"]
    stable = np.where(g >= config.g_floor, g, np.nan)  # NaN spreads to every estimate
    return g, [
        (stable * sums["dh"] - sums["gp"] * sums["h"]) / (stable * stable)
        if kind == "density" else sums[_TERMS[kind][0]] / stable
        for kind in kinds
    ]


# the rounding allowance of _density_bounds is _BOUND_SLACK * (n + 8) * eps
_BOUND_SLACK = 32

# multiply-adds per matrix product that a threaded BLAS keeps on the calling
# thread: OpenBLAS threads larger ones, and its threads then spin on the
# other cores for a while after every call, doubling the process's CPU time
_SERIAL_PRODUCT = 1 << 16


def _density_bounds(sample, config, t_lo, t_hi, z_lo, z_hi):
    """Bounds on the clipped density estimate over the cells of a grid.

    Returns ``(lower, upper)`` of shape ``(t_lo.size, z_lo.size)``: at every
    float ``t`` in ``[t_lo[i], t_hi[i]]`` and ``z`` in ``[z_lo[j], z_hi[j]]``
    the float value of ``max(density, 0)`` from :func:`_estimates` (0 where
    g_hat is under the floor) lies in ``[lower[i, j], upper[i, j]]``.
    Intervals may be degenerate (``t_lo == t_hi``), giving bounds at points.

    The config's kernel must be Epanechnikov and its bandwidths must hold a
    mark bandwidth; :class:`~csmark.bandwidth.PilotModel`, the one caller,
    refuses any other config.

    Every factor the kernel sums add up -- ``k(u_i)`` and ``k'(u_i)`` at
    ``u_i = (t - t_i) / alpha``, ``k((z - z_i) / beta)`` -- is bounded
    exactly: ``u_i`` rounds monotonically in ``t``, and the kernel helpers
    bound the float kernels over the ``u`` interval.  Sums of those bounds
    bound ``g`` and ``gp`` per t-interval; matrix products of the (t-interval
    x uncensored observation) and (z-interval x uncensored observation)
    bounds bound ``h`` and ``dh``, with ``k'`` split into its positive and
    negative parts.  Interval arithmetic then bounds the quotient in the
    form ``dh / g - gp h / g^2``, in which the two ``g`` of ``g dh / g^2``
    do not vary independently.

    Rounding.  :func:`_kernel_sums` forms each sum from at most ``n``
    products and scales it in at most 5 more operations, in some order;
    by Higham (*Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
    §3.1 and §4.2) its float value lies within ``gamma = (n + 5) eps / (1 -
    (n + 5) eps)`` times the sum of absolute terms, ``A``, of the same sum
    in exact arithmetic, and so do the matrix products and sums here of
    the exact values of theirs.  With ``A_g = g``, ``A_h = h``, ``A_gp`` and
    ``A_dh`` (bounded here through ``|k'|`` and ``k <= 0.75``), these
    errors move the quotient by
    at most about ``4 gamma (g A_dh + A_gp h) / g^2`` in either evaluation,
    and its last five roundings by ``5 eps`` times the same.  The sum,
    under ``10 (n + 8) eps (g A_dh + A_gp h) / g^2``, is covered more than
    three times by the margin ``delta (g_hi A_dh + A_gp h_hi) / g_lo^2`` with
    ``delta = _BOUND_SLACK (n + 8) eps``, taken off the lower and added to
    the upper bound.  A cell is stable when ``g_lo (1 - delta) >= g_floor``,
    so g_hat there is at least the floor.

    Cells that are not stable, or whose bounds overflow, get ``[0, inf]``.
    """
    alpha, beta = config.bandwidths.alpha, config.bandwidths.beta
    shape = (t_lo.size, z_lo.size)
    n, m = len(sample), t_lo.size
    g_lo, g_hi, gp_lo, gp_hi, gp_abs, dh_abs = np.zeros((6, m))
    h_lo, h_hi, dh_lo, dh_hi = np.zeros((4, m, z_lo.size))
    # observations go in blocks, bounding the (interval x observation) arrays
    step = max(1, _CHUNK_BUDGET // (8 * max(*shape, 1)))
    for i0 in range(0, n, step):
        block = slice(i0, i0 + step)
        ti = sample.t[block]
        ua, ub = (t_lo[:, None] - ti) / alpha, (t_hi[:, None] - ti) / alpha
        w_lo, w_hi = _epanechnikov_pdf_bounds(ua, ub)
        d_lo, d_hi = _epanechnikov_deriv_bounds(ua, ub)
        d_abs = np.fmax(-d_lo, d_hi)
        unc = (sample.delta[block] == 1).nonzero()[0]
        # |dh| <= sum |k'| k over the uncensored, and k <= 0.75
        for total, x in ((g_lo, w_lo), (g_hi, w_hi), (gp_lo, d_lo), (gp_hi, d_hi),
                         (gp_abs, d_abs), (dh_abs, 0.75 * d_abs[:, unc])):
            total += x.sum(axis=1)
        zi = sample.z[block][unc]
        v_lo, v_hi = _epanechnikov_pdf_bounds(  # (uncensored x z-interval)
            (z_lo - zi[:, None]) / beta, (z_hi - zi[:, None]) / beta
        )
        w_lo, w_hi, d_lo, d_hi = (x[:, unc] for x in (w_lo, w_hi, d_lo, d_hi))
        # k' is split into its positive and negative parts; the products go
        # in blocks of rows small enough for BLAS to keep on this thread
        rows = max(1, _SERIAL_PRODUCT // max(1, v_lo.size))
        for r in range(0, m, rows):
            b = slice(r, r + rows)
            h_lo[b] += w_lo[b] @ v_lo
            h_hi[b] += w_hi[b] @ v_hi
            dh_lo[b] += np.fmax(d_lo[b], 0.0) @ v_lo - np.fmax(-d_lo[b], 0.0) @ v_hi
            dh_hi[b] += np.fmax(d_hi[b], 0.0) @ v_hi - np.fmax(-d_hi[b], 0.0) @ v_lo
    # the scale factors of _kernel_sums, in place: the arrays are the
    # largest here
    scale = 1.0 / (n * alpha)
    for x in (h_lo, h_hi):
        x *= scale / beta
    for x in (dh_lo, dh_hi):
        x *= scale / alpha / beta
    g_lo, g_hi = g_lo * scale, g_hi * scale
    gp_lo, gp_hi, gp_abs = (x * (scale / alpha) for x in (gp_lo, gp_hi, gp_abs))
    dh_abs = dh_abs * (scale / alpha / beta)

    delta = _BOUND_SLACK * (n + 8) * np.finfo(float).eps
    stable = g_lo * (1.0 - delta) >= config.g_floor
    g_lo, g_hi = (np.where(stable, x, 1.0)[:, None] for x in (g_lo, g_hi))
    gp_lo, gp_hi, gp_abs, dh_abs = (x[:, None] for x in (gp_lo, gp_hi, gp_abs, dh_abs))
    g2_lo, g2_hi = g_lo * g_lo, g_hi * g_hi
    with np.errstate(all="ignore"):
        # dh / g - gp h / g^2, with g > 0 and h >= 0
        lower = np.fmin(dh_lo / g_lo, dh_lo / g_hi)
        p = np.fmax(gp_hi * h_lo, gp_hi * h_hi)
        lower -= np.fmax(p / g2_lo, p / g2_hi)
        upper = np.fmax(dh_hi / g_lo, dh_hi / g_hi)
        p = np.fmin(gp_lo * h_lo, gp_lo * h_hi)
        upper -= np.fmin(p / g2_lo, p / g2_hi)
        margin = delta * (g_hi * dh_abs + gp_abs * h_hi) / g2_lo
        lower -= margin
        upper += margin
    ok = stable[:, None] & np.isfinite(lower) & np.isfinite(upper)
    lower = np.where(ok, np.fmax(lower, 0.0), 0.0)
    upper = np.where(ok, np.fmax(upper, 0.0), np.inf)
    return lower, upper


def _estimate(sample, config, t0, z0, kind) -> float:
    """One estimate at one point; :class:`UnstableDenominatorError` below the floor."""
    (g,), ((value,),) = _estimates(sample, config, t0, z0, (kind,))
    if math.isnan(value):
        raise _unstable(float(g), config.g_floor)
    return float(value)


def g_hat(sample: Sample, config: EstimatorConfig, t0: float) -> float:
    """Kernel estimate of the censoring density at ``t0``.

    ``g_hat(t0) = n^{-1} sum_i k_alpha(t0 - t_i)``.  May legitimately be
    zero when no censoring time falls within ``alpha`` of ``t0``.  A NaN or
    infinite ``t0`` raises :class:`SupportError`, here and in the other
    time smoothers.
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
    if config.kernel_t.family is not KernelFamily.UNIFORM:
        raise KernelAssumptionError(
            "counting form is only defined for the uniform time kernel"
        )
    _checked_points(t0, z0)
    alpha = config.bandwidths.alpha
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
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    z_grid = np.atleast_1d(np.asarray(z_grid, dtype=float))
    kinds: tuple[str, ...] = ("F1",)
    if config.bandwidths.beta is not None:
        kinds += ("F2",)
        if config.kernel_t.deriv is not None:
            kinds += ("density",)
    t = np.repeat(t_grid, z_grid.size)
    z = np.tile(z_grid, t_grid.size)
    _, values = _estimates(sample, config, t, z, kinds)
    columns = [[None if math.isnan(v) else v for v in x.tolist()] for x in values]
    columns += [[None] * t.size] * (3 - len(columns))
    return [GridValue(*row) for row in zip(t.tolist(), z.tolist(), *columns)]


def write_grid_csv(rows: list[GridValue], path: str | Path | io.TextIOBase) -> None:
    """Write grid values as CSV with header ``t,z,F1,F2,f2`` ('' = missing)."""
    _write_csv(path, ["t", "z", "F1", "F2", "f2"], [astuple(r) for r in rows])
