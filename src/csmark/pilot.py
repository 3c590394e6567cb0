"""The smoothed bootstrap's pilot model, and draws from its density.

A pilot estimate with deliberately generous bandwidths plays the role of the
truth in the bootstrap of :mod:`csmark.bandwidth`.  Resampling works
directly from the smooth pilot model rather than the empirical distribution
-- naive resampling cannot see the effect of the mark bandwidth at all.
Censoring times are drawn by perturbing resampled observed times with
pilot-bandwidth kernel noise (that is exactly a draw from the kernel
estimate of the censoring density); latent pairs come from the pilot density
by rejection sampling on the unit box, the support of both scenarios, under
a grid-based envelope.

Both uses of the pilot density go through one set of certified bounds on
it over the envelope grid's cells (:func:`_density_bounds`) and evaluate it
exactly only where the bounds cannot decide.  A node's density is at most
the upper bound of each cell around it, and a cell's lower bound holds at
its corners, so the envelope's peak is searched among the nodes whose least
cell upper bound reaches the largest lower bound.  Rejection is squeezed
(Marsaglia 1977; Devroye 1986, §II.5): a proposal whose ``u * envelope``
lies above its grid cell's upper bound is rejected, and one at or below the
lower bound accepted, without the density.  Every decision, and so every
draw, is the one exact evaluation everywhere would give.

Latent pairs are drawn for a group of generators in lockstep, each drawing
what it would draw alone.  A rejection round is one set of array calls over
the whole group: the proposals of every generator side by side, one cell
lookup, one squeeze and one ranking of the acceptances; the pilot density
evaluates the round's exact proposals together, in no more calls than one
per generator.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from . import estimators
from .errors import DegeneratePilotError, InvalidBandwidthError, KernelAssumptionError
from .estimators import EstimatorConfig, _estimates
from .kernels import KernelFamily, _epanechnikov_deriv_bounds, _epanechnikov_pdf_bounds
from .scenarios import Sample

__all__ = ["PilotModel"]

# rejection envelope: this factor times the largest pilot density seen
_ENVELOPE_SAFETY = 1.1

# nodes per side of the envelope grid over the unit box
_ENVELOPE_GRID = 200

# fewest exact proposals of a rejection round per pilot-density call: at
# n = 100 a round's whole count, which varies from round to round, sized
# temporaries that fragmented the heap and raised peak RSS op after op
_DENSITY_PIECE = 78

# rejection rounds after which draw_xy gives up on a pilot density that
# (almost) never accepts a proposal
_MAX_DRAW_ROUNDS = 1000


class PilotModel:
    """A smooth surrogate for the data-generating model, fitted once.

    Holds the original sample, the pilot estimator configuration, the
    clipped pilot density (negative values and unstable denominators are
    treated as zero) and a rejection envelope precomputed on a grid over
    the unit box, 1.1 times the largest density at its nodes.  The config
    must smooth with the Epanechnikov kernel, for which alone the bounds
    and the noise below are exact, and carry a mark bandwidth.  Bounds on
    the density over every cell of the grid, computed once, leave only the
    nodes that can hold that peak, which alone are evaluated, and squeeze
    the rejection step of :meth:`draw_xy`.  The envelope is
    immutable; rejection batches that encounter density values above it
    enlarge a local copy and continue, so every draw is a pure function of
    the generator passed in.
    """

    def __init__(self, sample_: Sample, config: EstimatorConfig) -> None:
        if config.kernel_t.family is not KernelFamily.EPANECHNIKOV:
            raise KernelAssumptionError(f"the pilot kernel must be epanechnikov, "
                                        f"not {config.kernel_t.name!r}")
        if config.bandwidths.beta is None:
            raise InvalidBandwidthError("the pilot needs a mark bandwidth (beta)")
        self.sample = sample_
        self.config = config
        self._edges = grid = np.linspace(0.0, 1.0, _ENVELOPE_GRID)
        # the squeeze's bounds on the grid's cells [edges[i], edges[i + 1]]
        # x [edges[j], edges[j + 1]]
        self._cells = lower, upper = _density_bounds(
            sample_, config, grid[:-1], grid[1:], grid[:-1], grid[1:]
        )
        # a node's density is at most the upper bound of each cell around
        # it, and a cell's lower bound holds at its corner nodes, so the
        # peak is at least the largest lower bound: only nodes whose bound
        # reaches that, and is positive, can hold a positive peak
        padded = np.pad(upper, 1, constant_values=np.inf)
        node = np.fmin.reduce([padded[:-1, :-1], padded[1:, :-1],
                               padded[:-1, 1:], padded[1:, 1:]])
        near = ((node >= lower.max()) & (node > 0.0)).nonzero()
        peak = float(np.max(self.density(grid[near[0]], grid[near[1]]), initial=0.0))
        if peak <= 0.0:
            raise DegeneratePilotError(
                "pilot density is nonpositive everywhere on the envelope grid"
            )
        self.envelope = _ENVELOPE_SAFETY * peak

    def density(self, t, z) -> np.ndarray:
        """Clipped pilot density: max(density estimate, 0), 0 where unstable."""
        _, (density,) = _estimates(self.sample, self.config, t, z, ("density",))
        return np.fmax(density, 0.0)

    def target(self, t0: float, z0: float) -> float:
        """The pilot's own distribution value, the bootstrap 'truth'."""
        # looked up at call time, where perfbench/tracing.py wraps it
        return estimators.f2(self.sample, self.config, t0, z0)

    def draw_t(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw censoring times from the pilot censoring-density estimate.

        A draw is a resampled observed time plus pilot-bandwidth kernel
        noise; values may spill slightly outside the box, exactly as the
        kernel estimate does.
        """
        idx = rng.integers(0, len(self.sample), size)
        noise = _epanechnikov_noise(rng, size)
        return self.sample.t[idx] + self.config.bandwidths.alpha * noise

    def draw_xy(
        self, rngs: Sequence[np.random.Generator], size: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw latent pairs from the pilot density by rejection on the unit box;
        :class:`DegeneratePilotError` after ``_MAX_DRAW_ROUNDS`` rounds.

        Returns ``(len(rngs), size)`` arrays whose row ``r`` is what generator
        ``r`` alone gives.  Generators draw round by round in lockstep: in a
        round each generator still short of ``size`` draws its own batch,
        and the cell lookup, squeeze, acceptance and placement run once on
        all the batches side by side; a local envelope refresh is one
        generator's, on its own batch.  The exact proposals go to the
        density together, in pieces of at least ``_DENSITY_PIECE`` points
        and at least any one generator's count, so never in more calls than
        one per generator.
        The density is evaluated only at proposals that the bounds of their
        cell cannot decide, and at those whose upper bound exceeds the
        envelope, so that a local refresh sees the same peak as exact
        evaluation everywhere.
        """
        rngs = list(rngs)
        lower, upper = self._cells
        envelopes = np.full(len(rngs), self.envelope)
        x_all, y_all = np.empty((2, len(rngs), size))
        got, proposed = np.zeros((2, len(rngs)), dtype=np.intp)
        # every generator still drawing has taken part in every round so far;
        # the del statements free proposal-sized arrays before the density's
        # temporaries, which set a round's peak
        rounds = 0
        while (active := (got < size).nonzero()[0]).size:
            if rounds == _MAX_DRAW_ROUNDS:
                r = active[0]
                raise DegeneratePilotError(
                    f"rejection sampling accepted {got[r]} of {proposed[r]} "
                    f"proposals in {rounds} rounds, {size} needed"
                )
            need = size - got[active]
            batch = np.maximum(256, 2 * need)
            # the round's proposals side by side, generator j's in
            # [ends[j] - batch[j], ends[j]); one random(3 b) call is bit for
            # bit uniform(0, 1, b), uniform(0, 1, b) and random(b)
            ends = np.cumsum(batch)
            draws = [rngs[r].random(3 * b).reshape(3, b)
                     for r, b in zip(active.tolist(), batch.tolist())]
            x, y, u = draws[0] if len(draws) == 1 else np.concatenate(draws, axis=1)
            del draws
            # one generator's envelope stays a scalar, with no repeat
            env = (envelopes[active[0]] if active.size == 1
                   else np.repeat(envelopes[active], batch))
            cell = _cell_of(self._edges, x) * (_ENVELOPE_GRID - 1) + _cell_of(self._edges, y)
            # the cell's lower bound, replaced by the density where evaluated
            value, hi = lower.take(cell), upper.take(cell)
            del cell
            # a proposal is accepted when u * envelope <= its density; the
            # lower bound stands in for the density where u * envelope is at
            # most it or above the upper bound, and an upper bound over the
            # envelope may hide a spike
            bound = u * env
            exact = (hi > env) | ((value < bound) & (bound <= hi))
            del env
            which = exact.nonzero()[0]
            counts = np.diff(np.searchsorted(which, ends), prepend=0)
            piece = max(_DENSITY_PIECE, int(counts.max()))
            value[which] = np.concatenate([
                self.density(x[which[i : i + piece]], y[which[i : i + piece]])
                for i in range(0, max(which.size, 1), piece)
            ])
            # only an exact proposal can be a spike the precomputed envelope
            # missed (elsewhere value <= hi <= envelope), and it is refreshed
            # locally, in its own generator's segment
            spikes = which[value[which] > np.repeat(envelopes[active], counts)]
            for j in sorted(set(np.searchsorted(ends, spikes, "right").tolist())):
                seg = slice(ends[j] - batch[j], ends[j])
                envelopes[active[j]] = _ENVELOPE_SAFETY * value[seg].max()
                bound[seg] = u[seg] * envelopes[active[j]]
                more = seg.start + (~exact[seg] & (value[seg] < bound[seg])
                                    & (bound[seg] <= hi[seg])).nonzero()[0]
                value[more] = self.density(x[more], y[more])
            # each generator keeps its first `need` acceptances, in order,
            # after those it already has
            accepted = (bound <= value).nonzero()[0]
            owner = np.searchsorted(ends, accepted, "right")
            first = np.searchsorted(accepted, ends - batch)
            taken = np.minimum(np.diff(first, append=accepted.size), need)
            rank = np.arange(accepted.size)
            kept = rank < (first + taken)[owner]
            dest = (active * size + got[active] - first)[owner[kept]] + rank[kept]
            x_all.put(dest, x[accepted[kept]])
            y_all.put(dest, y[accepted[kept]])
            got[active] += taken
            proposed[active] += batch
            rounds += 1
        return x_all, y_all


def _cell_of(edges: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``np.searchsorted(edges, x, "right") - 1``, bit for bit, for ``x`` in
    [0, 1) and ``edges`` the envelope grid's nodes, at a tenth of its cost.

    ``x (edges.size - 1)``, truncated, is within one of the cell, since the
    nodes are within a few ulps of ``i / (edges.size - 1)``; one comparison
    with each edge of the guessed cell corrects it.
    """
    i = np.minimum((x * (edges.size - 1)).astype(np.intp), edges.size - 2)
    i -= edges[i] > x
    i += edges[i + 1] <= x
    return i


def _epanechnikov_noise(rng: np.random.Generator, size: int) -> np.ndarray:
    """Inverse-CDF draws from the Epanechnikov kernel on [-1, 1]."""
    u = rng.random(size)
    # closed-form inverse of (2 + 3w - w^3)/4 = u via the trigonometric
    # root of the depressed cubic
    return 2.0 * np.cos((np.arccos(1.0 - 2.0 * u) + 4.0 * np.pi) / 3.0)


# the rounding allowance of _density_bounds is _BOUND_SLACK * (n + 8) * eps
_BOUND_SLACK = 32

# multiply-adds per matrix product that a threaded BLAS keeps on the calling
# thread: OpenBLAS threads larger ones, and its threads then spin on the
# other cores for a while after every call, doubling the process's CPU time.
# OpenBLAS's gemm (interface/gemm.c) runs M N K <= 65536 * 4 on one thread
# (SMP_THRESHOLD_MIN times GEMM_MULTITHREAD_THRESHOLD); with numpy 2.4.6 and
# scipy-openblas 0.3.31 its helper threads used no CPU at M N K = 716 400
# and did from 1 194 000
_SERIAL_PRODUCT = 1 << 18


def _density_bounds(sample, config, t_lo, t_hi, z_lo, z_hi):
    """Bounds on the clipped density estimate over the cells of a grid.

    Returns ``(lower, upper)`` of shape ``(t_lo.size, z_lo.size)``: at every
    float ``t`` in ``[t_lo[i], t_hi[i]]`` and ``z`` in ``[z_lo[j], z_hi[j]]``
    the float value of ``max(density, 0)`` from
    :func:`~csmark.estimators._estimates` (0 where g_hat is under the floor)
    lies in ``[lower[i, j], upper[i, j]]``.  Intervals may be degenerate
    (``t_lo == t_hi``), giving bounds at points.

    The config's kernel must be Epanechnikov and its bandwidths must hold a
    mark bandwidth; :class:`PilotModel`, the one caller, refuses any other
    config.

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

    Rounding.  :func:`~csmark.estimators._kernel_sums` forms each sum from
    at most ``n`` products and scales it in at most 5 more operations, in
    some order; by Higham (*Accuracy and Stability of Numerical Algorithms*,
    2nd ed., §3.1 and §4.2) its float value lies within ``gamma = (n + 5)
    eps / (1 - (n + 5) eps)`` times the sum of absolute terms, ``A``, of the
    same sum in exact arithmetic, and so do the matrix products and sums
    here of the exact values of theirs.  With ``A_g = g``, ``A_h = h``,
    ``A_gp`` and ``A_dh`` (bounded here through ``|k'|`` and ``k <= 0.75``),
    these errors move the quotient by
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
    # observations go in blocks, bounding the (interval x observation)
    # arrays; the budget is looked up at call time, so a patched one is used
    step = max(1, estimators._CHUNK_BUDGET // (8 * max(*shape, 1)))
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
    # the (interval x observation) arrays go before the (t x z) arithmetic,
    # which holds the largest arrays here
    del ua, ub, w_lo, w_hi, d_lo, d_hi, d_abs, v_lo, v_hi
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
