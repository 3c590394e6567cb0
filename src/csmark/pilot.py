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
exactly only where the bounds cannot decide.  The bounds take the density
one uncensored observation at a time: each observation's term of the
quotient ``dh / g - gp h / g^2``, whose ``g`` and ``gp`` sum over the whole
sample, gets one interval per t-cell, and matrix products with the mark
kernel's bounds sum the terms over each cell.  A term's interval is a
mean-value form (Moore 1966): its values at the cell's two nodes, the
cell's width times an interval of its t-derivative, and the jumps at the
support edges in the cell, whose signs are known.  A node's density is at most
the upper bound of each cell around it, and a cell's lower bound holds at
its corners, so the envelope's peak is searched among the nodes whose least
cell upper bound reaches the largest lower bound.  Rejection is squeezed
(Marsaglia 1977; Devroye 1986, §II.5): a proposal whose ``u * envelope``
lies above its grid cell's upper bound is rejected, and one at or below the
lower bound accepted, without the density.  Every decision, and so every
draw, is the one exact evaluation everywhere would give.

A generator keeps only the first acceptances of a round that it still
needs, so its exact evaluations stop at its quota: past the proposal at
which its sure acceptances (``u * envelope`` at or below the lower bound)
alone reach that count, an undecided proposal is not evaluated.  That is
exact.  No proposal past the quota can be kept, and such a proposal's
density is at most its upper bound, at most the envelope, so it cannot
change the peak a local refresh takes either.  Proposals whose upper bound
exceeds the envelope are evaluated wherever they lie, so that a refresh
sees every spike; after one, the generator's unevaluated undecided
proposals are judged again under the new envelope, quota or not.

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
from .errors import (DegeneratePilotError, KernelAssumptionError, check_bandwidth, check_count,
                     check_instance)
from .estimators import EstimatorConfig, _estimates
from .kernels import KernelFamily, _epanechnikov_deriv, _epanechnikov_pdf
from .scenarios import Sample

__all__ = ["PilotModel"]

# rejection envelope: this factor times the largest pilot density seen
_ENVELOPE_SAFETY = 1.1

# nodes per side of the envelope grid over the unit box
_ENVELOPE_GRID = 200

# fewest exact proposals of a rejection round per pilot-density call: at
# n = 100 a round's whole count, which varies from round to round, sized
# temporaries that fragmented the heap and raised peak RSS op after op.
# With the quota, the draws of a 25-replication bootstrap_mse at n = 100
# evaluate about 1055 proposals rather than 1389; at 256 rather than 78
# they take 5.3 density calls rather than 14.6, and bootstrap_mse ran 7.5%
# faster in process (512: 9%).  A call of 256 points peaks at 1.4 MB of
# temporaries at n = 100, under the fit's bound pass (1.6 MB); one of 512
# peaks at 2.2 MB
_DENSITY_PIECE = 256

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
        check_instance(sample_, "sample", Sample)
        check_instance(config, "config", EstimatorConfig)
        if config.kernel_t.family is not KernelFamily.EPANECHNIKOV:
            raise KernelAssumptionError(f"the pilot kernel must be epanechnikov, "
                                        f"not {config.kernel_t.name!r}")
        check_bandwidth(config.beta, "beta")  # None too: the pilot smooths marks
        self.sample = sample_
        self.config = config
        self._edges = grid = np.linspace(0.0, 1.0, _ENVELOPE_GRID)
        # the squeeze's bounds on the grid's cells [edges[i], edges[i + 1]]
        # x [edges[j], edges[j + 1]]
        self._cells = lower, upper = _density_bounds(sample_, config, grid, grid)
        # a node's density is at most the upper bound of each cell around
        # it, and a cell's lower bound holds at its corner nodes, so the
        # peak is at least the largest lower bound: only nodes whose bound
        # reaches that, and is positive, can hold a positive peak
        padded = np.pad(upper, 1, constant_values=np.inf)
        node = np.fmin.reduce([padded[:-1, :-1], padded[1:, :-1],
                               padded[:-1, 1:], padded[1:, 1:]])
        # evaluated in pieces, as draw_xy's proposals are, which bounds the
        # temporaries at large n; a node's value does not depend on its piece
        t, z = (grid[axis] for axis in ((node >= lower.max()) & (node > 0.0)).nonzero())
        peak = max((float(self.density(t[j : j + _DENSITY_PIECE], z[j : j + _DENSITY_PIECE]).max())
                    for j in range(0, t.size, _DENSITY_PIECE)), default=0.0)
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
        check_count(size, "size", 0, bounded=True)
        idx = rng.integers(0, len(self.sample), size)
        noise = _epanechnikov_noise(rng, size)
        return self.sample.t[idx] + self.config.alpha * noise

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
        evaluation everywhere.  A generator keeps the first ``size - got``
        acceptances of its batch, so an undecided proposal after the one at
        which its sure acceptances reach that count is not evaluated: it
        cannot be kept, and its density, at most its upper bound and so at
        most the envelope, cannot move a refresh's peak.  A refresh judges
        its generator's unevaluated undecided proposals again, in one call.
        """
        check_count(size, "size", 0, bounded=True)
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
            x, y, u = np.concatenate(draws, axis=1)
            del draws
            env = np.repeat(envelopes[active], batch)
            cell = _cell_of(self._edges, x) * (_ENVELOPE_GRID - 1) + _cell_of(self._edges, y)
            # the cell's lower bound, replaced by the density where evaluated
            value, hi = lower.take(cell), upper.take(cell)
            del cell
            # a proposal is accepted when u * envelope <= its density; the
            # lower bound stands in for the density where u * envelope is at
            # most it or above the upper bound, and an upper bound over the
            # envelope may hide a spike
            bound = u * env
            over = hi > env
            del env
            exact = over | ((value < bound) & (bound <= hi))
            # a generator's quota ends at its need-th sure acceptance; no
            # proposal after it is kept, so past it only those over the
            # envelope are evaluated
            sure = bound <= value
            seen = np.cumsum(sure)
            starts = ends - batch
            quota = np.searchsorted(seen, seen[starts] - sure[starts] + need)
            del sure, seen
            which = exact.nonzero()[0]
            late = (which > quota[np.searchsorted(ends, which, "right")]) & ~over[which]
            exact[which[late]] = False
            which = which[~late]
            del over
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
            first = np.searchsorted(accepted, starts)
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


# the rounding margin of _density_bounds is 2 delta (1 + w / alpha) M, with
# delta = _BOUND_SLACK * (n + 8) * eps
_BOUND_SLACK = 32

# multiply-adds per matrix product that a threaded BLAS keeps on the calling
# thread: OpenBLAS threads larger ones, and its threads then spin on the
# other cores for a while after every call, doubling the process's CPU time.
# OpenBLAS's gemm (interface/gemm.c) runs M N K <= 65536 * 4 on one thread
# (SMP_THRESHOLD_MIN times GEMM_MULTITHREAD_THRESHOLD); with numpy 2.4.6 and
# scipy-openblas 0.3.31 its helper threads used no CPU at M N K = 716 400
# and did from 1 194 000.  _density_bounds' four products of a block of
# uncensored observations go in blocks of t-cell rows under this count
_SERIAL_PRODUCT = 1 << 18


def _node_bounds(nodes, x, h, slope=True):
    """Bounds on ``k(u)`` and ``k'(u)``, ``u = (t - x_j) / h``, for ``t`` in each
    cell between consecutive nodes, down a column of ``nodes`` or along a
    row: ``(w_lo, w_hi, d_lo, d_hi, k, d)``, with one row or column per cell
    for the bounds and one per node for the node values ``k`` and ``d`` of
    ``k`` and ``k'``; without ``slope``, ``(w_lo, w_hi)`` alone, and ``k'`` is
    not formed.

    ``u`` rounds monotonically in ``t``, and so does each rounded operation
    of the float kernels, so their values over a cell are bounded by those at
    its two nodes, with no rounding margin, and at the kinks it holds: ``k``
    peaks at 0.75 at ``u = 0``, and ``k'``, ``-1.5 u`` on [-1, 1] and 0 off
    it, at -1.5 at ``u = 1`` and 1.5 at ``u = -1``.
    """
    u = (nodes - x) / h
    k = _epanechnikov_pdf(u)
    lo, hi = (np.s_[:-1], np.s_[1:]) if nodes.ndim == 2 else (np.s_[..., :-1], np.s_[..., 1:])
    a, b = u[lo], u[hi]
    w = (np.minimum(k[lo], k[hi]),
         np.where((a <= 0.0) & (0.0 <= b), 0.75, np.maximum(k[lo], k[hi])))
    if not slope:
        return w
    d = _epanechnikov_deriv(u)
    return w + (np.where((a <= 1.0) & (1.0 <= b), -1.5, np.minimum(d[lo], d[hi])),
                np.where((a <= -1.0) & (-1.0 <= b), 1.5, np.maximum(d[lo], d[hi])), k, d)


def _density_bounds(sample, config, t_nodes, z_nodes):
    """Bounds on the clipped density estimate over the cells of a grid.

    Returns ``(lower, upper)``, one row per t-cell ``[t_nodes[i], t_nodes[i +
    1]]`` and one column per z-cell: at every float ``(t, z)`` in the cell
    the float value of ``max(density, 0)`` from
    :func:`~csmark.estimators._estimates` (0 where g_hat is under the floor)
    lies in ``[lower[i, j], upper[i, j]]``.  Nodes do not decrease; a
    repeated node gives a point cell, and bounds at points.

    The config's kernel must be Epanechnikov and its mark bandwidth
    ``beta`` set; :class:`PilotModel`, the one caller, refuses any other
    config.

    With ``u_j = (t - t_j) / alpha``, the unscaled sums ``G = sum_j k(u_j)``
    and ``GP = sum_j k'(u_j)`` over all observations, ``A = k'(u_i)`` and
    ``B = k(u_i)``, the estimate ``dh / g - gp h / g^2`` is exactly

        sum_i k((z - z_i) / beta) e_i / (alpha beta),    e_i = A / G - GP B / G^2,

    over the uncensored observations ``i``.  A first pass sums the cell
    bounds of ``k`` and ``k'`` from :func:`_node_bounds` into intervals of
    ``G`` and ``GP`` per t-cell, and their node values into ``G`` and ``GP``
    at each node.  A second pass, over the uncensored observations only,
    bounds each ``e_i`` over each t-cell ``[a, b]`` of width ``w`` by a
    mean-value form (Moore 1966, *Interval Analysis*) about the cell's nodes.
    Between the support edges ``t_j -+ alpha``, ``e_i`` is smooth in ``t``,

        de_i/dt = A' / G - 2 A GP / (alpha G^2) + (1.5 m + 2 GP^2 / G) B / (alpha G^2),

    with ``A' = -1.5 / alpha`` inside the observation's own support and 0
    off it, and ``m`` the number of observations inside their supports.
    Off its own support ``e_i`` and its derivative are 0, so ``A'`` is
    taken as ``-1.5 / alpha`` throughout: only the derivative's positive
    and negative parts are used.
    Its interval ``[D_lo, D_hi]`` per (cell, observation) takes ``G`` and
    ``GP`` in their intervals, ``A`` and ``B`` in theirs, ``A`` times the
    midpoint and radius of ``-2 GP / (alpha G^2)``, and ``m`` between the
    supports that cover the cell and those that meet it.  The jumps have
    known signs: as ``t`` rises, each edge of another observation's support
    lifts ``GP`` by exactly 1.5, lowering ``e_i`` by at most ``1.5 B /
    G^2``, and each edge of the own support lifts ``A`` by 1.5 where ``B =
    0``, raising ``e_i`` by ``1.5 / G``.  So with the rise ``R = w max(D_hi,
    0) + 1.5 / G_lo`` per own edge in the cell (those ``_node_bounds`` puts
    at a kink) and the fall ``F = w max(-D_lo, 0) + 1.5 B_hi / G_lo^2`` per
    support edge in it (counted on the sorted ``t_j -+ alpha``, the cell
    widened by a few ulps), every ``e_i(t)`` of the cell lies in

        [max(e_i(a) - F, e_i(b) - R), min(e_i(a) + R, e_i(b) + F)].

    Matrix products with the mark kernel's bounds ``v_lo <= v <= v_hi`` sum
    these intervals: ``S_lo = e_lo+ v_lo - e_lo- v_hi`` and ``S_hi = e_hi+
    v_hi - e_hi- v_lo``, with ``+`` and ``-`` the positive and negative
    parts.

    Rounding.  :func:`~csmark.estimators._kernel_sums` forms each sum from
    at most ``n`` products and scales it in at most 5 more operations, in
    some order; by Higham (*Accuracy and Stability of Numerical Algorithms*,
    2nd ed., §3.1 and §4.2) its float value lies within ``gamma_(n + 5)``
    times the sum of absolute terms, ``T``, of the same sum in exact
    arithmetic (``gamma_k = k eps / (1 - k eps)``).  With ``T_g = g``,
    ``T_h = h``, ``T_gp`` and ``T_dh``, these errors move the estimate by at
    most about ``4 gamma_(n + 5) (g T_dh + T_gp h) / g^2``, and its last
    five roundings by ``5 eps`` times the same.  The roundings here, in the
    same terms but unscaled:

    * the sums of the first pass lie within ``gamma_n`` of their sums of
      absolute terms;
    * a node value of ``e_i`` then lies within ``(gamma_n + 3 eps) |k'| /
      G_lo + (3 gamma_n + 6 eps) GP_abs k / G_lo^2`` of its exact value;
    * the form holds for the smooth kernels of real ``t``, and the float
      kernels at a float ``t`` are those of the float ``u_j``, each within
      ``eps |u_j|`` of its exact value, and ``k``'s float value is within
      ``eps (|k'| + k)`` of the polynomial there.  The form is applied
      along a path that moves every ``u_j`` by ``(t - a) / alpha`` from its
      float value at ``a``, then each by the rest, at most ``2 eps (|u_j(a)|
      + |u_j(t)|)``, to its float value at ``t``: it crosses the edges the
      float values cross, and others only in pairs of jumps of opposite signs.
      As ``|k'| + 2 k >= 1.5`` on a support, ``(GP_abs + 2 G) / 1.5`` bounds
      the observations inside theirs, so the rest and the kernels' rounding move
      ``e_i`` by a few ``eps (|k'| / G + (GP_abs + G) k / G^2) (1 + GP_abs /
      G)``; the path may leave the cell by the rest, which widens the
      derivative's intervals by as much relative to their terms, and with
      the rounding of ``w D`` and of its factors, moves the bound by a few
      ``eps w / alpha`` times the same;
    * the products sum at most ``2 n`` terms, within ``gamma_2n`` of the sum
      of ``|e_i| v_i``;
    * the scale ``1 / (alpha beta)``, its product and the margin's
      subtraction make four more roundings, ``4 eps``.

    With ``v <= 0.75``, each of these, and the estimate's own error, is at
    most its factor times ``(1 + w / alpha) M``, ``M = (1 + GP_abs / G_lo)
    (G_hi D_abs + (GP_abs + G_hi) W_abs) / (alpha beta G_lo^2)``.
    ``GP_abs`` sums the bounds of ``|k'|`` over all observations; ``D_abs``
    and ``W_abs`` sum the bounds of ``0.75 |k'|`` and ``0.75 k`` over the
    uncensored ones.  The factors add up to under ``21 (n + 8) eps``, which
    the margin ``2 delta (1 + w / alpha) M``, with ``delta = _BOUND_SLACK (n +
    8) eps``, covers more than three times; it is taken off the lower and
    added to the upper bound.  A cell is stable when ``g_lo (1 - delta) >=
    g_floor``, with ``g_lo = G_lo / (n alpha)``, so g_hat there is at least
    the floor.

    Cells that are not stable, or whose bounds overflow, get ``[0, inf]``.
    """
    alpha, beta = config.alpha, config.beta
    n, m, mz = len(sample), t_nodes.size - 1, z_nodes.size - 1
    # observations go in blocks, bounding the (interval x observation)
    # arrays; the budget is looked up at call time, so a patched one is used
    step = max(1, estimators._CHUNK_BUDGET // (8 * max(m, mz, 1)))
    # per t-cell, as columns: G's and GP's bounds, and sum |k'|; per node,
    # G and GP
    g_lo, g_hi, gp_lo, gp_hi, gp_abs = np.zeros((5, m, 1))
    g_node, gp_node = np.zeros((2, m + 1, 1))
    for i0 in range(0, n, step):
        w_lo, w_hi, d_lo, d_hi, k, d = _node_bounds(t_nodes[:, None], sample.t[i0 : i0 + step],
                                                    alpha)
        for total, x in ((g_lo, w_lo), (g_hi, w_hi), (gp_lo, d_lo), (gp_hi, d_hi),
                         (gp_abs, np.fmax(-d_lo, d_hi)), (g_node, k), (gp_node, d)):
            total += x.sum(axis=1, keepdims=True)
        del w_lo, w_hi, d_lo, d_hi, k, d

    delta = _BOUND_SLACK * (n + 8) * np.finfo(float).eps
    stable = g_lo * (1.0 / (n * alpha)) * (1.0 - delta) >= config.g_floor
    g_lo, g_hi = np.where(stable, g_lo, 1.0), np.where(stable, g_hi, 1.0)
    s_lo, s_hi = np.zeros((2, m, mz))
    d_abs, w_abs = np.zeros((2, m, 1))  # uncensored sums of |k'| and k
    unc = (sample.delta == 1).nonzero()[0]
    with np.errstate(all="ignore"):
        # a node of a stable cell has G >= G_lo > 0
        g_node = np.where(g_node > 0.0, g_node, 1.0)
        # per t-cell, the observations whose support [t_j - alpha, t_j +
        # alpha] can meet the cell, those that can cover it and the support
        # edges it can hold, each cell widened by a few ulps of its floats
        t = np.sort(sample.t)
        starts, ends = t - alpha, t + alpha
        tol = 4.0 * np.finfo(float).eps * (alpha + np.abs(t_nodes).max() + np.abs(t).max())
        cell_lo, cell_hi = t_nodes[:-1, None] - tol, t_nodes[1:, None] + tol
        started, ended = np.searchsorted(starts, cell_hi, "right"), np.searchsorted(ends, cell_lo)
        m_hi = started - ended
        m_lo = np.fmax(np.searchsorted(starts, cell_lo, "right") - np.searchsorted(ends, cell_hi),
                       0)
        edges = (started - np.searchsorted(starts, cell_lo)
                 + np.searchsorted(ends, cell_hi, "right") - ended)
        width = np.diff(t_nodes)[:, None]
        # GP / G^2 lies in [q_lo, q_hi]
        q_lo = gp_lo / np.where(gp_lo >= 0.0, g_hi * g_hi, g_lo * g_lo)
        q_hi = gp_hi / np.where(gp_hi >= 0.0, g_lo * g_lo, g_hi * g_hi)
        # e_i at a node is k'(u_i) r_node - k(u_i) q_node
        r_node = 1.0 / g_node
        q_node = gp_node * r_node * r_node
        # the width times de_i/dt's factors: -1.5 / (alpha G) inside the
        # support, k'(u_i) c2 with c2 = -2 GP / (alpha G^2), as a midpoint
        # and a radius, and k(u_i) c3 with c3 = (1.5 m + 2 GP^2 / G) / (alpha
        # G^2) >= 0
        h = width / alpha
        a_lo, a_hi = -1.5 * h / g_lo, -1.5 * h / g_hi
        c2_mid, c2_rad = -h * (q_lo + q_hi), h * (q_hi - q_lo)
        sq_hi = np.fmax(gp_lo * gp_lo, gp_hi * gp_hi)
        sq_lo = np.where(gp_lo > 0.0, gp_lo * gp_lo, np.where(gp_hi < 0.0, gp_hi * gp_hi, 0.0))
        c3_hi = h * (1.5 * m_hi + 2.0 * sq_hi / g_lo) / (g_lo * g_lo)
        c3_lo = h * (1.5 * m_lo + 2.0 * sq_lo / g_hi) / (g_hi * g_hi)
        # the jumps: each edge of the own support lifts e_i by 1.5 / G, and
        # each other edge lowers it by at most 1.5 k(u_i) / G^2
        lift, drop = 1.5 / g_lo, 1.5 * edges / (g_lo * g_lo)
        for i0 in range(0, unc.size, step):
            i = unc[i0 : i0 + step]
            w_lo, w_hi, d_lo, d_hi, k, d = _node_bounds(t_nodes[:, None], sample.t[i], alpha)
            d_max = np.fmax(-d_lo, d_hi)
            d_abs += d_max.sum(axis=1, keepdims=True)
            w_abs += w_hi.sum(axis=1, keepdims=True)
            d *= r_node
            k *= q_node
            e = np.subtract(d, k, out=d)
            del k
            # the width times de_i/dt lies in [lo, hi]
            x, lo = d_lo * c2_mid, d_hi * c2_mid
            hi = np.fmax(x, lo)
            np.fmin(x, lo, out=lo)
            del x
            d_max *= c2_rad
            hi += d_max
            lo -= d_max
            hi += w_hi * c3_hi
            lo += w_lo * c3_lo
            hi += a_hi
            lo += a_lo
            # e_i's largest rise from a node to a point of the cell, and its
            # largest fall
            rises = np.fmax(hi, 0.0, out=hi)
            rises += lift * np.add(d_hi == 1.5, d_lo == -1.5, dtype=float)
            falls = np.multiply(drop, w_hi, out=w_hi)
            falls -= np.fmin(lo, 0.0, out=lo)
            del w_lo, d_lo, d_hi, d_max, hi, lo
            e_lo = np.fmax(e[:-1] - falls, e[1:] - rises)
            e_hi = np.fmin(e[:-1] + rises, e[1:] + falls)
            del e, rises, falls
            # (uncensored x z-interval), C-contiguous for the products
            v_lo, v_hi = _node_bounds(z_nodes, sample.z[i][:, None], beta, slope=False)
            # e's positive parts, and in place minus its negative parts; the
            # products go in blocks of rows small enough for BLAS to keep on
            # this thread
            p_lo, p_hi = np.fmax(e_lo, 0.0), np.fmax(e_hi, 0.0)
            np.fmin(e_lo, 0.0, out=e_lo)
            np.fmin(e_hi, 0.0, out=e_hi)
            rows = max(1, _SERIAL_PRODUCT // v_lo.size)
            for r in range(0, m, rows):
                b = slice(r, r + rows)
                s_lo[b] += p_lo[b] @ v_lo
                s_lo[b] += e_lo[b] @ v_hi
                s_hi[b] += p_hi[b] @ v_hi
                s_hi[b] += e_hi[b] @ v_lo
            del e_lo, e_hi, p_lo, p_hi, v_lo, v_hi
        # S / (alpha beta), less and plus the margin, in place: these are
        # the largest arrays here
        scale = 1.0 / (alpha * beta)
        # 2 delta M': D_abs and W_abs are 0.75 times d_abs and w_abs
        margin = (1.5 * delta * scale * (1.0 + gp_abs / g_lo) * (1.0 + h)
                  * (g_hi * d_abs + (gp_abs + g_hi) * w_abs) / (g_lo * g_lo))
        s_lo *= scale
        s_lo -= margin
        s_hi *= scale
        s_hi += margin
    bad = ~(stable & np.isfinite(s_lo) & np.isfinite(s_hi))
    np.fmax(s_lo, 0.0, out=s_lo)
    np.fmax(s_hi, 0.0, out=s_hi)
    s_lo[bad] = 0.0
    s_hi[bad] = np.inf
    return s_lo, s_hi
