"""Bandwidth selection by a smoothed bootstrap.

The selection problem has no usable plug-in rule here because the estimators'
bias involves second derivatives of the unknown distribution.  Instead, a
pilot estimate with deliberately generous bandwidths plays the role of the
truth: bootstrap samples are drawn from the pilot's smooth density, the
estimators are recomputed on each bootstrap sample for every candidate
bandwidth, and the candidate minimizing the bootstrap mean squared error
around the pilot value wins.

Resampling works directly from the smooth pilot model rather than the
empirical distribution -- naive resampling cannot see the effect of the mark
bandwidth at all.  Censoring times are drawn by perturbing resampled observed
times with pilot-bandwidth kernel noise (that is exactly a draw from the
kernel estimate of the censoring density); latent pairs come from the pilot
density by rejection sampling on the unit box, the support of both
scenarios, under a grid-based envelope.

Both uses of the pilot density go through one set of certified bounds on
it over the envelope grid's cells (``estimators._density_bounds``) and
evaluate it exactly only where the bounds cannot decide.  A node's density
is at most the upper bound of each cell around it, and a cell's lower bound
holds at its corners, so the envelope's peak is searched among the nodes
whose least cell upper bound reaches the largest lower bound.  Rejection is
squeezed (Marsaglia 1977; Devroye 1986, §II.5): a proposal whose
``u * envelope`` lies above its grid cell's upper bound is rejected, and one
at or below the lower bound accepted, without the density.  Every decision,
and so every draw, is the one exact evaluation everywhere would give.

Replications run in lockstep groups.  Each keeps its own generator and
draws what it would draw alone.  A rejection round is one set of array
calls over the whole group: the proposals of every generator side by side,
one cell lookup, one squeeze and one ranking of the acceptances; the pilot
density evaluates the round's exact proposals together, in no more calls
than one per replication; and one call per estimator evaluates every
candidate on a stack of the group's samples.  A point's estimate does not
depend on the other points of its call, so results do not depend on the
grouping.
"""

from __future__ import annotations

import io
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import estimators
from .asymptotics import MAX_FAILURE_FRACTION
from .errors import (
    DegeneratePilotError,
    InvalidBandwidthError,
    KernelAssumptionError,
    SelectionError,
)
# f1 is not called here, but stays importable as bandwidth.f1, which
# perfbench/tracing.py wraps
from .estimators import (  # noqa: F401
    EstimatorConfig,
    _density_bounds,
    _estimates,
    f1,
    f2,
)
from .kernels import (
    Bandwidths,
    KernelFamily,
    _check_bandwidth,
    _check_count,
    epanechnikov_kernel,
)
from .scenarios import Sample, _observed, _write_csv

__all__ = [
    "BootstrapPlan",
    "PilotModel",
    "fit_pilot",
    "MseRow",
    "BootstrapMseTable",
    "bootstrap_mse",
    "select",
]

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


@dataclass(frozen=True)
class BootstrapPlan:
    """Everything a bootstrap MSE run needs besides the sample itself.

    ``alpha0``/``beta0`` are the pilot bandwidths, ``replications`` the
    number of bootstrap samples, the grids enumerate candidate bandwidths,
    ``point`` is where the estimators are compared, and ``seed`` feeds the
    per-replication generators (replication ``b`` uses ``seed + b``).
    """

    alpha0: float
    beta0: float
    replications: int
    alpha_grid: tuple[float, ...]
    beta_grid: tuple[float, ...]
    point: tuple[float, float]
    seed: int

    def __post_init__(self) -> None:
        _check_bandwidth(self.alpha0, "alpha0")
        _check_bandwidth(self.beta0, "beta0")
        _check_count(self.replications, "replications", 1, InvalidBandwidthError)
        _check_count(self.seed, "seed", 0)
        for label, grid in (("alpha", self.alpha_grid), ("beta", self.beta_grid)):
            if len(grid) == 0:
                raise InvalidBandwidthError(f"{label}_grid must be nonempty")
            for value in grid:  # each entry, before a float cast could hide a bool
                _check_bandwidth(value, f"{label}_grid")
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise InvalidBandwidthError(f"{label}_grid must be strictly increasing")
        t0, z0 = self.point
        estimators._checked_points(t0, z0, single=True)


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
        return f2(self.sample, self.config, t0, z0)

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


def fit_pilot(sample_: Sample, alpha0: float, beta0: float) -> PilotModel:
    """Fit the smooth pilot model at the pilot bandwidths.

    The pilot smooths time and mark with the Epanechnikov kernel, the one
    :class:`PilotModel` takes: its density needs the kernel's derivative,
    and its bounds and noise are exact for that kernel.
    """
    config = EstimatorConfig(
        kernel_t=epanechnikov_kernel(), bandwidths=Bandwidths(alpha0, beta0)
    )
    return PilotModel(sample_, config)


@dataclass(frozen=True)
class MseRow:
    """Bootstrap MSE of one candidate; ``beta`` is None for f1 rows."""

    estimator: str
    alpha: float
    beta: float | None
    mse_hat: float
    mse_tilde: float | None
    failures: int
    valid: bool


@dataclass(frozen=True)
class BootstrapMseTable:
    """All candidate rows of one bootstrap run plus its context."""

    rows: tuple[MseRow, ...]
    point: tuple[float, float]
    replications: int
    target: float

    def for_estimator(self, estimator: str) -> list[MseRow]:
        return [r for r in self.rows if r.estimator == estimator]

    def to_csv(self, path: str | Path | io.TextIOBase) -> None:
        """Write the rows as CSV ('' = missing)."""
        header = ["estimator", "alpha", "beta", "mse_hat", "mse_tilde", "failures"]
        _write_csv(path, header, [(r.estimator, r.alpha, r.beta, r.mse_hat,
                                   r.mse_tilde, r.failures) for r in self.rows])


def _mse(values: np.ndarray, center: float) -> float:
    # np.mean's sum and division, without its wrapper
    d = values - center
    return float(np.add.reduce(d * d) / d.size) if d.size else math.nan


def bootstrap_mse(
    sample_: Sample,
    plan: BootstrapPlan,
    *,
    true_value: float | None = None,
) -> BootstrapMseTable:
    """Bootstrap MSE curves for every candidate bandwidth.

    Replication ``b`` (seeded ``plan.seed + b``) draws latent pairs and
    censoring times of the original sample size from the pilot model
    (:func:`fit_pilot` at ``plan``'s pilot bandwidths),
    assembles the induced current status sample, and evaluates each
    candidate: every ``alpha`` for the singly-smoothed estimator and every
    ``(alpha, beta)`` pair for the doubly-smoothed one.  A candidate's
    ``mse_hat`` averages squared deviations from the pilot value; when
    ``true_value`` is given (simulations only), ``mse_tilde`` additionally
    averages deviations from the truth, which must be finite.  Candidates
    use the pilot's kernels and denominator floor; those whose estimate
    failed in more than 1% of replications are marked invalid.

    Replications go in lockstep groups of ``_CHUNK_BUDGET // n`` (at least
    one): per group, one :meth:`PilotModel.draw_xy` call on the group's
    generators, their :meth:`PilotModel.draw_t` calls, and one stack of the
    group's samples on which every candidate is evaluated in one call per
    estimator.  Each replication's draws are those of its own generator and
    each estimate is the one its sample alone gives, so results do not
    depend on the grouping.
    """
    if true_value is not None and not math.isfinite(true_value):
        raise ValueError(f"true_value must be finite, got {true_value!r}")
    pilot = fit_pilot(sample_, plan.alpha0, plan.beta0)
    t0, z0 = plan.point
    target = pilot.target(t0, z0)
    n = len(sample_)
    group = max(1, estimators._CHUNK_BUDGET // n)

    # one batch of candidates, each with its own bandwidths, per estimator:
    # the alphas for F1, all (alpha, beta) pairs for F2
    pairs = list(itertools.product(plan.alpha_grid, plan.beta_grid))
    k = len(plan.alpha_grid)
    pair_alpha, pair_beta = np.array(pairs, dtype=float).T
    batches = (
        ("F1", slice(0, k), np.array(plan.alpha_grid, dtype=float), None),
        ("F2", slice(k, None), pair_alpha, pair_beta),
    )
    estimates = np.full((plan.replications, k + len(pairs)), np.nan)

    for b0 in range(0, plan.replications, group):
        b1 = min(b0 + group, plan.replications)
        rngs = [np.random.default_rng(plan.seed + b) for b in range(b0, b1)]
        x, y = pilot.draw_xy(rngs, n)
        t = np.stack([pilot.draw_t(rng, n) for rng in rngs])
        boot = _observed(x, y, t)
        for kind, cols, alpha, beta in batches:
            # every candidate on every row, row by row
            row = np.arange(b1 - b0).repeat(alpha.size)
            t_m, z_m = np.full(row.size, t0), np.full(row.size, z0)
            alpha_m = np.tile(alpha, b1 - b0)
            beta_m = None if beta is None else np.tile(beta, b1 - b0)
            # unstable candidates are NaN
            _, (values,) = _estimates(
                boot, pilot.config, t_m, z_m, (kind,), alpha_m, beta_m, row
            )
            estimates[b0:b1, cols] = values.reshape(b1 - b0, alpha.size)

    labels: list[tuple[str, float, float | None]] = [
        ("F1", alpha, None) for alpha in plan.alpha_grid
    ] + [("F2", alpha, beta) for alpha, beta in pairs]

    rows = []
    max_failures = MAX_FAILURE_FRACTION * plan.replications
    for col, (estimator, alpha, beta) in zip(estimates.T, labels):
        ok = col[~np.isnan(col)]
        failures = plan.replications - ok.size
        rows.append(
            MseRow(
                estimator=estimator,
                alpha=float(alpha),
                beta=None if beta is None else float(beta),
                mse_hat=_mse(ok, target),
                mse_tilde=None if true_value is None else _mse(ok, true_value),
                failures=failures,
                valid=failures <= max_failures and ok.size > 0,
            )
        )
    return BootstrapMseTable(
        rows=tuple(rows),
        point=plan.point,
        replications=plan.replications,
        target=target,
    )


def select(table: BootstrapMseTable) -> dict[str, tuple[float, float | None]]:
    """Pick the minimizing candidate per estimator from a bootstrap table.

    Ties resolve toward the smallest ``alpha``, then the smallest ``beta``.
    An estimator whose candidates are all invalid raises
    :class:`SelectionError`.
    """
    if not table.rows:
        raise SelectionError("empty bootstrap table")
    chosen: dict[str, tuple[float, float | None]] = {}
    for estimator in dict.fromkeys(r.estimator for r in table.rows):
        valid = [r for r in table.for_estimator(estimator) if r.valid]
        if not valid:
            raise SelectionError(
                f"no valid bandwidth candidate for {estimator}"
            )
        best = min(
            valid,
            key=lambda r: (
                r.mse_hat,
                r.alpha,
                r.beta if r.beta is not None else 0.0,
            ),
        )
        chosen[estimator] = (best.alpha, best.beta)
    return chosen
