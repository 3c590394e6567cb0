"""Synthetic data-generating scenarios and current status sampling.

An observation is a triple ``(t, z, delta)``: a censoring time ``t``, an
indicator ``delta`` of whether the latent event time ``x`` satisfies
``x <= t``, and a mark ``z`` equal to the latent mark ``y`` when ``delta = 1``
and zero otherwise.  The latent pair ``(x, y)`` is never observed directly.

Two fully-specified scenarios on the unit square are provided:

* :func:`scenario_a` -- independent Uniform(0,1) event time and mark, with
  Uniform(0,1) censoring times;
* :func:`scenario_b` -- joint density ``x + y`` on the unit square, with
  censoring density ``2 t`` on (0, 1).

Each scenario packages the distribution function, its partial derivatives,
the censoring density and exact inverse-CDF samplers, so simulations need no
rejection steps and consume a fixed number of uniforms per draw (two for the
latent pair, one for the censoring time).  This makes every sample a pure
function of ``(scenario, n, seed)``.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import EmptySampleError, SupportError

__all__ = [
    "Scenario",
    "Observation",
    "Sample",
    "scenario_a",
    "scenario_b",
    "sample",
    "observation_density",
]


@dataclass(frozen=True)
class Scenario:
    """A data-generating model with everything the theory needs spelled out.

    Attributes
    ----------
    name : str
        Short identifier ("A" or "B" for the built-ins).
    support : ((float, float), (float, float))
        Bounding box of ``(x, y)``; censoring times share the first range.
    cdf : callable
        Joint distribution function ``F0(x, y)``, defined on all of R^2 by
        clipping to the box.
    density : callable
        Joint density ``f0(x, y)``.
    d1, d2 : callable
        First partials of ``F0`` in the first and second argument.
    d11, d22 : callable
        Pure second partials of ``F0``.
    marginal_cdf : callable
        ``F0(x, infinity)``, the event-time marginal.
    g, g_prime : callable
        Censoring density and its derivative on the interior.
    draw_xy, draw_t : callable
        Inverse-CDF samplers ``(rng, n) -> arrays``.
    """

    name: str
    support: tuple[tuple[float, float], tuple[float, float]]
    cdf: Callable[[np.ndarray, np.ndarray], np.ndarray]
    density: Callable[[np.ndarray, np.ndarray], np.ndarray]
    d1: Callable[[np.ndarray, np.ndarray], np.ndarray]
    d2: Callable[[np.ndarray, np.ndarray], np.ndarray]
    d11: Callable[[np.ndarray, np.ndarray], np.ndarray]
    d22: Callable[[np.ndarray, np.ndarray], np.ndarray]
    marginal_cdf: Callable[[np.ndarray], np.ndarray]
    g: Callable[[np.ndarray], np.ndarray]
    g_prime: Callable[[np.ndarray], np.ndarray]
    draw_xy: Callable[[np.random.Generator, int], tuple[np.ndarray, np.ndarray]]
    draw_t: Callable[[np.random.Generator, int], np.ndarray]


@dataclass(frozen=True)
class Observation:
    t: float
    z: float
    delta: int


@dataclass(frozen=True, eq=False)
class Sample:
    """Arrays ``t``, ``z``, ``delta`` of equal length, plus the seed used.

    Invariants enforced at construction: times and marks are finite,
    ``delta`` is 0/1, marks are nonnegative, and censored rows carry a zero
    mark.  The arrays are frozen (non-writeable views) so estimators can
    share them safely.
    """

    t: np.ndarray
    z: np.ndarray
    delta: np.ndarray
    seed: int | None = field(default=None)

    def __post_init__(self) -> None:
        t = np.ascontiguousarray(np.asarray(self.t, dtype=float))
        z = np.ascontiguousarray(np.asarray(self.z, dtype=float))
        delta = np.asarray(self.delta)
        if not (t.ndim == z.ndim == delta.ndim == 1):
            raise ValueError("sample arrays must be one-dimensional")
        if not (t.shape == z.shape == delta.shape):
            raise ValueError("sample arrays must share one length")
        if t.size == 0:
            raise EmptySampleError("sample must contain at least one row")
        # min and max propagate NaN; few whole-array passes keep this cheap
        # for the many small samples of threaded Monte Carlo runs
        if not (np.isfinite(t.min()) and np.isfinite(t.max())):
            raise ValueError("times must be finite")
        # the integer cast would truncate 0.7 to 0 and fail on NaN
        if delta.dtype.kind not in "biu" and not np.all(
            (delta == 0) | (delta == 1)
        ):
            raise ValueError("delta must be 0 or 1")
        delta = np.ascontiguousarray(delta, dtype=np.int64)
        if not (0 <= delta.min() and delta.max() <= 1):
            raise ValueError("delta must be 0 or 1")
        if not (0.0 <= z.min() and z.max() < np.inf):
            raise ValueError("marks must be finite and nonnegative")
        if np.any((z != 0.0) & (delta == 0)):
            raise ValueError("censored rows must carry a zero mark")
        for name, arr in (("t", t), ("z", z), ("delta", delta)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return int(self.t.size)

    def observations(self) -> list[Observation]:
        return [
            Observation(float(t), float(z), int(d))
            for t, z, d in zip(self.t, self.z, self.delta)
        ]

    def to_csv(self, path: str | Path | io.TextIOBase) -> None:
        """Write ``t,z,delta`` rows at full float precision."""
        rows = zip(self.t.tolist(), self.z.tolist(), self.delta.tolist())
        _write_csv(path, ["t", "z", "delta"], rows)

    @classmethod
    def from_csv(cls, path: str | Path | io.TextIOBase) -> "Sample":
        if isinstance(path, io.TextIOBase):
            return cls._read(path)
        with open(path, newline="") as fh:
            return cls._read(fh)

    @classmethod
    def _read(cls, fh) -> "Sample":
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["t", "z", "delta"]:
            raise ValueError(f"expected header 't,z,delta', got {header!r}")
        t, z, d = [], [], []
        for row in reader:
            if not row:
                continue
            t.append(float(row[0]))
            z.append(float(row[1]))
            d.append(int(row[2]))
        return cls(t=np.array(t), z=np.array(z), delta=np.array(d))


def _cell(x) -> str:
    if x is None or isinstance(x, str):
        return x or ""
    return str(int(x)) if isinstance(x, (int, np.integer)) else repr(float(x))


def _write_csv(path: str | Path | io.TextIOBase, header: list[str], rows) -> None:
    """Write ``header`` and ``rows`` as CSV to a path or a text stream.

    The one format of every result file: floats as ``repr(float)`` (full
    precision), integers as integers, strings as they are, None as ''.
    """
    if not isinstance(path, io.TextIOBase):
        with open(path, "w", newline="") as fh:
            return _write_csv(fh, header, rows)
    writer = csv.writer(path, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_cell(x) for x in row] for row in rows)


def _box(lo: float, hi: float, v: np.ndarray) -> np.ndarray:
    return (v >= lo) & (v <= hi)


def scenario_a() -> Scenario:
    """Independent Uniform(0,1) event time, mark and censoring time."""

    def cdf(x, y):
        x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
        y = np.clip(np.asarray(y, dtype=float), 0.0, 1.0)
        return x * y

    def density(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return np.where(_box(0, 1, x) & _box(0, 1, y), 1.0, 0.0)

    def d1(x, y):
        x = np.asarray(x, dtype=float)
        return np.where(_box(0, 1, x), np.clip(y, 0.0, 1.0), 0.0)

    def d2(x, y):
        y = np.asarray(y, dtype=float)
        return np.where(_box(0, 1, y), np.clip(x, 0.0, 1.0), 0.0)

    def zero(x, y):
        return np.zeros_like(np.asarray(x, dtype=float) + np.asarray(y, dtype=float))

    def marginal_cdf(x):
        return np.clip(np.asarray(x, dtype=float), 0.0, 1.0)

    def g(t):
        t = np.asarray(t, dtype=float)
        return np.where(_box(0, 1, t), 1.0, 0.0)

    def g_prime(t):
        return np.zeros_like(np.asarray(t, dtype=float))

    def draw_xy(rng, n):
        return rng.random(n), rng.random(n)

    def draw_t(rng, n):
        return rng.random(n)

    return Scenario(
        name="A",
        support=((0.0, 1.0), (0.0, 1.0)),
        cdf=cdf,
        density=density,
        d1=d1,
        d2=d2,
        d11=zero,
        d22=zero,
        marginal_cdf=marginal_cdf,
        g=g,
        g_prime=g_prime,
        draw_xy=draw_xy,
        draw_t=draw_t,
    )


def scenario_b() -> Scenario:
    """Dependent pair with joint density ``x + y`` on the unit square.

    The distribution function is ``F0(x, y) = x y (x + y) / 2`` on the box,
    the event-time marginal is ``x (x + 1) / 2``, and censoring times have
    density ``2 t`` on (0, 1).  Latent pairs are drawn by composing the
    marginal inverse ``x = (sqrt(1 + 8 u) - 1) / 2`` with the conditional
    inverse ``y = sqrt(x^2 + v (2 x + 1)) - x``.
    """

    def cdf(x, y):
        x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
        y = np.clip(np.asarray(y, dtype=float), 0.0, 1.0)
        return 0.5 * x * y * (x + y)

    def density(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return np.where(_box(0, 1, x) & _box(0, 1, y), x + y, 0.0)

    def d1(x, y):
        x = np.asarray(x, dtype=float)
        yc = np.clip(np.asarray(y, dtype=float), 0.0, 1.0)
        return np.where(_box(0, 1, x), x * yc + 0.5 * yc * yc, 0.0)

    def d2(x, y):
        y = np.asarray(y, dtype=float)
        xc = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
        return np.where(_box(0, 1, y), xc * y + 0.5 * xc * xc, 0.0)

    def d11(x, y):
        x = np.asarray(x, dtype=float)
        return np.where(_box(0, 1, x), np.clip(y, 0.0, 1.0), 0.0)

    def d22(x, y):
        y = np.asarray(y, dtype=float)
        return np.where(_box(0, 1, y), np.clip(x, 0.0, 1.0), 0.0)

    def marginal_cdf(x):
        x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
        return 0.5 * x * (x + 1.0)

    def g(t):
        t = np.asarray(t, dtype=float)
        return np.where(_box(0, 1, t), 2.0 * t, 0.0)

    def g_prime(t):
        t = np.asarray(t, dtype=float)
        return np.where(_box(0, 1, t), 2.0, 0.0)

    def draw_xy(rng, n):
        u = rng.random(n)
        v = rng.random(n)
        x = 0.5 * (np.sqrt(1.0 + 8.0 * u) - 1.0)
        y = np.sqrt(x * x + v * (2.0 * x + 1.0)) - x
        return x, y

    def draw_t(rng, n):
        return np.sqrt(rng.random(n))

    return Scenario(
        name="B",
        support=((0.0, 1.0), (0.0, 1.0)),
        cdf=cdf,
        density=density,
        d1=d1,
        d2=d2,
        d11=d11,
        d22=d22,
        marginal_cdf=marginal_cdf,
        g=g,
        g_prime=g_prime,
        draw_xy=draw_xy,
        draw_t=draw_t,
    )


def _current_status(
    x: np.ndarray, y: np.ndarray, t: np.ndarray, seed: int | None = None
) -> Sample:
    """What is observed of latent pairs ``(x, y)`` inspected at times ``t``:
    ``delta = 1{x <= t}`` and the mark ``y`` on uncensored rows, else 0."""
    delta = (x <= t).astype(np.int64)
    # -delta is all ones bits on uncensored rows and all zero bits (+0.0) on
    # censored ones: np.where(delta == 1, y, 0.0) bit for bit, without a select
    bits = -delta
    bits &= np.asarray(y, dtype=float).view(np.int64)
    return Sample(t=t, z=bits.view(float), delta=delta, seed=seed)


def sample(
    scenario: Scenario,
    n: int,
    seed: int,
    return_hidden: bool = False,
) -> Sample | tuple[Sample, tuple[np.ndarray, np.ndarray]]:
    """Draw ``n`` current status observations.

    The generator is seeded with ``seed`` and consumed in a fixed order
    (latent pairs first, censoring times second), so the result is bitwise
    reproducible.  With ``return_hidden=True`` the latent ``(x, y)`` arrays
    are returned alongside the observable sample; they exist only for
    diagnostics and must never feed an estimator.
    """
    if n < 1:
        raise EmptySampleError(f"need at least one observation, got n={n}")
    rng = np.random.default_rng(seed)
    x, y = scenario.draw_xy(rng, n)
    t = scenario.draw_t(rng, n)
    out = _current_status(x, y, t, seed)
    if return_hidden:
        return out, (x, y)
    return out


def observation_density(
    scenario: Scenario, t: float, z: float, delta: int
) -> float:
    """Density of one observation under the scenario.

    For ``delta = 1`` this is ``g(t) * d2 F0(t, z)``; for ``delta = 0`` it is
    ``g(t) * (1 - F0(t, infinity))``.  Points outside the scenario's box
    raise :class:`SupportError` rather than silently returning zero.
    """
    (t_lo, t_hi), (z_lo, z_hi) = scenario.support
    if not (t_lo <= t <= t_hi):
        raise SupportError(f"censoring time {t!r} outside [{t_lo}, {t_hi}]")
    if delta not in (0, 1):
        raise ValueError(f"delta must be 0 or 1, got {delta!r}")
    if delta == 1:
        if not (z_lo <= z <= z_hi):
            raise SupportError(f"mark {z!r} outside [{z_lo}, {z_hi}]")
        return float(scenario.g(t) * scenario.d2(t, z))
    return float(scenario.g(t) * (1.0 - scenario.marginal_cdf(t)))
