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
from typing import Callable, NamedTuple

import numpy as np

from .errors import EmptySampleError
from .kernels import _check_count

__all__ = [
    "Scenario",
    "Sample",
    "scenario_a",
    "scenario_b",
    "sample",
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
        clipping to the box; ``cdf(x, inf)`` is the event-time marginal.
    d1 : callable
        First partial of ``F0`` in the first argument.
    d11, d22 : callable
        Pure second partials of ``F0``.
    g, g_prime : callable
        Censoring density and its derivative on the interior.
    draw_xy, draw_t : callable
        Inverse-CDF samplers ``(rng, n) -> arrays`` of length ``n``.  Each
        call must return new arrays: :func:`sample` takes them over, forms
        the observations through ``_observed`` with the marks written into
        the buffer of the event times, and freezes the censoring times in
        place.  An array that is not a writeable, C-contiguous float64
        array owning its data (a list, a float32 or a read-only array) is
        copied first and never written to.
    """

    name: str
    support: tuple[tuple[float, float], tuple[float, float]]
    cdf: Callable[[np.ndarray, np.ndarray], np.ndarray]
    d1: Callable[[np.ndarray, np.ndarray], np.ndarray]
    d11: Callable[[np.ndarray, np.ndarray], np.ndarray]
    d22: Callable[[np.ndarray, np.ndarray], np.ndarray]
    g: Callable[[np.ndarray], np.ndarray]
    g_prime: Callable[[np.ndarray], np.ndarray]
    draw_xy: Callable[[np.random.Generator, int], tuple[np.ndarray, np.ndarray]]
    draw_t: Callable[[np.random.Generator, int], np.ndarray]


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
        self._freeze(t, z, delta)

    def _freeze(self, t: np.ndarray, z: np.ndarray, delta: np.ndarray) -> None:
        for name, arr in (("t", t), ("z", z), ("delta", delta)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return int(self.t.size)

    def to_csv(self, path: str | Path | io.TextIOBase) -> None:
        """Write ``t,z,delta`` rows at full float precision."""
        rows = zip(self.t.tolist(), self.z.tolist(), self.delta.tolist())
        _write_csv(path, ["t", "z", "delta"], rows)

    @classmethod
    def from_csv(cls, path: str | Path | io.TextIOBase) -> "Sample":
        """Read ``t,z,delta`` rows as :meth:`to_csv` writes them.

        A row without exactly three fields, or whose ``t`` or ``z`` is not a
        number or whose ``delta`` is not an integer, raises ``ValueError``
        naming its line.
        """
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
            if len(row) != 3:
                raise ValueError(
                    f"line {reader.line_num}: expected 3 fields t,z,delta, got {len(row)}"
                )
            try:
                ti, zi, di = float(row[0]), float(row[1]), int(row[2])
            except ValueError:
                raise ValueError(
                    f"line {reader.line_num}: expected numbers t,z and an integer "
                    f"delta, got {','.join(row)!r}"
                ) from None
            t.append(ti)
            z.append(zi)
            d.append(di)
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

    def d1(x, y):
        x = np.asarray(x, dtype=float)
        return np.where(_box(0, 1, x), np.clip(y, 0.0, 1.0), 0.0)

    def zero(x, y):
        return np.zeros_like(np.asarray(x, dtype=float) + np.asarray(y, dtype=float))

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
        d1=d1,
        d11=zero,
        d22=zero,
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

    def d1(x, y):
        x = np.asarray(x, dtype=float)
        yc = np.clip(np.asarray(y, dtype=float), 0.0, 1.0)
        return np.where(_box(0, 1, x), x * yc + 0.5 * yc * yc, 0.0)

    def d11(x, y):
        x = np.asarray(x, dtype=float)
        return np.where(_box(0, 1, x), np.clip(y, 0.0, 1.0), 0.0)

    def d22(x, y):
        y = np.asarray(y, dtype=float)
        return np.where(_box(0, 1, y), np.clip(x, 0.0, 1.0), 0.0)

    def g(t):
        t = np.asarray(t, dtype=float)
        return np.where(_box(0, 1, t), 2.0 * t, 0.0)

    def g_prime(t):
        t = np.asarray(t, dtype=float)
        return np.where(_box(0, 1, t), 2.0, 0.0)

    # in place, in the rounded steps of the formulas above: u becomes x, and
    # w holds 2 x + 1, then y
    def draw_xy(rng, n):
        x = rng.random(n)
        v = rng.random(n)
        x *= 8.0
        x += 1.0
        np.sqrt(x, out=x)
        x -= 1.0
        x *= 0.5
        w = 2.0 * x
        w += 1.0
        v *= w
        np.multiply(x, x, out=w)
        w += v
        np.sqrt(w, out=w)
        w -= x
        return x, w

    def draw_t(rng, n):
        t = rng.random(n)
        return np.sqrt(t, out=t)

    return Scenario(
        name="B",
        support=((0.0, 1.0), (0.0, 1.0)),
        cdf=cdf,
        d1=d1,
        d11=d11,
        d22=d22,
        g=g,
        g_prime=g_prime,
        draw_xy=draw_xy,
        draw_t=draw_t,
    )


class _Stack(NamedTuple):
    """Equal-size samples as the rows of ``(rows, n)`` arrays, unchecked: the
    bootstrap's replications, which the estimators evaluate in one call."""

    t: np.ndarray
    z: np.ndarray
    delta: np.ndarray


def _observed(
    x: np.ndarray, y: np.ndarray, t: np.ndarray, marks: np.ndarray | None = None
) -> _Stack:
    """What is observed of latent pairs ``(x, y)`` inspected at times ``t``,
    arrays of one shape: ``delta = 1{x <= t}`` and the mark ``y`` on
    uncensored entries, else 0.  The marks are written into ``marks``, a
    float64 array of that shape that may be ``x`` itself, when one is given."""
    delta = np.less_equal(x, t, out=np.empty(x.shape, np.int64))
    # -delta is all ones bits on uncensored rows and all zero bits (+0.0) on
    # censored ones: np.where(delta == 1, y, 0.0) bit for bit, without a select
    bits = (np.empty(x.shape) if marks is None else marks).view(np.int64)
    np.negative(delta, out=bits)
    bits &= np.asarray(y, dtype=float).view(np.int64)
    return _Stack(t, bits.view(float), delta)


def sample(scenario: Scenario, n: int, seed: int) -> Sample:
    """Draw ``n`` current status observations.

    The generator is seeded with ``seed`` and consumed in a fixed order
    (latent pairs first, censoring times second), so the result is bitwise
    reproducible, and its latent pairs are those of
    ``scenario.draw_xy(np.random.default_rng(seed), n)``.  ``n`` must be an
    integer >= 1 (:class:`EmptySampleError`), ``seed`` one >= 0.

    The result equals ``Sample(*_observed(x, y, t), seed=seed)`` bit for bit,
    built without copies: ``delta`` is 0/1 and censored marks are +0.0 by
    construction, so only the draws' lengths, the times' finiteness and the
    marks' range are checked, as :class:`Sample` checks them.
    """
    _check_count(n, "n", 1, EmptySampleError)
    _check_count(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    x, y = scenario.draw_xy(rng, n)
    t = scenario.draw_t(rng, n)
    x, y, t = (np.require(a, float, ["C", "W", "O", "E"]) for a in (x, y, t))
    for name, a in (("draw_xy", x), ("draw_xy", y), ("draw_t", t)):
        if a.shape != (n,):
            raise ValueError(
                f"{name} must return arrays of length {n}, got shape {a.shape}"
            )
    # x is dead once delta exists: the marks take its buffer, unless a draw
    # returned one array twice
    _, z, delta = _observed(x, y, t, x if x is not y and x is not t else None)
    if not (np.isfinite(t.min()) and np.isfinite(t.max())):
        raise ValueError("times must be finite")
    if not (0.0 <= z.min() and z.max() < np.inf):
        raise ValueError("marks must be finite and nonnegative")
    s = object.__new__(Sample)
    s._freeze(t, z, delta)
    object.__setattr__(s, "seed", seed)
    return s
