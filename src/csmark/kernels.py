"""Smoothing kernels on [-1, 1] and the checks the estimators rely on.

Conventions
-----------
A univariate kernel k is a probability density supported on [-1, 1].  The
estimators use three derived quantities: the rescaled kernel
``k_h(u) = k(u / h) / h``, the second moment ``m2 = int u^2 k(u) du`` and the
squared L2 norm ``int k(u)^2 du``.  Bivariate smoothing uses the product
``K(x, y) = k(x) * k(y)`` of the one kernel ``k``, which smooths time and
mark alike.  :func:`validate_conditions` checks the paper's conditions on
the product of any time factor and mark factor:

* each factor is a density with compact support [-1, 1] and is symmetric
  (continuity is assumed, not checked numerically);
* both first moments vanish and the two second moments agree;
* the mark factor's ``cdf`` is 0 below -1 and 1 above 1, the values the
  estimators assume off a point's mark window.

The Uniform kernel is ``1/2`` on [-1, 1]; the Epanechnikov kernel is
``(3/4) (1 - u^2)`` on [-1, 1].  Only the latter carries a derivative, so
density estimation (which differentiates the kernel) requires it or a custom
differentiable kernel.

The built-in families take their second moments and norms from closed forms;
custom kernels, and the scenario integrals of :mod:`csmark.asymptotics`, go
through one adaptive composite Gauss-Legendre rule (Golub & Welsch 1969).
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import InvalidBandwidthError

__all__ = [
    "UnivariateKernel",
    "Bandwidths",
    "KernelValidationReport",
    "uniform_kernel",
    "epanechnikov_kernel",
    "custom_kernel",
    "eval_rescaled",
    "eval_rescaled_cdf",
    "second_moment",
    "l2_norm_sq",
    "validate_conditions",
]

_VALIDATION_TOL = 1e-10


class KernelFamily(enum.Enum):
    UNIFORM = "uniform"
    EPANECHNIKOV = "epanechnikov"
    CUSTOM = "custom"


@dataclass(frozen=True, eq=False)
class UnivariateKernel:
    """A kernel density on [-1, 1] with its antiderivative.

    Attributes
    ----------
    family : KernelFamily
        Which built-in family the kernel belongs to, or ``CUSTOM``.
    name : str
        Human-readable label used in reports and error messages.
    pdf : callable
        Vectorized density; must vanish outside [-1, 1].
    cdf : callable
        Vectorized antiderivative of ``pdf`` with ``cdf(-1) = 0``,
        ``cdf(1) = 1``.
    deriv : callable or None
        Vectorized derivative of ``pdf``, or None when the kernel is not
        differentiable (then density estimation refuses to use it).
    """

    family: KernelFamily
    name: str
    pdf: Callable[[np.ndarray], np.ndarray]
    cdf: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray] | None = None

    def __repr__(self) -> str:  # keep reprs short; callables are noise
        return f"UnivariateKernel({self.name})"


@dataclass(frozen=True)
class Bandwidths:
    """Smoothing bandwidths: ``alpha`` for time, optional ``beta`` for mark.

    Both must be strictly positive; ``beta`` may be None for operations that
    smooth in the time direction only.
    """

    alpha: float
    beta: float | None = None

    def __post_init__(self) -> None:
        _check_bandwidth(self.alpha, "alpha")
        if self.beta is not None:
            _check_bandwidth(self.beta, "beta")


def _uniform_pdf(u):
    u = np.asarray(u, dtype=float)
    # NaN fails the comparison, so it maps to 0 like any point off [-1, 1]
    return 0.5 * (np.abs(u) <= 1.0)


def _uniform_cdf(u):
    u = np.asarray(u, dtype=float)
    return np.clip((u + 1.0) / 2.0, 0.0, 1.0)


def _epanechnikov_pdf(u):
    # |u| capped at 1 (fmin maps NaN to 1 too) before squaring, so a huge u
    # cannot overflow: 1 - u*u is then 0 exactly off [-1, 1], and this
    # equals the masked form bit for bit without a select
    u = np.fmin(np.abs(np.asarray(u, dtype=float)), 1.0)
    return 0.75 * (1.0 - u * u)


def _epanechnikov_cdf(u):
    u = np.clip(np.asarray(u, dtype=float), -1.0, 1.0)
    # u * u * u, not u**3: numpy sends a cube through libm pow (~90x dearer)
    return 0.25 * (2.0 + 3.0 * u - u * u * u)


def _epanechnikov_deriv(u):
    u = np.asarray(u, dtype=float)
    return np.where(np.abs(u) <= 1.0, -1.5 * u, 0.0)


# Interval bounds.  Each rounded operation of the two functions above is
# monotone, so their float values over the floats u in [a, b] are bounded
# by their float values at a few points of [a, b], with no rounding margin.


def _epanechnikov_pdf_bounds(a, b):
    """Least and greatest :func:`_epanechnikov_pdf` over ``[a, b]``, elementwise.

    The pdf does not increase in ``|u|``: its least value is at an end, its
    greatest at the point nearest 0 (0.75 when 0 lies inside).
    """
    return (
        np.minimum(_epanechnikov_pdf(a), _epanechnikov_pdf(b)),
        _epanechnikov_pdf(np.clip(0.0, a, b)),
    )


def _epanechnikov_deriv_bounds(a, b):
    """Least and greatest :func:`_epanechnikov_deriv` over ``[a, b]``, elementwise.

    The derivative is ``-1.5 u`` on [-1, 1] and 0 off it, monotone on each
    piece, so its extremes are at the ends and at -1 and 1 where they lie
    in ``[a, b]``, where it takes its greatest value 1.5 and its least -1.5.
    """
    at_a, at_b = _epanechnikov_deriv(a), _epanechnikov_deriv(b)
    return (
        np.where((a <= 1.0) & (1.0 <= b), -1.5, np.minimum(at_a, at_b)),
        np.where((a <= -1.0) & (-1.0 <= b), 1.5, np.maximum(at_a, at_b)),
    )


@lru_cache(maxsize=None)
def uniform_kernel() -> UnivariateKernel:
    """The Uniform kernel ``1/2`` on [-1, 1].  Not differentiable."""
    return UnivariateKernel(
        family=KernelFamily.UNIFORM,
        name="uniform",
        pdf=_uniform_pdf,
        cdf=_uniform_cdf,
        deriv=None,
    )


@lru_cache(maxsize=None)
def epanechnikov_kernel() -> UnivariateKernel:
    """The Epanechnikov kernel ``(3/4)(1 - u^2)`` on [-1, 1]."""
    return UnivariateKernel(
        family=KernelFamily.EPANECHNIKOV,
        name="epanechnikov",
        pdf=_epanechnikov_pdf,
        cdf=_epanechnikov_cdf,
        deriv=_epanechnikov_deriv,
    )


def custom_kernel(
    name: str,
    pdf: Callable[[np.ndarray], np.ndarray],
    cdf: Callable[[np.ndarray], np.ndarray],
    deriv: Callable[[np.ndarray], np.ndarray] | None = None,
) -> UnivariateKernel:
    """Wrap user-supplied callables as a kernel.

    The callables must be vectorized over numpy arrays.  No validation is
    performed here; run :func:`validate_conditions` on the result to check
    the standing assumptions.  Off [-1, 1] the estimators take ``pdf`` and
    ``deriv`` as 0 and ``cdf`` as 0 below and 1 above, calling the callables
    there on some paths and not on others; :func:`validate_conditions`
    checks that ``pdf`` and ``cdf`` take those values there.
    """
    return UnivariateKernel(
        family=KernelFamily.CUSTOM, name=name, pdf=pdf, cdf=cdf, deriv=deriv
    )


# the scalar types of a number, bools aside: concrete types test faster than
# numbers.Real, and Python's bool is an int
_REAL = (float, int, np.floating, np.integer)


def _check_bandwidth(value, name: str, error: type = InvalidBandwidthError) -> None:
    """Raise ``error`` naming ``name`` unless ``value``, a float, an int or a
    numpy real, or an array of them, but not a bool, is finite and strictly
    positive throughout."""
    # the chained comparison is False for NaN, inf and nonpositive values
    if isinstance(value, np.ndarray):
        ok = value.dtype.kind in "fiu" and bool(np.all((0.0 < value) & (value < np.inf)))
    else:
        ok = isinstance(value, _REAL) and type(value) is not bool and 0.0 < value < np.inf
    if not ok:
        raise error(f"{name} must be finite and positive, got {value!r}")


def _check_finite(value, name: str) -> None:
    """Raise InvalidBandwidthError naming ``name`` unless ``value`` is a finite number."""
    if not (isinstance(value, _REAL) and type(value) is not bool and math.isfinite(value)):
        raise InvalidBandwidthError(f"{name} must be a finite number, got {value!r}")


def _check_count(value, name: str, minimum: int, error: type = ValueError) -> None:
    """Raise ``error`` naming ``name`` unless ``value`` is an integer >= ``minimum``."""
    integer = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not (integer and value >= minimum):
        raise error(f"{name} must be an integer >= {minimum}, got {value!r}")


# how far _support_window widens its prefilter's bounds, per unit of |c| + h
_WINDOW_SLACK = 4 * float(np.finfo(float).eps)


def _support_window(x, c, h) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the entries of ``x`` in the support of ``k((c - x) / h)``,
    ``|q| <= 1`` for ``q = (c - x_i) / h`` in float arithmetic, and their
    ``q``; ``c`` is a number or +-inf, ``h`` finite and positive.

    ``q`` is computed only on the entries between ``c -+ h`` moved out by
    ``_WINDOW_SLACK (|c| + h)``, ``4 eps (|c| + h)``.  Near the edge the
    quotient's two roundings move it by under ``1.1 eps``, ``1.1 eps h`` in
    ``x``, and ``c -+ h`` round by half an ulp of ``|c| + h``, so those
    entries hold the window: the same indices and ``q``, bit for bit, as
    the test on every entry.
    """
    c, h = float(c), float(h)  # Python floats add faster than numpy scalars
    slack = 0.0 if math.isinf(c) else _WINDOW_SLACK * (abs(c) + h)
    near = x >= c - h - slack
    near &= x <= c + h + slack
    col = near.nonzero()[0]
    q = c - x[col]
    q /= h
    inside = np.abs(q) <= 1.0
    if np.count_nonzero(inside) < col.size:
        col, q = col[inside], q[inside]
    return col, q


def eval_rescaled(kernel: UnivariateKernel, bandwidth, u) -> np.ndarray:
    """Evaluate ``k(u / bandwidth) / bandwidth`` elementwise.

    ``bandwidth`` is a scalar or an array that broadcasts against ``u``
    (one bandwidth per row, say).

    Raises
    ------
    InvalidBandwidthError
        If any bandwidth is not finite and strictly positive.
    """
    _check_bandwidth(bandwidth, "bandwidth")
    return kernel.pdf(np.asarray(u, dtype=float) / bandwidth) / bandwidth


def eval_rescaled_cdf(kernel: UnivariateKernel, bandwidth, u) -> np.ndarray:
    """Evaluate the rescaled antiderivative ``cdf(u / bandwidth)``.

    ``bandwidth`` broadcasts as in :func:`eval_rescaled`.
    """
    _check_bandwidth(bandwidth, "bandwidth")
    return kernel.cdf(np.asarray(u, dtype=float) / bandwidth)


# (m2, int k^2) of the built-in families; quadrature would round them by an ulp
_CLOSED_FORMS = {KernelFamily.UNIFORM: (1.0 / 3.0, 0.5), KernelFamily.EPANECHNIKOV: (0.2, 0.6)}


@lru_cache(maxsize=None)
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 16-node Gauss-Legendre rule on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(16)
    return 0.5 * (x + 1.0), 0.5 * w


def _quad(f: Callable, lo: float, hi: float) -> tuple[float, float]:
    """``int_lo^hi f`` for a vectorized ``f``, and an error estimate: the
    16-node Gauss-Legendre rule on 16 panels, each split in two while that
    moves it by more than its share, by length, of ``1e-14 max(1, |integral|)``,
    for at most 40 levels and 1024 splits a level.  The estimate sums what
    the last split moved each panel.
    """
    x, w = _gauss_legendre()
    width = (hi - lo) / 16
    starts = lo + width * np.arange(16)
    whole = width * (f(starts[:, None] + width * x) @ w)
    tol = 1e-14 * max(1.0, abs(float(np.sum(whole)))) / 16
    value = error = 0.0
    for level in range(40):
        width /= 2.0
        starts = np.stack([starts, starts + width], axis=1)
        parts = width * (f(starts[..., None] + width * x) @ w)
        gap = np.abs(parts.sum(axis=1) - whole)
        split = gap > tol / 2.0**level  # NaN stops: it cannot settle
        if level == 39 or not 0 < np.count_nonzero(split) <= 1024:
            return value + float(np.sum(parts)), error + float(np.sum(gap))
        value += float(np.sum(parts[~split]))
        error += float(np.sum(gap[~split]))
        starts, whole = starts[split].ravel(), parts[split].ravel()


@lru_cache(maxsize=None)
def _moment_cached(kernel: UnivariateKernel, order: int) -> float:
    if order == 2 and kernel.family in _CLOSED_FORMS:
        return _CLOSED_FORMS[kernel.family][0]
    return _quad(lambda u: u**order * kernel.pdf(u), -1.0, 1.0)[0]


def second_moment(kernel: UnivariateKernel) -> float:
    """``int u^2 k(u) du``.

    The closed forms 1/3 (Uniform) and 1/5 (Epanechnikov) for the built-in
    families; otherwise Gauss-Legendre quadrature over [-1, 1], cached per
    kernel object.
    """
    return _moment_cached(kernel, 2)


def l2_norm_sq(kernel: UnivariateKernel) -> float:
    """``int k(u)^2 du``.

    The closed forms 1/2 (Uniform) and 3/5 (Epanechnikov) for the built-in
    families; otherwise Gauss-Legendre quadrature over [-1, 1].
    """
    if kernel.family in _CLOSED_FORMS:
        return _CLOSED_FORMS[kernel.family][1]
    return _quad(lambda u: kernel.pdf(u) ** 2, -1.0, 1.0)[0]


@dataclass(frozen=True)
class KernelValidationReport:
    """Outcome of :func:`validate_conditions` for one kernel pair.

    ``shape_ok`` -- the time factor has unit mass, compact support and is
    symmetric.  ``moments_ok`` -- both first moments vanish, the second
    moments of the two coordinates agree, and the mark factor is a
    symmetric compactly supported density as well, whose ``cdf`` is 0
    below -1 and 1 above 1.  Residuals are the
    largest absolute violations found for each group; ``kernel_name`` reads
    ``"<time> x <mark>"``.
    """

    kernel_name: str
    shape_ok: bool
    moments_ok: bool
    shape_residual: float
    moments_residual: float

    @property
    def all_ok(self) -> bool:
        return self.shape_ok and self.moments_ok

    def failures(self) -> list[str]:
        out = []
        if not self.shape_ok:
            out.append("shape")
        if not self.moments_ok:
            out.append("moments")
        return out


def _shape_residual(k: UnivariateKernel) -> float:
    mass = _moment_cached(k, 0)
    grid = np.linspace(0.0, 1.0, 201)
    sym = float(np.max(np.abs(k.pdf(grid) - k.pdf(-grid))))
    outside = np.linspace(1.0 + 1e-6, 3.0, 50)
    support = float(
        max(np.max(np.abs(k.pdf(outside))), np.max(np.abs(k.pdf(-outside))))
    )
    return max(abs(mass - 1.0), sym, support)


def _cdf_residual(k: UnivariateKernel) -> float:
    """How far ``k.cdf`` is from 0 below -1 and from 1 above 1, the values
    the estimators take it to have there without calling it."""
    outside = np.linspace(1.0 + 1e-6, 3.0, 50)
    return float(max(np.max(np.abs(k.cdf(-outside))), np.max(np.abs(k.cdf(outside) - 1.0))))


def validate_conditions(
    kernel_t: UnivariateKernel,
    kernel_mark: UnivariateKernel | None = None,
) -> KernelValidationReport:
    """Check the product of two kernels against the standing assumptions.

    The estimators' own product ``k(x) k(y)`` is the case ``kernel_mark=None``;
    any other pair is checked against the paper's conditions all the same.

    Parameters
    ----------
    kernel_t : UnivariateKernel
        The time kernel.
    kernel_mark : UnivariateKernel or None
        The mark kernel; None means ``kernel_t``.

    Returns
    -------
    KernelValidationReport
        A group passes when its residual is at most ``1e-10``.

    Notes
    -----
    Continuity of the factors cannot be detected from pointwise
    evaluations and is taken on trust; the Uniform factor therefore
    passes the shape check despite its jumps at the edges.
    """
    kt, kz = kernel_t, kernel_mark or kernel_t

    mass_t = _moment_cached(kt, 0)
    mass_z = _moment_cached(kz, 0)

    shape_residual = _shape_residual(kt)

    m1t = _moment_cached(kt, 1)
    m1z = _moment_cached(kz, 1)
    m2t = _moment_cached(kt, 2)
    m2z = _moment_cached(kz, 2)
    # Moments of the product measure: E[X] = m1t * mass_z etc.; the mark
    # factor must itself be a symmetric compactly supported density.
    moments_residual = max(
        abs(m1t * mass_z),
        abs(m1z * mass_t),
        abs(m2t * mass_z - m2z * mass_t),
        _shape_residual(kz),
        _cdf_residual(kz),
    )

    return KernelValidationReport(
        kernel_name=f"{kt.name} x {kz.name}",
        shape_ok=shape_residual <= _VALIDATION_TOL,
        moments_ok=moments_residual <= _VALIDATION_TOL,
        shape_residual=shape_residual,
        moments_residual=moments_residual,
    )
