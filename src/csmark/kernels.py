"""Smoothing kernels on [-1, 1] and the checks the estimators rely on.

Conventions
-----------
A univariate kernel k is a probability density supported on [-1, 1].  The
estimators use three derived quantities: the rescaled kernel
``k_h(u) = k(u / h) / h``, the second moment ``m2 = int u^2 k(u) du`` and the
squared L2 norm ``int k(u)^2 du``.  Bivariate smoothing uses a product kernel
``K(x, y) = k(x) * kz(y)`` whose two factors may differ, subject to the
conditions checked by :func:`validate_conditions`:

* marginal consistency -- integrating the product kernel over its second
  argument must recover the univariate kernel used for the time direction;
* each factor has compact support [-1, 1] and is symmetric (continuity is
  assumed, not checked numerically);
* both first moments vanish and the two second moments agree.

The Uniform kernel is ``1/2`` on [-1, 1]; the Epanechnikov kernel is
``(3/4) (1 - u^2)`` on [-1, 1].  Only the latter carries a derivative, so
density estimation (which differentiates the kernel) requires it or a custom
differentiable kernel.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy import integrate

from .errors import InvalidBandwidthError, KernelAssumptionError

__all__ = [
    "KernelFamily",
    "UnivariateKernel",
    "BivariateKernel",
    "Bandwidths",
    "KernelValidationReport",
    "uniform_kernel",
    "epanechnikov_kernel",
    "custom_kernel",
    "product_kernel",
    "eval_rescaled",
    "eval_rescaled_cdf",
    "second_moment",
    "l2_norm_sq",
    "validate_conditions",
    "require_valid",
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


@dataclass(frozen=True, eq=False)
class BivariateKernel:
    """Product kernel ``K(x, y) = factor_t.pdf(x) * factor_z.pdf(y)``."""

    factor_t: UnivariateKernel
    factor_z: UnivariateKernel

    @property
    def name(self) -> str:
        return f"{self.factor_t.name} x {self.factor_z.name}"

    def pdf(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.factor_t.pdf(x) * self.factor_z.pdf(y)

    def __repr__(self) -> str:
        return f"BivariateKernel({self.name})"


@dataclass(frozen=True)
class Bandwidths:
    """Smoothing bandwidths: ``alpha`` for time, optional ``beta`` for mark.

    Both must be strictly positive; ``beta`` may be None for operations that
    smooth in the time direction only.
    """

    alpha: float
    beta: float | None = None

    def __post_init__(self) -> None:
        if not np.isfinite(self.alpha) or self.alpha <= 0.0:
            raise InvalidBandwidthError(
                f"time bandwidth must be positive, got {self.alpha!r}"
            )
        if self.beta is not None and (
            not np.isfinite(self.beta) or self.beta <= 0.0
        ):
            raise InvalidBandwidthError(
                f"mark bandwidth must be positive, got {self.beta!r}"
            )


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
    performed here; run :func:`validate_conditions` on a product kernel built
    from the result to check the standing assumptions.
    """
    return UnivariateKernel(
        family=KernelFamily.CUSTOM, name=name, pdf=pdf, cdf=cdf, deriv=deriv
    )


def product_kernel(
    factor_t: UnivariateKernel, factor_z: UnivariateKernel | None = None
) -> BivariateKernel:
    """Build ``K(x, y) = factor_t(x) * factor_z(y)``; default is a square."""
    if factor_z is None:
        factor_z = factor_t
    return BivariateKernel(factor_t=factor_t, factor_z=factor_z)


def _check_bandwidth(bandwidth) -> None:
    # the chained comparison is False for NaN, inf and nonpositive values
    if isinstance(bandwidth, np.ndarray):
        ok = bool(np.all((0.0 < bandwidth) & (bandwidth < np.inf)))
    else:
        ok = 0.0 < bandwidth < np.inf
    if not ok:
        raise InvalidBandwidthError(
            f"bandwidth must be positive, got {bandwidth!r}"
        )


def eval_rescaled(kernel: UnivariateKernel, bandwidth, u) -> np.ndarray:
    """Evaluate ``k(u / bandwidth) / bandwidth`` elementwise.

    ``bandwidth`` is a scalar or an array that broadcasts against ``u``
    (one bandwidth per row, say).

    Raises
    ------
    InvalidBandwidthError
        If any bandwidth is not finite and strictly positive.
    """
    _check_bandwidth(bandwidth)
    return kernel.pdf(np.asarray(u, dtype=float) / bandwidth) / bandwidth


def eval_rescaled_cdf(kernel: UnivariateKernel, bandwidth, u) -> np.ndarray:
    """Evaluate the rescaled antiderivative ``cdf(u / bandwidth)``.

    ``bandwidth`` broadcasts as in :func:`eval_rescaled`.
    """
    _check_bandwidth(bandwidth)
    return kernel.cdf(np.asarray(u, dtype=float) / bandwidth)


def _moment(pdf: Callable, order: int) -> float:
    val, _ = integrate.quad(lambda u: (u**order) * float(pdf(u)), -1.0, 1.0)
    return val


@lru_cache(maxsize=None)
def _moment_cached(kernel: UnivariateKernel, order: int) -> float:
    return _moment(kernel.pdf, order)


@lru_cache(maxsize=None)
def _l2_cached(kernel: UnivariateKernel) -> float:
    val, _ = integrate.quad(lambda u: float(kernel.pdf(u)) ** 2, -1.0, 1.0)
    return val


def second_moment(kernel: UnivariateKernel | BivariateKernel) -> float:
    """``int u^2 k(u) du`` (first factor for a product kernel).

    Computed by adaptive quadrature over [-1, 1] and cached per kernel
    object.  For the built-in families this agrees with the closed forms
    1/3 (Uniform) and 1/5 (Epanechnikov) to quadrature accuracy.
    """
    if isinstance(kernel, BivariateKernel):
        kernel = kernel.factor_t
    return _moment_cached(kernel, 2)


def l2_norm_sq(kernel: UnivariateKernel | BivariateKernel) -> float:
    """``int k(u)^2 du`` (first factor for a product kernel).

    Closed forms for the built-ins are 1/2 (Uniform) and 3/5
    (Epanechnikov).
    """
    if isinstance(kernel, BivariateKernel):
        kernel = kernel.factor_t
    return _l2_cached(kernel)


@dataclass(frozen=True)
class KernelValidationReport:
    """Outcome of :func:`validate_conditions` for one product kernel.

    ``marginal_ok`` -- integrating out the second argument recovers the
    time-direction kernel.  ``shape_ok`` -- the time factor has unit mass,
    compact support and is symmetric.  ``moments_ok`` -- both first moments
    vanish, the second moments of the two coordinates agree, and the mark
    factor is a symmetric compactly supported density as well.  Residuals
    are the largest absolute violations found for each group.
    """

    kernel_name: str
    marginal_ok: bool
    shape_ok: bool
    moments_ok: bool
    marginal_residual: float
    shape_residual: float
    moments_residual: float
    tolerance: float

    @property
    def all_ok(self) -> bool:
        return self.marginal_ok and self.shape_ok and self.moments_ok

    def failures(self) -> list[str]:
        out = []
        if not self.marginal_ok:
            out.append("marginal")
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


def validate_conditions(
    kernel: BivariateKernel, tol: float = _VALIDATION_TOL
) -> KernelValidationReport:
    """Check a product kernel against the standing smoothing assumptions.

    Parameters
    ----------
    kernel : BivariateKernel
        The product kernel to examine.
    tol : float
        Largest residual accepted as a pass.

    Returns
    -------
    KernelValidationReport

    Notes
    -----
    Continuity of the factors cannot be detected from pointwise
    evaluations and is taken on trust; the Uniform factor therefore
    passes the shape check despite its jumps at the edges.
    """
    kt, kz = kernel.factor_t, kernel.factor_z

    mass_t = _moment_cached(kt, 0)
    mass_z = _moment_cached(kz, 0)

    # Marginal consistency: int K(x, y) dy = k(x) * mass_z, so the residual
    # scales the mass defect of the z factor by the peak of the t factor.
    peak_t = float(np.max(kt.pdf(np.linspace(-1.0, 1.0, 201))))
    marginal_residual = abs(mass_z - 1.0) * max(peak_t, 1.0)

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
    )

    return KernelValidationReport(
        kernel_name=kernel.name,
        marginal_ok=marginal_residual <= tol,
        shape_ok=shape_residual <= tol,
        moments_ok=moments_residual <= tol,
        marginal_residual=marginal_residual,
        shape_residual=shape_residual,
        moments_residual=moments_residual,
        tolerance=tol,
    )


def require_valid(kernel: BivariateKernel, tol: float = _VALIDATION_TOL) -> None:
    """Raise :class:`KernelAssumptionError` unless all conditions hold."""
    report = validate_conditions(kernel, tol)
    if not report.all_ok:
        raise KernelAssumptionError(
            f"kernel {report.kernel_name!r} fails: {', '.join(report.failures())}"
        )
