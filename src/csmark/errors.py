"""Exception types shared across the package, and the rules on values.

All domain errors derive from :class:`CsmarkError` so callers can catch the
package's failures with a single except clause.  Errors that signal misuse of
an interface (bad bandwidths, malformed samples, kernels that violate the
standing assumptions) also derive from :class:`ValueError`; errors that arise
at run time from the data itself (vanishing denominators, degenerate pilot
fits, failed replications) derive from :class:`RuntimeError`.

The ``check_*`` functions are the one rule of each kind of value the library
takes: finite numbers, marks, bandwidths, sizes, counts, the estimator's
name, bandwidth grids, points and the package's own objects, by their
type.  The library and the command line refuse a bad value through them, so
in the same words: ``<name> must be <what>, got <value>``; a schedule's
rule, which needs its class, is kept with it in :mod:`csmark.asymptotics`.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

__all__ = [
    "CsmarkError",
    "InvalidBandwidthError",
    "InvalidValueError",
    "DerivativeUnavailableError",
    "KernelAssumptionError",
    "SupportError",
    "EmptySampleError",
    "BandwidthRegimeError",
    "UnstableDenominatorError",
    "DegeneratePilotError",
    "ReplicationFailureError",
    "SelectionError",
    "QuadratureError",
]


class CsmarkError(Exception):
    """Base class for all errors raised by this package."""


class InvalidBandwidthError(CsmarkError, ValueError):
    """A bandwidth was zero, negative, or missing where required."""


class InvalidValueError(CsmarkError, ValueError):
    """A count, a name, a floor or a sample's entries lie outside the
    values the parameter accepts."""


class DerivativeUnavailableError(CsmarkError, ValueError):
    """A kernel derivative was requested but the kernel does not have one.

    The Uniform kernel, for example, is not differentiable at the edges of
    its support and carries no derivative callable; density estimation needs
    one.
    """


class KernelAssumptionError(CsmarkError, ValueError):
    """A kernel (or kernel pair) violates the standing kernel assumptions."""


class SupportError(CsmarkError, ValueError):
    """A point lies outside the support of the relevant distribution."""


class EmptySampleError(CsmarkError, ValueError):
    """An operation received an empty sample."""


class BandwidthRegimeError(CsmarkError, ValueError):
    """The bandwidth decay regime makes the requested limit diverge."""


class UnstableDenominatorError(CsmarkError, RuntimeError):
    """The estimated censoring density fell below the stability floor.

    Attributes
    ----------
    g_value : float
        The offending density estimate.
    """

    def __init__(self, message: str, g_value: float = 0.0) -> None:
        super().__init__(message)
        self.g_value = float(g_value)


class DegeneratePilotError(CsmarkError, RuntimeError):
    """The pilot density estimate is nonpositive everywhere on its grid."""


class ReplicationFailureError(CsmarkError, RuntimeError):
    """Too many Monte Carlo replications failed to produce an estimate."""


class SelectionError(CsmarkError, RuntimeError):
    """Bandwidth selection had no valid candidate to choose from."""


class QuadratureError(CsmarkError, RuntimeError):
    """Numerical integration did not converge to the requested accuracy."""


# the scalar types of a number, bools aside: faster to test than numbers.Real
_REAL = (float, int, np.floating, np.integer)
_INDEX_MAX = int(np.iinfo(np.intp).max)  # the largest size numpy can allocate
_FINITE, _MARK = "a finite number", "a number other than NaN"


def _refused(error: type, name: str, what: str, value) -> CsmarkError:
    return error(f"{name} must be {what}, got {value!r}")


def _is_real(value, single: bool) -> bool:
    """Whether ``value`` is a float, an int or a numpy real, a 0-d array of
    one or, unless ``single``, an array or a sequence of them, but not a bool
    and not a Python int too large for a float."""
    if isinstance(value, _REAL):
        try:
            float(value)
        except OverflowError:
            return False
        return type(value) is not bool
    try:
        value = np.asarray(value)
    except ValueError:  # a ragged sequence
        return False
    return value.dtype.kind in "fiu" and not (single and value.ndim)


def _entries(value) -> list:
    """The entries of a flat list, tuple or array; none of anything else."""
    try:
        return list(value) if np.ndim(value) == 1 else []
    except ValueError:  # a ragged sequence
        return []


def check_finite(value, name: str, error: type = InvalidValueError) -> None:
    """A finite number: a time ``t0``, an exponent, a true value."""
    if not (_is_real(value, True) and math.isfinite(value)):
        raise _refused(error, name, _FINITE, value)


def check_instance(value, name: str, cls: type, error: type = InvalidValueError) -> None:
    """An object of one of the package's classes: a sample, a config, a plan."""
    if not isinstance(value, cls):
        article = "an" if cls.__name__[0] in "AEIO" else "a"
        raise _refused(error, name, f"{article} {cls.__name__}", value)


def check_mark(value, name: str, error: type = SupportError) -> None:
    """A mark ``z0``: any number but NaN, ``+-inf`` giving the limits."""
    if not (_is_real(value, True) and not math.isnan(value)):
        raise _refused(error, name, _MARK, value)


def check_bandwidth(value, name: str, error: type = InvalidBandwidthError) -> None:
    """A bandwidth, a constant that scales one or a floor: one number, not
    an array, even of one entry."""
    # the chained comparison is False for NaN, inf and nonpositive values
    if not (_is_real(value, True) and not isinstance(value, np.ndarray)
            and 0.0 < value < np.inf):
        raise _refused(error, name, "finite and positive", value)


def check_bandwidths(value, name: str) -> None:
    """A bandwidth (:func:`check_bandwidth`), or an array of them, one per
    point or row of an evaluation."""
    if not isinstance(value, np.ndarray):
        check_bandwidth(value, name)
    elif not (value.dtype.kind in "fiu" and bool(np.all((0.0 < value) & (value < np.inf)))):
        raise _refused(InvalidBandwidthError, name, "finite and positive", value)


def check_mark_bandwidth(value, name: str, estimator: str) -> None:
    """The mark bandwidth of ``estimator``: F2 smooths the mark, so needs one."""
    if estimator == "F2":
        check_bandwidth(value, name)


def _check_integer(value, name: str, minimum: int, bounded: bool, error: type) -> None:
    """An integer from ``minimum``, and with ``bounded`` to the largest size
    numpy can allocate."""
    if not (isinstance(value, numbers.Integral) and type(value) is not bool
            and minimum <= value and (not bounded or value <= _INDEX_MAX)):
        bound = f" and <= {_INDEX_MAX}" if bounded else ""
        raise _refused(error, name, f"an integer >= {minimum}{bound}", value)


def check_size(value, name: str) -> None:
    """A sample size: an integer from 1 to the largest numpy can allocate."""
    _check_integer(value, name, 1, True, EmptySampleError)


def check_sizes(value, name: str) -> np.ndarray:
    """A non-empty list of sizes (:func:`check_size`), as an integer array."""
    entries = _entries(value)
    if not entries:
        raise _refused(EmptySampleError, name, "a non-empty list of sizes", value)
    for entry in entries:
        check_size(entry, name)
    return np.array(entries, dtype=np.intp)


def check_count(value, name: str, minimum: int, bounded: bool = False) -> None:
    """A count: replications, a seed, threads.  A ``bounded`` count, of
    replications, each of which takes an array entry, is at most the
    largest size numpy can allocate; seeds and threads have no upper bound."""
    _check_integer(value, name, minimum, bounded, InvalidValueError)


def check_choice(value, name: str, choices: tuple[str, ...]) -> None:
    if not (isinstance(value, str) and value in choices):
        raise _refused(InvalidValueError, name, f"one of {list(choices)}", value)


def check_estimator(value, name: str = "estimator") -> None:
    check_choice(value, name, ("F1", "F2"))


def check_grid(value, name: str) -> None:
    """Candidate bandwidths (:func:`check_bandwidth`), in increasing order."""
    entries = _entries(value)
    for entry in entries:  # each entry, before a comparison could hide a bool
        check_bandwidth(entry, name)
    if not entries or any(b <= a for a, b in zip(entries, entries[1:])):
        raise _refused(InvalidBandwidthError, name, "non-empty and strictly increasing", value)


def check_points(t, z, single: bool = False,
                 names: tuple[str, str] = ("t0", "z0")) -> tuple[np.ndarray, np.ndarray]:
    """Points ``(t[j], z[j])`` as float arrays of one shape (with ``single``,
    one number each): times :func:`check_finite` and marks :func:`check_mark`
    take, and no bool or string, which a float cast would hide."""
    if (single and type(t) is float and type(z) is float
            and math.isfinite(t) and not math.isnan(z)):
        return np.array((t,)), np.array((z,))  # the common case, as below
    if not (_is_real(t, single) and _is_real(z, single)):
        for value, name, what in ((t, names[0], _FINITE), (z, names[1], _MARK)):
            if not _is_real(value, single):
                raise _refused(SupportError, name, what, value)
    t, z = np.array(t, dtype=float, ndmin=1), np.array(z, dtype=float, ndmin=1)
    if t.shape != z.shape:
        raise _refused(SupportError, " and ".join(names), "of one shape",
                       (t.tolist(), z.tolist()))
    bad = ~np.isfinite(t) | np.isnan(z)
    if bad.any():
        j = bad.argmax()
        check_finite(t[j].item(), names[0], SupportError)
        check_mark(z[j].item(), names[1])
    return t, z


def check_grid_points(t_grid, z_grid) -> tuple[np.ndarray, np.ndarray]:
    """The points of ``t_grid x z_grid``, each a number or a flat list, as
    :func:`check_points` gives them."""
    names = ("t_grid", "z_grid")
    for value, name, what in ((t_grid, names[0], _FINITE), (z_grid, names[1], _MARK)):
        if not (_is_real(value, False) and np.ndim(value) <= 1):
            raise _refused(SupportError, name, what, value)
    t_grid, z_grid = np.atleast_1d(t_grid), np.atleast_1d(z_grid)
    return check_points(np.repeat(t_grid, z_grid.size), np.tile(z_grid, t_grid.size),
                        names=names)


def check_pair(point, name: str = "point") -> tuple:
    """``point`` unpacked as ``(t0, z0)``, one number each (:func:`check_points`)."""
    try:
        t, z = point
    except (TypeError, ValueError):
        raise _refused(SupportError, name, "a pair (t0, z0)", point) from None
    check_points(t, z, single=True)
    return t, z
