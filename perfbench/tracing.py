"""Span tracing of csmark's layers, installed from outside the package.

``Tracer.install`` replaces the names that callers look up -- for example
``csmark.cli.mc_mse`` or ``csmark.asymptotics.f1`` -- with wrappers that
record a span (name, start, end, parent) around each call, plus up to two
work counts measured at the same boundary.  Kernel evaluations are counted
through wrapped kernel factories, whose kernels carry wrapped
``pdf``/``cdf``/``deriv`` callables.  ``uninstall`` restores the originals,
so untraced and traced ops can alternate in one process.

A span opened in a worker thread, whose own stack is empty, takes the open
Monte Carlo driver span as its parent.  Spans stay in memory until the run
ends.  The package's code is not modified; wrappers return what the wrapped
function returns.

Self time generalises "duration minus the part its children cover" to
threads: every instant of traced wall time is split evenly between the
innermost open spans, so self times add up to the wall time of the root
spans exactly.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import threading
from array import array
from time import perf_counter_ns

import numpy as np

LAYERS = ("cli", "asymptotics", "bandwidth", "estimators", "kernels", "scenarios")
DRIVERS = ("asymptotics.mc_mse", "asymptotics.mc_normality", "asymptotics.mc_functional")
POINTS = ("estimators.f1", "estimators.f2", "estimators.f2_density")
KERNEL_CALLS = ("kernels.pdf", "kernels.cdf", "kernels.deriv")
ROOT = "cli.main"
# one span: id, name index, start ns, end ns, parent id, error flag, work a, work b
_FIELDS = 8


def _rows(args, result):
    return len(result), 0


def _points(args, result):
    return result.size, 0


def _pairs(args, result):
    return result[0].size, 0


def _pdf_hits(args, result):
    values = np.asarray(result)
    return values.size, int(np.count_nonzero(values))


def _cdf_hits(args, result):
    values = np.asarray(result)
    return values.size, int(np.count_nonzero((values > 0.0) & (values < 1.0)))


class Tracer:
    """Records spans around csmark's public calls while installed."""

    def __init__(self) -> None:
        from csmark.errors import UnstableDenominatorError

        self._unstable = UnstableDenominatorError
        self._names: dict[str, int] = {}
        self._table = array("q")
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._local = threading.local()
        self._driver = -1
        self._patches: list[tuple[object, str, object]] = []
        self._kernels: dict[object, object] = {}

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, measure=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``measure(args, result)`` gives the span's two work counts after a
        successful call; it runs outside the span's interval.
        """
        code = self._names.setdefault(name, len(self._names))
        driver = name in DRIVERS
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._driver
            sid = next(tracer._ids)
            stack.append(sid)
            if driver:
                tracer._driver = sid
            error = 0
            result = None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except tracer._unstable:
                error = 1
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                if driver:
                    tracer._driver = -1
                a, b = measure(args, result) if measure and result is not None else (0, 0)
                with tracer._lock:
                    tracer._table.extend((sid, code, start, end, parent, error, a, b))

        return traced

    def _counted(self, factory):
        @functools.wraps(factory)
        def counted_factory():
            kernel = factory()
            if kernel not in self._kernels:
                self._kernels[kernel] = dataclasses.replace(
                    kernel,
                    pdf=self.wrap(kernel.pdf, "kernels.pdf", _pdf_hits),
                    cdf=self.wrap(kernel.cdf, "kernels.cdf", _cdf_hits),
                    deriv=None if kernel.deriv is None
                    else self.wrap(kernel.deriv, "kernels.deriv", _pdf_hits),
                )
            return self._kernels[kernel]

        return counted_factory

    def install(self) -> None:
        from csmark import asymptotics, bandwidth, cli, estimators

        pilot = bandwidth.PilotModel
        plan = [
            (cli, "sample", "scenarios.sample", _rows),
            (cli, "evaluate_grid", "estimators.evaluate_grid", None),
            (cli, "mc_mse", "asymptotics.mc_mse", None),
            (cli, "mc_normality", "asymptotics.mc_normality", None),
            (cli, "mc_functional", "asymptotics.mc_functional", None),
            (cli, "true_mean_event_time", "asymptotics.true_mean_event_time", None),
            (cli, "bootstrap_mse", "bandwidth.bootstrap_mse", None),
            (cli, "select", "bandwidth.select", None),
            (asymptotics, "sample", "scenarios.sample", _rows),
            (asymptotics, "f1", "estimators.f1", None),
            (asymptotics, "f2", "estimators.f2", None),
            (asymptotics, "mean_functional", "asymptotics.mean_functional", None),
            (estimators, "f1", "estimators.f1", None),
            (estimators, "f2", "estimators.f2", None),
            (estimators, "f2_density", "estimators.f2_density", None),
            (estimators, "eval_rescaled", "kernels.eval_rescaled", None),
            (estimators, "eval_rescaled_cdf", "kernels.eval_rescaled_cdf", None),
            (bandwidth, "fit_pilot", "bandwidth.fit_pilot", None),
            (bandwidth, "f1", "estimators.f1", None),
            (bandwidth, "f2", "estimators.f2", None),
            (pilot, "density", "bandwidth.pilot_density", _points),
            (pilot, "target", "bandwidth.pilot_target", None),
            (pilot, "draw_xy", "bandwidth.draw_xy", _pairs),
            (pilot, "draw_t", "bandwidth.draw_t", None),
        ]
        for owner, attr, name, measure in plan:
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, measure))
        for owner in (cli, asymptotics, bandwidth):
            for attr in ("epanechnikov_kernel", "uniform_kernel"):
                if hasattr(owner, attr):
                    original = getattr(owner, attr)
                    self._patches.append((owner, attr, original))
                    setattr(owner, attr, self._counted(original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def spans(self) -> tuple[np.ndarray, list[str]]:
        """All recorded spans as an (n, 8) array in id order, and the names."""
        table = np.array(self._table, dtype=np.int64).reshape(-1, _FIELDS)
        table = table[np.argsort(table[:, 0], kind="stable")]
        names = sorted(self._names, key=self._names.get)
        return table, names

    def save(self, path) -> None:
        table, names = self.spans()
        np.savez(path, spans=table, names=np.array(names))


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Self time in ns of each span (indexed by id) by an event sweep.

    Between consecutive span boundaries the elapsed time is split evenly
    between the open spans that have no open child.  Without threads this
    is the span's duration minus the time its children cover.
    """
    n = start.size
    span = np.concatenate((np.arange(n), np.arange(n)))
    opening = np.concatenate((np.ones(n, dtype=bool), np.zeros(n, dtype=bool)))
    times = np.concatenate((start, end))
    # at equal times: closes before opens, parents open first and close last
    order = np.lexsort((np.where(opening, span, -span), opening, times))
    parents = parent.tolist()
    own = [0.0] * n
    open_children = [0] * n
    leaves: set[int] = set()
    previous = 0
    for t, is_open, s in zip(
        times[order].tolist(), opening[order].tolist(), span[order].tolist()
    ):
        if leaves and t != previous:
            share = (t - previous) / len(leaves)
            for leaf in leaves:
                own[leaf] += share
        previous = t
        p = parents[s]
        if is_open:
            leaves.add(s)
            if p >= 0:
                open_children[p] += 1
                leaves.discard(p)
        else:
            leaves.discard(s)
            if p >= 0:
                open_children[p] -= 1
                if open_children[p] == 0:
                    leaves.add(p)
    return np.array(own)


def layer_metrics(table: np.ndarray, names: list[str]) -> tuple[dict, dict]:
    """Totals (counts, seconds) and ratios from a span table."""
    ids, code, start, end, parent, error, a, b = table.T
    if not np.array_equal(ids, np.arange(ids.size)):
        raise ValueError("span ids are not dense; a span was left open")
    name = np.array(names, dtype=object)[code]
    layer = np.array([n.split(".")[0] for n in names], dtype=object)[code]
    has_parent = parent >= 0
    parent_name = np.where(has_parent, name[np.maximum(parent, 0)], "")
    parent_layer = np.where(has_parent, layer[np.maximum(parent, 0)], "")
    dur = (end - start) / 1e9
    own = self_times(start, end, parent) / 1e9

    def of(*wanted):
        return np.isin(name, wanted)

    def under(*wanted):
        return np.isin(parent_name, wanted)

    sample = of("scenarios.sample")
    kernel_top = (layer == "kernels") & (parent_layer != "kernels")
    kernel_calls = of(*KERNEL_CALLS)
    points = of(*POINTS)
    drivers = of(*DRIVERS)
    in_driver = under(*DRIVERS)
    density = of("bandwidth.pilot_density")
    candidates = of("estimators.f1", "estimators.f2") & under("bandwidth.bootstrap_mse")
    # a driver's parent is the op's root span, which records the op's threads
    driver_capacity = float(np.sum(dur[drivers] * a[np.maximum(parent[drivers], 0)]))
    draw_proposed = float(np.sum(a[density & under("bandwidth.draw_xy")]))
    evals = float(np.sum(a[kernel_calls]))

    totals = {
        "scenarios.sample.calls": float(np.sum(sample)),
        "scenarios.sample.rows": float(np.sum(a[sample])),
        "scenarios.sample.busy_s": float(np.sum(dur[sample])),
        "kernels.evals": evals,
        "kernels.busy_s": float(np.sum(dur[kernel_top])),
        "estimators.points": float(np.sum(points)),
        "estimators.f1.busy_s": float(np.sum(dur[of("estimators.f1")])),
        "estimators.f2.busy_s": float(np.sum(dur[of("estimators.f2")])),
        "estimators.f2_density.busy_s": float(np.sum(dur[of("estimators.f2_density")])),
        "estimators.evaluate_grid.self_s": float(np.sum(own[of("estimators.evaluate_grid")])),
        "estimators.unstable": float(np.sum(error[points])),
        "asymptotics.replications": float(np.sum(sample & in_driver)),
        "asymptotics.replications_failed": float(np.sum(error[in_driver])),
        "asymptotics.driver.self_s": float(np.sum(own[drivers])),
        "asymptotics.mean_functional.busy_s": float(
            np.sum(dur[of("asymptotics.mean_functional")])),
        "bandwidth.pilot_fit.busy_s": float(np.sum(dur[of("bandwidth.fit_pilot")])),
        "bandwidth.pilot_density.points": float(np.sum(a[density])),
        "bandwidth.pilot_density.busy_s": float(np.sum(dur[density])),
        "bandwidth.draw_xy.busy_s": float(np.sum(dur[of("bandwidth.draw_xy")])),
        "bandwidth.candidates": float(np.sum(candidates)),
        "bandwidth.candidates.busy_s": float(np.sum(dur[candidates])),
        "bandwidth.candidates_failed": float(np.sum(error[candidates])),
        "bandwidth.bootstrap.self_s": float(np.sum(own[of("bandwidth.bootstrap_mse")])),
        "cli.invocations": float(np.sum(of(ROOT))),
    }
    for name_ in LAYERS:
        totals[f"{name_}.self_s"] = float(np.sum(own[layer == name_]))
    ratios = {
        "kernels.support_hit_ratio": float(np.sum(b[kernel_calls])) / evals if evals else 0.0,
        "asymptotics.thread_busy_ratio": (
            float(np.sum(dur[in_driver])) / driver_capacity if driver_capacity else 0.0),
        "bandwidth.draw_xy.acceptance": (
            float(np.sum(a[of("bandwidth.draw_xy")])) / draw_proposed
            if draw_proposed else 0.0),
    }
    return totals, ratios
