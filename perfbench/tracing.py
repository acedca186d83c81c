"""In-memory spans around cipanova's layer functions, and per-layer metrics from them.

Probes replace a layer function at the module attribute its caller looks it
up under (for example `cipanova.compare.run_posterior_chain`), so the span
covers exactly the calls the pipeline makes.  A probe whose module or
attribute no longer exists is skipped: that layer then reports 0 calls.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Spans as (id, name, start, end, parent, op) tuples plus per-name observations."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None, int]] = []
        self.observed: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []
        self._open_ops: dict[int, int] = {}
        self._next_id = 0

    @contextmanager
    def span(self, name: str):
        """Time the block; a span opened with none open starts a new op."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        op = sid if parent is None else self._open_ops[parent]
        self._stack.append(sid)
        self._open_ops[sid] = op
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            del self._open_ops[sid]
            self.spans.append((sid, name, start, end, parent, op))

    def observe(self, key: str, value) -> None:
        if value is not None:
            self.observed[key].append(value)


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _sid, _name, start, end, parent, _op in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _name, start, end, _parent, _op in spans:
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(sid, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[sid] = (end - start) - covered
    return out


def _arg(args, kwargs, index, name):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


def _observe_chain(tracer, result, args, kwargs):
    tracer.observe("chain.acceptance", getattr(result, "acceptance_rate", None))
    kept, burnin = getattr(result, "kept", None), getattr(result, "burnin", None)
    tracer.observe("chain.iters", None if kept is None or burnin is None else kept + burnin)


def _observe_cip_sample(tracer, result, args, kwargs):
    tracer.observe("cip_sample.draws", getattr(result, "T", None))


def _observe_region_prob(tracer, result, args, kwargs):
    hits, total = getattr(result, "hits", None), getattr(result, "total", None)
    if hits is None or not total:
        return
    model = _arg(args, kwargs, 1, "model")
    tracer.observe("region.hits", (getattr(result, "side", None), getattr(model, "name", None),
                                   hits, total))


def _observe_quadrature(tracer, result, args, kwargs):
    tracer.observe("quadrature.delta", getattr(result, "node_doubling_delta", None))


# (module, attribute, span name, observer): the layer functions at the names
# compare, posterior and simulate import them under.
PROBES = (
    ("cipanova.compare", "make_cip", "intrinsic.make_cip", None),
    ("cipanova.compare", "log_marginal_quadrature", "evidence.log_marginal_quadrature",
     _observe_quadrature),
    ("cipanova.compare", "cip_sample", "intrinsic.cip_sample", _observe_cip_sample),
    ("cipanova.compare", "region_prob", "posterior.region_prob", _observe_region_prob),
    ("cipanova.compare", "run_posterior_chain", "posterior.run_posterior_chain", _observe_chain),
    ("cipanova.posterior", "region_mask", "constraints.region_mask", None),
    ("cipanova.simulate", "compare", "compare", None),
    ("cipanova.simulate", "generate_scenario", "scenarios.generate_scenario", None),
)


def _wrap(tracer: Tracer, fn, name: str, observer):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if observer is not None:
            observer(tracer, result, args, kwargs)
        return result
    return wrapper


@contextmanager
def probes_installed(tracer: Tracer, probes=PROBES):
    """Wrap every probe target that exists; restore the originals on exit."""
    restore = []
    try:
        for module_name, attr, span_name, observer in probes:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                continue
            setattr(module, attr, _wrap(tracer, fn, span_name, observer))
            restore.append((module, attr, fn))
        yield
    finally:
        for module, attr, fn in reversed(restore):
            setattr(module, attr, fn)


SELF_TIME_LAYERS = (
    "posterior.run_posterior_chain",
    "intrinsic.cip_sample",
    "posterior.region_prob",
    "constraints.region_mask",
    "evidence.log_marginal_quadrature",
    "intrinsic.make_cip",
    "compare",
    "scenarios.generate_scenario",
    "simulate",
)


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-operation self times and call counts, plus the layers' own counters.

    A layer that was never called reports 0 for each of its metrics.
    """
    ops = max(ops, 1)
    selfs = self_times(tracer.spans)
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for sid, name, *_ in tracer.spans:
        total[name] += selfs[sid]
        calls[name] += 1
    out = {f"{name}.self_s": total[name] / ops for name in SELF_TIME_LAYERS}
    out["posterior.run_posterior_chain.calls"] = calls["posterior.run_posterior_chain"] / ops
    out["evidence.log_marginal_quadrature.calls"] = calls["evidence.log_marginal_quadrature"] / ops

    obs = tracer.observed
    iters, draws = obs.get("chain.iters", []), obs.get("cip_sample.draws", [])
    out["posterior.run_posterior_chain.iters"] = sum(iters) / len(iters) if iters else 0.0
    out["posterior.run_posterior_chain.acceptance_min"] = min(obs.get("chain.acceptance", [0.0]))
    out["intrinsic.cip_sample.draws"] = sum(draws) / len(draws) if draws else 0.0
    regions = obs.get("region.hits", [])
    prior_fracs = [hits / total for side, _, hits, total in regions if side == "prior"]
    out["posterior.prior_hit_frac_min"] = min(prior_fracs, default=0.0)
    out["posterior.zero_hit_models"] = float(len({model for _, model, hits, _ in regions
                                                  if hits == 0}))
    out["evidence.node_doubling_delta_max"] = max(obs.get("quadrature.delta", [0.0]))
    out["simulate.pool_efficiency"] = 0.0  # set by the workload that runs a pool
    return out
