"""Layer spans for a traced benchmark child process.

`Tracer.install` wraps the public functions of each guaranteesim module
from outside the package: every module namespace that binds a target
(`from .binomial import exceedance_prob` binds it again in the importing
module) gets the same wrapper, so calls are caught however they are
looked up. Each wrapped call records one span in memory:

    [layer, start, end, parent span index (-1 for none), count]

`count` is the layer's unit of work (bound rows, coverage points,
supremum evaluations, Monte-Carlo draws, support points, pool outcomes).
Spans are handed back as a list when the command ends; `layer_totals`
turns the span lists of one or more commands into per-layer calls,
counts and self times, where a span's self time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import functools
import math
import sys
import time

__all__ = ["Tracer", "TARGETS", "METRICS", "EVALS", "layer_totals", "layer_metrics"]

PACKAGE = "guaranteesim"


def _one(args, out):
    return 1


def _size(args, out):
    return int(getattr(out, "size", 1))


def _length(args, out):
    return len(out)


def _draws(args, out):
    return int(out.n_draws)


def _outcomes(args, out):
    return math.prod(len(member.loss) for member in args[0])


# Count the evaluations of the function passed as the first argument.
EVALS = "evals"

# (layer, owner, attribute, count). owner is a guaranteesim submodule, or
# "module:Class" for methods, which have a single binding on the class.
TARGETS = [
    ("binomial.cp_table", "binomial", "clopper_pearson_lower_vector", _size),
    ("binomial.cp_table", "binomial", "clopper_pearson_lower", _size),
    ("binomial.pmf", "binomial", "binom_pmf_vector", None),
    ("binomial.pmf", "binomial", "binom_pmf", None),
    ("binomial.coverage", "binomial", "exact_lower_coverage", _one),
    ("binomial.coverage", "binomial", "exceedance_prob", _one),
    ("binomial.coverage", "binomial", "coverage_report", None),
    ("binomial.sup", "binomial", "refined_grid_max", EVALS),
    ("binomial.sup", "binomial", "sup_false_positive", None),
    ("strategies.mixture_sup", "strategies", "mixture_actual_fp", None),
    ("strategies.mixture_point", "strategies", "mixture_fp_at", None),
    ("strategies.mixture", "strategies", "actual_fp_curve", None),
    ("strategies.mixture", "strategies", "fraud_mixture_fp", None),
    ("strategies.rct", "strategies", "_rct_tables", None),
    ("strategies.rct", "strategies", "_rct_control_weights", None),
    ("strategies.rct", "strategies", "rct_reject_prob", None),
    ("strategies.rct", "strategies", "rct_publish_and_clear_prob", None),
    ("strategies.calibration", "strategies", "calibrate_conditioning", None),
    ("simulate.mc", "simulate", "mc_estimate", _draws),
    ("simulate.enumerate", "simulate", "enumerate_outcomes", None),
    ("simulate.enumerate", "simulate:DiscreteDist", "binomial", None),
    ("simulate.enumerate", "simulate:DiscreteDist", "combine", None),
    ("simulate.enumerate", "simulate:DiscreteDist", "compress", None),
    ("researcher.world", "researcher", "researcher_world", _length),
    ("researcher.world", "researcher", "no_implementation_world", _length),
    ("researcher.pool", "researcher", "pool_expected_utility", _outcomes),
    ("researcher.checks", "researcher", "participation_check", None),
    ("researcher.checks", "researcher", "publication_rate_conditions", None),
    ("researcher.checks", "researcher", "expected_utility", None),
    ("economics", "economics:PolicyEconomics", "expected_benefit", None),
    ("economics", "economics:PolicyEconomics", "expected_net", None),
    ("economics", "economics:PolicyEconomics", "net_outcome", None),
    ("economics", "economics:PolicyEconomics", "break_even_success_rate", None),
    ("economics", "economics:PolicyEconomics", "max_scale_under_bound", None),
    ("economics", "economics:PolicyEconomics", "single_crossing_report", None),
    ("contracts", "contracts", "implementer_payoff", None),
    ("contracts", "contracts", "researcher_payment", None),
    ("contracts", "contracts", "minimal_insurance", None),
    ("decisions", "decisions", "decide_no_guarantee", None),
    ("decisions", "decisions", "decide_with_contract", None),
    ("decisions", "decisions", "worst_case_bound", None),
    ("config.load", "config", "load_scenario", None),
    ("cli", "cli", "main", None),
    ("reproduce", "reproduce", "evaluate_anchors", None),
]

# (metric, field of layer_totals, layers summed). Field "count" is the
# layer's unit of work, "calls" the number of spans.
METRICS = [
    ("binomial.cp_table.calls", "calls", ["binomial.cp_table"]),
    ("binomial.cp_table.rows", "count", ["binomial.cp_table"]),
    ("binomial.cp_table.self_s", "self_s", ["binomial.cp_table"]),
    ("binomial.pmf.calls", "calls", ["binomial.pmf"]),
    ("binomial.pmf.self_s", "self_s", ["binomial.pmf"]),
    ("binomial.coverage.points", "count", ["binomial.coverage"]),
    ("binomial.coverage.self_s", "self_s", ["binomial.coverage"]),
    ("binomial.sup.evals", "count", ["binomial.sup"]),
    ("binomial.sup.self_s", "self_s", ["binomial.sup"]),
    ("strategies.mixture_sup.calls", "calls", ["strategies.mixture_sup"]),
    ("strategies.mixture_point.calls", "calls", ["strategies.mixture_point"]),
    ("strategies.mixture.self_s", "self_s",
     ["strategies.mixture_sup", "strategies.mixture_point", "strategies.mixture"]),
    ("strategies.rct.self_s", "self_s", ["strategies.rct"]),
    ("strategies.calibration.calls", "calls", ["strategies.calibration"]),
    ("strategies.calibration.self_s", "self_s", ["strategies.calibration"]),
    ("simulate.mc.draws", "count", ["simulate.mc"]),
    ("simulate.mc.self_s", "self_s", ["simulate.mc"]),
    ("simulate.enumerate.self_s", "self_s", ["simulate.enumerate"]),
    ("researcher.world.calls", "calls", ["researcher.world"]),
    ("researcher.world.support", "count", ["researcher.world"]),
    ("researcher.world.self_s", "self_s", ["researcher.world"]),
    ("researcher.pool.outcomes", "count", ["researcher.pool"]),
    ("researcher.pool.self_s", "self_s", ["researcher.pool"]),
    ("researcher.checks.self_s", "self_s", ["researcher.checks"]),
    ("economics.self_s", "self_s", ["economics"]),
    ("contracts.self_s", "self_s", ["contracts"]),
    ("decisions.self_s", "self_s", ["decisions"]),
    ("config.load.self_s", "self_s", ["config.load"]),
    ("cli.self_s", "self_s", ["cli"]),
    ("reproduce.self_s", "self_s", ["reproduce"]),
]


class Tracer:
    """Records spans of wrapped guaranteesim calls in one process."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._stack = []

    def _enter(self, layer):
        index = len(self.spans)
        self.spans.append(
            [layer, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, 0])
        self._stack.append(index)
        return index

    def _exit(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, layer, fn, count):
        if count is EVALS:
            @functools.wraps(fn)
            def counting(f, *args, **kwargs):
                evals = 0

                def counted(*a, **kw):
                    nonlocal evals
                    evals += 1
                    return f(*a, **kw)

                index = self._enter(layer)
                try:
                    return fn(counted, *args, **kwargs)
                finally:
                    self._exit(index)
                    self.spans[index][4] = evals
            return counting

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            index = self._enter(layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(index)
            if count is not None:
                self.spans[index][4] = count(args, out)
            return out
        return spanned

    def install(self):
        """Wrap every target in every loaded module of the package."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for layer, owner, attr, count in TARGETS:
            modname, _, clsname = owner.partition(":")
            home = sys.modules.get(f"{PACKAGE}.{modname}")
            if clsname:
                cls = getattr(home, clsname, None)
                raw = getattr(cls, "__dict__", {}).get(attr)
                if raw is None:
                    self.missing.append(f"{owner}.{attr}")
                elif isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self.wrap(layer, raw.__func__, count)))
                else:
                    setattr(cls, attr, self.wrap(layer, raw, count))
                continue
            orig = getattr(home, attr, None)
            if orig is None:
                self.missing.append(f"{owner}.{attr}")
                continue
            wrapped = self.wrap(layer, orig, count)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, name, wrapped)
        return self


def layer_totals(span_lists) -> dict:
    """Per layer: number of spans, summed count and summed self time.

    span_lists holds one span list per command; parent indices refer to
    positions within the same list.
    """
    totals = {}
    for spans in span_lists:
        child_s = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
        for i, (layer, start, end, _, count) in enumerate(spans):
            t = totals.setdefault(layer, {"calls": 0, "count": 0, "self_s": 0.0})
            t["calls"] += 1
            t["count"] += count
            t["self_s"] += end - start - child_s[i]
    return totals


def layer_metrics(totals) -> dict:
    """The named per-layer metrics; a layer with no spans reads 0."""
    out = {}
    for name, field, layers in METRICS:
        out[name] = sum(totals.get(layer, {}).get(field, 0) for layer in layers)
    return out
