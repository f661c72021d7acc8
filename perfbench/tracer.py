"""Outside-in layer tracing for the traced benchmark run.

The program has no tracing of its own. ``Tracer.installed()`` wraps the
public entry points of each layer (module functions, class methods and the
task's model factory) and restores the originals on exit, so untraced runs in
the same process execute the unmodified program.

Calls with a few thousand instances per job (Spark collect, layout, true
evaluation, materialization, model/tree/metric fits, surrogate fit/predict,
diversification) record a span: name, phase, start, end and parent. The
cheapest, most frequent calls (operator generation, UPareto offers, CorrFP)
only add their time to a per-phase total and to the enclosing span's child
time, so that the enclosing span's self time stays exact without a span per
call. Spans are kept in memory and written out when the run ends.
"""
from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import repro.core.apx as apx_mod
import repro.core.bi as bi_mod
import repro.core.div as div_mod
import repro.core.runner as runner_mod
import repro.ml.metrics as metrics_mod
from repro.core.bi import CorrPruner
from repro.core.literals import UnitLayout
from repro.core.runner import ParetoTable, SearchContext
from repro.estimator.mogbm import MOGBMEstimator
from repro.ml.tree import RegressionTree
from repro.tasks import TabularTask

_clock = time.perf_counter

# Functions of repro.ml.metrics that TabularTask.evaluate calls.
METRIC_FUNCS = (
    "accuracy", "precision", "recall", "f1_score", "roc_auc", "mse", "mae",
    "rmse", "r2", "tolerance_accuracy", "fisher_score", "mutual_information",
)


class NullTracer:
    """Stands in for a Tracer in untraced runs: records nothing."""

    @contextmanager
    def phase(self, name):
        yield

    @contextmanager
    def span(self, name):
        yield


class Tracer(NullTracer):
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self.phase_name = "seed"
        self.time = defaultdict(float)  # (name, phase) -> seconds
        self.calls = defaultdict(int)  # (name, phase) -> count
        self.offered = defaultdict(set)  # phase -> {(bits, vec)}
        self.evaluated = defaultdict(list)  # phase -> bits true-evaluated
        self.pruned = 0
        self.est_hits = 0
        self.est_predicts = 0
        self._preds: dict = {}  # (id(ctx), bits) -> last predicted vector
        self.pairs: list[tuple[tuple, tuple]] = []  # (predicted, true)

    # -- recording -------------------------------------------------------
    @contextmanager
    def phase(self, name):
        prev, self.phase_name = self.phase_name, name
        try:
            yield
        finally:
            self.phase_name = prev

    @contextmanager
    def span(self, name):
        parent = self._stack[-1]["id"] if self._stack else None
        rec = {"id": len(self.spans), "name": name, "phase": self.phase_name,
               "start": _clock(), "end": None, "parent": parent,
               "child_s": 0.0}
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = _clock()
            self._stack.pop()
            self._account(name, rec["end"] - rec["start"])

    def _account(self, name: str, seconds: float) -> None:
        key = (name, self.phase_name)
        self.time[key] += seconds
        self.calls[key] += 1
        if self._stack:
            self._stack[-1]["child_s"] += seconds

    def _spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def _timed(self, name, fn):
        def wrapper(*args, **kwargs):
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._account(name, _clock() - t0)
        return wrapper

    def _timed_gen(self, name, gen_fn):
        """Time each step of a generator; the consumer may stop early."""
        def wrapper(*args, **kwargs):
            it = gen_fn(*args, **kwargs)
            while True:
                t0 = _clock()
                try:
                    item = next(it)
                except StopIteration:
                    self._account(name, _clock() - t0)
                    return
                self._account(name, _clock() - t0)
                yield item
        return wrapper

    def wrap_model_factory(self, factory):
        """Model M whose ``fit`` records an ``ml.fit`` span."""
        def traced_factory():
            model = factory()
            model.fit = self._spanned("ml.fit", model.fit)
            return model
        return traced_factory

    # -- the patch set -----------------------------------------------------
    def _patch_list(self):
        tr = self
        true_eval = SearchContext.true_eval
        valuate = SearchContext.valuate
        offer = ParetoTable.offer
        can_prune = CorrPruner.can_prune
        from_universal = vars(UnitLayout)["from_universal"].__func__

        def traced_true_eval(ctx, bits):
            if bits in ctx.tests:
                return true_eval(ctx, bits)
            pv = true_eval(ctx, bits)
            tr.evaluated[tr.phase_name].append(bits)
            pred = tr._preds.get((id(ctx), bits))
            if pred is not None:
                tr.pairs.append((pred, pv.vector(ctx.measures)))
            return pv

        def traced_valuate(ctx, bits):
            surrogate = (
                bits not in ctx.tests
                and ctx.estimator is not None
                and ctx.estimator.fitted
            )
            hit = surrogate and bits in ctx.est_cache
            vec = valuate(ctx, bits)
            if surrogate:
                if hit:
                    tr.est_hits += 1
                else:
                    tr.est_predicts += 1
                tr._preds[(id(ctx), bits)] = vec
            return vec

        def traced_offer(table, bits, vec):
            tr.offered[tr.phase_name].add((bits, tuple(vec)))
            return offer(table, bits, vec)

        def traced_can_prune(pruner, param, table, eps):
            out = can_prune(pruner, param, table, eps)
            tr.pruned += bool(out)
            return out

        patches = [
            (runner_mod, "collect_universal",
             self._spanned("universal.collect", runner_mod.collect_universal)),
            (UnitLayout, "from_universal",
             classmethod(self._spanned("literals.layout", from_universal))),
            (SearchContext, "true_eval", traced_true_eval),
            (TabularTask, "evaluate",
             self._spanned("tasks.evaluate", TabularTask.evaluate)),
            (SearchContext, "valuate", traced_valuate),
            (SearchContext, "materialize",
             self._spanned("state.materialize", SearchContext.materialize)),
            (RegressionTree, "fit",
             self._spanned("ml.tree_fit", RegressionTree.fit)),
            (MOGBMEstimator, "fit",
             self._spanned("estimator.fit", MOGBMEstimator.fit)),
            (MOGBMEstimator, "predict",
             self._spanned("estimator.predict", MOGBMEstimator.predict)),
            (ParetoTable, "offer", self._timed("runner.offer", traced_offer)),
            (CorrPruner, "corr_fp",
             self._timed("bi.corr_fp", CorrPruner.corr_fp)),
            (CorrPruner, "can_prune",
             self._timed("bi.can_prune", traced_can_prune)),
            (div_mod, "diversify",
             self._spanned("div.diversify", div_mod.diversify)),
        ]
        for mod in (apx_mod, bi_mod, runner_mod):
            patches.append((mod, "reduct_children", self._timed_gen(
                "operators.children", mod.reduct_children)))
        patches.append((bi_mod, "augment_children", self._timed_gen(
            "operators.children", bi_mod.augment_children)))
        for f in METRIC_FUNCS:
            patches.append(
                (metrics_mod, f, self._spanned("ml.metrics", getattr(metrics_mod, f)))
            )
        return patches

    @contextmanager
    def installed(self):
        """Wrap every layer entry point; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, new in self._patch_list():
                saved.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, old in reversed(saved):
                setattr(owner, attr, old)

    # -- summaries ---------------------------------------------------------
    def total(self, name: str, phases=None) -> float:
        return sum(v for (n, p), v in self.time.items()
                   if n == name and (phases is None or p in phases))

    def count(self, name: str, phases=None) -> int:
        return sum(v for (n, p), v in self.calls.items()
                   if n == name and (phases is None or p in phases))

    def self_time(self, name: str, phase: str) -> float:
        return sum(s["end"] - s["start"] - s["child_s"] for s in self.spans
                   if s["name"] == name and s["phase"] == phase)

    def span_records(self) -> list[dict]:
        """Spans with times relative to the first span, for writing out."""
        t0 = self.spans[0]["start"] if self.spans else 0.0
        return [
            {"id": s["id"], "name": s["name"], "phase": s["phase"],
             "parent": s["parent"], "start": s["start"] - t0,
             "end": s["end"] - t0,
             "self": s["end"] - s["start"] - s["child_s"]}
            for s in self.spans
        ]
