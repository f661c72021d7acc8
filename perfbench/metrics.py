"""Metric names, units, and their computation from jobs and traces.

End-to-end metrics come from untraced jobs; per-layer metrics from traced
jobs. Each run repeats the job and reports the median over its repetitions.
"""
from __future__ import annotations

import statistics

from repro.core.dominance import eps_dominates

from job import METHODS
from reference import REF_S

M = tuple(METHODS)  # method suffixes: apx, bi, nobi, div
PHASES = ("seed",) + M + ("select",)

END_TO_END = (
    [("setup_s", "s")]
    + [(f"search_s.{m}", "s") for m in M]
    + [("select_s", "s"), ("job_s", "s")]
    + [(f"quality.{m}", "1") for m in M]
    + [("peak_rss_mb", "MB")]
)

PER_LAYER = (
    [("spark.start_s", "s"), ("lake.generate_s", "s"),
     ("universal.collect_s", "s"), ("literals.layout_s", "s")]
    + [("tasks.evaluate_s", "s")]
    + [(f"tasks.evaluate_s.{p}", "s") for p in PHASES]
    + [("tasks.evaluate_n", "count")]
    + [(f"tasks.evaluate_n.{p}", "count") for p in PHASES]
    + [("tasks.eval_useful_ratio", "ratio")]
    + [(f"tasks.eval_useful_ratio.{m}", "ratio") for m in M]
    + [("ml.fit_s", "s"), ("ml.fit_n", "count"), ("ml.tree_fit_s", "s"),
       ("ml.tree_fit_n", "count"), ("ml.metrics_s", "s")]
    + [("state.materialize_s", "s"), ("state.materialize_n", "count")]
    + [("estimator.fit_s", "s"), ("estimator.fit_n", "count"),
       ("estimator.predict_s", "s"), ("estimator.predict_n", "count"),
       ("estimator.fit_s.seed", "s"), ("estimator.fit_n.seed", "count")]
    + [(f"estimator.fit_s.{m}", "s") for m in M]
    + [(f"estimator.predict_s.{m}", "s") for m in M]
    + [("estimator.cache_hit_ratio", "ratio"), ("estimator.mse", "1"),
       ("estimator.mse_n", "count")]
    + [(f"operators.children_s.{m}", "s") for m in M]
    + [(f"runner.offer_s.{m}", "s") for m in M]
    + [("bi.corr_fp_s", "s"), ("bi.corr_fp_n", "count"),
       ("bi.pruned_n", "count"), ("bi.prune_ratio", "ratio"),
       ("div.diversify_s", "s")]
    + [(f"core.search_self_s.{m}", "s") for m in M]
    + [(f"core.spawned_n.{m}", "count") for m in M]
    + [(f"core.skyline_n.{m}", "count") for m in M]
    + [(f"core.offered_n.{m}", "count") for m in M]
    + [(f"core.eps_uncovered_n.{m}", "count") for m in M]
    + [("trace.job_s", "s"), ("trace.overhead_s", "s")]
)

# Counts that must repeat exactly across the jobs of one run (fixed work).
TRACED_COUNTS = (
    [f"tasks.evaluate_n.{p}" for p in PHASES]
    + ["estimator.fit_n", "estimator.predict_n", "bi.pruned_n"]
    + [f"core.spawned_n.{m}" for m in M]
)


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def normalized_times(job) -> dict:
    """A job's phase times scaled to the reference kernel's nominal speed
    (reference.py); ``job_s`` is the sum of the scaled phases."""
    out = {k: v * REF_S / job.ref[k] for k, v in job.times.items() if k in job.ref}
    out["job_s"] = sum(out.values())
    return out


def end_to_end(jobs, peak_rss_mb: float, *, normalize: bool = True) -> dict:
    """Median over jobs of each end-to-end time and quality."""
    times = [normalized_times(j) if normalize else j.times for j in jobs]
    out = {}
    for name, _unit in END_TO_END:
        if name == "peak_rss_mb":
            out[name] = peak_rss_mb
        elif name.startswith("quality."):
            out[name] = median(j.quality[name[8:]] for j in jobs
                               if name[8:] in j.quality)
        else:
            out[name] = median(t[name] for t in times if name in t)
    return out


def uncovered(offered, skyline, eps: float) -> int:
    """Offered states that no final skyline entry ε-dominates (Lemma 2)."""
    return sum(
        1 for bits, vec in offered
        if not any(sb == bits or eps_dominates(sv, vec, eps)
                   for sb, sv in skyline)
    )


def per_layer(tr, job, eps: float) -> dict:
    """Per-layer metrics of one traced job."""
    v: dict[str, float] = {}
    search = set(M)
    v["lake.generate_s"] = tr.total("lake.generate")
    v["universal.collect_s"] = tr.total("universal.collect")
    v["literals.layout_s"] = tr.total("literals.layout")
    v["tasks.evaluate_s"] = tr.total("tasks.evaluate")
    v["tasks.evaluate_n"] = tr.count("tasks.evaluate")
    for p in PHASES:
        v[f"tasks.evaluate_s.{p}"] = tr.total("tasks.evaluate", {p})
        v[f"tasks.evaluate_n.{p}"] = tr.count("tasks.evaluate", {p})

    sky_bits = {m: {b for b, _ in job.skylines.get(m, [])} for m in M}
    all_sky = set().union(*sky_bits.values())
    useful = total = 0
    for p in ("seed",) + M:
        evals = tr.evaluated[p]
        hits = sum(1 for b in evals if b in (all_sky if p == "seed" else sky_bits[p]))
        if p != "seed":
            v[f"tasks.eval_useful_ratio.{p}"] = hits / len(evals) if evals else 0.0
        useful += sum(1 for b in evals if b in all_sky)
        total += len(evals)
    v["tasks.eval_useful_ratio"] = useful / total if total else 0.0

    v["ml.fit_s"] = tr.total("ml.fit")
    v["ml.fit_n"] = tr.count("ml.fit")
    v["ml.tree_fit_s"] = tr.total("ml.tree_fit")
    v["ml.tree_fit_n"] = tr.count("ml.tree_fit")
    v["ml.metrics_s"] = tr.total("ml.metrics")
    v["state.materialize_s"] = tr.total("state.materialize")
    v["state.materialize_n"] = tr.count("state.materialize")

    v["estimator.fit_s"] = tr.total("estimator.fit", search)
    v["estimator.fit_n"] = tr.count("estimator.fit", search)
    v["estimator.predict_s"] = tr.total("estimator.predict", search)
    v["estimator.predict_n"] = tr.count("estimator.predict", search)
    v["estimator.fit_s.seed"] = tr.total("estimator.fit", {"seed"})
    v["estimator.fit_n.seed"] = tr.count("estimator.fit", {"seed"})
    for m in M:
        v[f"estimator.fit_s.{m}"] = tr.total("estimator.fit", {m})
        v[f"estimator.predict_s.{m}"] = tr.total("estimator.predict", {m})
    lookups = tr.est_hits + tr.est_predicts
    v["estimator.cache_hit_ratio"] = tr.est_hits / lookups if lookups else 0.0
    sq = [(a - b) ** 2 for pred, true in tr.pairs for a, b in zip(pred, true)]
    v["estimator.mse"] = sum(sq) / len(sq) if sq else 0.0
    v["estimator.mse_n"] = len(tr.pairs)

    for m in M:
        v[f"operators.children_s.{m}"] = tr.total("operators.children", {m})
        v[f"runner.offer_s.{m}"] = tr.total("runner.offer", {m})
        v[f"core.search_self_s.{m}"] = tr.self_time("search", m)
        v[f"core.spawned_n.{m}"] = job.counts.get(f"core.spawned_n.{m}", 0)
        v[f"core.skyline_n.{m}"] = len(job.skylines.get(m, []))
        v[f"core.offered_n.{m}"] = len(tr.offered[m])
        v[f"core.eps_uncovered_n.{m}"] = uncovered(
            tr.offered[m], job.skylines.get(m, []), eps)
    v["bi.corr_fp_s"] = tr.total("bi.corr_fp", {"bi"}) + tr.total("bi.can_prune", {"bi"})
    v["bi.corr_fp_n"] = tr.count("bi.corr_fp", {"bi"})
    v["bi.pruned_n"] = tr.pruned
    v["bi.prune_ratio"] = tr.pruned / v["bi.corr_fp_n"] if v["bi.corr_fp_n"] else 0.0
    v["div.diversify_s"] = tr.total("div.diversify", {"div"})
    return v


def per_measure_mse(tr, measure_names) -> dict:
    """Surrogate error per measure, over predicted-then-evaluated states."""
    out = {}
    for j, name in enumerate(measure_names):
        sq = [(pred[j] - true[j]) ** 2 for pred, true in tr.pairs]
        out[name] = sum(sq) / len(sq) if sq else 0.0
    return out
