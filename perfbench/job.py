"""One MODis table job, timed phase by phase, with its output checks.

A job is: lake generation -> Spark D_U join + collect -> SearchContext.build
(unit layout + estimator seeding) -> each of ApxMODis / BiMODis / NOBiMODis /
DivMODis -> true evaluation of each skyline to select one table.

Each method runs from its own deep copy of the context built once per job,
so the test cache T and estimator E are identical at the start of every
method; copying is not timed. Operations are the build, each search and each
selection; an operation fails when it raises or when its output check fails,
and a failure does not stop the other operations of the job.
"""
from __future__ import annotations

import copy
import gc
import hashlib
import math
import time
import traceback
from dataclasses import dataclass, field

from repro.core.runner import SearchContext
from repro.experiments.common import MODIS_ALGOS

from reference import kernel_seconds
from tracer import NullTracer

METHODS = {
    "apx": MODIS_ALGOS["ApxMODis"],
    "bi": MODIS_ALGOS["BiMODis"],
    "nobi": MODIS_ALGOS["NOBiMODis"],
    "div": MODIS_ALGOS["DivMODis"],
}


@dataclass
class JobResult:
    times: dict = field(default_factory=dict)  # end-to-end wall seconds
    ref: dict = field(default_factory=dict)  # phase -> reference kernel s
    quality: dict = field(default_factory=dict)  # method -> minimized measure
    counts: dict = field(default_factory=dict)  # fixed-work counts
    fingerprints: dict = field(default_factory=dict)  # method -> skyline hash
    skylines: dict = field(default_factory=dict)  # method -> [(bits, vec)]
    order: list = field(default_factory=list)  # order the searches ran in
    measures: list = field(default_factory=list)  # measure names of P
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def fail(self, op: str, why: str) -> None:
        self.failed += 1
        self.errors.append(f"{op}: {why}")


def fingerprint(skyline) -> str:
    """Hash of the sorted skyline bits and vectors rounded to 1e-6."""
    items = sorted((bits, tuple(round(v, 6) for v in vec)) for bits, vec in skyline)
    return hashlib.sha256(repr(items).encode()).hexdigest()[:16]


def _dominates(u, v) -> bool:
    return all(a <= b for a, b in zip(u, v)) and any(a < b for a, b in zip(u, v))


def check_skyline(skyline) -> str | None:
    """Non-empty, pairwise non-dominated, every value finite in (0, 1]."""
    if not skyline:
        return "empty skyline"
    for bits, vec in skyline:
        if not all(math.isfinite(x) and 0.0 < x <= 1.0 for x in vec):
            return f"vector outside (0, 1]: {vec}"
    vecs = [vec for _, vec in skyline]
    for i, u in enumerate(vecs):
        for j, v in enumerate(vecs):
            if i != j and _dominates(u, v):
                return f"entry {i} dominates entry {j}"
    return None


def select(ctx: SearchContext, skyline, select_key: str, maximize: bool):
    """The paper's selection rule: materialize and train M on every skyline
    table ("model inference on all the output tables", not the search's
    cache of T), keep the one with the best raw ``select_key``."""
    best = None
    for bits, _vec in skyline:
        pdf = ctx.materialize(bits)
        raw = ctx.task.evaluate(pdf)
        if best is not None:
            a, b = raw[select_key], best[0][select_key]
            if not ((a > b) if maximize else (a < b)):
                continue
        best = raw, pdf
    return best


def check_selected(ctx: SearchContext, raw, pdf) -> str | None:
    """The table has key and target columns, rows, and finite raw measures."""
    missing = [c for c in ctx.task.keep_cols() if c not in pdf.columns]
    if missing:
        return f"selected table lacks {missing}"
    if len(pdf) == 0:
        return "selected table is empty"
    bad = {k: v for k, v in raw.items() if not math.isfinite(v)}
    return f"non-finite raw measures {bad}" if bad else None


def run_job(spark, wl, order, tracer=None) -> JobResult:
    """Run the whole job once; ``order`` is the order of the four searches.

    The reference kernel runs (untimed) before and after every phase; each
    phase records the mean of the two kernel times around it.
    """
    tr = tracer or NullTracer()
    out = JobResult(order=list(order))
    clock = time.perf_counter
    last_ref = kernel_seconds()

    def close_phase(name: str) -> None:
        nonlocal last_ref
        gc.collect()  # garbage of this phase is not charged to the next
        now = kernel_seconds()
        out.ref[name] = (last_ref + now) / 2
        last_ref = now

    t_job = clock()
    out.attempted += 1
    try:
        with tr.phase("seed"), tr.span("setup"):
            with tr.span("lake.generate"):
                lake, task, measures = wl.make_lake(spark)
            if tracer is not None:
                task.model_factory = tracer.wrap_model_factory(task.model_factory)
            with tr.span("core.build"):
                ctx = SearchContext.build(
                    spark, lake, task, measures,
                    max_k=wl.max_k, use_estimator=wl.use_estimator,
                    n_seed=wl.n_seed, seed=wl.search_seed,
                )
    except Exception:
        out.fail("build", traceback.format_exc(limit=3))
        out.attempted += 2 * len(METHODS)
        out.failed += 2 * len(METHODS)
        return out
    out.times["setup_s"] = clock() - t_job
    close_phase("setup_s")
    out.counts["tasks.evaluate_n.seed"] = len(ctx.tests)
    out.measures = [m.name for m in measures]
    measure = next(m for m in measures if m.raw_key == wl.select_key)

    searched = {}
    for m in order:
        c = copy.deepcopy(ctx)
        n0 = len(c.tests)
        out.attempted += 1
        with tr.phase(m):
            t0 = clock()
            try:
                with tr.span("search"):
                    res = METHODS[m](c, wl.search_kw())
            except Exception:
                out.fail(f"search.{m}", traceback.format_exc(limit=3))
                continue
            out.times[f"search_s.{m}"] = clock() - t0
        close_phase(f"search_s.{m}")
        out.counts[f"tasks.evaluate_n.{m}"] = len(c.tests) - n0
        out.counts[f"core.spawned_n.{m}"] = res.n_spawned
        out.skylines[m] = res.skyline
        out.fingerprints[m] = fingerprint(res.skyline)
        why = check_skyline(res.skyline)
        if why:
            out.fail(f"search.{m}", why)
        else:
            searched[m] = c

    select_s = 0.0
    for m in order:
        out.attempted += 1
        c = searched.get(m)
        if c is None:
            out.fail(f"select.{m}", "no valid skyline to select from")
            continue
        with tr.phase("select"):
            t0 = clock()
            try:
                with tr.span("select"):
                    raw, pdf = select(c, out.skylines[m], wl.select_key, wl.maximize)
            except Exception:
                out.fail(f"select.{m}", traceback.format_exc(limit=3))
                continue
            select_s += clock() - t0
        why = check_selected(c, raw, pdf)
        if why:
            out.fail(f"select.{m}", why)
            continue
        out.quality[m] = measure.normalize(raw[wl.select_key])
    out.counts["tasks.evaluate_n.select"] = sum(map(len, out.skylines.values()))
    out.times["select_s"] = select_s
    close_phase("select_s")
    out.times["job_s"] = (
        out.times["setup_s"]
        + sum(out.times.get(f"search_s.{m}", 0.0) for m in METHODS)
        + select_s
    )
    return out
