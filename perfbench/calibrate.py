"""Measure the fit time of M on each workload's universal state.

    python3 perfbench/calibrate.py

Prints, per workload, the median fit time of model M on the training split
of the universal table, and the ``time_unit`` (seconds per row * column)
that would make the modelled ``p_Train`` equal to it. The benchmark keeps
the constants frozen in workloads.py; this script only shows where they came
from and lets a later change re-derive them on purpose.
"""
from __future__ import annotations

import statistics
import sys
import time

from run import prepare_environment, start_spark, stop_spark

REPEATS = 21


def main() -> int:
    prepare_environment()
    from repro.core.runner import SearchContext

    from workloads import WORKLOADS

    spark, _ = start_spark()
    try:
        for wl in WORKLOADS.values():
            lake, task, measures = wl.make_lake(spark)
            ctx = SearchContext.build(spark, lake, task, measures,
                                      max_k=wl.max_k, use_estimator=False)
            pdf = ctx.materialize(ctx.layout.full_bits())
            fits = []
            factory = task.model_factory

            def timed_factory():
                model = factory()
                fit = model.fit

                def timed_fit(X, y):
                    t0 = time.perf_counter()
                    out = fit(X, y)
                    fits.append((time.perf_counter() - t0, X.shape))
                    return out

                model.fit = timed_fit
                return model

            task.model_factory = timed_factory
            for _ in range(REPEATS):
                task.evaluate(pdf)
            fit_s = statistics.median(f for f, _ in fits)
            rows, cols = fits[0][1]
            unit = fit_s / (rows * max(1, cols))
            print(f"{wl.name}: fit {fit_s:.6f} s on {rows} x {cols}"
                  f" -> time_unit {unit:.3e} (frozen: {wl.time_unit:.3e})")
    finally:
        stop_spark(spark)
    return 0


if __name__ == "__main__":
    sys.exit(main())
