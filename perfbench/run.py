"""MODis table-job benchmark.

    python3 perfbench/run.py --workload t2_rf --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports the program from
``src/``. One closed loop: a single process runs one table job at a time
(see job.py) on a Spark ``local[4]`` session, repeating the job until
``--seconds`` have passed (at least ``MIN_JOBS`` times), and reports the
median of each metric over the repetitions.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced jobs and reports the per-layer metrics of the traced ones
(tracer.py), plus the tracing overhead. The workload's inputs are fixed
(workloads.py); ``--seed`` only shuffles the order in which the four searches
run within each job, which cannot change their results since each starts
from its own copy of the context.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full record of the
run (environment, every job, counts, skyline fingerprints, spans) is written
to ``.perfbench/`` in the checkout.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
SPARK_MASTER = "local[4]"
MIN_JOBS = 3  # untraced jobs per run at least (traced runs: one of each)
MAX_JOBS = 40
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def prepare_environment() -> None:
    """Point imports at the checkout's ``src`` and all scratch files into
    ``.perfbench/``; must run before pyspark or the program is imported."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"run.py: no program source at {ROOT / 'src' / 'repro'}")
    sys.path.insert(0, str(ROOT / "src"))
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    # No JVM that spark-submit starts may write /tmp/hsperfdata_<user>.
    os.environ["JAVA_TOOL_OPTIONS"] = "-XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        "--master", SPARK_MASTER, "--driver-memory", "1g",
        "--driver-java-options", shlex.quote(f"-Djava.io.tmpdir={tmp}"),
        "--conf", "spark.driver.host=127.0.0.1",
        "--conf", "spark.ui.enabled=false",
        "--conf", "spark.ui.showConsoleProgress=false",
        "pyspark-shell",
    ])


def start_spark():
    """The session the repo's jobs use (jobs/_session.py), on local[4]."""
    from pyspark.sql import SparkSession

    t0 = time.perf_counter()
    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", "32")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark, time.perf_counter() - t0


def stop_spark(spark) -> None:
    """Stop the session and wait until the JVM it started has exited."""
    from pyspark import SparkContext

    spark.stop()
    gateway = SparkContext._gateway
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(spark) -> dict:
    import numpy as np
    import pandas as pd
    import pyspark

    from workloads import WORKLOADS

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except Exception:  # older numpy without mode="dicts"
        blas = None
    sc = spark.sparkContext
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pandas": pd.__version__,
        "pyspark": pyspark.__version__,
        "spark_master": sc.master,
        "spark_default_parallelism": sc.defaultParallelism,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "blas": blas,
        "git_commit": git_commit(),
        "time_unit": {w.name: w.time_unit for w in WORKLOADS.values()},
    }


def fixed_work_errors(jobs, traced) -> list[str]:
    """Counts and skyline fingerprints must repeat exactly across jobs."""
    from metrics import TRACED_COUNTS

    errors = []

    def same(label, values):
        if len({json.dumps(v, sort_keys=True) for v in values}) > 1:
            errors.append(f"{label} differs across jobs: {values}")

    same("counts", [j.counts for j in jobs])
    same("fingerprints", [j.fingerprints for j in jobs])
    for name in TRACED_COUNTS:
        same(name, [layer.get(name) for layer in traced])
    return errors


def reason_checks(name: str, layer: dict, traced_jobs) -> dict:
    """The traced facts behind each workload's reason for being here."""
    from metrics import M, median

    job_s = layer["trace.job_s"]
    search_s = median(sum(j.times.get(f"search_s.{m}", 0.0) for m in M)
                      for j in traced_jobs)
    est = layer["estimator.fit_s"] + layer["estimator.predict_s"]
    return {
        "t2_rf": {"tasks.evaluate_s / job_s":
                  layer["tasks.evaluate_s"] / job_s if job_s else 0.0,
                  "estimator fit+predict / search_s":
                  est / search_s if search_s else 0.0},
        "t3_exact": {"ml.tree_fit_n": layer["ml.tree_fit_n"],
                     "estimator.predict_n": layer["estimator.predict_n"]},
    }.get(name, {})


def run_benchmark(spark, wl, *, seed: int, seconds: float, trace: bool,
                  spark_start_s: float = 0.0, min_jobs: int = MIN_JOBS) -> dict:
    """Repeat the job of workload ``wl`` for ``seconds``; return the record."""
    from repro.core.universal import collect_universal

    from job import METHODS, run_job
    from metrics import END_TO_END, PER_LAYER, end_to_end, median, per_layer
    from metrics import normalized_times, per_measure_mse
    from tracer import Tracer

    # Warm the JVM's join and collect path, and the imports, untimed.
    t0 = time.perf_counter()
    for _ in range(2):
        lake, _task, _measures = wl.make_lake(spark)
        collect_universal(lake)
    warmup_s = time.perf_counter() - t0

    rng = random.Random(seed)
    plain, traced, durations = [], [], []
    t_begin = time.perf_counter()
    while True:
        order = list(METHODS)
        rng.shuffle(order)
        gc.collect()
        t0 = time.perf_counter()
        if trace and len(plain) > len(traced):
            tr = Tracer()
            with tr.installed():
                job = run_job(spark, wl, order, tr)
            traced.append((job, tr))
        else:
            job = run_job(spark, wl, order)
            plain.append(job)
        durations.append(time.perf_counter() - t0)
        n = len(plain) + len(traced)
        enough = (len(traced) >= 1) if trace else (n >= min_jobs)
        next_s = max(durations[-2:])
        if n >= MAX_JOBS or (
            enough and time.perf_counter() - t_begin + next_s > seconds
        ):
            break

    jobs = plain + [j for j, _ in traced]
    layers = [per_layer(tr, j, wl.eps) for j, tr in traced]
    record = {
        "workload": {k: v for k, v in vars(wl).items() if k != "model_factory"},
        "seed": seed,
        "trace": int(trace),
        "warmup_s": warmup_s,
        "n_jobs": {"untraced": len(plain), "traced": len(traced)},
        "jobs": [
            {"traced": i >= len(plain), "order": j.order,
             "times": j.times, "ref": j.ref, "quality": j.quality,
             "counts": j.counts,
             "fingerprints": j.fingerprints, "errors": j.errors}
            for i, j in enumerate(jobs)
        ],
        "attempted": sum(j.attempted for j in jobs),
        "failed": sum(j.failed for j in jobs),
        "fixed_work_errors": fixed_work_errors(jobs, layers),
    }
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["end_to_end"] = end_to_end(plain, rss_mb)
    record["end_to_end_wall"] = end_to_end(plain, rss_mb, normalize=False)
    record["reference_kernel_s"] = median(v for j in jobs for v in j.ref.values())
    units = dict(END_TO_END)
    if trace:
        layer = {name: median(lay[name] for lay in layers)
                 for name in layers[0]}
        layer["trace.job_s"] = median(j.times.get("job_s", 0.0) for j, _ in traced)
        # At the reference speed, like job_s, so machine drift between the
        # traced and untraced jobs does not show as overhead.
        layer["trace.overhead_s"] = median(
            normalized_times(j)["job_s"] for j, _ in traced
        ) - record["end_to_end"]["job_s"]
        record["per_layer"] = layer
        layer["spark.start_s"] = spark_start_s
        record["estimator_mse_per_measure"] = per_measure_mse(
            traced[-1][1], traced[-1][0].measures)
        record["reason_checks"] = reason_checks(wl.name, layer, [j for j, _ in traced])
        record["spans"] = traced[-1][1].span_records()
        units = dict(PER_LAYER)
    values = record["per_layer"] if trace else record["end_to_end"]
    record["contract"] = {
        "correct": record["failed"] == 0 and not record["fixed_work_errors"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    prepare_environment()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    spark, spark_start_s = start_spark()
    try:
        record = run_benchmark(
            spark, wl, seed=args.seed, seconds=args.seconds,
            trace=bool(args.trace), spark_start_s=spark_start_s,
        )
        record["environment"] = environment(spark)
    finally:
        stop_spark(spark)

    name = f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, default=str))
    print(f"workload {wl.name}: {wl.why}")
    print(f"jobs {record['n_jobs']}, record in {OUT.relative_to(ROOT) / name}")
    for err in record["fixed_work_errors"] + [
        e for j in record["jobs"] for e in j["errors"]
    ]:
        print("ERROR", err)
    for fact, value in record.get("reason_checks", {}).items():
        print(f"reason check {fact}: {value}")
    print(json.dumps(record["contract"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
