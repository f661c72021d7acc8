"""The benchmark's fixed-work workloads.

Every workload freezes its inputs: the lake (default generator seed), the
search parameters, search seed 0 and the training-time cost model
``TabularTask.time_unit``. With the cost model fixed, ``p_Train`` no longer
depends on how fast a fit ran, so a faster program visits exactly the same
states and is measured on the same work. ``time_unit`` was chosen so that the
modelled ``p_Train`` of the universal state is close to its measured fit time
on a 4-core x86-64 box (``python3 perfbench/calibrate.py`` re-measures it).

Sizes are far below the paper's (scale 1.0, N = 400) so that one run of at
most 45 s holds several jobs.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from repro.lake.tasks import avocado_lake, house_lake
from repro.ml import RandomForestClassifier

LAKES = {"house": house_lake, "avocado": avocado_lake}


def small_forest() -> RandomForestClassifier:
    """T2's random forest with fewer trees, so a job fits in one run."""
    return RandomForestClassifier(n_estimators=4, max_depth=8, seed=7)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    lake: str  # key of LAKES
    scale: float
    model: str  # what M is, for the record
    use_estimator: bool
    select_key: str  # raw measure the selection rule ranks by
    maximize: bool
    time_unit: float  # frozen p_Train cost model, seconds per (row * column)
    model_factory: object = None  # replaces the lake's M when set
    max_k: int = 12
    n_seed: int = 12
    N: int = 400
    eps: float = 0.1
    max_level: int = 6
    search_seed: int = 0

    def make_lake(self, spark):
        """(lake, task, measures) with this workload's M and cost model."""
        lake, task, measures = LAKES[self.lake](spark, scale=self.scale)
        if self.model_factory is not None:
            task.model_factory = self.model_factory
        task.time_unit = self.time_unit
        return lake, task, measures

    def search_kw(self) -> dict:
        return {"N": self.N, "eps": self.eps, "max_level": self.max_level}

    def toy(self) -> "Workload":
        """A tiny version of the same job, for the smoke run."""
        return replace(self, scale=0.05, N=24, max_level=2, n_seed=2, max_k=4)


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="t2_rf",
            why=(
                "tree code dominates: random-forest true evaluation is most "
                "of the job and MO-GBM surrogate refits most of each search"
            ),
            lake="house",
            scale=0.2,
            model="RandomForestClassifier(n_estimators=4, max_depth=8, seed=7)",
            model_factory=small_forest,
            use_estimator=True,
            select_key="f1",
            maximize=True,
            time_unit=2.4e-5,
            max_k=6,
            n_seed=2,
            N=60,
        ),
        Workload(
            name="t3_exact",
            why=(
                "linear model, no surrogate: no tree code runs and every "
                "spawned state is true-evaluated"
            ),
            lake="avocado",
            scale=0.1,
            model="LinearRegression(l2=1e-4)",
            use_estimator=False,
            select_key="mse",
            maximize=False,
            time_unit=3.0e-8,
            max_k=6,
            N=60,
        ),
    ]
}
