"""Universal-table construction and state materialization: the Spark
path, the pandas fast path, and the DuckDB SQL translation must agree
(the operators are SPJ-expressible, paper §3)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.literals import UnitLayout
from repro.core.state import (
    CLUSTER_PREFIX,
    annotate_clusters_spark,
    cluster_sql_condition,
    materialize_pandas,
    materialize_spark,
)
from repro.core.universal import build_universal, collect_universal
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def uni(spark, house_small):
    lake, task, _m = house_small
    pdf = collect_universal(lake)
    layout = UnitLayout.from_universal(
        pdf, protected=task.protected_cols(), max_k=8, seed=0
    )
    annotated = annotate_clusters_spark(spark, pdf, layout)
    return lake, task, pdf, layout, annotated


def test_universal_has_all_columns(spark, house_small):
    lake, _t, _m = house_small
    uni_df = build_universal(lake)
    cols = set(uni_df.columns)
    for t in lake.tables().values():
        assert set(t.columns) <= cols


def test_universal_outer_join_matches_duckdb(spark, house_small):
    """The Spark multi-way outer join equals the SQL outer join."""
    lake, _t, _m = house_small
    uni_df = build_universal(lake)
    names = list(lake.sources)
    sql = "SELECT * FROM base"
    for n in names:
        sql += f' FULL OUTER JOIN {n} USING ("key")'
    tables = {"base": lake.base, **lake.sources}
    assert_equivalent(uni_df, sql, **tables)


def test_universal_row_count_is_base_rows(spark, house_small):
    lake, _t, _m = house_small
    assert build_universal(lake).count() == lake.base.count()


def test_layout_units_consistent(uni):
    _l, task, pdf, layout, _a = uni
    assert set(layout.attrs) == set(pdf.columns) - task.protected_cols()
    seen = set()
    for a in layout.attrs:
        assert layout.col_unit[a] not in seen
        seen.add(layout.col_unit[a])
        for u in layout.val_units[a]:
            assert u not in seen
            seen.add(u)
    assert len(seen) == layout.n_units
    assert len(layout.unit_names) == layout.n_units


def test_layout_low_cardinality_gets_value_units(uni):
    _l, _t, pdf, layout, _a = uni
    assert layout.n_clusters("grp") == pdf["grp"].nunique()
    # continuous informative columns are presence-only
    cont = [a for a in layout.attrs if "info" in a]
    assert all(layout.n_clusters(a) == 0 for a in cont)


def test_full_bits_materializes_everything(uni):
    _l, task, pdf, layout, _a = uni
    out = materialize_pandas(pdf, layout, layout.full_bits(), keep=task.keep_cols())
    assert len(out) == len(pdf)
    assert set(out.columns) == set(pdf.columns)


def _random_bits(layout, rng):
    bits = list(layout.full_bits())
    for _ in range(rng.integers(1, 8)):
        i = rng.integers(0, layout.n_units)
        bits[i] = 0
    # repair invariant: cluster bits of absent columns are irrelevant but
    # materialization must not rely on them; leave as-is (both paths
    # ignore them identically).
    return tuple(bits)


@pytest.mark.parametrize("seed", range(8))
def test_pandas_equals_spark_materialization(uni, seed):
    lake, task, pdf, layout, annotated = uni
    rng = np.random.default_rng(seed)
    bits = _random_bits(layout, rng)
    got_pd = materialize_pandas(pdf, layout, bits, keep=task.keep_cols())
    got_sp = materialize_spark(
        annotated, layout, bits, keep=task.keep_cols()
    ).toPandas()
    a = got_pd.sort_values("key").reset_index(drop=True)
    b = got_sp.sort_values("key").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        a[sorted(a.columns)], b[sorted(b.columns)], check_dtype=False
    )


@pytest.mark.parametrize("seed", range(4))
def test_spark_materialization_matches_duckdb_sql(uni, seed):
    """Reduct semantics == SQL select/filter on the annotated table."""
    lake, task, pdf, layout, annotated = uni
    rng = np.random.default_rng(100 + seed)
    bits = _random_bits(layout, rng)
    cols = task.keep_cols() + layout.active_columns(bits)
    col_list = ", ".join(f'"{c}"' for c in cols)
    sql = (
        f"SELECT {col_list} FROM annotated "
        f"WHERE {cluster_sql_condition(layout, bits)}"
    )
    got = materialize_spark(annotated, layout, bits, keep=task.keep_cols())
    assert_equivalent(got, sql, annotated=annotated)


def test_row_mask_counts(uni):
    _l, _t, pdf, layout, _a = uni
    full = layout.full_bits()
    assert layout.approx_n_rows(full) == len(pdf)
    # dropping one grp cluster removes exactly that cluster's rows
    j = 0
    bits = list(full)
    bits[layout.val_units["grp"][j]] = 0
    lost = int((layout.row_clusters["grp"] == j).sum())
    assert layout.approx_n_rows(tuple(bits)) == len(pdf) - lost


def test_dropping_column_ignores_its_cluster_bits(uni):
    _l, task, pdf, layout, _a = uni
    bits = list(layout.full_bits())
    bits[layout.col_unit["grp"]] = 0
    for u in layout.val_units["grp"]:
        bits[u] = 0
    out = materialize_pandas(pdf, layout, tuple(bits), keep=task.keep_cols())
    assert len(out) == len(pdf)  # no row filtering from an absent column
    assert "grp" not in out.columns


def test_null_rows_survive_cluster_filters(spark):
    """Rows null in A are never excluded by literals on A."""
    pdf = pd.DataFrame(
        {
            "key": [1, 2, 3, 4],
            "target": [0, 1, 0, 1],
            "a": [1.0, 2.0, np.nan, 1.0],
        }
    )
    layout = UnitLayout.from_universal(
        pdf, protected={"key", "target"}, max_k=5, seed=0
    )
    bits = list(layout.full_bits())
    bits[layout.val_units["a"][1]] = 0  # remove cluster of value 2.0
    out = materialize_pandas(pdf, layout, tuple(bits), keep=["key", "target"])
    assert set(out["key"]) == {1, 3, 4}  # the null row (3) is retained


def test_annotated_has_cluster_columns(uni):
    _l, _t, _pdf, layout, annotated = uni
    for a in layout.attrs:
        if layout.val_units[a]:
            assert CLUSTER_PREFIX + a in annotated.columns


# -- the DuckDB oracle itself -------------------------------------------

_COUNT_SQL = "SELECT target, COUNT(*) AS n FROM base GROUP BY target"


def test_oracle_accepts_equivalent(house_small):
    base = house_small[0].base
    got = base.groupBy("target").count().withColumnRenamed("count", "n")
    assert_equivalent(got, _COUNT_SQL, base=base)


def test_oracle_rejects_wrong_result(house_small):
    base = house_small[0].base
    wrong = base.groupBy("target").count().withColumnRenamed("count", "n").limit(1)
    with pytest.raises(AssertionError):
        assert_equivalent(wrong, _COUNT_SQL, base=base)


def test_oracle_accepts_pandas_tables(spark, house_small):
    pdf = house_small[0].base.select("key", "target").toPandas()
    got = spark.createDataFrame(pdf).selectExpr("key", "target * 2 AS t2")
    assert_equivalent(got, "SELECT key, target * 2 AS t2 FROM t", t=pdf)
