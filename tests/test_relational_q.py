"""Q6/Q14-shaped relational pipelines vs DuckDB on the sf0.001 tables
(the driver's oracle harness runs the same comparison at sf0.01)."""

from __future__ import annotations

import os

import duckdb
import pytest

SF = "/root/testdata/sf0.001"
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _con():
    con = duckdb.connect()
    for t in ("lineitem", "part"):
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')"
        )
    return con


@pytest.mark.usefixtures("ray_session")
class TestScanAggQueries:
    def test_q6_pushdown_filter_agg(self):
        from scrupyst_ray.pipelines.relational import q6_forecast_revenue

        got = q6_forecast_revenue(SF)["revenue"][0].as_py()
        want = _con().execute(
            """SELECT printf('%.2f', SUM(l_extendedprice * l_discount))
               FROM lineitem
               WHERE l_shipdate >= TIMESTAMP '1996-01-01'
                 AND l_shipdate < TIMESTAMP '1997-01-01'
                 AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24"""
        ).fetchone()[0]
        assert got == want

    def test_q14_promo_share(self):
        from scrupyst_ray.pipelines.relational import q14_promo_revenue

        got = q14_promo_revenue(SF)["promo_revenue"][0].as_py()
        want = _con().execute(
            """SELECT printf('%.4f',
                   100.0 * SUM(CASE WHEN p_type = 'PROMO'
                               THEN l_extendedprice * (1 - l_discount)
                               ELSE 0.0 END)
                   / SUM(l_extendedprice * (1 - l_discount)))
               FROM lineitem JOIN part ON l_partkey = p_partkey
               WHERE l_shipdate >= TIMESTAMP '1996-01-01'
                 AND l_shipdate < TIMESTAMP '1997-01-01'"""
        ).fetchone()[0]
        assert got == want
        assert 0.0 < float(got) < 100.0


@pytest.mark.usefixtures("ray_session")
class TestAntiJoinQuery:
    WANT_SQL = """
        SELECT c_custkey FROM read_parquet('{sf}/customer.parquet') c
        WHERE NOT EXISTS (
            SELECT 1 FROM read_parquet('{sf}/orders.parquet') o
            WHERE o.o_custkey = c.c_custkey AND o.o_totalprice > 300000)
        ORDER BY c_custkey"""

    def _want(self):
        return [
            r[0] for r in duckdb.sql(self.WANT_SQL.format(sf=SF)).fetchall()
        ]

    def test_matches_not_exists(self):
        from scrupyst_ray.pipelines.relational import (
            customers_without_big_orders,
        )

        got = [r["c_custkey"] for r in customers_without_big_orders(SF).take_all()]
        want = self._want()
        assert got == want and len(want) > 0

    def test_forced_distributed_path_matches_broadcast(self, monkeypatch):
        from scrupyst_ray.pipelines import joins
        from scrupyst_ray.pipelines.relational import (
            customers_without_big_orders,
        )

        monkeypatch.setattr(joins, "BROADCAST_MAX_ROWS", 0)
        got = [r["c_custkey"] for r in customers_without_big_orders(SF).take_all()]
        assert got == self._want()


@pytest.mark.usefixtures("ray_session")
class TestLeftOuterJoinQuery:
    def test_zero_count_customers_present(self):
        from scrupyst_ray.pipelines.relational import customer_big_order_counts

        got = customer_big_order_counts(SF).to_pandas()
        con = duckdb.connect()
        for t in ("customer", "orders"):
            con.execute(
                f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')"
            )
        want = con.execute(
            """SELECT c.c_custkey, c.c_mktsegment, COALESCE(o.n, 0) AS n
               FROM customer c
               LEFT JOIN (SELECT o_custkey, COUNT(*) n FROM orders
                          WHERE o_totalprice > 400000 GROUP BY 1) o
               ON c.c_custkey = o.o_custkey ORDER BY c.c_custkey"""
        ).fetchdf()
        assert got.c_custkey.tolist() == want.c_custkey.tolist()
        assert got.n_big_orders.tolist() == want.n.tolist()
        # the outer side must actually be exercised: some zeros, some not
        assert (got.n_big_orders == 0).any() and (got.n_big_orders > 0).any()


@pytest.mark.usefixtures("ray_session")
class TestSemiJoinQuery:
    def test_q4_counts_match_duckdb(self):
        from scrupyst_ray.pipelines.joins import collect_table
        from scrupyst_ray.pipelines.relational import q4_order_priority

        got = collect_table(q4_order_priority(SF))
        con = duckdb.connect()
        for t in ("orders", "lineitem"):
            con.execute(
                f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')"
            )
        want = con.execute(
            """SELECT o_orderpriority, COUNT(*) FROM orders
               WHERE o_orderdate >= TIMESTAMP '1997-01-01'
                 AND o_orderdate < TIMESTAMP '1997-04-01'
                 AND EXISTS (SELECT 1 FROM lineitem
                             WHERE l_orderkey = o_orderkey
                               AND l_discount > 0.05)
               GROUP BY 1 ORDER BY 1"""
        ).fetchall()
        assert list(
            zip(
                got["o_orderpriority"].to_pylist(),
                got["order_count"].to_pylist(),
            )
        ) == want
        # semi means each qualifying order counted ONCE despite multiple
        # matching lines
        total = sum(n for _, n in want)
        n_orders = con.execute(
            """SELECT COUNT(*) FROM orders
               WHERE o_orderdate >= TIMESTAMP '1997-01-01'
                 AND o_orderdate < TIMESTAMP '1997-04-01'"""
        ).fetchone()[0]
        assert total <= n_orders


@pytest.mark.usefixtures("ray_session")
class TestQ5Join:
    def test_local_supplier_revenue(self):
        from scrupyst_ray.pipelines.joins import collect_table
        from scrupyst_ray.pipelines.relational import q5_local_supplier_volume

        got = collect_table(q5_local_supplier_volume(SF))
        con = duckdb.connect()
        for t in (
            "lineitem",
            "orders",
            "customer",
            "supplier",
            "nation",
            "region",
        ):
            con.execute(
                f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')"
            )
        want = con.execute(
            """SELECT n.n_name,
                      printf('%.2f', SUM(l.l_extendedprice*(1-l.l_discount)))
               FROM lineitem l
               JOIN orders o ON l.l_orderkey = o.o_orderkey
               JOIN customer c ON o.o_custkey = c.c_custkey
               JOIN supplier s ON l.l_suppkey = s.s_suppkey
               JOIN nation n ON s.s_nationkey = n.n_nationkey
               JOIN region r ON n.n_regionkey = r.r_regionkey
               WHERE r.r_name = 'ASIA' AND c.c_nationkey = s.s_nationkey
                 AND o.o_orderdate >= TIMESTAMP '1997-01-01'
                 AND o.o_orderdate < TIMESTAMP '1998-01-01'
               GROUP BY 1 ORDER BY 1"""
        ).fetchall()
        assert list(
            zip(got["n_name"].to_pylist(), got["revenue"].to_pylist())
        ) == want


@pytest.mark.usefixtures("ray_session")
class TestTpchPatternQueries:
    """The Q7/Q9/Q10/Q12/Q18/Q21/Q22-shaped queries vs their DuckDB oracles
    at sf0.001 (q7's nation pair has NO suppliers at this scale, so it also
    regression-tests the empty-side short-circuit)."""

    NAMES = [
        "q7_volume_shipping",
        "q9_product_profit",
        "q10_returned_items",
        "q12_late_shipment_priority",
        "q18_large_volume_customers",
        "q21_waiting_suppliers",
        "q22_idle_rich_customers",
        # TPC-H completion set (Q2/Q11/Q16/Q20 re-grounded on lineitem —
        # the driver tables have no PARTSUPP; see each docstring)
        "q2_min_cost_supplier",
        "q8_market_share",
        "q11_important_parts",
        "q13_customer_distribution",
        "q15_top_supplier",
        "q16_part_supplier_counts",
        "q17_small_quantity_revenue",
        "q19_discounted_revenue",
        "q20_excess_suppliers",
    ]

    @pytest.mark.parametrize("name", NAMES)
    def test_matches_oracle(self, name):
        import sys

        sys.path.insert(0, REPO_ROOT)
        import __ray_entry__ as e

        ours = e.queries()[name](SF).to_pandas()
        con = duckdb.connect()
        for t in (
            "region nation customer supplier part orders lineitem events "
            "documents embeddings"
        ).split():
            con.execute(
                f"CREATE VIEW {t} AS SELECT * FROM "
                f"read_parquet('{SF}/{t}.parquet')"
            )
        theirs = con.execute(e.oracle_sql()[name]).fetchdf()
        assert len(ours) == len(theirs)
        assert sorted(ours.columns) == sorted(theirs.columns)
        a = sorted(ours[sorted(ours.columns)].astype(str).itertuples(index=False, name=None))
        b = sorted(theirs[sorted(theirs.columns)].astype(str).itertuples(index=False, name=None))
        assert a == b

    def test_q7_empty_pair_short_circuit(self):
        """A nation pair with no suppliers anywhere returns the typed empty
        table instead of feeding an all-empty side to the hash join."""
        from scrupyst_ray.pipelines.relational import q7_volume_shipping

        out = q7_volume_shipping(SF, n1=1, n2=2)
        import pyarrow as pa

        assert isinstance(out, pa.Table)
        assert out.num_rows == 0
        assert out.column_names == ["supp_nation", "cust_nation", "l_year", "revenue"]
