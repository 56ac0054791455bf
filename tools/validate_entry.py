"""Local driver-simulator: run every queries() entry at an sf dir and
compare against oracle_sql() via DuckDB (row count, column names, and an
order-insensitive value hash with columns sorted by name) — the same checks
the graft driver applies.  Usage:

    python tools/validate_entry.py [sf_dir] [query ...]
"""

from __future__ import annotations

import hashlib
import os
import sys
import time

import duckdb
import pandas as pd

# the checkout this file belongs to: its __ray_entry__ is the one validated
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def to_pandas(obj) -> pd.DataFrame:
    import pyarrow as pa

    try:
        import ray.data

        if isinstance(obj, ray.data.Dataset):
            return obj.to_pandas()
    except ImportError:
        pass
    if isinstance(obj, pa.Table):
        return obj.to_pandas()
    return obj


def value_hash(df: pd.DataFrame) -> str:
    df = df[sorted(df.columns)]
    rows = sorted(df.astype(str).itertuples(index=False, name=None))
    return hashlib.md5(repr(rows).encode()).hexdigest()[:12]


def load_entry():
    """This checkout's ``__ray_entry__`` module, whatever the cwd."""
    sys.path.insert(0, ROOT)
    import __ray_entry__

    return __ray_entry__


def main() -> None:
    import ray

    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")
    e = load_entry()

    con = duckdb.connect()
    for t in (
        "region nation customer supplier part orders lineitem events "
        "documents embeddings"
    ).split():
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )

    qs = e.queries()
    oracles = e.oracle_sql()
    n_pass = n_fail = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            ours = to_pandas(fn(sf_dir))
        except Exception as ex:
            print(f"FAIL {name}: query raised {type(ex).__name__}: {ex}")
            n_fail += 1
            continue
        dt = time.time() - t0
        sql = oracles.get(name)
        if sql is None:
            print(f"ok   {name}: rows={len(ours)} cols={list(ours.columns)} "
                  f"[rows-only] {dt:.1f}s")
            n_pass += 1
            continue
        theirs = con.execute(sql).fetchdf()
        problems = []
        if len(ours) != len(theirs):
            problems.append(f"rowcount {len(ours)} != {len(theirs)}")
        if sorted(ours.columns) != sorted(theirs.columns):
            problems.append(f"cols {sorted(ours.columns)} != {sorted(theirs.columns)}")
        if not problems and value_hash(ours) != value_hash(theirs):
            problems.append("value-hash mismatch")
            merged = ours.merge(
                theirs, how="outer", indicator=True,
                on=list(ours.columns),
            )
            diff = merged[merged["_merge"] != "both"]
            print(diff.head(10))
        if problems:
            print(f"FAIL {name}: {'; '.join(problems)}")
            n_fail += 1
        else:
            print(f"PASS {name}: rows={len(ours)} hash={value_hash(ours)} {dt:.1f}s")
            n_pass += 1
    print(f"\n{n_pass} pass, {n_fail} fail")
    sys.exit(1 if n_fail else 0)


if __name__ == "__main__":
    main()
