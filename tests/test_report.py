"""Curation funnel + host coverage report (pipelines/report.py)."""

import hashlib
from collections import Counter

import pyarrow.parquet as pq

from scrupyst_ray.functions.textstats import ws_tokens
from scrupyst_ray.pipelines.report import curation_funnel, host_page_stats

SF = "/root/testdata/sf0.001"


def _repetition_row(toks: list[str], n: int) -> tuple[float, float]:
    """(dup_frac, top_frac) of one document's word n-grams: the share of
    n-gram occurrences whose gram occurs more than once, and the most
    frequent gram's share; both 0.0 with fewer than n tokens."""
    total = len(toks) - n + 1
    if total <= 0:
        return 0.0, 0.0
    counts = Counter(" ".join(toks[i : i + n]) for i in range(total))
    dup_occ = sum(c for c in counts.values() if c > 1)
    return dup_occ / total, max(counts.values()) / total


class TestCurationFunnel:
    def test_matches_local_recompute(self, ray_session):
        out = curation_funnel(SF)
        got = dict(
            zip(out["stage"].to_pylist(), out["n_docs"].to_pylist())
        )

        t = pq.read_table(SF + "/documents.parquet")
        n0 = n1 = n2 = n3 = 0
        digests = set()
        for txt, nch in zip(
            t["text"].to_pylist(), t["n_chars"].to_pylist()
        ):
            n0 += 1
            toks = ws_tokens(txt)
            if len(toks) < 15:
                continue
            n1 += 1
            d2, t2 = _repetition_row(toks, 2)
            if d2 > 0.15 or t2 > 0.10:
                continue
            n2 += 1
            alpha = sum(c.isascii() and c.isalpha() for c in txt)
            if nch < 100 or len(txt) == 0 or alpha / len(txt) <= 0.5:
                continue
            n3 += 1
            digests.add(hashlib.md5(txt.encode("utf-8")).hexdigest())
        assert got == {
            "0_total": n0,
            "1_min_tokens": n1,
            "2_gopher_repetition": n2,
            "3_quality": n3,
            "4_distinct_text": len(digests),
        }

    def test_monotone_nonincreasing(self, ray_session):
        out = curation_funnel(SF)
        ns = out["n_docs"].to_pylist()
        assert ns == sorted(ns, reverse=True) or ns[:4] == sorted(
            ns[:4], reverse=True
        )
        # distinct count can't exceed its survivor pool
        assert ns[4] <= ns[3]


class TestHostPageStats:
    def test_shape_and_totals(self, ray_session):
        from scrupyst_ray.pipelines.joins import collect_table

        out = collect_table(host_page_stats(SF))
        hosts = out["host"].to_pylist()
        assert len(hosts) == len(set(hosts)) and hosts == sorted(hosts)
        assert all(h.endswith(".test") for h in hosts)
        assert all(n > 0 for n in out["n_pages"].to_pylist())
        for f, l in zip(
            out["first_ts"].to_pylist(), out["last_ts"].to_pylist()
        ):
            assert f <= l
