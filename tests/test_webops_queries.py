"""Smoke tests for the webops query surface (queries() entries for the
middleware kernels M8/M9/M10/M11/M13/M15 — rows-only driver checks)."""

from scrupyst_ray.pipelines import webops

SF = "/root/testdata/sf0.001"


class TestWebopsQueries:
    def test_sniff_types(self):
        t = webops.sniff_types(SF).take_all()
        assert len(t) > 0
        # robots rows resolve 'text' via the .txt extension; pages resolve
        # via the synthetic Content-Type header (cycling by n % 5) or fall
        # through to the body sniff (→ html)
        import re

        for r in t:
            if r["url"].endswith("/robots.txt"):
                assert r["kind"] == "text" and r["content_type"] is None
            else:
                n = int(re.search(r"n=(\d+)$", r["url"]).group(1))
                expect = ["html", "xml", "binary", "text", "html"][n % 5]
                assert r["kind"] == expect, r

    def test_decompress_roundtrip(self):
        t = webops.decompress_roundtrip(SF).take_all()
        assert len(t) > 0 and all(r["roundtrip_ok"] for r in t)

    def test_referer_edges(self):
        t = webops.referer_edges(SF).take_all()
        assert len(t) > 0
        r = t[0]
        # scrapy-default policy: full parent URL (http→http is not a
        # downgrade); strict-origin: origin only; no-referrer: never
        assert r["referer_scrapy_default"] == r["src"]
        assert r["referer_strict_origin"].endswith(".test/")
        assert r["referer_no_referrer"] is None
        assert r["referer_unsafe_url"] == r["src"]

    def test_referer_policy_matrix(self):
        t = webops.referer_policy_matrix(SF).take_all()
        assert len(t) == len(webops.REFERER_PARENTS) * len(webops.REFERER_CHILDREN)
        by_pair = {(r["parent"], r["child"]): r for r in t}
        # TLS downgrade: default policy withholds, unsafe-url leaks
        r = by_pair[("https://example.com/page?q=1#frag", "http://other.test/x")]
        assert r["referer_scrapy_default"] is None
        assert r["referer_unsafe_url"] == "https://example.com/page?q=1"
        assert r["referer_origin"] == "https://example.com/"
        # local-scheme parents never send under scrapy-default
        r = by_pair[("file:///tmp/local.html", "http://other.test/x")]
        assert r["referer_scrapy_default"] is None
        assert r["referer_no_referrer_when_downgrade"] == "file:///tmp/local.html"

    def test_sitemap_entries(self):
        t = webops.sitemap_entries(SF).take_all()
        assert len(t) > 0
        assert {r["kind"] for r in t} == {"urlset"}
        # gzipped and plain sitemaps both parsed
        srcs = {r["src"] for r in t}
        assert any(s.endswith(".xml.gz") for s in srcs)
        assert any(s.endswith(".xml") for s in srcs)

    def test_xmlfeed_nodes(self):
        t = webops.xmlfeed_nodes(SF).take_all()
        assert len(t) == 8 * 10  # _H hosts x ceil(_P/5) items
        r = t[0]
        assert r["node_xml"].startswith("<item>") and "page" in r["node_text"]

    def test_csvfeed_rows(self):
        t = webops.csvfeed_rows(SF).take_all()
        assert len(t) == 8 * 10
        r = t[0]
        assert set(r) == {"src", "n", "url", "title"}
        assert ", page " in r["title"]  # quoted field with embedded comma

    def test_followup_frontier(self):
        t = webops.followup_frontier(SF).take_all()
        assert len(t) > 0
        retries = [r for r in t if r["retry_times"] > 0]
        redirects = [r for r in t if r["redirect_times"] > 0]
        assert retries and redirects
        assert all(r["dont_filter"] for r in retries)
        # status redirects land on /moved, meta-refresh redirects on /refreshed
        assert all(
            "/moved?" in r["url"] or "/refreshed?" in r["url"] for r in redirects
        )
        assert any("/refreshed?" in r["url"] for r in redirects)


def test_crawl_resume_equivalence_query(ray_session):
    """The driver-visible kill-resume gate (round-5 form): the killed+
    resumed flagship crawl's order rows must be IDENTICAL to the Python
    crawl simulation's prediction for an uninterrupted 5-round run — the
    same independence the DuckDB ``_crawl_bfo_oracle`` enforces driver-side
    (any checkpoint/restore divergence shows up as a row diff here)."""
    import os

    import pyarrow.parquet as pq

    from scrupyst_ray.config import CrawlConfig
    from scrupyst_ray.pipelines.webops import crawl_resume_equivalence
    from scrupyst_ray.sources.corpus import corpus_cache_dir
    from tests.crawl_sim import load_pages_dict, simulate_crawl

    t = crawl_resume_equivalence("/root/testdata/sf0.001")
    got = list(zip(t["round"].to_pylist(), t["url"].to_pylist()))

    corpus = corpus_cache_dir(8, 50)  # written by the query above
    seeds = (
        pq.read_table(os.path.join(corpus, "seeds.parquet"))
        .sort_by("seq")["url"]
        .to_pylist()
    )
    sim = simulate_crawl(
        load_pages_dict(corpus), seeds, CrawlConfig(), max_rounds=5
    )
    assert len(got) > 0 and sorted(got) == sorted(sim.fetch_order)
