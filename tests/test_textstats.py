"""Unit tests for text-analysis kernels (token counts, quality, lang-ID,
rolling-hash fingerprints)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from scrupyst_ray.functions.textstats import (
    bpe_token_count,
    detect_language,
    doc_fingerprint,
    quality_features,
    quality_score,
    rolling_fingerprints,
    whitespace_token_counts,
)


class TestTokens:
    def test_whitespace_counts_vectorized(self):
        arr = pa.array(["one two three", "", "  a  b ", "x"])
        assert whitespace_token_counts(arr).to_pylist() == [3, 0, 2, 1]

    def test_bpe_counts(self):
        assert bpe_token_count("hello world") == 2
        assert bpe_token_count("don't stop") == 3  # don + 't + stop
        assert bpe_token_count("a1b2") == 4
        assert bpe_token_count("") == 0
        assert bpe_token_count("...") == 1


class TestQuality:
    def test_features(self):
        n, mean_len, alpha, punct, stop = quality_features("the cat sat on the mat")
        assert n == 6
        assert stop >= 2 / 6  # "the" twice, "on" once
        assert alpha > 0.6

    def test_score_ranges(self):
        good = "the quick brown fox jumps over the lazy dog " * 5
        assert quality_score(good) > quality_score("!!! ### $$$")
        assert quality_score("") == 0.0
        assert 0.0 <= quality_score(good) <= 1.0

    def test_deterministic(self):
        t = "some stable text for scoring purposes and more"
        assert quality_score(t) == quality_score(t)


class TestLangId:
    def test_english(self):
        assert detect_language("the cat is on the mat and it is happy") == "en"

    def test_german(self):
        assert detect_language("der hund ist nicht in dem haus und die katze") == "de"

    def test_french(self):
        assert detect_language("le chat est dans la maison et il ne dort pas") == "fr"

    def test_spanish(self):
        assert detect_language("el perro es un animal y no es el gato") == "es"

    def test_chinese(self):
        assert detect_language("你好世界这是一个测试文档") == "zh"

    def test_unknown(self):
        assert detect_language("zzz qqq xxx www") == "und"
        assert detect_language("") == "und"


class TestFingerprint:
    def test_rolling_window_count(self):
        text = " ".join(f"w{i}" for i in range(10))
        assert len(rolling_fingerprints(text, window=5)) == 6

    def test_shift_invariance_of_windows(self):
        # shared 5-token spans produce shared window hashes
        a = rolling_fingerprints("a b c d e f g", 5)
        b = rolling_fingerprints("x a b c d e f g", 5)
        assert set(map(int, a)) <= set(map(int, b)) | {int(h) for h in a}
        assert len(set(map(int, a)) & set(map(int, b))) >= 2

    def test_doc_fingerprint_stable_and_sensitive(self):
        t = "the quick brown fox jumps over the lazy dog again and again"
        assert doc_fingerprint(t) == doc_fingerprint(t)
        # identical docs collide, disjoint docs don't (w.h.p.)
        assert doc_fingerprint(t) != doc_fingerprint("completely different words here entirely")

    def test_short_text(self):
        assert doc_fingerprint("one two") == doc_fingerprint("one two")
        assert isinstance(doc_fingerprint(""), int)


class TestDocLengthQuantiles:
    def test_matches_quantile_disc(self, ray_session, tmp_path):
        import os

        import duckdb
        import pyarrow as pa
        import pyarrow.parquet as pq

        from scrupyst_ray.pipelines.textstats import doc_length_quantiles

        # skewed group sizes incl. a 1-doc source (quantiles = that value)
        rows = [("a", "x " * n) for n in range(1, 12)] + [("b", "y y y")]
        pq.write_table(
            pa.table(
                {
                    "doc_id": pa.array(range(len(rows)), pa.int64()),
                    "source": pa.array([r[0] for r in rows]),
                    "text": pa.array([r[1].strip() for r in rows]),
                }
            ),
            os.path.join(str(tmp_path), "documents.parquet"),
        )
        got = doc_length_quantiles(str(tmp_path)).to_pandas()
        want = duckdb.sql(
            f"""WITH t AS (SELECT source,
                       len(regexp_extract_all(text, '\\S+')) AS n
                FROM read_parquet('{tmp_path}/documents.parquet'))
            SELECT source, CAST(quantile_disc(n, 0.5) AS BIGINT) p50,
                   CAST(quantile_disc(n, 0.9) AS BIGINT) p90,
                   CAST(quantile_disc(n, 0.99) AS BIGINT) p99
            FROM t GROUP BY source ORDER BY source"""
        ).fetchdf()
        assert got.values.tolist() == want.values.tolist()
        assert got[got.source == "b"].p50.item() == 3


class TestQuantileSketch:
    def test_bucket_roundtrip_error_bound(self):
        import numpy as np

        from scrupyst_ray.functions.sketches import (
            bucket_lower_bound,
            bucket_of,
        )

        v = np.unique(
            np.concatenate(
                [
                    np.arange(1, 2000),
                    np.random.default_rng(3).integers(1, 10**9, 5000),
                ]
            )
        )
        lb = bucket_lower_bound(bucket_of(v))
        assert (lb <= v).all()  # lower bound never overestimates
        assert (v / lb <= 1.0 + 2.0 ** -5 + 1e-9).all()  # ≤1 bucket width

    def test_merge_order_invariance(self):
        import numpy as np

        from scrupyst_ray.functions.sketches import (
            bucket_of,
            quantiles_from_hist,
        )

        rng = np.random.default_rng(11)
        vals = rng.integers(1, 100_000, 20_000)
        # one-pass histogram
        b1, c1 = np.unique(bucket_of(vals), return_counts=True)
        one = quantiles_from_hist(b1, c1, [0.5, 0.9, 0.99])
        # partitioned + summed in a different order
        from collections import Counter

        acc: Counter = Counter()
        for part in np.array_split(rng.permutation(vals), 7)[::-1]:
            b, c = np.unique(bucket_of(part), return_counts=True)
            acc.update(dict(zip(b, c)))
        merged = quantiles_from_hist(
            np.array(list(acc.keys())), np.array(list(acc.values())), [0.5, 0.9, 0.99]
        )
        assert one == merged
        # and close to the exact quantile_disc answer
        exact = [
            int(np.quantile(vals, q, method="inverted_cdf"))
            for q in (0.5, 0.9, 0.99)
        ]
        for e, s in zip(exact, one):
            assert s <= e and e / s <= 1.04

    def test_pipeline_close_to_exact(self, ray_session):
        from scrupyst_ray.pipelines.textstats import (
            doc_length_quantiles,
            doc_length_quantiles_sketch,
        )

        sf = "/root/testdata/sf0.001"
        exact = {r["source"]: r for r in doc_length_quantiles(sf).to_pylist()}
        sk = {r["source"]: r for r in doc_length_quantiles_sketch(sf).take_all()}
        assert set(exact) == set(sk)
        for s in exact:
            for p in ("p50", "p90", "p99"):
                assert sk[s][p] <= exact[s][p]
                assert exact[s][p] / max(sk[s][p], 1) <= 1.04


class TestVocabHLL:
    def test_estimate_within_error_bound(self, ray_session):
        from scrupyst_ray.pipelines.textstats import (
            vocab_by_lang,
            vocab_by_lang_hll,
        )

        sf = "/root/testdata/sf0.001"
        exact = {r["lang"]: r["vocab"] for r in vocab_by_lang(sf).take_all()}
        est = {r["lang"]: r["vocab_est"] for r in vocab_by_lang_hll(sf).to_pylist()}
        assert set(exact) == set(est)
        for lang, n in exact.items():
            # p=12 HLL: ~1.6% standard error; 5% is a ~3-sigma bound
            assert abs(est[lang] - n) / n <= 0.05, (lang, n, est[lang])

    def test_partials_merge_idempotent(self):
        import numpy as np

        from scrupyst_ray.functions.hashing import stable_hash64
        from scrupyst_ray.functions.sketches import hll_estimate, hll_partial

        h = np.array(
            [stable_hash64(f"t{i}") for i in range(3000)], dtype=np.uint64
        )
        i1, r1 = hll_partial(h)
        # duplicate partials merged by max must not change the estimate
        from collections import defaultdict

        acc: defaultdict = defaultdict(int)
        for _ in range(3):
            for a, b in zip(i1, r1):
                acc[a] = max(acc[a], b)
        est_dup = hll_estimate(
            np.array(list(acc.keys())), np.array(list(acc.values()))
        )
        est_one = hll_estimate(i1, r1)
        assert est_dup == est_one
        assert abs(est_one - 3000) / 3000 <= 0.05


class TestCountMin:
    def test_never_underestimates_and_tight_on_heavy(self):
        from collections import Counter

        import numpy as np

        from scrupyst_ray.functions.hashing import stable_hash64
        from scrupyst_ray.functions.sketches import (
            CMS_D,
            CMS_W,
            cms_cells,
            cms_estimate,
        )

        # zipf-ish stream: token i appears ~3000//(i+1) times
        stream = [f"t{i}" for i in range(400) for _ in range(3000 // (i + 1))]
        truth = Counter(stream)
        items = list(truth.items())
        hs = np.array([stable_hash64(t) for t, _ in items], dtype=np.uint64)
        ns = np.array([n for _, n in items], dtype=np.int64)
        cells_idx = cms_cells(hs)
        cells = np.zeros((CMS_D, CMS_W), np.int64)
        for (tok, n), row in zip(items, cells_idx):
            for r in range(CMS_D):
                cells[r, row[r]] += n
        total = int(ns.sum())
        for tok, n in items:
            est = cms_estimate(cells, stable_hash64(tok))
            assert est >= n, (tok, n, est)
            # eps ~ e/w of total mass; generous 4x slack
            assert est - n <= 4 * 2.72 * total / 2048, (tok, n, est)
        # the heavy hitters are estimated exactly here
        for tok, n in truth.most_common(10):
            assert cms_estimate(cells, stable_hash64(tok)) == n

    def test_pipeline_matches_exact_topk(self, ray_session):
        from scrupyst_ray.pipelines.textstats import (
            top_terms_by_lang,
            top_terms_by_lang_cms,
        )

        sf = "/root/testdata/sf0.001"
        exact = top_terms_by_lang(sf, k=10)
        cms = top_terms_by_lang_cms(sf, k=10)
        ex = list(
            zip(
                exact["lang"].to_pylist(),
                exact["token"].to_pylist(),
                exact["n"].to_pylist(),
            )
        )
        cm = list(
            zip(
                cms["lang"].to_pylist(),
                cms["token"].to_pylist(),
                cms["n_est"].to_pylist(),
            )
        )
        assert ex == cm

    def test_batch_candidates_match_most_common(self):
        """Each language's candidates are its ``candidates_per_batch`` most
        frequent tokens with ties in first-occurrence order, as the
        retired per-row ``Counter.most_common`` loop (the reference here)
        chose them; the grids are unchanged too."""
        from collections import Counter

        from scrupyst_ray.functions.hashing import stable_hash64
        from scrupyst_ray.functions.sketches import CMS_D, CMS_W, cms_grid
        from scrupyst_ray.functions.textstats import ws_tokens
        from scrupyst_ray.pipelines.textstats import _cms_partials

        def reference(b, n_cand):
            per_lang = {}
            for lang, t in zip(b["lang"].to_pylist(), b["text"].to_pylist()):
                per_lang.setdefault(lang, Counter()).update(ws_tokens(t))
            out = {}
            for lang, c in per_lang.items():
                if not c:
                    continue  # a zero grid and no candidates: ranks nothing
                hs = np.fromiter((stable_hash64(t) for t in c), np.uint64, len(c))
                counts = np.fromiter(c.values(), np.int64, len(c))
                top = [tok for tok, _ in c.most_common(n_cand)]
                out[lang] = (top, cms_grid(hs, counts))
            return out, per_lang

        rng = np.random.default_rng(5)
        words = [f"w{i:02d}" for i in range(60)]
        texts, langs = [], []
        for i in range(40):
            picks = rng.choice(len(words), rng.integers(1, 12))
            texts.append("\t".join(words[j] for j in picks) + " \xa0x")
            langs.append(("en", "de", None)[i % 3])
        texts[7], langs[7] = " \n ", "fr"  # a language without tokens
        b = pa.table({"lang": langs, "text": texts})
        n_cand = 8
        want, per_lang = reference(b, n_cand)
        for c in per_lang.values():
            if c:  # ties straddle the cut
                ranked = sorted(c.values(), reverse=True)
                assert len(c) > n_cand and ranked[n_cand - 1] == ranked[n_cand]

        got = {}
        for r in _cms_partials(b, n_cand).to_pylist():
            top, grid = got.setdefault(r["lang"], ([], None))
            if r["token"] == "":
                got[r["lang"]] = (top, np.array(r["grid"]).reshape(CMS_D, CMS_W))
            else:
                assert r["grid"] is None
                top.append(r["token"])
        assert got.keys() == want.keys() == {"en", "de", None}
        for lang, (top, grid) in want.items():
            assert got[lang][0] == top
            assert np.array_equal(got[lang][1], grid)


def test_hll_sql_twin_harmonic_branch(ray_session, tmp_path):
    """The driver corpus's tiny vocab (31/lang) exercises only the HLL
    linear-counting branch; this pins the HARMONIC branch's bit-for-bit
    SQL parity too — 15k distinct tokens push the raw estimate past the
    2.5m cutoff, so the exact-integer denominator sum, the alpha
    expression and the half-even rounding must all agree between the
    engine and the DuckDB twin at full register occupancy."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as e
    from scrupyst_ray.pipelines.textstats import vocab_by_lang_hll

    toks = [f"tok{i}" for i in range(15000)]
    docs = [" ".join(toks[i : i + 100]) for i in range(0, 15000, 100)]
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(len(docs)), pa.int64()),
                "lang": pa.array(["en"] * len(docs)),
                "text": pa.array(docs),
            }
        ),
        str(tmp_path / "documents.parquet"),
    )
    got = vocab_by_lang_hll(str(tmp_path)).to_pylist()
    est = got[0]["vocab_est"]
    assert est > 10240  # harmonic branch, not linear counting
    assert abs(est / 15000 - 1.0) < 0.05  # ~1.6% standard error at p=12

    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{tmp_path}/documents.parquet')"
    )
    sql = e.oracle_sql()["vocab_by_lang_hll"]
    assert con.execute(sql).fetchall() == [("en", est)]


def test_vocab_hll_gate(ray_session):
    from scrupyst_ray.pipelines.textstats import vocab_hll_gate

    t = vocab_hll_gate("/root/testdata/sf0.001")
    assert t.num_rows >= 1
    assert all(t["hll_ok"].to_pylist())
    assert all(v > 0 for v in t["vocab_exact"].to_pylist())


def test_quantile_sketch_gate(ray_session):
    from scrupyst_ray.pipelines.textstats import quantile_sketch_gate

    t = quantile_sketch_gate("/root/testdata/sf0.001")
    assert t.num_rows >= 1
    assert all(t["sketch_ok"].to_pylist())
    for r in t.take_all() if hasattr(t, "take_all") else t.to_pylist():
        assert r["p50"] <= r["p90"] <= r["p99"]
