"""Curation operators: C4-style segment dedup, benchmark decontamination,
sequence packing — hand-built corpora with exactly known answers, plus the
dup-heavy distributed-join fallback path."""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _write_docs(path: str, texts: list[str]) -> str:
    os.makedirs(path, exist_ok=True)
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": pa.array(texts, pa.string()),
                "lang": pa.array(["en"] * len(texts), pa.string()),
                "source": pa.array(["s0"] * len(texts), pa.string()),
                "n_chars": pa.array([len(t) for t in texts], pa.int64()),
            }
        ),
        os.path.join(path, "documents.parquet"),
    )
    return path


@pytest.mark.usefixtures("ray_session")
class TestSegmentDedup:
    def test_first_occurrence_wins(self, tmp_path):
        # width=2 segments; "a b" appears in doc0 seg0, doc1 seg0, doc0 seg2
        sf = _write_docs(
            str(tmp_path),
            [
                "a b c d a b",  # segs: "a b", "c d", "a b"(dup)
                "a b x y",  # segs: "a b"(dup), "x y"
                "p q",  # segs: "p q" (untouched)
            ],
        )
        from scrupyst_ray.pipelines.curation import segment_dedup

        rows = segment_dedup(sf, width=2).take_all()
        by_id = {r["doc_id"]: r for r in rows}
        assert by_id[0]["clean_text"] == "a b c d"
        assert by_id[0]["n_segments"] == 3 and by_id[0]["n_dropped"] == 1
        assert by_id[1]["clean_text"] == "x y"
        assert by_id[1]["n_dropped"] == 1
        assert by_id[2]["clean_text"] == "p q"
        assert by_id[2]["n_dropped"] == 0

    def test_doc_fully_dropped_becomes_empty(self, tmp_path):
        sf = _write_docs(str(tmp_path), ["a b", "a b"])
        from scrupyst_ray.pipelines.curation import segment_dedup

        rows = segment_dedup(sf, width=2).take_all()
        assert rows[0]["clean_text"] == "a b"
        assert rows[1]["clean_text"] == "" and rows[1]["n_dropped"] == 1

    def test_partial_tail_segment(self, tmp_path):
        # 5 tokens at width 2 → 3 segments, last is the 1-token tail
        sf = _write_docs(str(tmp_path), ["a b c d e"])
        from scrupyst_ray.pipelines.curation import segment_dedup

        rows = segment_dedup(sf, width=2).take_all()
        assert rows[0]["n_segments"] == 3
        assert rows[0]["clean_text"] == "a b c d e"

    def test_join_fallback_path_matches_broadcast(self, tmp_path, monkeypatch):
        import scrupyst_ray.pipelines.curation as cur

        texts = ["w%d x%d a b" % (i, i) for i in range(20)] + ["a b"] * 3
        sf = _write_docs(str(tmp_path), texts)
        bcast = [
            (r["doc_id"], r["clean_text"], r["n_dropped"])
            for r in cur.segment_dedup(sf, width=2).take_all()
        ]
        monkeypatch.setattr(cur, "BROADCAST_DROPS_MAX", 0)
        joined = [
            (r["doc_id"], r["clean_text"], r["n_dropped"])
            for r in cur.segment_dedup(sf, width=2).take_all()
        ]
        assert bcast == joined
        # the shared "a b" tail segment kept only its first occurrence
        assert sum(d for _, _, d in bcast) == 22

    def test_stats_roll_up(self, tmp_path):
        sf = _write_docs(str(tmp_path), ["a b c d", "a b", "e f"])
        from scrupyst_ray.pipelines.curation import segment_dedup_stats

        row = segment_dedup_stats(sf, width=2).to_pylist()[0]
        assert row == {
            "n_docs": 3,
            "total_segments": 4,
            "dropped_segments": 1,
            "docs_touched": 1,
        }


@pytest.mark.usefixtures("ray_session")
class TestDecontaminate:
    def test_ngram_overlap_flags(self, tmp_path):
        # doc 0 is the benchmark (0 % 2 == 0 with bench_mod=2); doc 1 shares
        # a full 3-gram with it, doc 3 does not
        sf = _write_docs(
            str(tmp_path),
            [
                "the quick brown fox jumps",  # bench
                "zz the quick brown yy",  # shares "the quick brown"
                "another benchmark document here",  # bench
                "completely different words only",  # clean
            ],
        )
        from scrupyst_ray.pipelines.curation import decontaminate

        rows = decontaminate(sf, n=3, bench_mod=2).take_all()
        assert [(r["doc_id"], r["contaminated"]) for r in rows] == [
            (1, True),
            (3, False),
        ]

    def test_short_docs_produce_no_grams(self, tmp_path):
        sf = _write_docs(str(tmp_path), ["a b c d e", "a b"])
        from scrupyst_ray.pipelines.curation import decontaminate

        rows = decontaminate(sf, n=3, bench_mod=2).take_all()
        # doc 1 has only 2 tokens < n → zero 3-grams → clean
        assert rows == [{"doc_id": 1, "contaminated": False}]


@pytest.mark.usefixtures("ray_session")
class TestPackSequences:
    def test_offsets_and_boundaries(self, tmp_path):
        # token counts 3, 4, 2, 5 with capacity 6:
        # offsets 0, 3, 7, 9 → seq ids 0, 0, 1, 1; offsets-in-seq 0, 3, 1, 3
        sf = _write_docs(
            str(tmp_path), ["a a a", "b b b b", "c c", "d d d d d"]
        )
        from scrupyst_ray.pipelines.curation import pack_sequences

        rows = pack_sequences(sf, capacity=6).take_all()
        got = [(r["doc_id"], r["n_tokens"], r["seq_id"], r["seq_offset"]) for r in rows]
        assert got == [(0, 3, 0, 0), (1, 4, 0, 3), (2, 2, 1, 1), (3, 5, 1, 3)]

    def test_multi_bucket_prefix_sum(self, tmp_path):
        # bucket_size=2 forces the two-level scan across 5 buckets
        texts = ["t " * (i + 1) for i in range(10)]  # 1..10 tokens
        sf = _write_docs(str(tmp_path), [t.strip() for t in texts])
        from scrupyst_ray.pipelines.curation import pack_sequences

        rows = pack_sequences(sf, capacity=7, bucket_size=2).take_all()
        off = 0
        for r in rows:
            assert r["seq_id"] == off // 7 and r["seq_offset"] == off % 7
            off += r["n_tokens"]

    def test_stats_partition_tokens(self, tmp_path):
        sf = _write_docs(str(tmp_path), ["a a a", "b b b b", "c c"])
        from scrupyst_ray.pipelines.curation import packed_sequence_stats

        rows = packed_sequence_stats(sf, capacity=4).take_all()
        assert sum(r["n_tokens"] for r in rows) == 9
        assert sum(r["n_docs"] for r in rows) == 3


@pytest.mark.usefixtures("ray_session")
class TestGopherRepetition:
    def test_repetition_fractions(self, tmp_path):
        # "x y x y x y": 2-grams = [x y, y x, x y, y x, x y] → total 5,
        # all occurrences duplicated (x y ×3, y x ×2) → dup 1.0, top 3/5
        sf = _write_docs(str(tmp_path), ["x y x y x y", "a b c d e"])
        from scrupyst_ray.pipelines.textstats import gopher_repetition

        rows = gopher_repetition(sf).take_all()
        assert rows[0]["dup_2gram_frac"] == "1.0000"
        assert rows[0]["top_2gram_frac"] == "0.6000"
        assert rows[1]["dup_2gram_frac"] == "0.0000"
        # 4 distinct 2-grams in doc 1 → top frac = 1/4
        assert rows[1]["top_2gram_frac"] == "0.2500"

    def test_short_doc_zero_fractions(self, tmp_path):
        sf = _write_docs(str(tmp_path), ["solo"])
        from scrupyst_ray.pipelines.textstats import gopher_repetition

        r = gopher_repetition(sf).take_all()[0]
        assert r["n_tokens"] == 1
        assert r["dup_2gram_frac"] == "0.0000"
        assert r["top_3gram_frac"] == "0.0000"

    def test_gate_thresholds(self, tmp_path):
        long_clean = " ".join(f"w{i}" for i in range(20))
        long_repeat = "x y " * 10  # dup_2gram 1.0 → filtered
        short = "a b c"  # < min_tokens → filtered
        sf = _write_docs(
            str(tmp_path), [long_clean, long_repeat.strip(), short]
        )
        from scrupyst_ray.pipelines.textstats import gopher_quality_gate

        kept = [r["doc_id"] for r in gopher_quality_gate(sf).take_all()]
        assert kept == [0]


@pytest.mark.usefixtures("ray_session")
class TestTopTerms:
    def test_counts_and_tiebreak(self, tmp_path):
        sf = _write_docs(str(tmp_path), ["b a b c", "a c c c"])
        from scrupyst_ray.pipelines.textstats import top_terms_by_lang

        rows = top_terms_by_lang(sf, k=2).to_pylist()
        # all docs are lang=en; counts: c=4, a=2, b=2 → top-2 = c, a (tie a<b)
        assert [(r["token"], r["n"]) for r in rows] == [("c", 4), ("a", 2)]

    def test_k_bounds_per_lang(self, tmp_path):
        sf = _write_docs(str(tmp_path), ["a b c d e f g h i j k l m n"])
        from scrupyst_ray.pipelines.textstats import top_terms_by_lang

        rows = top_terms_by_lang(sf, k=10).to_pylist()
        assert len(rows) == 10

    def test_block_tops_merge_exactly_with_ties_at_k(self):
        """Rows tied at the k-th place sit in different blocks; each
        block's own top k, merged, gives the global top k (n desc, then
        token asc)."""
        from scrupyst_ray.pipelines.textstats import _top_per_lang

        def block(rows):
            return pa.table(
                {
                    "lang": pa.array([r[0] for r in rows], pa.string()),
                    "token": pa.array([r[1] for r in rows], pa.string()),
                    "n": pa.array([r[2] for r in rows], pa.int64()),
                }
            )

        a = [("en", "z", 9), ("en", "d", 2), ("en", "b", 2), ("de", "x", 1)]
        b = [("en", "c", 2), ("en", "a", 2), ("en", "y", 1), ("de", "w", 1)]
        tops = [_top_per_lang(block(rows), 3) for rows in (a, b)]
        got = _top_per_lang(pa.concat_tables(tops), 3).to_pylist()
        assert [(r["lang"], r["token"], r["n"]) for r in got] == [
            ("de", "w", 1),
            ("de", "x", 1),
            ("en", "z", 9),
            ("en", "a", 2),
            ("en", "b", 2),
        ]

    def test_ties_at_k_match_a_reference(self, tmp_path):
        """Forty tokens tied at the k-th place, over two languages."""
        from collections import Counter

        from scrupyst_ray.pipelines.textstats import top_terms_by_lang

        texts = [
            f"top t{i:02d} t{(i + 7) % 40:02d} top" if i % 3 else f"t{i:02d}"
            for i in range(80)
        ]
        langs = ["en" if i % 2 else "de" for i in range(80)]
        path = str(tmp_path)
        pq.write_table(
            pa.table({"lang": langs, "text": texts}),
            os.path.join(path, "documents.parquet"),
        )
        want = []
        for lang in ("de", "en"):
            c = Counter(
                w for t, l in zip(texts, langs) if l == lang for w in t.split()
            )
            top = sorted(c.items(), key=lambda x: (-x[1], x[0]))[:5]
            want += [(lang, w, n) for w, n in top]
        got = top_terms_by_lang(path, k=5).to_pylist()
        assert [(r["lang"], r["token"], r["n"]) for r in got] == want

    def test_logs_no_schema_warning(self, tmp_path):
        """A few languages and sources over many tokens
        (``top_terms_by_lang``, ``lm_ppl_by_source``, ``vocab_by_lang_hll``),
        then ``dsir_by_lang`` over the sf0.01 test data (five languages).
        The queries run in their own Ray session and its whole process
        output is read: Ray Data logs "different schema" from its streaming
        executor, which a test's log capture does not see."""
        import subprocess
        import sys

        langs = ["en", "de", "fr", "es", "zh"]
        texts = [" ".join(f"w{(i * j) % 97}" for j in range(30)) for i in range(500)]
        pq.write_table(
            pa.table(
                {
                    "doc_id": range(500),
                    "lang": [langs[i % 5] for i in range(500)],
                    "source": [f"src{i % 3}" for i in range(500)],
                    "text": texts,
                }
            ),
            os.path.join(str(tmp_path), "documents.parquet"),
        )
        script = (
            "import ray\n"
            "ray.init(address='local', num_cpus=2, include_dashboard=False)\n"
            "from scrupyst_ray.pipelines.textstats import top_terms_by_lang\n"
            "for _ in range(3):\n"
            f"    assert top_terms_by_lang({str(tmp_path)!r}).num_rows == 50\n"
            "from scrupyst_ray.pipelines.lm import lm_ppl_by_source\n"
            "from scrupyst_ray.pipelines.textstats import vocab_by_lang_hll\n"
            f"assert lm_ppl_by_source({str(tmp_path)!r}).num_rows == 3\n"
            f"assert vocab_by_lang_hll({str(tmp_path)!r}).num_rows == 5\n"
            "from scrupyst_ray.pipelines.dsir import dsir_by_lang\n"
            "for _ in range(3):\n"
            "    assert len(dsir_by_lang('/root/testdata/sf0.01').to_pandas()) == 5\n"
            "ray.shutdown()\n"
        )
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        out = subprocess.run(
            [sys.executable, "-c", script],
            cwd=root,
            env=dict(os.environ, RAY_ADDRESS="local"),
            capture_output=True,
            text=True,
            timeout=180,
        )
        assert out.returncode == 0, out.stderr[-2000:]
        assert "different schema" not in out.stdout + out.stderr


@pytest.mark.usefixtures("ray_session")
class TestTfidf:
    def test_rare_term_scores_highest(self, tmp_path):
        sf = _write_docs(
            str(tmp_path),
            ["common rare common", "common common", "common unique"],
        )
        from scrupyst_ray.pipelines.textstats import tfidf_top_terms

        rows = tfidf_top_terms(sf, k=1).take_all()
        # per doc, the distinctive term wins; "common" (df=3) has idf=0
        assert [(r["doc_id"], r["token"]) for r in rows] == [
            (0, "rare"),
            (1, "common"),  # only term present
            (2, "unique"),
        ]
        import math

        assert rows[0]["score"] == f"{math.log(3):.4f}"
        assert rows[1]["score"] == "0.0000"

    def test_k_and_tiebreak(self, tmp_path):
        sf = _write_docs(str(tmp_path), ["b a", "z z"])
        from scrupyst_ray.pipelines.textstats import tfidf_top_terms

        rows = tfidf_top_terms(sf, k=2).take_all()
        d0 = [r["token"] for r in rows if r["doc_id"] == 0]
        # equal scores (both df=1, tf=1) → token-ascending tiebreak
        assert sorted(d0) == ["a", "b"]


@pytest.mark.usefixtures("ray_session")
class TestEmptySideGuards:
    def test_decontaminate_all_short_benchmark(self, tmp_path):
        # every benchmark doc (doc_id % 2 == 0) is shorter than n → zero
        # benchmark grams → nothing can be contaminated (and the empty
        # collect must not crash)
        sf = _write_docs(
            str(tmp_path), ["a b", "one two three four five", "c d", "x y z w v"]
        )
        from scrupyst_ray.pipelines.curation import decontaminate

        rows = decontaminate(sf, n=3, bench_mod=2).take_all()
        assert [(r["doc_id"], r["contaminated"]) for r in rows] == [
            (1, False),
            (3, False),
        ]

    def test_attach_by_key_empty_side(self):
        import pyarrow as pa
        import ray.data as rd

        from scrupyst_ray.pipelines.joins import attach_by_key

        left = rd.from_arrow(
            pa.table({"k": pa.array([1, 2], pa.int64()), "x": ["a", "b"]})
        )
        empty = left.filter(expr="k > 99").select_columns(["k", "x"])
        out = attach_by_key(left, empty, "k", "payload")
        assert out.count() == 0

    def test_anti_join_empty_drop_passthrough(self):
        import pyarrow as pa
        import ray.data as rd

        from scrupyst_ray.pipelines.joins import anti_join_by_key

        left = rd.from_arrow(pa.table({"k": pa.array([1, 2, 3], pa.int64())}))
        empty = left.filter(expr="k > 99")
        out = anti_join_by_key(left, empty, "k")
        assert sorted(r["k"] for r in out.take_all()) == [1, 2, 3]


@pytest.mark.usefixtures("ray_session")
class TestSourceMixingWeights:
    def _write(self, path: str) -> str:
        os.makedirs(path, exist_ok=True)
        texts = ["a b c d"] * 8 + ["x y"] * 2  # srcA 32 tokens, srcB 4
        pq.write_table(
            pa.table(
                {
                    "doc_id": pa.array(range(10), pa.int64()),
                    "text": pa.array(texts, pa.string()),
                    "source": pa.array(["srcA"] * 8 + ["srcB"] * 2),
                }
            ),
            os.path.join(path, "documents.parquet"),
        )
        return path

    def test_temperature_flattens_skew(self, tmp_path):
        from scrupyst_ray.pipelines.curation import source_mixing_weights

        sf = self._write(str(tmp_path))
        t = source_mixing_weights(sf, alpha=0.7).to_pylist()
        by = {r["source"]: r for r in t}
        assert by["srcA"]["n_tokens"] == 32 and by["srcB"]["n_tokens"] == 4
        wa, wb = float(by["srcA"]["weight"]), float(by["srcB"]["weight"])
        assert abs(wa + wb - 1.0) < 1e-6
        # alpha=0.7 upweights the small source vs proportional (4/36=0.111)
        assert 0.111 < wb < 0.5
        sa, sb = 32**0.7, 4**0.7
        assert by["srcB"]["weight"] == f"{sb / (sa + sb):.6f}"

    def test_alpha_one_is_proportional(self, tmp_path):
        from scrupyst_ray.pipelines.curation import source_mixing_weights

        sf = self._write(str(tmp_path))
        t = source_mixing_weights(sf, alpha=1.0).to_pylist()
        by = {r["source"]: r for r in t}
        assert by["srcA"]["weight"] == f"{32 / 36:.6f}"


@pytest.mark.usefixtures("ray_session")
class TestDupSpanStats:
    def test_shifted_duplicate_detected(self, tmp_path):
        """doc1 repeats doc0's sentence OFFSET BY ONE TOKEN — width-5
        non-overlapping segments see different segment boundaries and miss
        it; stride-1 windows must flag every window of the shared run."""
        shared = "w1 w2 w3 w4 w5 w6 w7 w8"  # 8 tokens = one width-8 window
        sf = _write_docs(
            str(tmp_path),
            [
                shared + " tail0 tail1",
                "off " + shared + " other",  # shifted by one token
                "n0 n1 n2 n3 n4 n5 n6 n7 n8 n9",  # unique 10-token doc
            ],
        )
        from scrupyst_ray.pipelines.curation import dup_span_stats

        rows = {r["doc_id"]: r for r in dup_span_stats(sf, width=8).take_all()}
        # doc0: 10 tokens -> 3 windows, exactly window[0] is the shared run
        assert rows[0]["n_windows"] == 3 and rows[0]["n_dup_windows"] == 1
        # doc1: 10 tokens -> 3 windows, window[1] is the shared run
        assert rows[1]["n_windows"] == 3 and rows[1]["n_dup_windows"] == 1
        assert rows[2]["n_dup_windows"] == 0
        assert rows[0]["dup_frac"] == f"{1/3:.4f}"

    def test_within_doc_repeat_counts(self, tmp_path):
        """A run repeated INSIDE one document is a duplicate too (the paper
        dedups all repeated substrings, not only cross-doc ones)."""
        run = "r1 r2 r3 r4 r5 r6 r7 r8"
        sf = _write_docs(str(tmp_path), [run + " mid " + run])
        from scrupyst_ray.pipelines.curation import dup_span_stats

        rows = dup_span_stats(sf, width=8).take_all()
        assert rows[0]["n_windows"] == 10  # 17 tokens
        assert rows[0]["n_dup_windows"] == 2  # the two copies of the run

    def test_short_docs_absent(self, tmp_path):
        sf = _write_docs(str(tmp_path), ["a b c", "x1 x2 x3 x4 x5 x6 x7 x8"])
        from scrupyst_ray.pipelines.curation import dup_span_stats

        rows = dup_span_stats(sf, width=8).take_all()
        assert [r["doc_id"] for r in rows] == [1]

    def test_random_corpus_matches_naive_reference(self, tmp_path):
        """The round-5 vectorized window fingerprint (per-unique-token md5 +
        odd-constant lane combination) must produce the SAME duplicate
        equality classes as the naive joined-string-per-window definition.
        A seeded small-alphabet corpus forces heavy cross- and within-doc
        window collisions; unicode \\xa0/\\x85 land INSIDE tokens (\\S+
        keeps them), pinning tokenizer agreement too."""
        import random
        from collections import Counter

        from scrupyst_ray.functions.textstats import ws_tokens
        from scrupyst_ray.pipelines.curation import dup_span_stats

        rng = random.Random(1234)
        alphabet = ["aa", "bb", "cc", "d\xa0d", "e\x85e", "ff"]
        docs = [
            " ".join(rng.choice(alphabet) for _ in range(rng.randint(2, 40)))
            for _ in range(25)
        ]
        width = 4
        counts: Counter = Counter()
        per_doc: dict[int, list[str]] = {}
        for i, t in enumerate(docs):
            toks = ws_tokens(t)
            wins = [
                " ".join(toks[j : j + width])
                for j in range(len(toks) - width + 1)
            ]
            per_doc[i] = wins
            counts.update(wins)
        want = {
            i: (len(w), sum(1 for x in w if counts[x] > 1))
            for i, w in per_doc.items()
            if w
        }
        sf = _write_docs(str(tmp_path), docs)
        got = {
            r["doc_id"]: (r["n_windows"], r["n_dup_windows"])
            for r in dup_span_stats(sf, width=width).take_all()
        }
        assert got == want and any(d for _, d in want.values())


@pytest.mark.usefixtures("ray_session")
class TestCurateCorpus:
    def _corpus(self, tmp_path):
        """Purpose-built docs: every stage drops someone.
        doc 10: benchmark (10 % 10 == 0) — dropped at decontamination.
        doc 11: good.       doc 12: exact dup of 11 — exact-dedup drop.
        doc 13: near-dup of 11 (one word differs) — Jaccard drop.
        doc 14: too short — quality drop.
        doc 15: shares an 8-gram with benchmark doc 10 — contamination drop.
        doc 16: good, distinct."""
        good = ("the quick brown fox jumps over the lazy dog while many "
                "other animals watch the entire scene unfold nearby today")
        near = good.replace("dog", "cat")
        bench = ("alpha beta gamma delta epsilon zeta eta theta iota kappa "
                 "some unique benchmark words continue here for a while longer")
        contam = ("totally different text that embeds alpha beta gamma delta "
                  "epsilon zeta eta theta inside its body and keeps talking")
        other = ("completely independent document with plenty of distinct "
                 "words to pass every single quality gate easily and cleanly")
        texts = {10: bench, 11: good, 12: good, 13: near, 14: "too short",
                 15: contam, 16: other}
        import os

        import pyarrow as pa
        import pyarrow.parquet as pq

        ids = sorted(texts)
        pq.write_table(
            pa.table(
                {
                    "doc_id": pa.array(ids, pa.int64()),
                    "text": pa.array([texts[i] for i in ids], pa.string()),
                    "lang": pa.array(["en"] * len(ids), pa.string()),
                    "source": pa.array(
                        ["s" + str(i % 2) for i in ids], pa.string()
                    ),
                    "n_chars": pa.array(
                        [len(texts[i]) for i in ids], pa.int64()
                    ),
                }
            ),
            os.path.join(str(tmp_path), "documents.parquet"),
        )
        return str(tmp_path)

    def test_funnel_and_final_ids(self, tmp_path):
        from scrupyst_ray.pipelines.curation import curate_corpus

        sf = self._corpus(tmp_path)
        funnel, final = curate_corpus(sf)
        assert dict(funnel) == {
            "0_input": 7,
            "1_quality": 6,  # 14 dropped (too short)
            "2_exact_dedup": 5,  # 12 dropped (dup of 11)
            "3_neardup": 4,  # 13 dropped (near-dup of 11)
            "4_decontaminated": 2,  # 10 (benchmark) + 15 (contaminated)
        }
        assert sorted(r["doc_id"] for r in final.take_all()) == [11, 16]

    def test_sink_written_and_resumable(self, tmp_path):
        import os

        from scrupyst_ray.pipelines.curation import curate_corpus
        from scrupyst_ray.stages.export import read_partitioned

        sf = self._corpus(tmp_path)
        out = str(tmp_path / "curated")
        curate_corpus(sf, out_dir=out)
        back = read_partitioned(out, "source").take_all()
        assert sorted(r["doc_id"] for r in back) == [11, 16]
        # second run: all partitions complete, nothing rewritten
        mtime = os.path.getmtime(
            os.path.join(out, "source=s1", "part.parquet")
        )
        curate_corpus(sf, out_dir=out)
        assert os.path.getmtime(
            os.path.join(out, "source=s1", "part.parquet")
        ) == mtime

    def test_cli_curate(self, tmp_path, capsys):
        import json

        from scrupyst_ray.cli import main

        sf = self._corpus(tmp_path)
        out = str(tmp_path / "cli_out")
        assert main(["curate", "--sf-dir", sf, "-o", out]) == 0
        got = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert got["funnel"]["4_decontaminated"] == 2
