"""Text-prep operator tests (normalization / PII scrub / deterministic
sampling) — kernel-level checks; the SQL oracles gate the full pipelines."""

import os
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pytest

from scrupyst_ray.pipelines import textprep


class TestSamplerArithmetic:
    def test_keep_decision_is_pure_function_of_doc_id(self):
        ids = np.array([0, 1, 7, 123456], dtype=np.uint64)
        h = (ids * np.uint64(textprep._KNUTH)) % np.uint64(textprep._MOD)
        # matches the HUGEINT arithmetic probed in DuckDB
        assert h[2] == 1401181143
        # decision independent of batch composition (resume-safe)
        h_single = (np.uint64(7) * np.uint64(textprep._KNUTH)) % np.uint64(
            textprep._MOD
        )
        assert h_single == h[2]


@pytest.mark.usefixtures("ray_session")
class TestTextprepPipelines:
    SF = "/root/testdata/sf0.001"

    def test_text_normalize(self):
        rows = textprep.text_normalize(self.SF).take(5)
        assert all(len(r["norm_digest"]) == 32 for r in rows)
        assert all(r["norm_chars"] > 0 for r in rows)

    def test_pii_scrub_counts(self):
        import pyarrow.compute as pc

        t = pa.table(
            {
                "doc_id": [1],
                "text": ["mail a@b.co and c.d@e.org, see https://x.test/p now"],
            }
        )
        n = pc.count_substring_regex(t["text"], textprep.EMAIL_RE)
        assert n.to_pylist() == [2]
        scrubbed = pc.replace_substring_regex(
            pc.replace_substring_regex(t["text"], textprep.EMAIL_RE, "<EMAIL>"),
            textprep.URL_RE,
            "<URL>",
        )
        assert scrubbed.to_pylist() == [
            "mail <EMAIL> and <EMAIL>, see <URL> now"
        ]

    def test_stratified_sample_rates(self):
        rows = textprep.stratified_sample(self.SF).take_all()
        assert 0 < len(rows)
        # the keep-set is deterministic: rerunning yields identical ids
        again = textprep.stratified_sample(self.SF).take_all()
        assert [r["doc_id"] for r in rows] == [r["doc_id"] for r in again]


def test_stratified_sample_logs_no_schema_hash_warning():
    """The documents file carries pandas schema metadata (a dict); blocks
    that keep it make the sort's schema dedup log "Failed to hash the
    schemas", some of it from the sort's reduce workers.  A driver logging
    handler misses those, so the query runs in its own Ray session and its
    whole process output is read."""
    script = (
        "import ray\n"
        "ray.init(address='local', num_cpus=2, include_dashboard=False)\n"
        "from scrupyst_ray.pipelines import textprep\n"
        "for _ in range(2):\n"
        f"    assert textprep.stratified_sample({TestTextprepPipelines.SF!r}).take_all()\n"
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
    assert "Failed to hash the schemas" not in out.stdout + out.stderr
