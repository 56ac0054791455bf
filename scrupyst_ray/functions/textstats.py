"""Text-analysis kernels for training-data pipelines: token counting,
quality scoring, language-ID heuristic, rolling-hash fingerprinting.

These extend the engine beyond the reference's operator set (the reference
has no corpus analytics) with the operations a large-scale training-data
pipeline needs.  All kernels are vectorized (pyarrow.compute / numpy) or
tight per-row loops over compiled regexes, used inside ``map_batches``.
"""

from __future__ import annotations

import re
from hashlib import blake2b

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# -- token counting -----------------------------------------------------------

_WS_TOKEN_RE = r"\S+"

# Python-side twin of the Arrow/DuckDB tokenizer.  RE2's \S (both oracle
# sides) is the complement of [\t\n\f\r ]; Python's unicode \S ALSO excludes
# \xa0 / \x85 / \x1c-\x1f / \v, which RE2 keeps inside tokens — so every
# Python-loop tokenizer must use this explicit class, not r"\S+", to stay
# bit-compatible with the SQL oracles on arbitrary input.
_WS_TOKENS_COMPILED = re.compile(r"[^\t\n\f\r ]+")


def ws_tokens(text: str | None) -> list[str]:
    """Whitespace tokens of *text*, RE2-\\S-exact (see comment above)."""
    return _WS_TOKENS_COMPILED.findall(text or "")


def ws_token_ids(
    texts: pa.Array | pa.ChunkedArray,
) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
    """(vocab, tok, row, n_tokens) — a text column's tokens, dictionary-
    encoded in one split: *vocab* the column's distinct tokens in
    first-occurrence order, *tok* the id in *vocab* of every token
    occurrence (row-major), *row* its row, *n_tokens* each row's count.
    The tokens are exactly ``ws_tokens``'s (a None row has none)."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    # the RE2 split on [\t\n\f\r ]+, as four literal replaces and a
    # literal split (a fifth of the regex split's time, the same tokens:
    # an ASCII byte never occurs inside a multi-byte UTF-8 character)
    for sep in "\t\n\f\r":
        texts = pc.replace_substring(texts, sep, " ")
    pieces = pc.split_pattern(texts, " ")
    flat = pc.list_flatten(pieces)
    row = pc.list_parent_indices(pieces)
    # runs of separators and leading or trailing ones split off empty pieces
    keep = pc.not_equal(pc.binary_length(flat), 0)
    enc = pc.dictionary_encode(flat.filter(keep))
    row = row.filter(keep).to_numpy().astype(np.int64)
    return (
        enc.dictionary.to_pylist(),
        enc.indices.to_numpy().astype(np.int64),
        row,
        np.bincount(row, minlength=len(texts)),
    )


def ngram_ids(
    tok: np.ndarray, row: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(pos, gid, grams) — the word n-grams inside each row of
    :func:`ws_token_ids` output: *pos* the position in *tok* of each
    occurrence's first token, *gid* its dense id (the ``np.unique`` rank
    of its (n−1)-gram id and last token id) and *grams* the
    ``(n_distinct, n)`` token ids of each distinct gram."""
    pos = np.arange(max(len(tok) - n + 1, 0))
    pos = pos[row[pos] == row[pos + n - 1]]
    n_vocab = int(tok.max(initial=-1)) + 1
    gid, grams = tok[pos], np.arange(n_vocab)[:, None]
    for j in range(1, n):
        key, gid = np.unique(gid * n_vocab + tok[pos + j], return_inverse=True)
        grams = np.column_stack([grams[key // n_vocab], key % n_vocab])
    return pos, gid, grams


def gram_texts(vocab: list[str], grams: np.ndarray) -> list[str]:
    """Each row of *grams* (token ids) as its space-joined text."""
    return [" ".join(vocab[i] for i in g) for g in grams.tolist()]


# BPE-ish pre-tokenizer (GPT-2-style pattern simplified to ASCII classes —
# the stdlib `re` lacks \p{L}): contractions, letter runs, digit runs,
# punctuation runs, whitespace.
_BPE_RE = re.compile(
    r"'(?:[sdmt]|ll|ve|re)| ?[A-Za-zÀ-ɏ一-鿿]+| ?[0-9]+"
    r"| ?[^\sA-Za-z0-9À-ɏ一-鿿]+|\s+"
)


def whitespace_token_counts(texts: pa.ChunkedArray | pa.Array) -> pa.Array:
    """Whitespace token count per row — pure Arrow kernel (zero-copy)."""
    return pc.count_substring_regex(texts, pattern=_WS_TOKEN_RE)


def bpe_token_count(text: str) -> int:
    return sum(1 for m in _BPE_RE.finditer(text) if not m.group().isspace())


# -- quality scoring ----------------------------------------------------------

_ALPHA_RE = re.compile(r"[A-Za-zÀ-ɏ]")
_PUNCT_RE = re.compile(r"[!-/:-@\[-`{-~]")
_EN_STOPWORDS = frozenset(
    "the a an and or of to in is are was were be been it this that for on with"
    " as at by from not have has had but they you we he she".split()
)


def quality_features(text: str) -> tuple[int, float, float, float, float]:
    """(n_tokens, mean_token_len, alpha_ratio, punct_ratio, stopword_ratio).

    The classic cheap quality heuristics (C4/Gopher-style length & symbol
    rules, public literature) used to gate training data.
    """
    tokens = text.split()
    n = len(tokens)
    n_chars = len(text)
    if n == 0 or n_chars == 0:
        return 0, 0.0, 0.0, 0.0, 0.0
    mean_len = sum(len(t) for t in tokens) / n
    alpha = len(_ALPHA_RE.findall(text)) / n_chars
    punct = len(_PUNCT_RE.findall(text)) / n_chars
    stop = sum(1 for t in tokens if t.lower() in _EN_STOPWORDS) / n
    return n, mean_len, alpha, punct, stop


def quality_score(text: str) -> float:
    """Scalar quality in [0, 1]: length-banded, alpha-heavy, some stopwords,
    sane mean token length.  Deterministic, documented, cheap."""
    n, mean_len, alpha, punct, stop = quality_features(text)
    if n == 0:
        return 0.0
    s = 1.0
    if n < 10 or n > 100_000:
        s *= 0.3
    if not (2.0 <= mean_len <= 12.0):
        s *= 0.5
    s *= min(1.0, alpha * 1.5)
    if punct > 0.2:
        s *= 0.5
    if stop < 0.01:
        s *= 0.7
    return round(s, 6)


# -- language ID (n-gram / stopword heuristic) ---------------------------------

_LANG_MARKERS: dict[str, frozenset[str]] = {
    "en": _EN_STOPWORDS,
    "de": frozenset(
        "der die das und ist nicht ein eine zu mit von für auf im den dem des"
        " sich auch als ich es war sind".split()
    ),
    "fr": frozenset(
        "le la les et est un une des du de à dans pour que qui ne pas au aux"
        " ce cette il elle sur avec".split()
    ),
    "es": frozenset(
        "el la los las y es un una de del en para que no por con se su al lo"
        " como más pero sus".split()
    ),
}
_CJK_RE = re.compile(r"[一-鿿぀-ヿ]")


def detect_language(text: str) -> str:
    """Cheap deterministic language ID: CJK char ratio → zh; else the
    language whose stopword set covers the most tokens; tie/none → 'und'."""
    if not text:
        return "und"
    cjk = len(_CJK_RE.findall(text))
    if cjk > 0.05 * len(text):
        return "zh"
    tokens = [t.lower() for t in text.split()[:200]]
    if not tokens:
        return "und"
    best_lang, best_hits = "und", 0
    for lang, markers in _LANG_MARKERS.items():
        hits = sum(1 for t in tokens if t in markers)
        if hits > best_hits:
            best_lang, best_hits = lang, hits
    return best_lang if best_hits >= max(1, len(tokens) // 50) else "und"


# -- document fingerprinting (rolling hash / winnowing) -------------------------

_B = 1000003  # polynomial base (prime)
_M = (1 << 61) - 1  # Mersenne prime modulus


def token_hash64(token: str) -> int:
    return int.from_bytes(blake2b(token.encode("utf-8"), digest_size=8).digest(), "big")


def rolling_fingerprints(text: str, window: int = 5) -> np.ndarray:
    """Polynomial rolling hashes of every *window*-token span (uint64)."""
    toks = text.split()
    if len(toks) < window:
        toks = toks + [""] * (window - len(toks))
    h = np.fromiter((token_hash64(t) % _M for t in toks), np.uint64, len(toks))
    n = len(h) - window + 1
    out = np.empty(n, dtype=np.uint64)
    pow_w = pow(_B, window - 1, _M)
    cur = 0
    for i, v in enumerate(h[:window]):
        cur = (cur * _B + int(v)) % _M
    out[0] = cur
    for i in range(1, n):
        cur = ((cur - int(h[i - 1]) * pow_w) * _B + int(h[i + window - 1])) % _M
        out[i] = cur % _M
    return out


def doc_fingerprint(text: str, window: int = 5) -> int:
    """One uint64 per document: min rolling-window hash (winnowing-style
    representative; identical prefixes/bodies collide, edits usually don't)."""
    return int(rolling_fingerprints(text, window).min())
