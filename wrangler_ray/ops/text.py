"""Text analysis stages for training-data pipelines: language-ID, quality
scoring, token counting, document fingerprinting. All stateful setup (regex
compile, profile tables) happens once per worker process; work per
batch is Arrow-native — ``pyarrow.compute`` RE2/string kernels over
zero-copy ``pa.Table`` batches (the previous pandas ``.str`` path looped
Python ``re`` per row inside pandas AND paid an Arrow→pandas copy per
batch). RE2 note: ``\\w``/``\\s`` are ASCII in RE2 (vs unicode in Python
``re``) — identical on ASCII corpora and it matches the DuckDB (RE2)
oracles exactly."""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


# tiny trigram/stopword profiles per language (heuristic n-gram language-ID)
_PROFILES = {
    "en": {"the", "and", "ing", " th", "of ", "ion", "to ", " an", "ed ", "is "},
    "de": {"der", "die", "und", "ein", "sch", "ich", "den", "cht", "das", "ung"},
    "fr": {"les", "de ", "ent", "le ", "la ", "des", "que", "ion", "une", "ais"},
    "es": {"de ", "la ", "que", "el ", "los", "ión", "ado", "con", "una", "por"},
    "it": {"di ", "che", "la ", "il ", "per", "con", "una", "ione", "non", "gli"},
}
_STOPWORDS = {
    "the", "and", "of", "a", "to", "in", "is", "it", "that", "for", "on", "as",
    "with", "was", "at", "by", "an", "be", "this", "are",
}


class LanguageId:
    """Heuristic trigram language-ID. Adds ``lang_pred`` and ``lang_score``.

    Vectorized: one ``str.contains`` pass per profile trigram (50 C-speed
    substring scans over the first ~4 KB of each text) instead of building a
    Python gram set per row — same decision as the per-row ``classify``
    (presence of a profile gram within the scanned window)."""

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col
        self.profiles = {k: frozenset(v) for k, v in _PROFILES.items()}
        self.langs = list(self.profiles)

    def classify(self, text: str) -> tuple[str, float]:
        """Single-text path; same substring-presence decision as
        ``predict_series`` (profile n-grams checked against the first ~4 KB)."""
        if not text:
            return "und", 0.0
        s = text.lower()[:4002]
        best, score = "und", 0.0
        for lang, prof in self.profiles.items():
            hits = sum(1 for g in prof if g in s) / len(prof)
            if hits > score:
                best, score = lang, hits
        return (best if score > 0.15 else "und"), score

    def predict_series(self, texts: pd.Series) -> tuple[np.ndarray, np.ndarray]:
        """pandas-Series entry (kept for callers holding frames); the work
        runs through the Arrow kernels."""
        return self.predict_arrow(pa.array(texts.fillna(""), pa.string()))

    def predict_arrow(self, col) -> tuple[np.ndarray, np.ndarray]:
        # prefix of 4002 chars ⇔ trigram windows starting at < 4000, the same
        # window the per-row classify scans; one C++ substring scan per
        # profile gram (50 passes) — no per-row Python
        prefix = pc.utf8_lower(
            pc.utf8_slice_codeunits(pc.fill_null(col, ""), 0, 4002)
        )
        n = len(prefix)
        scores = np.zeros((n, len(self.langs)), np.float32)
        for li, lang in enumerate(self.langs):
            prof = self.profiles[lang]
            hits = np.zeros(n, np.int32)
            for g in prof:
                hits += pc.match_substring(prefix, g).to_numpy(
                    zero_copy_only=False
                )
            scores[:, li] = hits / np.float32(len(prof))
        best = scores.argmax(axis=1)  # ties → earlier profile, like classify
        best_score = scores[np.arange(n), best]
        preds = np.where(
            best_score > 0.15, np.asarray(self.langs, object)[best], "und"
        )
        return preds, best_score

    def __call__(self, batch: pa.Table) -> pa.Table:
        preds, scores = self.predict_arrow(batch.column(self.text_col))
        batch = batch.append_column("lang_pred", pa.array(preds, pa.string()))
        return batch.append_column(
            "lang_score", pa.array(scores, pa.float32())
        )


class QualityScore:
    """Document quality heuristics (length / punctuation / stopword-ratio /
    mean word length), one Arrow-kernel pass per batch. Adds
    ``q_len, q_punct_ratio, q_stop_ratio, q_mean_wordlen, quality``."""

    # RE2-safe patterns (no lookarounds) shared with the SQL oracles
    WORD_PAT = r"[A-Za-z']+"
    PUNCT_PAT = r"[^\w\s]"
    WORDCHAR_PAT = r"[A-Za-z']"

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col
        self.stop_words = sorted(_STOPWORDS)

    def _stop_count(self, s) -> np.ndarray:
        """Count word tokens (maximal [A-Za-z']+ runs) equal to a stopword,
        case-insensitively, WITHOUT lookarounds (RE2 has none): lowercase,
        squash every non-token run to TWO spaces (so adjacent ' w ' matches
        can never overlap), pad, then ONE alternation-regex count pass —
        the trailing-space literal disambiguates prefixes ('a' never steals
        'as'), so each token matches at most once. Equivalent to the
        lookaround regex (?<![A-Za-z'])(?:w1|w2|…)(?![A-Za-z'])."""
        squashed = pc.replace_substring_regex(
            pc.utf8_lower(s), "[^a-z']+", "  "
        )
        padded = pc.binary_join_element_wise(" ", squashed, " ", "")
        pat = " (?:" + "|".join(self.stop_words) + ") "
        return pc.count_substring_regex(padded, pat).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)

    def metrics(self, col) -> dict[str, np.ndarray]:
        """All quality metrics from an Arrow string column (nulls → '').

        Per-CHAR counts (punct, word chars) go through replace-then-length
        — one RE2 pass per metric — instead of count_substring_regex on a
        single-char class, whose per-MATCH overhead made it ~4× slower than
        the whole rest of the stage (measured: [A-Za-z'] count 39k docs/s
        vs 150k via length-diff on the sf corpus)."""
        s = pc.fill_null(col, "")
        length_arr = pc.utf8_length(s)
        length = length_arr.to_numpy(zero_copy_only=False).astype(np.int64)
        punct_n = pc.subtract(
            length_arr,
            pc.utf8_length(pc.replace_substring_regex(s, self.PUNCT_PAT + "+", "")),
        ).to_numpy(zero_copy_only=False)
        n_words_raw = pc.count_substring_regex(s, self.WORD_PAT).to_numpy(
            zero_copy_only=False
        )
        word_chars = pc.utf8_length(
            pc.replace_substring_regex(s, "[^A-Za-z']+", "")
        ).to_numpy(zero_copy_only=False)
        stop = self._stop_count(s)
        n_words = np.maximum(n_words_raw, 1)
        punct = punct_n / np.maximum(length, 1)
        stop_ratio = stop / n_words
        mean_wl = np.where(n_words_raw > 0, word_chars / n_words, 0.0)
        return {
            "q_len": length,
            "q_punct_ratio": punct.astype(np.float64),
            "q_stop_ratio": stop_ratio.astype(np.float64),
            "q_mean_wordlen": mean_wl.astype(np.float64),
            "n_words_raw": n_words_raw.astype(np.int64),
        }

    def __call__(self, batch: pa.Table) -> pa.Table:
        m = self.metrics(batch.column(self.text_col))
        for name in ("q_len", "q_punct_ratio", "q_stop_ratio", "q_mean_wordlen"):
            batch = batch.append_column(name, pa.array(m[name]))
        # composite score in [0,1]: long enough, some stopwords, sane word len
        score = (
            np.clip(m["q_len"] / 500.0, 0, 1) * 0.4
            + np.clip(m["q_stop_ratio"] / 0.4, 0, 1) * 0.4
            + np.clip(1 - np.abs(m["q_mean_wordlen"] - 4.5) / 4.5, 0, 1) * 0.2
        )
        return batch.append_column("quality", pa.array(score.astype(np.float64)))


# BPE-ish sub-token pieces (GPT-2-style contractions/words/digits/punct).
# CANONICAL pattern is RE2-safe (plain \s+ — no lookahead), so the same
# pattern runs verbatim in pyarrow (count_substring_regex), in Python re,
# and in DuckDB SQL oracles (len(regexp_extract_all(...))). The GPT-2
# lookahead branch \s+(?!\S) only changes how a run's last whitespace char
# attaches (count differs on tab-before-token and space-quote shapes), and
# this metric is a token-budget heuristic, not a tokenizer contract — one
# engine-independent definition beats a Python-re-only one.
_BPE_PAT_RE2 = r"'s|'t|'re|'ve|'m|'ll|'d| ?[A-Za-z]+| ?\d+| ?[^\sA-Za-z\d]+|\s+"
_BPE_RE = re.compile(_BPE_PAT_RE2)


class TokenCount:
    """Adds ``n_ws_tokens`` (whitespace) and ``n_bpe_tokens`` (regex-piece)
    counts per document — two RE2 kernel passes, no per-row Python."""

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col

    def counts(self, col) -> dict[str, np.ndarray]:
        s = pc.fill_null(col, "")
        return {
            "n_ws_tokens": pc.count_substring_regex(s, r"\S+")
            .to_numpy(zero_copy_only=False)
            .astype(np.int64),
            "n_bpe_tokens": pc.count_substring_regex(s, _BPE_PAT_RE2)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64),
        }

    def __call__(self, batch: pa.Table) -> pa.Table:
        c = self.counts(batch.column(self.text_col))
        batch = batch.append_column("n_ws_tokens", pa.array(c["n_ws_tokens"]))
        return batch.append_column("n_bpe_tokens", pa.array(c["n_bpe_tokens"]))


class Fingerprint:
    """Rolling-hash (Rabin-Karp) document fingerprint: min-hash of all k-length
    window hashes → stable ``fingerprint`` int64 (good for winnowing-style
    near-dup grouping)."""

    B = 1_000_003
    M = (1 << 61) - 1

    def __init__(self, text_col: str = "text", k: int = 16):
        self.text_col = text_col
        self.k = k
        self.bk = pow(self.B, k - 1, self.M)

    def fingerprint(self, text: str) -> int:
        """Vectorized: window hashes = sliding windows of utf-8 bytes dotted
        with base powers (mod 2^64 wraparound), fingerprint = min."""
        if not text:
            return 0
        s = " ".join(text.split()).lower()
        k = self.k
        codes = np.frombuffer(s.encode("utf-8"), dtype=np.uint8).astype(np.uint64)
        if len(codes) < k:
            codes = np.pad(codes, (0, k - len(codes)), constant_values=32)
        win = np.lib.stride_tricks.sliding_window_view(codes, k)
        powers = np.empty(k, np.uint64)
        powers[0] = 1
        with np.errstate(over="ignore"):
            for i in range(1, k):
                powers[i] = powers[i - 1] * np.uint64(self.B)  # wraps mod 2^64
            h = (win * powers[None, :]).sum(axis=1, dtype=np.uint64)
        return int(h.min())

    def fingerprints_batch(self, texts) -> np.ndarray:
        """Whole-batch fingerprints: ONE sliding-window hash pass over the
        concatenation of all normalized texts, then a segmented min
        (np.minimum.reduceat) per document — cross-document windows are
        skipped by interleaving valid/boundary segments. Identical values to
        per-text ``fingerprint``."""
        k = self.k
        bufs, lens = [], []
        for t in texts:
            s = " ".join(t.split()).lower() if t else ""
            b = s.encode("utf-8")
            if len(b) < k:
                b = b.ljust(k, b" ")
            bufs.append(b)
            lens.append(len(b))
        if not bufs:
            return np.empty(0, np.int64)
        cat = np.frombuffer(b"".join(bufs), np.uint8).astype(np.uint64)
        powers = np.empty(k, np.uint64)
        powers[0] = 1
        n_win = len(cat) - k + 1
        h = np.zeros(n_win, np.uint64)
        # shifted-add form of the window dot product: k in-place passes over
        # 1-D slices instead of one (n_win × k) 2-D temp — measured 15×
        # faster (allocation-bound otherwise)
        with np.errstate(over="ignore"):
            for i in range(1, k):
                powers[i] = powers[i - 1] * np.uint64(self.B)
            for j in range(k):
                h += cat[j : j + n_win] * powers[j]
        lens_np = np.asarray(lens, np.int64)
        starts = np.concatenate([[0], np.cumsum(lens_np)[:-1]])
        valid_end = starts + lens_np - k + 1  # exclusive end of valid windows
        # cross-document windows (the k-1 positions after each doc's last
        # valid window) are masked to MAX so they never win the min, then one
        # reduceat over doc starts gives every per-doc minimum
        if len(lens_np) > 1:
            bad = (valid_end[:-1, None] + np.arange(k - 1)[None, :]).ravel()
            h[bad] = np.iinfo(np.uint64).max
        mins = np.minimum.reduceat(h, starts)
        out = mins % np.uint64(1 << 62)
        empty_mask = np.fromiter((not t for t in texts), bool, len(texts))
        out[empty_mask] = 0
        return out.astype(np.int64)

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column(self.text_col).to_pylist()
        fps = self.fingerprints_batch(texts)
        return batch.append_column("fingerprint", pa.array(fps, pa.int64()))


class TextAnalyzer:
    """FUSED analysis stage: language-ID + quality + token counts +
    fingerprint in ONE map stage / one pass per batch, which avoids three
    extra stages, Arrow↔pandas conversions and object-store hops per
    batch."""

    def __init__(self, text_col: str = "text"):
        self.lang = LanguageId(text_col)
        self.quality = QualityScore(text_col)
        self.tokens = TokenCount(text_col)
        self.fp = Fingerprint(text_col)
        self.text_col = text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        col = batch.column(self.text_col)
        preds, scores = self.lang.predict_arrow(col)
        batch = batch.append_column("lang_pred", pa.array(preds, pa.string()))
        batch = batch.append_column("lang_score", pa.array(scores, pa.float32()))
        batch = self.quality(batch)
        batch = self.tokens(batch)
        # fingerprint stays a numpy rolling-hash pass (no Arrow kernel for
        # sliding-window dot products); texts cross into Python ONCE here
        return batch.append_column(
            "fingerprint",
            pa.array(self.fp.fingerprints_batch(col.to_pylist()), pa.int64()),
        )


# per-worker-process singletons: a stage's state (a few compiled regexes,
# profile tables) is microseconds to build, so a dedicated actor pool would
# cost far more (new processes + imports) than it saves and would cap
# parallelism (an N-actor pool caps the stage at N workers while read tasks
# starve) — tasks on warm workers with a cached instance get actor-style
# init-once for free and scale with the cluster
_STAGES: dict[tuple[str, str], object] = {}


def _stage_batch(batch: pa.Table, cls=None, text_col: str = "text") -> pa.Table:
    key = (cls.__name__, text_col)
    st = _STAGES.get(key)
    if st is None:
        st = _STAGES[key] = cls(text_col)
    return st(batch)


def analyze(ds, text_col: str = "text"):
    """Language-ID → quality → token counts → fingerprint as ONE fused stage
    (see TextAnalyzer for why): task-based ``map_batches`` on warm workers
    with a per-process ``TextAnalyzer`` singleton, like the single-metric
    stages."""
    import functools

    return ds.map_batches(
        functools.partial(_stage_batch, cls=TextAnalyzer, text_col=text_col),
        batch_format="pyarrow", zero_copy_batch=True, batch_size=None,
    )


def token_counts(ds, text_col: str = "text"):
    """Whitespace + BPE-ish token counts as a task-based fused stage."""
    import functools

    return ds.map_batches(
        functools.partial(_stage_batch, cls=TokenCount, text_col=text_col),
        batch_format="pyarrow", zero_copy_batch=True, batch_size=None,
    )


def quality(ds, text_col: str = "text"):
    """Quality heuristics (length/punct/stopword/word-length) as a task-based
    fused stage."""
    import functools

    return ds.map_batches(
        functools.partial(_stage_batch, cls=QualityScore, text_col=text_col),
        batch_format="pyarrow", zero_copy_batch=True, batch_size=None,
    )


def _quality_filter_batch(
    batch: pa.Table,
    text_col: str,
    min_words: int,
    max_words: int,
    min_mean_wordlen: float,
    max_mean_wordlen: float,
    max_punct_ratio: float,
    min_stop_ratio: float,
) -> pa.Table:
    qs = _STAGES.get(("QualityScore", text_col))
    if qs is None:
        qs = _STAGES[("QualityScore", text_col)] = QualityScore(text_col)
    m = qs.metrics(batch.column(text_col))
    n_words = m["n_words_raw"]
    keep = (
        (n_words >= min_words)
        & (n_words <= max_words)
        & (m["q_mean_wordlen"] >= min_mean_wordlen)
        & (m["q_mean_wordlen"] <= max_mean_wordlen)
        & (m["q_punct_ratio"] <= max_punct_ratio)
        & (m["q_stop_ratio"] >= min_stop_ratio)
    )
    return batch.filter(pa.array(keep))


def quality_filter(
    ds,
    text_col: str = "text",
    min_words: int = 5,
    max_words: int = 100_000,
    min_mean_wordlen: float = 3.0,
    max_mean_wordlen: float = 10.0,
    max_punct_ratio: float = 0.3,
    min_stop_ratio: float = 0.02,
):
    """Gopher-style document quality gate (rules published in Rae et al.,
    "Scaling Language Models: ... Gopher", arXiv:2112.11446 §A1.1): keep
    only documents passing ALL closed-form thresholds — word count in
    [min_words, max_words], mean word length in [min_mean_wordlen,
    max_mean_wordlen], punctuation-to-char ratio ≤ max_punct_ratio, and
    stopword-token ratio ≥ min_stop_ratio. One fused vectorized
    ``map_batches`` pass reusing the QualityScore kernels; rows that fail are
    dropped and NO metric columns are added (pure filter — compose with
    ``analyze()`` when the metrics should survive)."""
    import functools

    return ds.map_batches(
        functools.partial(
            _quality_filter_batch,
            text_col=text_col,
            min_words=min_words,
            max_words=max_words,
            min_mean_wordlen=min_mean_wordlen,
            max_mean_wordlen=max_mean_wordlen,
            max_punct_ratio=max_punct_ratio,
            min_stop_ratio=min_stop_ratio,
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=None,
    )


# -- PII redaction -----------------------------------------------------------

# conservative RE2-compatible patterns (no lookaround/backrefs) so the SAME
# regexes run verbatim in SQL oracles (DuckDB regexp_replace) — order matters:
# emails before phones (a phone pattern could eat digits inside an address)
PII_PATTERNS: list[tuple[str, str]] = [
    (r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    (r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b", "<IP>"),
    (r"\b\+?\d[\d -]{7,14}\d\b", "<PHONE>"),
]


def _redact_batch(t: pa.Table, text_col: str, patterns) -> pa.Table:
    s = t.column(text_col)
    for pat, token in patterns:
        # RE2 kernel; nulls propagate (stay null) through every pass
        s = pc.replace_substring_regex(s, pat, token)
    return t.set_column(t.column_names.index(text_col), text_col, s)


def redact_pii(ds, text_col: str = "text", patterns=None):
    """Scrub PII-shaped substrings (emails, IPv4 addresses, phone-like digit
    runs) from a text column, replacing each with a type token — the
    standard pre-training hygiene pass. One vectorized ``map_batches`` stage
    (compiled regexes applied column-wide); nulls stay null. ``patterns``
    overrides the default ``PII_PATTERNS`` [(regex, token), ...] list —
    patterns are RE2-safe so oracles can re-run them in SQL verbatim."""
    import functools

    return ds.map_batches(
        functools.partial(
            _redact_batch, text_col=text_col,
            patterns=patterns or PII_PATTERNS,
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=None,
    )
