"""Text kernels: shingling, MinHash, SimHash, language ID, quality
metrics, fingerprints.

Everything is deterministic and hash-based (no RNG state), so any shard
of a corpus computes identical values on any worker.
"""

from __future__ import annotations

import hashlib

import numpy as np

_M61 = np.uint64((1 << 61) - 1)
_B = np.uint64(1_000_003)


def hash_bytes_u64(parts: list[bytes]) -> np.ndarray:
    """Deterministic 64-bit hash per byte string (blake2b truncation)."""
    out = np.empty(len(parts), dtype=np.uint64)
    for i, p in enumerate(parts):
        out[i] = int.from_bytes(
            hashlib.blake2b(p, digest_size=8).digest(), "little")
    return out


def mix64(x) -> np.ndarray:
    """Vectorized splitmix64 finalizer (Steele et al. 2014) — full
    64-bit avalanche, pure numpy; the one 64-bit integer mixer of the
    package."""
    with np.errstate(over="ignore"):
        z = np.asarray(x, dtype=np.uint64) + np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


_HASH_COL_LONG = 512  # strings longer than this take the per-row path


def hash_column_u64(col) -> np.ndarray:
    """Deterministic 64-bit hash of an Arrow column with NO per-row
    Python on the hot path (the engine-internal hash for HLL and other
    sketches; use :func:`md5_u64` only where a SQL oracle must
    reproduce the hash).

    Integers/floats hash as splitmix64 of their 64-bit pattern.
    Strings/binary hash with a vectorized FNV-1a (Horner by byte
    position over the flat Arrow buffer — one masked gather per byte
    position up to the batch max length) + splitmix64 finish; rare
    over-long values (> _HASH_COL_LONG bytes) fall back to per-row
    blake2b, chosen by each value's own length so the scheme stays
    value-deterministic. Nulls hash as empty/zero."""
    import pyarrow as pa
    import pyarrow.compute as pc

    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    t = arr.type
    if pa.types.is_integer(t) or pa.types.is_temporal(t):
        x = pc.cast(arr, pa.int64(), safe=False).to_numpy(
            zero_copy_only=False).astype(np.int64).view(np.uint64)
        return mix64(x)
    if pa.types.is_floating(t):
        x = pc.cast(arr, pa.float64()).to_numpy(
            zero_copy_only=False).astype(np.float64).view(np.uint64)
        return mix64(x)
    if not (pa.types.is_string(t) or pa.types.is_large_string(t)
            or pa.types.is_binary(t) or pa.types.is_large_binary(t)):
        # fallback: stringify via Arrow, then hash as string
        arr = pc.cast(arr, pa.string())
        t = arr.type
    if pa.types.is_string(t) or pa.types.is_binary(t):
        off_dt = np.int32
    else:
        off_dt = np.int64
    n = len(arr)
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    arr = arr.fill_null("" if pa.types.is_string(t)
                        or pa.types.is_large_string(t) else b"")
    offsets = np.frombuffer(arr.buffers()[1], dtype=off_dt)[
        arr.offset:arr.offset + n + 1].astype(np.int64)
    data = np.frombuffer(arr.buffers()[2], dtype=np.uint8) \
        if arr.buffers()[2] is not None else np.empty(0, np.uint8)
    starts = offsets[:-1]
    lens = np.diff(offsets)
    out = np.empty(n, dtype=np.uint64)
    short = lens <= _HASH_COL_LONG
    s_idx = np.nonzero(short)[0]
    if len(s_idx):
        sl = lens[s_idx]
        ss = starts[s_idx]
        h = np.full(len(s_idx), 0xcbf29ce484222325, dtype=np.uint64)
        maxlen = int(sl.max()) if len(sl) else 0
        with np.errstate(over="ignore"):
            for j in range(maxlen):
                m = sl > j
                b = data[ss[m] + j].astype(np.uint64)
                h[m] = (h[m] ^ b) * np.uint64(0x100000001B3)
            out[s_idx] = mix64(h ^ sl.astype(np.uint64))
    long_idx = np.nonzero(~short)[0]
    if len(long_idx):
        out[long_idx] = hash_bytes_u64(
            [data[starts[i]:starts[i] + lens[i]].tobytes()
             for i in long_idx])
    return out


def md5_u64(parts: list[bytes]) -> np.ndarray:
    """64-bit hash per byte string with DuckDB parity:
    ``int.from_bytes(md5(p)[8:16], "little") == md5_number_lower(p)``.
    Used wherever a SQL oracle must reproduce the hash bit-for-bit."""
    out = np.empty(len(parts), dtype=np.uint64)
    for i, p in enumerate(parts):
        out[i] = int.from_bytes(hashlib.md5(p).digest()[8:16], "little")
    return out


SHINGLE_N = 3  # character n-gram size of the shingle-based dedups


def char_shingles(text: str) -> np.ndarray:
    """Distinct hashed character ``SHINGLE_N``-grams of one document
    (uint64).

    Uses a polynomial rolling hash mod 2^61-1 over UTF-8 code points —
    one pass, vectorized via cumulative powers.
    """
    n = SHINGLE_N
    if len(text) < n:
        return np.unique(hash_bytes_u64([text.encode()])) if text else \
            np.empty(0, dtype=np.uint64)
    codes = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32).astype(np.uint64)
    with np.errstate(over="ignore"):
        # windows of length n: h = sum(c[i+j] * B^(n-1-j)) mod M61
        h = np.zeros(len(codes) - n + 1, dtype=np.uint64)
        for j in range(n):
            h = (h * _B + codes[j:len(codes) - n + 1 + j]) % _M61
    return np.unique(h)


def char_shingles_batch(texts: list[str]) -> list[np.ndarray]:
    """Distinct hashed ``SHINGLE_N``-grams for MANY documents in one
    vectorized pass. Bit-identical to per-doc :func:`char_shingles` (same rolling
    hash, same sorted-unique output), but the window hashing runs once
    over the batch's concatenated code points and per-doc dedup is one
    lexsort — no per-doc numpy call overhead.

    Documents shorter than ``SHINGLE_N`` keep the scalar fallback
    (whole-text md5, char_shingles:44-46); they are rare and
    constant-cost.
    """
    n = SHINGLE_N
    nd = len(texts)
    out: list = [None] * nd
    enc = []
    owners = []
    for i, t in enumerate(texts):
        if len(t) < n:
            out[i] = (np.unique(hash_bytes_u64([t.encode()])) if t
                      else np.empty(0, dtype=np.uint64))
        else:
            enc.append(t.encode("utf-32-le"))
            owners.append(i)
    if not enc:
        return out
    lens = np.fromiter((len(e) // 4 for e in enc), dtype=np.int64,
                       count=len(enc))
    codes = np.frombuffer(b"".join(enc), dtype=np.uint32).astype(np.uint64)
    starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
    # hash EVERY window of the concatenation with contiguous slices (no
    # index gather — that costs more than it saves on this host);
    # windows that straddle a document boundary are computed but never
    # read: each doc slices only its own [start, start+len-n] range
    S = len(codes)
    with np.errstate(over="ignore"):
        h = np.zeros(S - n + 1, dtype=np.uint64)
        for j in range(n):
            h = (h * _B + codes[j:S - n + 1 + j]) % _M61
    for k, i in enumerate(owners):
        s0 = starts[k]
        out[i] = np.unique(h[s0:s0 + lens[k] - n + 1])
    return out


# MinHash permutation parameters (fixed, deterministic)
_MERSENNE = np.uint64((1 << 61) - 1)


def _minhash_params(k: int):
    rng = np.random.RandomState(12345)
    a = rng.randint(1, (1 << 61) - 1, size=k, dtype=np.int64).astype(np.uint64)
    b = rng.randint(0, (1 << 61) - 1, size=k, dtype=np.int64).astype(np.uint64)
    return a, b


MINHASH_K = 128  # MinHash permutations per signature
_MH_A, _MH_B = _minhash_params(MINHASH_K)


def minhash_signature(shingles: np.ndarray) -> np.ndarray:
    """``MINHASH_K``-permutation MinHash signature of a shingle set
    (uint64[MINHASH_K]; empty set -> all max)."""
    if len(shingles) == 0:
        return np.full(MINHASH_K, np.iinfo(np.uint64).max, dtype=np.uint64)
    a = _MH_A[:, None]
    b = _MH_B[:, None]
    with np.errstate(over="ignore"):
        vals = (a * shingles[None, :] + b) % _MERSENNE
    return vals.min(axis=1)


_MH_PCHUNK = 16


def minhash_signatures_batch(shingle_arrays: list[np.ndarray]) -> np.ndarray:
    """MinHash signatures for MANY documents in one vectorized pass:
    (n_docs, MINHASH_K) uint64.  Equivalent to per-doc :func:`minhash_signature`
    but the (perm x shingle) kernel runs over the whole batch's flattened
    shingle arrays with ``np.minimum.reduceat`` — no per-doc Python loop.

    Permutations are chunked (``_MH_PCHUNK`` at a time) into a reused
    buffer so the temporary stays small (first-touch page faults on big
    fresh arrays dominate wall time on this host)."""
    n = len(shingle_arrays)
    out = np.full((n, MINHASH_K), np.iinfo(np.uint64).max, dtype=np.uint64)
    lens = np.fromiter((len(s) for s in shingle_arrays), dtype=np.int64,
                       count=n)
    nonempty = lens > 0
    if not nonempty.any():
        return out
    flat = np.concatenate([s for s in shingle_arrays if len(s)])
    flat = flat.astype(np.uint64, copy=False)
    bounds = np.concatenate(
        [[0], np.cumsum(lens[nonempty])[:-1]]).astype(np.int64)
    S = len(flat)
    buf = np.empty((_MH_PCHUNK, S), dtype=np.uint64)
    ne_idx = np.nonzero(nonempty)[0]
    with np.errstate(over="ignore"):
        for p0 in range(0, MINHASH_K, _MH_PCHUNK):
            p1 = min(p0 + _MH_PCHUNK, MINHASH_K)
            m = p1 - p0
            # (a * x + b) % M, identical op order to minhash_signature
            np.multiply(_MH_A[p0:p1][:, None], flat[None, :], out=buf[:m])
            np.add(buf[:m], _MH_B[p0:p1][:, None], out=buf[:m])
            np.mod(buf[:m], _MERSENNE, out=buf[:m])
            out[ne_idx, p0:p1] = np.minimum.reduceat(
                buf[:m], bounds, axis=1).T
    return out


def band_keys_batch(sigs: np.ndarray, bands: int, rows: int) -> np.ndarray:
    """LSH band keys for MANY signatures at once: (n, bands) uint64 —
    the FNV-1a fold of each band's ``rows`` signature values, vectorized
    across documents (the per-row fold is a fixed ``rows``-step loop)."""
    sigs = np.ascontiguousarray(sigs, dtype=np.uint64)
    n = len(sigs)
    v = sigs[:, :bands * rows].reshape(n, bands, rows)
    h = np.full((n, bands), 1469598103934665603, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for r in range(rows):
            h = (h ^ v[:, :, r]) * np.uint64(1099511628211)
    return h


def simhash_batch(texts: list[str]) -> np.ndarray:
    """64-bit SimHash per document, vectorized across the batch.

    Tokenization is single-space split with empties dropped — chosen
    (over ``str.split()``) because it is exactly DuckDB's
    ``unnest(string_split(text, ' ')) ... WHERE w <> ''``, so a SQL
    oracle reproduces the multiset bit-for-bit.  Tokens hash with
    :func:`md5_u64` (DuckDB ``md5_number_lower`` parity), cached per
    unique token, and the per-bit +/-1 vote runs as one
    ``np.add.reduceat`` over the batch."""
    cache: dict[str, int] = {}
    flat: list[int] = []
    lens = np.empty(len(texts), dtype=np.int64)
    pending: list[str] = []
    for i, t in enumerate(texts):
        toks = [w for w in t.split(" ") if w]
        lens[i] = len(toks)
        for w in toks:
            if w not in cache:
                cache[w] = -1
                pending.append(w)
        flat.extend(toks)  # resolved to hashes below
    if pending:
        hs = md5_u64([w.encode() for w in pending])
        for w, h in zip(pending, hs):
            cache[w] = int(h)
    out = np.zeros(len(texts), dtype=np.uint64)
    nonempty = lens > 0
    if not nonempty.any():
        return out
    th = np.fromiter((cache[w] for w in flat), dtype=np.uint64,
                     count=len(flat))
    bounds = np.concatenate(
        [[0], np.cumsum(lens[nonempty])[:-1]]).astype(np.int64)
    # per-bit votes: (n_tokens, 64) contributions summed per doc segment
    bits = ((th[:, None] >> np.arange(64, dtype=np.uint64)[None, :])
            & np.uint64(1)).astype(np.int8)
    contrib = (2 * bits - 1).astype(np.int32)
    scores = np.add.reduceat(contrib, bounds, axis=0)  # (n_nonempty, 64)
    with np.errstate(over="ignore"):
        sigs = ((scores > 0).astype(np.uint64)
                << np.arange(64, dtype=np.uint64)[None, :]).sum(axis=1)
    out[np.nonzero(nonempty)[0]] = sigs
    return out


def hamming64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-element Hamming distance of two uint64 arrays — SWAR
    popcount (Hacker's Delight fig. 5-2), 5 vector ops instead of a
    64-iteration shift loop."""
    x = np.bitwise_xor(a.astype(np.uint64), b.astype(np.uint64))
    with np.errstate(over="ignore"):
        x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
        x = ((x & np.uint64(0x3333333333333333))
             + ((x >> np.uint64(2)) & np.uint64(0x3333333333333333)))
        x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
        x = (x * np.uint64(0x0101010101010101)) >> np.uint64(56)
    return x.astype(np.int64)


# ---------------------------------------------------------------------------
# Language ID (n-gram/stopword heuristic)
# ---------------------------------------------------------------------------

_LANG_MARKERS = {
    "en": (" the ", " and ", " of ", " to ", " is ", " that "),
    "de": (" der ", " und ", " die ", " das ", " ist ", " nicht "),
    "fr": (" le ", " la ", " les ", " et ", " est ", " que "),
    "es": (" el ", " la ", " los ", " que ", " es ", " y "),
    "zh": ("的", "是", "了", "在", "我", "不"),
}
_LANGS = sorted(_LANG_MARKERS)


def lang_id(text: str) -> str:
    """Marker-frequency language guess; deterministic ties -> first in
    sorted lang order."""
    padded = f" {text.lower()} "
    best = ("und", 0)
    for lang in _LANGS:
        score = sum(padded.count(m) for m in _LANG_MARKERS[lang])
        if score > best[1]:
            best = (lang, score)
    return best[0]


def lang_id_batch(text_col) -> "pa.Array":
    """Vectorized :func:`lang_id` over an Arrow string column — every
    marker count is one Arrow C++ ``count_substring`` kernel call (no
    per-row Python), and the argmax/tie rule matches the scalar
    function exactly: strictly-greater wins, ties and all-zero scores
    fall back to the earlier lang / "und"."""
    import pyarrow as pa
    import pyarrow.compute as pc

    padded = pc.binary_join_element_wise(
        " ", pc.utf8_lower(text_col), " ", "")
    n = len(padded)
    scores = np.zeros((n, len(_LANGS)), dtype=np.int64)
    for li, lang in enumerate(_LANGS):
        for m in _LANG_MARKERS[lang]:
            scores[:, li] += pc.count_substring(
                padded, m).to_numpy(zero_copy_only=False)
    best = np.argmax(scores, axis=1)  # first max wins = sorted-lang tie
    out = np.asarray(_LANGS, dtype=object)[best]
    out[scores.max(axis=1) == 0] = "und"
    return pa.array(out, pa.string())


# ---------------------------------------------------------------------------
# Quality metrics (integer-exact, SQL-mirrorable)
# ---------------------------------------------------------------------------

def quality_counts(text: str) -> tuple[int, int, int, int, int]:
    """(n_chars, n_spaces, n_periods, n_commas, n_digits) — all integer
    and definable identically in SQL via length/replace."""
    return (len(text),
            text.count(" "),
            text.count("."),
            text.count(","),
            sum(text.count(d) for d in "0123456789"))


def md5_hex(text: str) -> str:
    return hashlib.md5(text.encode()).hexdigest()
