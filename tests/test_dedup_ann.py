"""Dedup / similarity-search / text-analysis operator tests."""

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from karta_ray.functions import text as T


def corpus():
    """Deterministic corpus with planted near-duplicates."""
    rng = np.random.RandomState(3)
    vocab = ("data table join query scan index merge sort filter batch "
             "stream shuffle spill window group limit order part row").split()
    docs = []
    for i in range(30):
        words = [vocab[j] for j in rng.randint(0, len(vocab), 40)]
        docs.append(" ".join(words))
    # planted near-dups: copy with small edits
    docs.append(docs[0].replace("data", "datum", 1))
    docs.append(docs[5] + " extra tail words")
    docs.append(docs[12])
    ids = np.arange(len(docs), dtype=np.int64)
    return ids, docs


def cosine_pairs(mat, tau):
    """All (a < b) row pairs of ``mat`` with cosine >= tau, brute force."""
    norm = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    a, b = np.nonzero(np.triu(norm @ norm.T, 1) >= tau)
    return set(zip(a.tolist(), b.tolist()))


def true_jaccard(a: str, b: str, n=3):
    sa = {a[i:i + n] for i in range(len(a) - n + 1)}
    sb = {b[i:i + n] for i in range(len(b) - n + 1)}
    return len(sa & sb) / len(sa | sb)


class TestTextFunctions:
    def test_shingle_count_matches_distinct_substrings(self):
        s = "hello world, hello again"
        sh = T.char_shingles(s)
        want = {s[i:i + 3] for i in range(len(s) - 2)}
        assert len(sh) == len(want)

    def test_minhash_estimates_jaccard(self):
        ids, docs = corpus()
        a, b = docs[0], docs[30]  # planted near-dup
        ja = true_jaccard(a, b)
        siga = T.minhash_signature(T.char_shingles(a))
        sigb = T.minhash_signature(T.char_shingles(b))
        est = (siga == sigb).mean()
        assert abs(est - ja) < 0.15

    def test_simhash_near_for_near_dups(self):
        ids, docs = corpus()
        h0, h1, h2 = T.simhash_batch([docs[0], docs[30], docs[7]])
        assert int(T.hamming64(np.array([h0]), np.array([h1]))[0]) <= 6
        assert int(T.hamming64(np.array([h0]), np.array([h2]))[0]) > 6

    def test_hamming64(self):
        a = np.array([0b1011], dtype=np.uint64)
        b = np.array([0b0010], dtype=np.uint64)
        assert T.hamming64(a, b)[0] == 2

    def test_lang_id_markers(self):
        assert T.lang_id("the cat and the dog went to the house") == "en"
        assert T.lang_id("der hund und die katze ist nicht da") == "de"
        assert T.lang_id("le chat et la maison est que belle") == "fr"
        assert T.lang_id("el gato y la casa es que bonita") == "es"
        assert T.lang_id("我不是在这里的人") == "zh"

    def test_char_shingles_batch_parity(self):
        # batched hashing must be bit-identical to the per-doc scalar
        # path, including the short-text md5 fallback and empty docs
        rng = np.random.RandomState(4)
        texts = ["".join(chr(97 + c) for c in
                         rng.randint(0, 26, size=rng.randint(0, 60)))
                 for _ in range(200)]
        texts += ["", "a", "ab", "日本語テキスト", "aaaaaaa"]
        got = T.char_shingles_batch(texts)
        for t, g in zip(texts, got):
            assert np.array_equal(g, T.char_shingles(t))

    def test_lang_id_batch_parity(self):
        # the vectorized Arrow path must match the scalar golden on the
        # real fixture corpus plus hand-picked edge cases (empty text,
        # all-zero scores, exact ties resolved to sorted-lang order)
        import pyarrow.parquet as pq

        texts = pq.read_table("/root/testdata/sf0.001/documents.parquet",
                              columns=["text"]).column("text").to_pylist()
        texts += ["", "   ", "xyzzy plugh", "我不是在这里的人",
                  "le la et est el los y que",  # fr/es marker mix
                  "the und le el 的"]           # 1-each tie -> "de"? no:
        # ("de" has " und "; "en" has " the " -> tie at 1 -> first
        # sorted lang with the max, i.e. "de" vs "en": sorted order is
        # de < en < es < fr < zh, but the scalar rule keeps the FIRST
        # strictly-greater, so a 1-1 tie keeps the earlier lang)
        got = T.lang_id_batch(pa.array(texts, pa.string())).to_pylist()
        want = [T.lang_id(t) for t in texts]
        assert got == want

    def test_quality_counts(self):
        n_chars, n_sp, n_per, n_com, n_dig = T.quality_counts("a b. c, 12 x.")
        assert (n_chars, n_sp, n_per, n_com, n_dig) == (13, 4, 2, 1, 2)


@pytest.mark.usefixtures("ray_session")
class TestDedupStages:
    def _docs_ds(self):
        import ray.data

        ids, docs = corpus()
        return ray.data.from_arrow(pa.table({
            "doc_id": pa.array(ids), "text": pa.array(docs)})), ids, docs

    def test_ngram_jaccard_exact(self):
        from karta_ray.stages.dedup import ngram_jaccard_pairs

        ds, ids, docs = self._docs_ds()
        got = ngram_jaccard_pairs(ds).to_pandas()
        got_pairs = set(zip(got.doc_a, got.doc_b))
        want = set()
        for i in range(len(docs)):
            for j in range(i + 1, len(docs)):
                if true_jaccard(docs[i], docs[j]) >= 0.7:
                    want.add((i, j))
        assert got_pairs == want
        assert (0, 30) in want and (12, 32) in want

    def test_minhash_lsh_recall(self):
        from karta_ray.stages.dedup import minhash_lsh_pairs

        ds, ids, docs = self._docs_ds()
        got = minhash_lsh_pairs(ds, threshold=0.5).to_pandas()
        got_pairs = set(zip(got.doc_a, got.doc_b))
        # every strongly-similar true pair must be found
        for (i, j) in [(0, 30), (5, 31), (12, 32)]:
            assert (i, j) in got_pairs, (i, j)

    def test_simhash_pairs(self):
        from karta_ray.stages.dedup import simhash_pairs

        ds, ids, docs = self._docs_ds()
        got = simhash_pairs(ds).to_pandas()
        got_pairs = set(zip(got.doc_a, got.doc_b))
        assert (12, 32) in got_pairs  # identical copy -> hamming 0
        # verify every reported pair truly has hamming <= 3 (md5-parity
        # token hashes, the stage default)
        sigs = T.simhash_batch(list(docs))
        for a, b in got_pairs:
            h = T.hamming64(np.array([sigs[a]]), np.array([sigs[b]]))[0]
            assert h <= 3


@pytest.mark.usefixtures("ray_session")
class TestAnn:
    def _emb_ds(self, n=200, d=16):
        import ray.data

        rng = np.random.RandomState(9)
        mat = rng.randn(n, d)
        mat[50] = mat[3] + 0.01 * rng.randn(d)  # planted near-dup
        ids = np.arange(n, dtype=np.int64)
        labels = rng.randint(0, 8, n)
        t = pa.table({"vec_id": pa.array(ids),
                      "embedding": pa.array(mat.tolist()),
                      "label": pa.array(labels, pa.int32())})
        return ray.data.from_arrow(t), ids, mat, labels

    def test_ann_topk_exact(self):
        from karta_ray.stages.ann import ann_topk

        ds, ids, mat, _ = self._emb_ds()
        qids = ids[:3]
        got = ann_topk(ds, qids, mat[:3], k=5).to_pandas()
        norm = mat / np.linalg.norm(mat, axis=1, keepdims=True)
        sims = norm[:3] @ norm.T
        for qi in range(3):
            s = sims[qi].copy()
            s[qi] = -np.inf
            want = np.lexsort((ids, -s))[:5]
            rows = got[got.query_id == qi].sort_values("rank")
            assert rows.vec_id.tolist() == want.tolist()

    def test_ann_ivf_recall(self):
        from karta_ray.stages.ann import ann_ivf_topk, ann_topk

        ds, ids, mat, labels = self._emb_ds()
        qids = ids[:3]
        exact = ann_topk(ds, qids, mat[:3], k=5).to_pandas()
        approx = ann_ivf_topk(ds, qids, mat[:3], k=5, nprobe=3).to_pandas()
        recalls = []
        for qi in range(3):
            e = set(exact[exact.query_id == qi].vec_id)
            a = set(approx[approx.query_id == qi].vec_id)
            recalls.append(len(e & a) / len(e))
        assert np.mean(recalls) >= 0.5

    def test_cosine_neardup(self):
        from karta_ray.stages.ann import cosine_neardup_blocked

        ds, ids, mat, _ = self._emb_ds()
        got = cosine_neardup_blocked(ds, 0.95).to_pandas()
        pairs = set(zip(got.vec_a, got.vec_b))
        assert pairs == cosine_pairs(mat, 0.95)
        assert (3, 50) in pairs


class TestHashColumn:
    def test_vectorized_hash_deterministic_and_distinct(self):
        from karta_ray.functions.text import hash_column_u64

        # strings incl. empties and > _HASH_COL_LONG fallback values
        vals = ([f"user-{i}" for i in range(500)] + [""]
                + ["x" * 600, "x" * 601])
        col = pa.array(vals, pa.string())
        h1 = hash_column_u64(col)
        h2 = hash_column_u64(pa.chunked_array([col[:100], col[100:]]))
        assert (h1 == h2).all()            # chunking-invariant
        assert len(np.unique(h1)) == len(set(vals))
        # integers: 64-bit mix, no collisions on a contiguous range
        ints = pa.array(np.arange(10000, dtype=np.int64))
        hi = hash_column_u64(ints)
        assert len(np.unique(hi)) == 10000
        # value-deterministic across batch composition
        assert hash_column_u64(pa.array([vals[3]]))[0] == h1[3]
        assert hash_column_u64(pa.array(["x" * 600]))[0] == h1[-2]


class TestHLL:
    def test_accuracy(self):
        import pyarrow as pa

        from karta_ray.functions.sketch import (hll_add_hashes, hll_count,
                                                hll_create)
        from karta_ray.functions.text import hash_bytes_u64

        rng = np.random.RandomState(5)
        true_n = 50_000
        vals = [f"url-{i}" for i in range(true_n)] * 2  # duplicates
        regs = hll_create()
        # split across "partitions" and merge
        step = 10_000
        merged = hll_create()
        for s in range(0, len(vals), step):
            part = hll_create()
            h = hash_bytes_u64([v.encode() for v in vals[s:s + step]])
            hll_add_hashes(part, h)
            merged = np.maximum(merged, part)
        est = hll_count(merged)
        assert abs(est - true_n) / true_n < 0.05

    @pytest.mark.usefixtures("ray_session")
    def test_dataset_approx_distinct(self):
        import pyarrow as pa
        import ray.data

        from karta_ray.functions.sketch import (hll_count_from_rows,
                                                hll_register_rows)

        vals = [f"u{i % 3000}" for i in range(20000)]
        ds = ray.data.from_arrow(pa.table({"u": pa.array(vals)})).repartition(8)
        est = hll_count_from_rows(hll_register_rows(ds, "u").to_pandas())
        assert abs(est - 3000) / 3000 < 0.06


class TestSessionize:
    def test_matches_per_user_brute_force(self):
        import ray.data

        from karta_ray.stages.session import sessionize

        rng = np.random.RandomState(41)
        n_users, gap = 37, 1800 * 1_000_000
        users = rng.randint(0, n_users, 2000)
        ts = rng.randint(0, 10**12, 2000)
        tbl = pa.table({
            "user_id": pa.array(users.astype(np.int64)),
            "ts": pa.array(ts.astype("datetime64[us]")),
        })
        # many blocks -> users straddle block boundaries after the sort
        ds = ray.data.from_arrow(tbl).repartition(7)
        got = sessionize(ds, gap_us=gap).to_pandas().set_index("user_id")
        for u in np.unique(users):
            t = np.sort(ts[users == u])
            n_sessions = 1 + int((np.diff(t) > gap).sum())
            assert int(got.loc[u, "n_events"]) == int((users == u).sum())
            assert int(got.loc[u, "n_sessions"]) == n_sessions, u

    def test_user_straddles_many_blocks(self):
        # 2 users x thousands of events over 16 blocks: after the sort
        # each user's events span >= 3 blocks, so the distributed merge
        # must stitch partial chains across blocks (incl. pre-reduced
        # edge runs), not just pairwise boundaries
        import ray.data

        from karta_ray.stages.session import sessionize

        gap = 100
        n = 8000
        ts = np.arange(n, dtype=np.int64) * 60  # within-gap cadence...
        ts[::500] += 10_000                     # ...with planted breaks
        ts = np.cumsum(ts % 7919)               # irregular but sorted
        users = np.where(np.arange(n) % 2 == 0, 7, 9).astype(np.int64)
        tbl = pa.table({
            "user_id": pa.array(users),
            "ts": pa.array(ts.astype("datetime64[us]")),
        })
        ds = ray.data.from_arrow(tbl).repartition(16)
        got = sessionize(ds, gap_us=gap).to_pandas().set_index("user_id")
        assert len(got) == 2
        for u in (7, 9):
            t = np.sort(ts[users == u])
            n_sessions = 1 + int((np.diff(t) > gap).sum())
            assert int(got.loc[u, "n_events"]) == int((users == u).sum())
            assert int(got.loc[u, "n_sessions"]) == n_sessions, u

    def test_quality_counts_match_arrow_path(self):
        # the Arrow-compute doc_quality must equal the scalar kernel
        import pyarrow.compute as pc

        from karta_ray.functions.text import quality_counts

        texts = ["hello world. one, two, 3 4, end.", "", "no punct",
                 "1,2.3 4.5, six", "a" * 100 + ". , 9"]
        text = pa.array(texts)
        total = pc.cast(pc.utf8_length(text), pa.int64())

        def count_of(sub):
            return pc.subtract(total, pc.cast(pc.utf8_length(
                pc.replace_substring(text, sub, "")), pa.int64()))

        digits = pc.subtract(total, pc.cast(pc.utf8_length(
            pc.replace_substring_regex(text, "[0-9]", "")), pa.int64()))
        for i, t in enumerate(texts):
            want = quality_counts(t)
            assert (total[i].as_py(), count_of(" ")[i].as_py(),
                    count_of(".")[i].as_py(), count_of(",")[i].as_py(),
                    digits[i].as_py()) == want

    def test_blocked_neardup_matches_broadcast(self):
        import ray.data

        from karta_ray.functions.arrays import matrix_to_list_column
        from karta_ray.stages.ann import cosine_neardup_blocked

        rng = np.random.RandomState(13)
        n, d = 200, 16
        base = rng.randn(20, d)
        mat = np.repeat(base, 10, axis=0) + 0.35 * rng.randn(n, d)
        ids = np.arange(n)
        tbl = pa.table({"vec_id": pa.array(ids.astype(np.int64)),
                        "embedding": matrix_to_list_column(mat)})
        ds = ray.data.from_arrow(tbl).repartition(5)
        tau = 0.8
        got = cosine_neardup_blocked(ds, tau, nblocks=3).to_pandas()
        gset = set(zip(got.vec_a, got.vec_b))
        assert gset == cosine_pairs(mat, tau) and len(gset) > 50


class TestKMeans:
    def test_ivf_over_fitted_clusters(self):
        import ray.data

        from karta_ray.functions.arrays import matrix_to_list_column
        from karta_ray.stages.ann import ann_ivf_topk, ann_topk
        from karta_ray.stages.kmeans import kmeans_predict, kmeans_seeds

        rng = np.random.RandomState(9)
        mat = rng.randn(400, 8)
        tbl = pa.table({"vec_id": pa.array(np.arange(400, dtype=np.int64)),
                        "embedding": matrix_to_list_column(mat)})
        ds = ray.data.from_arrow(tbl).repartition(4)
        # q_kmeans' path: seed centroids, one assignment step
        cent = kmeans_seeds(ds, 6)
        labeled = kmeans_predict(ds, cent).materialize()
        qids = np.arange(3)
        qmat = mat[:3]
        exact = ann_topk(ds, qids, qmat, k=10).to_pandas()
        approx = ann_ivf_topk(labeled, qids, qmat, k=10,
                              nprobe=3).to_pandas()
        # decent recall probing half the clusters
        e = set(zip(exact.query_id, exact.vec_id))
        a = set(zip(approx.query_id, approx.vec_id))
        assert len(e & a) / len(e) >= 0.5


class TestBlockedNeardupEmptyBlocks:
    def test_empty_block_keeps_schema(self):
        import ray.data

        from karta_ray.functions.arrays import matrix_to_list_column
        from karta_ray.stages.ann import cosine_neardup_blocked

        rng = np.random.RandomState(2)
        base = rng.randn(10, 8)
        mat = np.repeat(base, 4, axis=0)  # planted duplicates
        tbl = pa.table({"vec_id": pa.array(np.arange(40, dtype=np.int64)),
                        "embedding": matrix_to_list_column(mat)})
        empty = tbl.slice(0, 0)
        ds = ray.data.from_arrow([tbl, empty])  # one empty block
        out = cosine_neardup_blocked(ds, 0.99, nblocks=3).to_pandas()
        assert set(out.columns) == {"vec_a", "vec_b"}
        assert len(out) == 10 * 6  # 4 copies -> 6 pairs per group


class TestMinhashLookupPaths:
    def test_join_path_matches_broadcast(self, ray_session, monkeypatch):
        # the candidates' signatures attached by a hash join (forced by a
        # zero broadcast bound) give the same pairs and estimates
        import pyarrow.parquet as pq
        import ray.data

        import karta_ray.stages.lookup as lk
        from karta_ray.stages.dedup import minhash_lsh_pairs

        tbl = pq.read_table("/root/testdata/sf0.001/documents.parquet",
                            columns=["doc_id", "text"])
        ds = ray.data.from_arrow(tbl).repartition(4)
        key = ["doc_a", "doc_b"]
        a = minhash_lsh_pairs(ds, threshold=0.5).to_pandas()
        monkeypatch.setattr(lk, "BROADCAST_MAX_BYTES", 0)
        b = minhash_lsh_pairs(ds, threshold=0.5).to_pandas()
        assert len(a) > 0
        assert list(a.dtypes) == list(b.dtypes)
        assert (a.sort_values(key).reset_index(drop=True).equals(
            b.sort_values(key).reset_index(drop=True)))

    def test_join_path_none_pass_typed_empty(self, ray_session, monkeypatch):
        # candidates exist, so the hash join has rows, but none passes
        # the threshold: the verify's empty answer is read through the
        # join
        import ray.data

        import karta_ray.stages.lookup as lk
        from karta_ray.stages.dedup import minhash_lsh_pairs

        ids, docs = corpus()
        ds = ray.data.from_arrow(pa.table({
            "doc_id": pa.array(ids), "text": pa.array(docs)})).repartition(4)
        monkeypatch.setattr(lk, "BROADCAST_MAX_BYTES", 0)
        out = minhash_lsh_pairs(ds, threshold=1.01)
        assert out.count() == 0
        assert out.schema().base_schema == pa.schema(
            [("doc_a", pa.int64()), ("doc_b", pa.int64()),
             ("est_sim", pa.float64())])

    @pytest.mark.parametrize("fn", ["simhash_pairs", "ngram_jaccard_pairs"])
    def test_other_pairs_join_path_matches_broadcast(self, ray_session,
                                                     monkeypatch, fn):
        # the same check for the per-doc tables of the other two pair
        # functions: SimHash signatures and n-gram set sizes
        import ray.data

        import karta_ray.stages.lookup as lk
        from karta_ray.stages import dedup

        ids, docs = corpus()
        ds = ray.data.from_arrow(pa.table({
            "doc_id": pa.array(ids), "text": pa.array(docs)})).repartition(4)
        key = ["doc_a", "doc_b"]
        a = getattr(dedup, fn)(ds).to_pandas()
        monkeypatch.setattr(lk, "BROADCAST_MAX_BYTES", 0)
        b = getattr(dedup, fn)(ds).to_pandas()
        assert len(a) > 0
        assert list(a.dtypes) == list(b.dtypes)
        assert (a.sort_values(key).reset_index(drop=True).equals(
            b.sort_values(key).reset_index(drop=True)))


def _registered_queries():
    from karta_ray.pipelines import registry

    return sorted(registry.queries())


class TestNearDupEmpty:
    """Zero-row inputs give every query its oracle's typed answer
    (``state.empty``)."""

    @pytest.mark.parametrize("name", _registered_queries())
    def test_zero_row_tables_equal_oracle(self, ray_session, zero_row_sf,
                                          name):
        import os

        import __ray_entry__ as entry
        from perfbench.check import frames_equal, oracle_frames, result_frame

        tables = [f[:-len(".parquet")] for f in os.listdir(zero_row_sf)]
        want = oracle_frames(zero_row_sf, tables,
                             {name: entry.oracle_sql()[name]})[name]
        got = result_frame(entry.queries()[name](zero_row_sf))
        assert frames_equal(got, want), (got.dtypes, want.dtypes, len(want))

    def test_no_candidates_typed_empty(self, ray_session):
        import ray.data

        from karta_ray.stages.dedup import minhash_lsh_pairs, simhash_pairs

        ds = ray.data.from_arrow(pa.table({
            "doc_id": pa.array([0, 1, 2], pa.int64()),
            "text": ["the quick brown fox jumps over the lazy dog",
                     "lorem ipsum dolor sit amet consectetur",
                     "pack my box with five dozen liquor jugs"]}))
        for out, col in ((minhash_lsh_pairs(ds), ("est_sim", pa.float64())),
                         (simhash_pairs(ds), ("hamming", pa.int64()))):
            assert out.count() == 0
            assert out.schema().base_schema == pa.schema(
                [("doc_a", pa.int64()), ("doc_b", pa.int64()), col])

    def test_non_empty_runs_read_no_schema(self, ray_session, executed_ops):
        # the typed empty block is built only for an empty result: a
        # non-empty run starts no limit(1) schema probe
        import ray.data
        from ray.data._internal.execution.operators.limit_operator import \
            LimitOperator

        from karta_ray.functions.arrays import matrix_to_list_column
        from karta_ray.stages import dedup
        from karta_ray.stages.ann import cosine_neardup_blocked

        ids, docs = corpus()
        ds = ray.data.from_arrow(pa.table({
            "doc_id": pa.array(ids), "text": pa.array(docs)})).repartition(3)
        for fn in (dedup.ngram_jaccard_pairs, dedup.minhash_lsh_pairs,
                   dedup.simhash_pairs):
            assert fn(ds).count() > 0, fn.__name__
        mat = np.repeat(np.random.RandomState(2).randn(10, 8), 2, axis=0)
        emb = ray.data.from_arrow(pa.table({
            "vec_id": pa.array(np.arange(20, dtype=np.int64)),
            "embedding": matrix_to_list_column(mat)}))
        assert cosine_neardup_blocked(emb, 0.99, nblocks=3).count() == 10
        assert executed_ops
        assert not any(isinstance(op, LimitOperator)
                       for run in executed_ops for op in run), \
            [[op.name for op in run] for run in executed_ops]


def brute_force_pairs(rows, cap, diagonal):
    """{(a, b): n} over buckets of at most ``cap`` distinct ids: n is the
    number of such buckets holding both (a < b), and with ``diagonal``
    (a, a) counts the buckets holding a."""
    from collections import Counter, defaultdict

    buckets = defaultdict(set)
    for key, doc in rows:
        buckets[key].add(doc)
    out = Counter()
    for members in buckets.values():
        if len(members) > cap:
            continue
        members = sorted(members)
        for i, a in enumerate(members):
            for b in members[i if diagonal else i + 1:]:
                out[(a, b)] += 1
    return dict(out)


small_rows = st.lists(st.tuples(st.integers(0, 19).map(lambda k: 2 * k + 1),
                                st.integers(0, 30)),
                      unique=True, max_size=80)


@pytest.mark.usefixtures("ray_session")
class TestCandidatePairsProperty:
    """dedup.candidate_pairs equals the brute force over buckets of at
    most CAP distinct ids. The small odd-keyed buckets include size-1
    ones, and the input can be empty. With ``hot``, even-keyed buckets
    of CAP+1 .. 3*CAP rows, 17k rows in all, make the sort's blocks
    compact into two whose boundary splits one of them, most often into
    fragments on both sides of the cap."""

    CAP = 3

    @given(small_rows, st.booleans(), st.booleans(),
           st.integers(0, 2**31 - 1), st.integers(5, 9))
    @example([], False, True, 0, 5)
    @example([], False, False, 0, 5)
    @settings(max_examples=12, deadline=None)
    def test_matches_brute_force(self, small, hot, diagonal, seed, blocks):
        import ray.data

        from karta_ray.stages.dedup import candidate_pairs

        rows = list(small)
        if hot:
            sizes = np.random.RandomState(seed).randint(
                self.CAP + 1, 3 * self.CAP + 1, size=17_000 // self.CAP)
            for j, size in enumerate(sizes[np.cumsum(sizes) <= 17_000]):
                rows += [(2 * j, 100 + d) for d in range(size)]
        tbl = pa.table({"key": pa.array([k for k, _ in rows], pa.int64()),
                        "doc_id": pa.array([d for _, d in rows], pa.int64())})
        ds = ray.data.from_arrow(tbl).repartition(blocks)
        got = candidate_pairs(ds, ["key"], self.CAP, diagonal).take_all()
        got = {(r["doc_a"], r["doc_b"]): r["n"] for r in got}
        assert got == brute_force_pairs(rows, self.CAP, diagonal)


class TestIVFGroupedScorer:
    """The IVF scorer batches queries by probed label set (one matmul +
    one membership mask per distinct set per batch); these pin down that
    the grouping is invisible in the results."""

    def _mk(self, n=300, d=8, seed=11):
        import ray.data

        from karta_ray.functions.arrays import matrix_to_list_column

        rng = np.random.RandomState(seed)
        mat = rng.randn(n, d)
        labels = rng.randint(0, 5, size=n)
        tbl = pa.table({"vec_id": pa.array(np.arange(n, dtype=np.int64)),
                        "embedding": matrix_to_list_column(mat),
                        "label": pa.array(labels.astype(np.int32))})
        return ray.data.from_arrow(tbl).repartition(4), mat

    def test_exact_mode_matches_brute_force_many_queries(self):
        from karta_ray.stages.ann import ann_ivf_topk, ann_topk

        ds, mat = self._mk()
        nq, k = 25, 7  # all queries share ONE probe set in exact mode
        qids = np.arange(nq, dtype=np.int64)
        # driver-side cosine top-k: sim desc, vec_id asc, self excluded
        norm = mat / np.linalg.norm(mat, axis=1, keepdims=True)
        sims = norm[:nq] @ norm.T
        vid = np.arange(len(mat), dtype=np.int64)
        want, want_sim = [], []
        for qi in range(nq):
            cand = vid[vid != qi]
            top = cand[np.lexsort((cand, -sims[qi, cand]))][:k]
            want += [(qi, v, r + 1) for r, v in enumerate(top)]
            want_sim += list(sims[qi, top])
        cols = ["query_id", "vec_id", "rank"]
        for out in (ann_topk(ds, qids, mat[:nq], k=k),
                    ann_ivf_topk(ds, qids, mat[:nq], k=k, nprobe=None)):
            got = (out.to_pandas().sort_values(["query_id", "rank"])
                   .reset_index(drop=True))
            assert list(map(tuple, got[cols].to_numpy())) == want
            assert np.allclose(got.sim, want_sim)

    def test_shared_probe_sets_nprobe1(self):
        # many queries collapse onto few distinct single-label probe
        # sets; every returned neighbor must carry the probed label
        from karta_ray.stages.ann import ann_ivf_topk

        ds, mat = self._mk()
        nq = 20
        qids = np.arange(nq, dtype=np.int64)
        got = ann_ivf_topk(ds, qids, mat[:nq], k=5, nprobe=1).to_pandas()
        assert set(got.query_id) <= set(range(nq))
        assert (got.groupby("query_id").size() <= 5).all()
        # self-exclusion preserved through the grouped path
        assert not ((got.query_id == got.vec_id).any())


@pytest.mark.usefixtures("ray_session")
class TestSortedSum:
    """sorted_sum: range-shuffle + per-block combine + bounded boundary
    residue — must equal a pandas groupby sum exactly."""

    def _check(self, n_rows, n_keys, blocks, seed):
        import pandas as pd
        import ray.data

        from karta_ray.stages.agg import sorted_sum

        rng = np.random.RandomState(seed)
        a = rng.randint(0, n_keys, size=n_rows).astype(np.int64)
        b = rng.randint(0, 3, size=n_rows).astype(np.int64)
        n = rng.randint(1, 5, size=n_rows).astype(np.int64)
        tbl = pa.table({"ka": pa.array(a), "kb": pa.array(b),
                        "n": pa.array(n)})
        ds = ray.data.from_arrow(tbl).repartition(blocks)
        got = sorted_sum(ds, ["ka", "kb"], ["n"]).to_pandas()
        got = got.sort_values(["ka", "kb"]).reset_index(drop=True)
        want = (pd.DataFrame({"ka": a, "kb": b, "n": n})
                .groupby(["ka", "kb"], as_index=False).n.sum()
                .sort_values(["ka", "kb"]).reset_index(drop=True))
        assert got.ka.tolist() == want.ka.tolist()
        assert got.kb.tolist() == want.kb.tolist()
        assert got.n.tolist() == want.n.tolist()
        # no key may appear twice (the straddler residue must dedup)
        assert not got.duplicated(["ka", "kb"]).any()

    def test_many_tiny_groups(self):
        self._check(20000, 15000, 16, 0)

    def test_few_hot_keys_straddle_blocks(self):
        # 5 keys over 16 blocks: every key straddles many boundaries
        self._check(20000, 5, 16, 1)

    def test_single_block(self):
        self._check(500, 50, 1, 2)

    def test_empty(self):
        import ray.data

        from karta_ray.stages.agg import sorted_sum

        tbl = pa.table({"ka": pa.array([], pa.int64()),
                        "n": pa.array([], pa.int64())})
        out = sorted_sum(ray.data.from_arrow(tbl), ["ka"], ["n"])
        assert out.count() == 0


class TestPropsRegexParity:
    def test_regex_matches_json_loads_on_fixture(self):
        import json

        import pyarrow.compute as pc
        import pyarrow.parquet as pq

        props = pq.read_table("/root/testdata/sf0.01/events.parquet",
                              columns=["props"]).column("props")
        m = pc.extract_regex(props, r'"k"\s*:\s*(?P<k>-?\d+)')
        got = pc.cast(pc.struct_field(m, "k"), pa.int64()).to_pylist()
        want = [int(json.loads(p)["k"]) for p in props.to_pylist()]
        assert got == want


@pytest.mark.usefixtures("ray_session")
class TestSortedMapGroupsSkew:
    """Hot keys must not flood the residue block: pre_reduce collapses
    aggregate edge runs or, as ``truncate_runs``, early-drops over-cap
    buckets — and neither may change semantics."""

    def test_hot_key_aggregate_still_exact(self):
        import pandas as pd
        import ray.data

        from karta_ray.stages.agg import sorted_sum

        # one key holds 90% of rows and spans every block
        n = 30000
        rng = np.random.RandomState(7)
        k = np.where(rng.rand(n) < 0.9, 0,
                     rng.randint(1, 50, size=n)).astype(np.int64)
        v = rng.randint(1, 4, size=n).astype(np.int64)
        ds = ray.data.from_arrow(pa.table({"k": pa.array(k),
                                           "n": pa.array(v)}))
        got = sorted_sum(ds.repartition(16), ["k"], ["n"]).to_pandas()
        got = got.sort_values("k").reset_index(drop=True)
        want = (pd.DataFrame({"k": k, "n": v}).groupby("k", as_index=False)
                .n.sum().sort_values("k").reset_index(drop=True))
        assert got.k.tolist() == want.k.tolist()
        assert got.n.tolist() == want.n.tolist()

    def test_max_group_rows_drops_like_the_cap(self):
        import ray.data

        from karta_ray.stages.agg import (group_runs, sorted_map_groups,
                                          truncate_runs)

        CAP = 100
        # key 0: 2500 rows (over cap, spans blocks); keys 1..20: small
        k = np.concatenate([np.zeros(2500, dtype=np.int64),
                            np.repeat(np.arange(1, 21), 10)])
        rng = np.random.RandomState(0)
        rng.shuffle(k)
        ds = ray.data.from_arrow(pa.table({"k": pa.array(k)})) \
            .repartition(8)

        def block_fn(batch: pa.Table) -> pa.Table:
            starts, ends = group_runs(batch, ["k"])
            ks, ns = [], []
            col = batch.column("k").to_numpy() if batch.num_rows else []
            for s, e in zip(starts, ends):
                if e - s > CAP:
                    continue
                ks.append(int(col[s]))
                ns.append(int(e - s))
            return pa.table({"k": pa.array(ks, pa.int64()),
                             "cnt": pa.array(ns, pa.int64())})

        got = sorted_map_groups(
            ds, ["k"], block_fn,
            pre_reduce=truncate_runs(["k"], CAP)).to_pandas()
        got = got.sort_values("k").reset_index(drop=True)
        # key 0 dropped (over cap); every other key counted exactly once
        assert got.k.tolist() == list(range(1, 21))
        assert (got.cnt == 10).all()

    def test_mixed_fragment_straddle_still_dropped(self):
        # an over-cap group whose boundary fragments are a mix of
        # over- and under-cap sizes must vanish ENTIRELY (the truncated
        # tombstone export keeps the residue group above the cap);
        # under-cap groups must survive exactly
        import ray.data

        from karta_ray.stages.agg import (group_runs, sorted_map_groups,
                                          truncate_runs)

        CAP = 50
        sizes = {}
        ks = []
        kid = 0
        rng = np.random.RandomState(3)
        for _ in range(12):
            # alternate hot (just over cap) and small groups
            for sz in (CAP + rng.randint(1, 30), rng.randint(1, 20)):
                sizes[kid] = sz
                ks.append(np.full(sz, kid, dtype=np.int64))
                kid += 1
        k = np.concatenate(ks)
        rng.shuffle(k)
        ds = ray.data.from_arrow(pa.table({"k": pa.array(k)})) \
            .repartition(16)

        def block_fn(batch: pa.Table) -> pa.Table:
            starts, ends = group_runs(batch, ["k"])
            col = batch.column("k").to_numpy() if batch.num_rows else []
            ks_, ns_ = [], []
            for s, e in zip(starts, ends):
                if e - s > CAP:
                    continue
                ks_.append(int(col[s]))
                ns_.append(int(e - s))
            return pa.table({"k": pa.array(ks_, pa.int64()),
                             "cnt": pa.array(ns_, pa.int64())})

        got = sorted_map_groups(
            ds, ["k"], block_fn,
            pre_reduce=truncate_runs(["k"], CAP)).to_pandas()
        out = dict(zip(got.k, got.cnt))
        for kid_, sz in sizes.items():
            if sz > CAP:
                assert kid_ not in out, (kid_, sz, out.get(kid_))
            else:
                assert out.get(kid_) == sz, (kid_, sz, out.get(kid_))
        # no key may be double-counted
        assert not got.k.duplicated().any()

    def test_truncate_runs_tombstone_invariant(self):
        # the unit-level guarantee behind the e2e test above: an
        # over-cap edge run is exported as cap+1 rows (still over cap),
        # NEVER dropped — so a residue group re-assembled from a
        # truncated big fragment plus a small fragment stays over the
        # cap and is rejected by block_fn
        from karta_ray.stages.agg import group_runs, truncate_runs

        CAP = 50
        truncate = truncate_runs(["k"], CAP)
        big = pa.table({"k": pa.array(np.full(210, 7, dtype=np.int64))})
        t = truncate(big)
        assert t.num_rows == CAP + 1  # tombstone, not dropped
        small = pa.table({"k": pa.array(np.full(20, 7, dtype=np.int64))})
        residue = pa.concat_tables([t, small])
        starts, ends = group_runs(residue, ["k"])
        assert len(starts) == 1
        assert ends[0] - starts[0] > CAP  # block_fn's cap rejects it
        # under-cap runs pass through untouched
        mix = pa.table({"k": pa.array(np.concatenate(
            [np.full(30, 1), np.full(60, 2), np.full(10, 3)])
            .astype(np.int64))})
        out = truncate(mix)
        s2, e2 = group_runs(out, ["k"])
        assert [int(e - s) for s, e in zip(s2, e2)] == [30, CAP + 1, 10]

    def test_equivalence_with_ray_map_groups(self):
        # same per-group fn through both engines must yield identical
        # row multisets, across random key distributions
        import pandas as pd
        import ray.data

        from karta_ray.stages.agg import group_runs, sorted_map_groups

        def per_group(ids):
            ids = np.sort(ids)
            return ids[0], int(ids.sum())

        def ray_fn(group: pa.Table) -> pa.Table:
            lo, s = per_group(group.column("v").to_numpy())
            return pa.table({"k": group.column("k").slice(0, 1),
                             "lo": pa.array([lo], pa.int64()),
                             "s": pa.array([s], pa.int64())})

        def block_fn(batch: pa.Table) -> pa.Table:
            starts, ends = group_runs(batch, ["k"])
            ks, lows, sums = [], [], []
            kcol = batch.column("k").to_numpy() if batch.num_rows else []
            vcol = batch.column("v").to_numpy() if batch.num_rows else []
            for s0, e0 in zip(starts, ends):
                lo, s = per_group(vcol[s0:e0])
                ks.append(int(kcol[s0]))
                lows.append(lo)
                sums.append(s)
            return pa.table({"k": pa.array(ks, pa.int64()),
                             "lo": pa.array(lows, pa.int64()),
                             "s": pa.array(sums, pa.int64())})

        for seed, nkeys in ((0, 3), (1, 500), (2, 4000)):
            rng = np.random.RandomState(seed)
            n = 8000
            k = rng.randint(0, nkeys, size=n).astype(np.int64)
            v = rng.randint(0, 1000, size=n).astype(np.int64)
            tbl = pa.table({"k": pa.array(k), "v": pa.array(v)})
            ds = ray.data.from_arrow(tbl).repartition(7)
            a = (ds.groupby("k").map_groups(ray_fn, batch_format="pyarrow")
                 .to_pandas().sort_values("k").reset_index(drop=True))
            b = (sorted_map_groups(ds, ["k"], block_fn)
                 .to_pandas().sort_values("k").reset_index(drop=True))
            pd.testing.assert_frame_equal(a, b)
