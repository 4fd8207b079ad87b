"""TF-IDF (stages/tfidf.py): brute-force parity and broadcast vs
distributed-join path equality."""

import math
from collections import Counter

import numpy as np
import pyarrow as pa


def _corpus(n=400, seed=9):
    rng = np.random.RandomState(seed)
    vocab = [f"t{i:02d}" for i in range(60)]
    weights = 1.0 / np.arange(1, len(vocab) + 1)
    weights /= weights.sum()
    docs = [" ".join(rng.choice(vocab, rng.randint(2, 20), p=weights))
            for _ in range(n)]
    return pa.table({"doc_id": pa.array(np.arange(n, dtype=np.int64)),
                     "text": pa.array(docs)})


def _brute(t):
    rows = []
    texts = t.column("text").to_pylist()
    ids = t.column("doc_id").to_pylist()
    df = Counter()
    tfs = []
    for text in texts:
        c = Counter(w for w in text.split(" ") if w)
        tfs.append(c)
        df.update(c.keys())
    n = len(texts)
    for did, c in zip(ids, tfs):
        for tok, tf in c.items():
            rows.append((did, tok, tf, df[tok],
                         round(tf * math.log(n / df[tok]), 6)))
    return sorted(rows)


def _collect(ds):
    return sorted((r["doc_id"], r["token"], r["tf"], r["df"],
                   r["tfidf"]) for r in ds.take_all())


class TestTfidf:
    def test_matches_brute_force(self, ray_session):
        import ray

        from karta_ray.stages.tfidf import tfidf_table

        t = _corpus()
        out = tfidf_table(ray.data.from_arrow(t).repartition(7))
        assert _collect(out) == _brute(t)

    def test_join_path_equals_broadcast_path(self, ray_session,
                                             monkeypatch):
        import ray

        import karta_ray.stages.lookup as lk
        from karta_ray.stages.tfidf import tfidf_table

        t = _corpus(200)
        ds = ray.data.from_arrow(t).repartition(5)
        bcast = tfidf_table(ds)
        monkeypatch.setattr(lk, "BROADCAST_MAX_BYTES", 0)
        joined = tfidf_table(ds)
        assert _collect(bcast) == _collect(joined)
