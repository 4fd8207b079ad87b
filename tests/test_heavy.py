"""Heavy hitters (stages/heavy.py) and the grouped HLL sketch
(functions/sketch.py): exact-count parity vs Python Counter,
partitioning invariance, and per-group estimates near the exact
distinct counts."""

from collections import Counter

import numpy as np
import pyarrow as pa


def _corpus(n=3000, seed=23):
    rng = np.random.RandomState(seed)
    vocab = [f"w{i:03d}" for i in range(400)]
    # zipf-ish: low ids much more frequent
    weights = 1.0 / np.arange(1, len(vocab) + 1)
    weights /= weights.sum()
    docs = [" ".join(rng.choice(vocab, rng.randint(3, 30), p=weights))
            for _ in range(n)]
    return pa.table({"text": pa.array(docs)})


def _exact(t):
    c = Counter()
    for doc in t.column("text").to_pylist():
        c.update(w for w in doc.split(" ") if w)
    return c


class TestTopTokens:
    def test_matches_counter(self, ray_session):
        import ray

        from karta_ray.stages.heavy import top_tokens

        t = _corpus()
        exact = _exact(t)
        expect = sorted(exact.items(), key=lambda kv: (-kv[1], kv[0]))[:15]
        out = top_tokens(ray.data.from_arrow(t).repartition(9), 15)
        got = [(r["token"], r["n"]) for r in out.take_all()]
        assert got == expect

    def test_partitioning_invariant(self, ray_session):
        import ray

        from karta_ray.stages.heavy import token_counts

        t = _corpus(800)
        a = token_counts(ray.data.from_arrow(t)).to_pandas()
        b = token_counts(
            ray.data.from_arrow(t).repartition(13)).to_pandas()
        a = a.sort_values("token").reset_index(drop=True)
        b = b.sort_values("token").reset_index(drop=True)
        assert a.equals(b)
        exact = _exact(t)
        assert dict(zip(a.token, a.n)) == dict(exact)


class TestGroupedHLL:
    def test_estimates_near_exact_per_group(self, ray_session):
        import ray

        from karta_ray.functions.sketch import (hll_count_from_rows,
                                                hll_grouped_register_rows)

        rng = np.random.RandomState(31)
        n = 40000
        t = pa.table({
            "g": pa.array(rng.choice(["a", "b", "c"], n).tolist()),
            "u": pa.array(rng.randint(0, 5000, n).astype("int64")),
        })
        rows = hll_grouped_register_rows(
            ray.data.from_arrow(t).repartition(9), "u", ["g"],
            12).take_all()
        pdf = t.to_pandas()
        for g in ("a", "b", "c"):
            sub = [r for r in rows if r["g"] == g]
            est = hll_count_from_rows(
                {"bucket": [r["bucket"] for r in sub],
                 "register": [r["register"] for r in sub]})
            exact = pdf[pdf.g == g].u.nunique()
            assert abs(est - exact) / exact < 0.05, (g, est, exact)

    def test_partition_invariance(self, ray_session):
        import ray

        from karta_ray.functions.sketch import hll_grouped_register_rows

        rng = np.random.RandomState(8)
        t = pa.table({
            "g": pa.array(rng.choice(["x", "y"], 5000).tolist()),
            "u": pa.array(rng.randint(0, 800, 5000).astype("int64")),
        })

        def run(nb):
            rows = hll_grouped_register_rows(
                ray.data.from_arrow(t).repartition(nb), "u", ["g"],
                10).take_all()
            return sorted((r["g"], r["bucket"], r["register"])
                          for r in rows)

        assert run(1) == run(13)
