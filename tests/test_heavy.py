"""Heavy hitters (stages/heavy.py) and Count-Min sketch
(functions/sketch.py): exact-count parity vs Python Counter,
partitioning invariance, CM overestimate-only guarantee and exactness
for planted heavy tokens in a wide sketch."""

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


class TestCountMin:
    def test_overestimate_only_and_tight_for_heavy(self, ray_session):
        import ray

        from karta_ray.functions.sketch import cm_estimate, cm_sketch_rows

        t = _corpus(2000)
        exact = _exact(t)
        rows_ds = cm_sketch_rows(ray.data.from_arrow(t).repartition(7),
                                 width=8192, depth=4)
        tbl = rows_ds.take_all()
        rows = {k: [r[k] for r in tbl] for k in ("d", "j", "n")}
        queries = sorted(exact)
        est = cm_estimate(rows, queries, width=8192)
        true = np.array([exact[q] for q in queries])
        assert (est >= true).all()          # CM never underestimates
        total = int(true.sum())
        # eps = e/width -> error bound eps*N with high probability
        assert (est - true <= np.e / 8192 * total + 1).all()
        # heavy tokens essentially exact in a wide sketch
        heavy = [q for q in queries if exact[q] > 50]
        est_h = cm_estimate(rows, heavy, width=8192)
        true_h = np.array([exact[q] for q in heavy])
        assert (est_h == true_h).mean() > 0.9

    def test_merge_invariance(self, ray_session):
        import ray

        from karta_ray.functions.sketch import cm_sketch_rows

        t = _corpus(600)

        def collect(n_blocks):
            ds = cm_sketch_rows(
                ray.data.from_arrow(t).repartition(n_blocks),
                width=1024, depth=3)
            return sorted((r["d"], r["j"], r["n"])
                          for r in ds.take_all())

        assert collect(1) == collect(11)


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
            12, hash_fn="fast").take_all()
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
                10, hash_fn="fast").take_all()
            return sorted((r["g"], r["bucket"], r["register"])
                          for r in rows)

        assert run(1) == run(13)
