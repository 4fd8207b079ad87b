"""Benchmark harness.

Every mode times one job, :func:`headline`: read the url and html
columns of a pre-materialized synthetic pages table, run the slim
flagship pipeline (extract -> geotag -> cell assign -> PIP join) and its
per-(poly, cell) aggregate, fully consumed; best of 3 after a warm-up,
in a fresh process (``--child``). Every job the working tree runs is
checked against brute-force expected counts (perfbench/check.py),
computed once per pages dir outside the timed region and cached beside
it; a mismatch exits non-zero and prints no result line.

Default: the headline at num_cpus=$RAY_GRAFT_CPUS (else the CPUs in
this process's affinity mask), every queries() pipeline over
$GRAFT_SF_DIR (default /root/testdata/sf0.1) and the A/B below
(GRAFT_BENCH_AB=0 skips it); prints ONE JSON line.

--scaling: the headline at 2, 8 and 32 CPUs on the same
$GRAFT_SCALING_PAGES input (the sandbox stand-in for N vs 4N nodes);
``value`` is the 2->8 efficiency.

--ab [rev [reps]]: interleaved A/B of the working tree vs a git rev
(default: the last recorded round commit) — 5 headline runs per side,
alternating A B A B ..., reporting median + min/max spread per side and
the ratio of medians. This is the regression check that this host's
+-40% run-to-run noise cannot fake: both sides see the same noise
distribution because runs interleave in time. The rev's polygon layer
may differ from the working tree's, so its side is not checked.

--micro: single-core kernel microbenchmarks.

--child REPO CPUS PAGES_DIR: one headline measurement with karta_ray
imported from REPO; prints ONE JSON line.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.realpath(__file__))
SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", len(os.sched_getaffinity(0))))
N_PAGES = int(os.environ.get("GRAFT_BENCH_PAGES", "1000000"))
# scaling criterion workload: sized so per-run fixed overhead (~1 s of
# Ray startup/barrier cost) is small against even the 32-cpu run — the
# north rule's efficiency bar is about throughput at corpus scale, and
# round 4's pipeline got fast enough that 4M pages no longer saturates
# 32 cpus for a meaningful interval
N_SCALING = int(os.environ.get("GRAFT_SCALING_PAGES", "16000000"))
BENCH_ROOT = "/tmp/karta_ray_bench"
ZOOM = 7
# the last judged round's snapshot commit: default A/B comparand for
# both `--ab` and the A/B block in the default bench run (revs before
# the slim flagship pipeline cannot run the headline job)
AB_BASE_REV = os.environ.get("GRAFT_AB_REV", "a270480")  # r5 snapshot


def ensure_pages(n: int, root: str = BENCH_ROOT) -> str:
    """Materialize the deterministic pages table of ids ``0..n-1`` to
    ``root/pages_<n>`` once (generation is input preparation, not the
    measured pipeline)."""
    pages_dir = os.path.join(root, f"pages_{n}")
    marker = os.path.join(pages_dir, "_DONE")
    if os.path.exists(marker):
        return pages_dir
    import ray

    from karta_ray import synth

    own = not ray.is_initialized()
    if own:
        ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False)
    os.makedirs(pages_dir, exist_ok=True)
    # enough files that read->map fusion can still fan out to every core
    ds = synth.pages_dataset(n, override_num_blocks=max(128, n // 8192))
    ds.write_parquet(pages_dir)
    if own:
        ray.shutdown()
    with open(marker, "w") as f:
        f.write(str(n))
    return pages_dir


def n_docs(pages_dir: str) -> int:
    with open(os.path.join(pages_dir, "_DONE")) as f:
        return int(f.read())


def expected_path(pages_dir: str) -> str:
    return pages_dir.rstrip("/") + "_expected.parquet"


def expected_counts(pages_dir: str):
    """Brute-force ``(poly_id, cell_id, n)`` of the headline job over
    ``pages_dir`` (perfbench/check.py), cached beside the dir."""
    import pyarrow.parquet as pq

    path = expected_path(pages_dir)
    if not os.path.exists(path):
        import numpy as np

        from karta_ray import synth
        from perfbench import check, gen

        lon, lat = gen.page_lonlat(np.arange(n_docs(pages_dir)))
        want = check.expected_pip_counts(synth.admin_polygons(), lon, lat, ZOOM)
        pq.write_table(want, path + ".tmp")
        os.replace(path + ".tmp", path)
    return pq.read_table(path)


def warmup(num_cpus: int):
    """Spread import-heavy no-op tasks across the worker pool so the
    timed run measures steady-state throughput, not Python import and
    worker cold-start cost (a real cluster's workers are warm)."""
    import ray

    def touch(batch):
        import numpy as np  # noqa: F401

        from karta_ray.functions import text  # noqa: F401
        from karta_ray.kernels import predicates, tiles  # noqa: F401
        from karta_ray.stages import ann, dedup, extract, join  # noqa: F401
        return batch

    (ray.data.range(num_cpus * 16, override_num_blocks=num_cpus * 16)
        .map_batches(touch, batch_size=1).materialize())
    # first sort in a session initializes the shuffle infrastructure
    # (~4 s measured); pay it here, not inside a timed query
    ray.data.range(1000, override_num_blocks=8).sort("id").materialize()


def headline(pages_dir: str, want=None, reps: int = 3) -> dict:
    """Headline: read -> extract -> geotag -> tile -> PIP join -> per-
    (poly, cell) aggregate, fully consumed. Best of ``reps`` runs (this
    host's page-fault behavior adds +-40% run-to-run noise). Each run's
    aggregate must equal ``want`` unless it is None."""
    import pyarrow as pa

    import ray
    from karta_ray import synth
    from karta_ray.pipelines.flagship import (flagship_aggregate,
                                              flagship_pipeline)

    if want is not None:
        from perfbench.check import counts_equal
    n = n_docs(pages_dir)
    best = None
    for _ in range(reps):
        t0 = time.perf_counter()
        ds = ray.data.read_parquet(pages_dir, columns=["url", "html"])
        # slim: the consumer is the (poly_id, cell_id) aggregate, so
        # url / tile_xyz / poly_name are pruned before the one
        # object-store exchange (24 B/doc crosses instead of ~100)
        joined = flagship_pipeline(ds, zoom=ZOOM, polyset=synth.admin_polygons(),
                                   slim=True)
        got = list(flagship_aggregate(joined).iter_batches(batch_format="pyarrow"))
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
        got = pa.concat_tables(got)
        if want is not None and not counts_equal(got, want):
            sys.exit(f"headline aggregate over {pages_dir} differs from "
                     f"the expected counts in {expected_path(pages_dir)}")
    return {"sec": best, "docs": n, "docs_per_sec": n / best,
            "rows": got.num_rows, "checked": want is not None}


def child(repo: str, cpus: int, pages_dir: str):
    """``--child``: one headline measurement in this fresh process, with
    karta_ray imported from ``repo``; only the working tree is checked.
    Ray workers put the driver's working directory first on their path
    (the driver's own ``sys.path`` is not passed on), so the child runs
    from ``repo``: workers then import ``repo``'s karta_ray too."""
    repo, pages_dir = os.path.realpath(repo), os.path.abspath(pages_dir)
    os.chdir(repo)
    sys.path.insert(0, repo)
    import ray

    want = expected_counts(pages_dir) if repo == HERE else None
    ray.init(address="local", num_cpus=cpus, include_dashboard=False)
    warmup(cpus)
    res = headline(pages_dir, want)
    ray.shutdown()
    print(json.dumps(res))


def run_child(repo: str, cpus: int, pages_dir: str) -> dict:
    p = subprocess.run([sys.executable, os.path.join(HERE, "bench.py"), "--child",
                        repo, str(cpus), pages_dir], capture_output=True, text=True)
    if p.returncode:
        raise RuntimeError(f"bench child ({repo}, {cpus} cpus) exited "
                           f"{p.returncode}:\n{p.stderr[-3000:]}")
    return json.loads([l for l in p.stdout.splitlines() if l.startswith("{")][-1])


def run_queries(sf_dir: str) -> dict:
    import ray
    import __ray_entry__ as entrymod

    out = {}
    for name, fn in entrymod.queries().items():
        t0 = time.perf_counter()
        res = fn(sf_dir)
        if isinstance(res, ray.data.Dataset):
            n = res.count()
        else:
            n = len(res)
        out[name] = round(time.perf_counter() - t0, 3)
    return out


def scaling_main():
    # three points, two N->4N pairs: 2->8 exercises pure task scaling;
    # 8->32 additionally runs into this single host's memory-bandwidth
    # / first-touch page-fault ceiling (~2.7M docs/s aggregate), which
    # multi-node clusters — the north rule's actual config, where every
    # node brings its own memory controllers — do not share. Both
    # efficiencies are reported; see BASELINE.md for the full 2/4/8/16/
    # 32 curve.
    pages_dir = ensure_pages(N_SCALING)
    results = {cpus: run_child(HERE, cpus, pages_dir) for cpus in (2, 8, 32)}
    eff_2_8 = results[2]["sec"] / results[8]["sec"] / 4
    eff_8_32 = results[8]["sec"] / results[32]["sec"] / 4
    print(json.dumps({
        "metric": "spatial-join+tile throughput scaling (N vs 4N cpus)",
        "value": round(eff_2_8, 4),
        "unit": "efficiency",
        "sf": N_SCALING,
        **{f"docs_per_sec_{c}": round(r["docs_per_sec"], 1) for c, r in results.items()},
        **{f"sec_{c}": round(r["sec"], 2) for c, r in results.items()},
        "efficiency_2_to_8": round(eff_2_8, 4),
        "efficiency_8_to_32": round(eff_8_32, 4),
    }))


def ab_block(rev: str, reps: int = 5) -> dict:
    """Interleaved A/B regression check of the working tree vs ``rev``
    — both sides sample the same host-noise distribution, so the ratio
    of medians is trustworthy even when absolute times swing +/-40%
    between windows (the disclosed behavior of this VM)."""
    pages_dir = ensure_pages(N_PAGES)
    # key the checkout by the RESOLVED sha so a moved branch/ref never
    # silently reuses a stale one
    sha = subprocess.run(["git", "-C", HERE, "rev-parse", rev], check=True,
                         capture_output=True, text=True).stdout.strip()
    wt = f"/tmp/karta_ray_ab/{sha}"
    if not os.path.isdir(wt):
        os.makedirs(wt + ".tmp", exist_ok=True)
        tar = subprocess.run(["git", "-C", HERE, "archive", sha], check=True,
                             capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", wt + ".tmp"], input=tar, check=True)
        os.rename(wt + ".tmp", wt)

    times = {"a": [], "b": []}
    rows = {}
    for rep in range(reps):
        # alternate which side runs first each rep: with a fixed A-then-B
        # order, any first-position transient (page-cache state left by
        # the previous child's exit) penalizes the same side every rep
        # and shows up as a phantom 10-15% ratio shift between windows
        order = (("a", HERE), ("b", wt))
        if rep % 2:
            order = order[::-1]
        for side, repo in order:
            res = run_child(repo, NUM_CPUS, pages_dir)
            times[side].append(res["sec"])
            rows[side] = res["rows"]
    med_a = statistics.median(times["a"])
    med_b = statistics.median(times["b"])
    return {
        "metric": f"interleaved A/B headline (working tree vs {rev})",
        "value": round(med_a / med_b, 4),
        "unit": "ratio of medians (A/B; <1 = working tree faster)",
        "docs": N_PAGES,
        "reps_per_side": reps,
        "a_median_sec": round(med_a, 3),
        "a_spread_sec": [round(min(times["a"]), 3),
                         round(max(times["a"]), 3)],
        "b_median_sec": round(med_b, 3),
        "b_spread_sec": [round(min(times["b"]), 3),
                         round(max(times["b"]), 3)],
        "a_rows": rows["a"], "b_rows": rows["b"],
    }


def micro_main():
    """Single-core kernel microbenchmarks (no Ray): the closest
    available analogue to the reference's benchmarks/ harnesses, which
    print timings for construction/contains/nearest (the reference
    itself cannot execute here — its coordstring/Cython deps are not
    installed)."""
    import numpy as np

    from karta_ray.kernels import geodesy, predicates, tiles

    rng = np.random.RandomState(0)
    out = {}

    n = 1_000_000
    lon = rng.uniform(-180, 180, n)
    lat = rng.uniform(-85, 85, n)
    tiles.cell_id(lon, lat, 12)  # warm (first-touch page faults)
    t0 = time.perf_counter()
    tiles.cell_id(lon, lat, 12)
    out["tile_assign_Mpts_per_s"] = round(n / (time.perf_counter() - t0) / 1e6, 2)

    theta = np.linspace(0, 2 * np.pi, 361)[:-1]
    ring = np.column_stack([np.cos(theta) * (10 * np.sin(theta * 8) + 15) + 25,
                            np.sin(theta) * (10 * np.sin(theta * 8) + 15) + 25])
    px = rng.uniform(0, 50, 200_000)
    py = rng.uniform(0, 50, 200_000)
    t0 = time.perf_counter()
    predicates.points_in_ring(px, py, ring)
    dt = time.perf_counter() - t0
    out["pip_Medge_tests_per_s"] = round(len(px) * len(ring) / dt / 1e6, 1)

    geodesy.sphere_distance(lon[:1000], lat[:1000], lon[:1000], lat[:1000])
    t0 = time.perf_counter()
    geodesy.sphere_distance(lon[:n // 2], lat[:n // 2], lon[n // 2:], lat[n // 2:])
    out["sphere_dist_Mpts_per_s"] = round((n // 2) / (time.perf_counter() - t0) / 1e6, 2)

    # gridpoints binning: the reference benchmark's exact configuration
    # (benchmarks/benchmark_gridpoints.py:6-19 — 50k points in [0,1)^2,
    # transform [0,0,0.01,0.01,0,0], 10 reps)
    from karta_ray.kernels import raster as RK

    x = rng.rand(50_000)
    y = rng.rand(50_000)
    z = (x - 0.5) ** 2 + (y - 0.2) ** 3 + 0.5 * rng.rand(50_000)
    T = (0.0, 0.0, 0.01, 0.01, 0.0, 0.0)
    RK.bin_mean(x, y, z, T)
    t0 = time.perf_counter()
    for _ in range(10):
        RK.bin_mean(x, y, z, T)
    out["gridpoints_50k_x10_sec"] = round(time.perf_counter() - t0, 3)

    print(json.dumps({"metric": "kernel microbench (single core)", **out}))


def main():
    import ray

    pages_dir = ensure_pages(N_PAGES)
    head = run_child(HERE, NUM_CPUS, pages_dir)
    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False)
    warmup(NUM_CPUS)
    queries = run_queries(SF_DIR)
    ray.shutdown()

    # default regression gate: interleaved A/B vs the last judged
    # snapshot (solo absolute numbers swing +/-40% on this host; the
    # A/B ratio is the trustworthy signal). GRAFT_BENCH_AB=0 skips.
    ab = None
    if os.environ.get("GRAFT_BENCH_AB", "1") != "0":
        try:
            # 5 interleaved reps/side: 3-rep medians still swing ±12%
            # between windows (measured 0.94 vs 1.16 for near-identical
            # sides); 5 is the smallest count whose median stays stable
            ab = ab_block(AB_BASE_REV, reps=5)
        except Exception as exc:  # missing rev/checkout: disclose, don't die
            ab = {"error": f"{type(exc).__name__}: {exc}"}

    print(json.dumps({
        "metric": "spatial-join + tile-assignment throughput (docs/sec)",
        "value": round(head["sec"], 3),
        "unit": "sec",
        "queries": queries,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "docs": head["docs"],
        "docs_per_sec": round(head["docs_per_sec"], 1),
        "ab": ab,
    }))


if __name__ == "__main__":
    mode = sys.argv[1] if len(sys.argv) > 1 else None
    if mode == "--child":
        child(sys.argv[2], int(sys.argv[3]), sys.argv[4])
    elif mode == "--scaling":
        scaling_main()
    elif mode == "--micro":
        micro_main()
    elif mode == "--ab":
        print(json.dumps(ab_block(sys.argv[2] if len(sys.argv) > 2 else AB_BASE_REV,
                                  reps=int(sys.argv[3]) if len(sys.argv) > 3 else 5)))
    else:
        main()
