"""End-to-end Ray Data pipeline tests (session-scoped Ray fixture)."""

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from karta_ray import synth
from karta_ray.pipelines.flagship import flagship_aggregate, flagship_pipeline
from karta_ray.stages.extract import extract_geotag_stage
from karta_ray.stages.tiles import assign_cells


def brute_force_join(n_pages, polyset):
    """Driver-side oracle: exact contains over every (point, polygon)."""
    t = synth.pages_table(n_pages)
    lon, lat = synth.page_coords(np.arange(n_pages))
    urls = t.column("url").to_pylist()
    ok = ~np.isnan(lon)
    pairs = set()
    for ip in range(len(polyset)):
        m = np.zeros(n_pages, dtype=bool)
        m[ok] = polyset.contains(lon[ok], lat[ok], ip)
        for i in np.nonzero(m)[0]:
            pairs.add((urls[i], int(polyset.poly_id[ip])))
    return pairs


@pytest.mark.usefixtures("ray_session")
class TestFlagship:
    def test_join_matches_brute_force(self):
        n = 3000
        ps = synth.admin_polygons()
        ds = synth.pages_dataset(n, override_num_blocks=8)
        out = flagship_pipeline(ds, zoom=7, polyset=ps)
        tbl = out.to_arrow_refs()
        import ray
        parts = [ray.get(r) for r in tbl]
        got = set()
        for p in parts:
            for u, pid in zip(p.column("url").to_pylist(),
                              p.column("poly_id").to_pylist()):
                got.add((u, pid))
        want = brute_force_join(n, ps)
        assert got == want
        assert len(want) > 100  # non-trivial join

    def test_join_deterministic_across_parallelism(self):
        n = 1200
        ps = synth.admin_polygons()
        results = []
        for blocks in (2, 7):
            ds = synth.pages_dataset(n, override_num_blocks=blocks)
            out = flagship_pipeline(ds, zoom=7, polyset=ps)
            df = out.to_pandas().sort_values(["url", "poly_id"]).reset_index(drop=True)
            results.append(df[["url", "poly_id"]])
        assert results[0].equals(results[1])

    def test_aggregate(self):
        n = 2000
        ps = synth.admin_polygons()
        ds = synth.pages_dataset(n, override_num_blocks=4)
        joined = flagship_pipeline(ds, zoom=7, polyset=ps)
        agg = flagship_aggregate(joined).to_pandas()
        assert (agg["n"] > 0).all()
        # total joined rows preserved by the partial+final aggregate
        total = agg["n"].sum()
        assert total == joined.count()

    def test_extract_stage_drops_html(self):
        import ray

        ds = synth.pages_dataset(200, override_num_blocks=2)
        out = ds.map_batches(extract_geotag_stage, batch_format="pyarrow")
        schema = out.schema()
        assert "html" not in schema.names
        assert {"url", "lon", "lat"} <= set(schema.names)

    def test_cell_assignment_matches_kernel(self):
        from karta_ray.kernels import tiles as T

        ds = synth.pages_dataset(500, override_num_blocks=2)
        out = (ds.map_batches(extract_geotag_stage, batch_format="pyarrow")
                 .map_batches(assign_cells, batch_format="pyarrow",
                              fn_kwargs={"zoom": 9}))
        df = out.to_pandas()
        ok = df["tile_z"] >= 0
        x, y = T.tile_xy(df["lon"].to_numpy()[ok], df["lat"].to_numpy()[ok], 9)
        np.testing.assert_array_equal(df["tile_x"].to_numpy()[ok], x)
        np.testing.assert_array_equal(df["tile_y"].to_numpy()[ok], y)


@pytest.mark.usefixtures("ray_session")
class TestJoinModes:
    def _points(self):
        import ray.data

        from karta_ray.kernels import tiles as T

        lon = np.array([28.75, 45.0, 0.5, -147.0])   # star, polar, none, hole
        lat = np.array([25.625, 85.0, 0.5, -46.0])
        return ray.data.from_arrow(pa.table({
            "pid": pa.array(np.arange(4, dtype=np.int64)),
            "lon": pa.array(lon), "lat": pa.array(lat),
            "cell_id": pa.array(T.cell_id(lon, lat, 7))}))

    def test_semi_mode(self):
        from karta_ray import synth
        from karta_ray.stages.join import pip_join

        ps = synth.admin_polygons()
        out = pip_join(self._points(), ps, zoom=7, mode="semi").to_pandas()
        # hippie star point and polar point are inside SOME polygon;
        # the hole point (inside holed_square's hole but also possibly a
        # region) keeps/drops per exact membership — just verify semi is
        # a subset of distinct input rows with original columns only
        assert set(out.columns) >= {"pid", "lon", "lat"}
        assert out["pid"].is_unique
        assert {0, 1} <= set(out["pid"])

    def test_tag_mode(self):
        from karta_ray import synth
        from karta_ray.stages.join import pip_join

        ps = synth.admin_polygons()
        out = pip_join(self._points(), ps, zoom=7, mode="tag").to_pandas()
        assert len(out) == 4  # every input row passes through
        tagged = out.set_index("pid")["poly_id"]
        assert tagged.loc[0] >= 0  # star point got a polygon
        inner = pip_join(self._points(), ps, zoom=7, mode="inner").to_pandas()
        # tag picks the lowest matching polygon index per point
        for pid, grp in inner.groupby("pid"):
            assert tagged.loc[pid] == grp["poly_id"].min()


@pytest.fixture(scope="module")
def pages_dir(tmp_path_factory):
    """Synthetic pages as 8 parquet files, read back like perfbench's."""
    import pyarrow.parquet as pq

    d = tmp_path_factory.mktemp("pages")
    for i in range(8):
        pq.write_table(synth.pages_table(2000, start=2000 * i),
                       str(d / f"part-{i}.parquet"))
    return str(d)


def _flagship_job(pages_dir):
    """perfbench's flagship job: parquet read -> slim flagship pipeline
    -> flagship_aggregate, read back with to_arrow_refs()."""
    import ray
    import ray.data

    joined = flagship_pipeline(ray.data.read_parquet(pages_dir), zoom=7,
                               slim=True)
    return pa.concat_tables(ray.get(flagship_aggregate(joined).to_arrow_refs()))


def _probe_steps(monkeypatch):
    """Per scheduling step of the streaming executor: (tasks in flight
    after the step's dispatch, summed over operators; the map operators'
    streaming-generator buffer depths)."""
    from ray.data._internal.execution.operators.map_operator import \
        MapOperator
    from ray.data._internal.execution.streaming_executor import \
        StreamingExecutor

    steps = []
    step = StreamingExecutor._scheduling_loop_step

    def probed(self, topology):
        more = step(self, topology)
        steps.append((
            sum(op.num_active_tasks() for op in topology),
            {op.data_context._max_num_blocks_in_streaming_gen_buffer
             for op in topology if isinstance(op, MapOperator)}))
        return more

    monkeypatch.setattr(StreamingExecutor, "_scheduling_loop_step", probed)
    return steps


def _context_fields(ctx):
    """A DataContext's fields, ExecutionOptions (which has no __eq__) by
    its own fields."""
    f = dict(vars(ctx))
    f["execution_options"] = vars(ctx.execution_options)
    return f


@pytest.mark.usefixtures("ray_session")
class TestExecutorScope:
    """The join plan's executor setting (state.executor.buffer_ahead)
    stays on the plan's own context and leaves the caller's limits
    alone."""

    def test_one_cpu_cap_holds(self, monkeypatch, pages_dir):
        from ray.data import DataContext, ExecutionResources

        from karta_ray.state.executor import GEN_BUFFER_BLOCKS

        steps = _probe_steps(monkeypatch)
        opts = DataContext.get_current().execution_options
        monkeypatch.setattr(opts, "resource_limits",
                            ExecutionResources.for_limits(cpu=1))
        capped = _flagship_job(pages_dir)
        assert steps and max(n for n, _ in steps) == 1
        assert set().union(*(d for _, d in steps)) == {GEN_BUFFER_BLOCKS}
        # the probe can see more than one task: uncapped, the same job
        # runs several at once, with the same output
        monkeypatch.setattr(opts, "resource_limits", ExecutionResources())
        steps.clear()
        order = [("poly_id", "ascending"), ("cell_id", "ascending")]
        assert _flagship_job(pages_dir).sort_by(order).equals(
            capped.sort_by(order))
        assert max(n for n, _ in steps) > 1

    def test_global_context_unchanged(self, pages_dir):
        import copy

        from ray.data import DataContext

        before = copy.deepcopy(DataContext.get_current())
        assert _flagship_job(pages_dir).num_rows > 0
        assert _context_fields(DataContext.get_current()) == \
            _context_fields(before)

    def test_join_plans_carry_buffer_depth(self, monkeypatch, tmp_path,
                                          pages_dir):
        import inspect
        import types

        import ray.data
        from ray.data import DataContext
        from ray.data._internal.execution.operators.task_pool_map_operator \
            import TaskPoolMapOperator

        from karta_ray.pipelines.flagship import flagship_checkpointed
        from karta_ray.stages.join import pip_join_strtree
        from karta_ray.state.executor import GEN_BUFFER_BLOCKS, buffer_ahead

        # a rename in Ray fails here, not as a silent no-op
        name = "_max_num_blocks_in_streaming_gen_buffer"
        assert name in vars(DataContext())
        assert name in inspect.getsource(TaskPoolMapOperator)
        with pytest.raises(AttributeError):
            buffer_ahead(types.SimpleNamespace(context=types.SimpleNamespace()))

        default = getattr(DataContext(), name)
        assert default != GEN_BUFFER_BLOCKS
        pages = ray.data.read_parquet(pages_dir)
        joined = flagship_pipeline(pages, zoom=7, slim=True)
        # one context for the whole lineage, read included
        assert joined.context is pages.context
        assert getattr(joined.context, name) == GEN_BUFFER_BLOCKS
        pts = ray.data.from_arrow(pa.table({"lon": [1.0], "lat": [2.0]}))
        assert getattr(pip_join_strtree(pts, synth.admin_polygons())
                       .context, name) == GEN_BUFFER_BLOCKS
        # the checkpointed flagship: only its join stage sets the depth
        steps = _probe_steps(monkeypatch)
        flagship_checkpointed(pages_dir, str(tmp_path / "ckpt"))
        depths = set().union(*(d for _, d in steps))
        assert depths == {default, GEN_BUFFER_BLOCKS}
        assert getattr(DataContext.get_current(), name) == default


@pytest.mark.usefixtures("ray_session")
class TestTreeAggProperty:
    def test_matches_pandas_groupby(self):
        import pandas as pd
        import ray.data

        from karta_ray.stages.agg import tree_agg

        rng = np.random.RandomState(13)
        n = 50_000
        df = pa.table({
            "k1": pa.array(rng.randint(0, 50, n).astype(np.int64)),
            "k2": pa.array(rng.randint(0, 7, n).astype(np.int64)),
            "s": pa.array(rng.randint(-100, 100, n).astype(np.int64)),
            "m": pa.array(rng.randint(0, 10**6, n).astype(np.int64)),
        })
        ds = ray.data.from_arrow(df).repartition(16)
        got = tree_agg(ds, ["k1", "k2"], [("s", "sum"), ("m", "max")]) \
            .to_pandas().sort_values(["k1", "k2"]).reset_index(drop=True)
        want = (df.to_pandas().groupby(["k1", "k2"], as_index=False)
                .agg(s=("s", "sum"), m=("m", "max"))
                .sort_values(["k1", "k2"]).reset_index(drop=True))
        assert got.equals(want)

    def test_exact_over_many_blocks(self):
        # 48 input blocks, one partial per block folded on the driver
        import ray.data

        from karta_ray.stages.agg import tree_agg

        rng = np.random.RandomState(3)
        n = 20_000
        df = pa.table({
            "k": pa.array(rng.randint(0, 11, n).astype(np.int64)),
            "s": pa.array(rng.randint(-5, 5, n).astype(np.int64)),
        })
        ds = ray.data.from_arrow(df).repartition(48)
        assert ds.materialize().num_blocks() == 48
        got = tree_agg(ds, ["k"], [("s", "sum")]) \
            .to_pandas().sort_values("k").reset_index(drop=True)
        want = (df.to_pandas().groupby("k", as_index=False)
                .agg(s=("s", "sum"))
                .sort_values("k").reset_index(drop=True))
        assert got.equals(want)

    def test_one_execution_partial_once_per_block(self, monkeypatch):
        # flagship_aggregate(...) then to_arrow_refs(): one executor run,
        # the partial once per input block, and no re-execution to fetch
        # the result's schema
        import ray
        import ray.data
        from ray.data._internal.execution.streaming_executor import \
            StreamingExecutor

        from karta_ray.pipelines import flagship

        @ray.remote
        class Counter:
            def __init__(self):
                self.n = 0

            def add(self):
                self.n += 1

            def get(self):
                return self.n

        counter = Counter.remote()
        partial = flagship._partial_counts

        def counted(batch):
            ray.get(counter.add.remote())
            return partial(batch)

        runs = []
        execute = StreamingExecutor.execute

        def counting_execute(self, dag, *args, **kwargs):
            runs.append(str(dag))
            return execute(self, dag, *args, **kwargs)

        monkeypatch.setattr(flagship, "_partial_counts", counted)
        monkeypatch.setattr(StreamingExecutor, "execute", counting_execute)
        rng = np.random.RandomState(2)
        blocks = [pa.table({"poly_id": rng.randint(0, 9, 500),
                            "cell_id": rng.randint(0, 30, 500)})
                  for _ in range(12)]
        ds = flagship.flagship_aggregate(ray.data.from_arrow(blocks))
        assert len(runs) == 1
        got = pa.concat_tables(ray.get(ds.to_arrow_refs()))
        assert ray.get(counter.get.remote()) == len(blocks)
        assert all("MapBatches" not in r for r in runs[1:])
        want = partial(pa.concat_tables(blocks))
        assert got.sort_by([("poly_id", "ascending"), ("cell_id", "ascending")]) \
            .equals(want.sort_by([("poly_id", "ascending"),
                                  ("cell_id", "ascending")]))

    @pytest.mark.parametrize("empty_blocks", ["one_empty_block",
                                              "mapped_to_empty"])
    def test_empty_input_keeps_schema(self, empty_blocks):
        import ray.data

        from karta_ray.stages.agg import tree_agg

        t = pa.table({"k": pa.array([1, 2], pa.int32()),
                      "s": pa.array([1, 2], pa.int32()),
                      "m": pa.array([1.5, 2.5], pa.float64())})
        if empty_blocks == "one_empty_block":
            ds = ray.data.from_arrow(t.slice(0, 0))
        else:
            ds = ray.data.from_arrow([t] * 3).map_batches(
                lambda b: b.slice(0, 0), batch_format="pyarrow")
        out = tree_agg(ds, ["k"], [("s", "sum"), ("m", "max")])
        got = pa.concat_tables(ray.get(out.to_arrow_refs()))
        assert got.num_rows == 0
        # pyarrow widens an int32 sum to int64
        assert got.schema == pa.schema([("k", pa.int32()), ("s", pa.int64()),
                                        ("m", pa.float64())])

    @given(st.lists(st.integers(0, 400), min_size=0, max_size=12),
           st.sampled_from(["sum", "min", "max"]),
           st.integers(1, 300), st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_fold_equals_group_by(self, cuts, agg, flush_rows, seed):
        # random block splits (empty blocks included) and flush sizes:
        # the fold equals one pa.Table.group_by over the whole input
        import ray.data

        from karta_ray.stages.agg import _make_combine, stream_fold, tree_agg

        rng = np.random.RandomState(seed % 2**32)
        n = 400
        t = pa.table({"k1": rng.randint(0, 6, n), "k2": rng.randint(0, 4, n),
                      "v": rng.randint(-50, 50, n),
                      "f": rng.uniform(-1, 1, n)})
        edges = [0] + sorted(cuts) + [n]
        ds = ray.data.from_arrow([t.slice(a, b - a)
                                  for a, b in zip(edges, edges[1:])])
        col_aggs = [("v", agg), ("f", "min" if agg == "sum" else agg)]
        keys = ["k1", "k2"]
        order = [("k1", "ascending"), ("k2", "ascending")]
        combine = _make_combine(keys, col_aggs)
        want = combine(t).sort_by(order)
        got = pa.concat_tables(ray.get(
            tree_agg(ds, keys, col_aggs).to_arrow_refs())).sort_by(order)
        assert got.equals(want)
        folded = stream_fold(ds.map_batches(combine, batch_format="pyarrow"),
                             combine, flush_rows=flush_rows).sort_by(order)
        assert folded.equals(want)


@pytest.mark.usefixtures("ray_session")
class TestZoomInvariance:
    def test_join_results_identical_across_zooms(self):
        from karta_ray import synth
        from karta_ray.stages.extract import extract_geotag_stage
        from karta_ray.stages.join import pip_join
        from karta_ray.stages.tiles import assign_cells

        ps = synth.admin_polygons()
        results = []
        for zoom in (5, 8):
            ds = synth.pages_dataset(1000, override_num_blocks=3)
            pts = (ds.map_batches(extract_geotag_stage, batch_format="pyarrow")
                     .map_batches(assign_cells, batch_format="pyarrow",
                                  fn_kwargs={"zoom": zoom}))
            out = pip_join(pts, ps, zoom=zoom).to_pandas()
            results.append(out[["url", "poly_id"]]
                           .sort_values(["url", "poly_id"])
                           .reset_index(drop=True))
        assert results[0].equals(results[1])
        assert len(results[0]) > 30
