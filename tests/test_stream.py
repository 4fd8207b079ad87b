"""Event-time session windows and sessionize (stages/session.py):
brute-force equivalence, tie handling, gap boundary semantics (strict
>), hot-user block straddles with the pre-collapsed residue,
sessionize as the per-user rollup of the windows in one sort."""

import numpy as np
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st


def _brute(users, ts, gap):
    """(user, session_id, start, end, n) via a plain sorted walk."""
    order = np.lexsort((ts, users))
    out = {}
    for i in order:
        u = users[i]
        sess = out.setdefault(u, [])
        if sess and ts[i] - sess[-1][1] <= gap:
            s = sess[-1]
            sess[-1] = (s[0], ts[i], s[2] + 1)
        else:
            sess.append((ts[i], ts[i], 1))
    rows = []
    for u, sess in out.items():
        for k, (a, b, n) in enumerate(sess):
            rows.append((u, k, a, b, n))
    return sorted(rows)


def _run(users, ts, gap, nblocks=9):
    import ray

    from karta_ray.stages.session import session_windows

    t = pa.table({"user_id": pa.array(users.astype(np.int64)),
                  "ts": pa.array(ts.astype(np.int64))})
    ds = ray.data.from_arrow(t).repartition(nblocks)
    got = session_windows(ds, gap=gap).to_pandas()
    return sorted(map(tuple, got[["user_id", "session_id", "start_us",
                                  "end_us", "n_events"]].to_numpy()))


class TestSessionWindows:
    def test_matches_brute_force(self, ray_session):
        rng = np.random.RandomState(7)
        n = 3000
        users = rng.randint(0, 50, n)
        ts = rng.randint(0, 10**6, n)
        gap = 5000
        assert _run(users, ts, gap) == _brute(users, ts, gap)

    def test_gap_boundary_strict(self, ray_session):
        # diff == gap stays in-session; gap+1 opens a new one
        users = np.zeros(3, dtype=np.int64)
        ts = np.array([0, 100, 201])
        got = _run(users, ts, gap=100, nblocks=1)
        assert got == [(0, 0, 0, 100, 2), (0, 1, 201, 201, 1)]

    def test_ties_share_session(self, ray_session):
        users = np.zeros(4, dtype=np.int64)
        ts = np.array([0, 1000, 1000, 5000])
        got = _run(users, ts, gap=100, nblocks=2)
        assert got == [(0, 0, 0, 0, 1), (0, 1, 1000, 1000, 2),
                       (0, 2, 5000, 5000, 1)]

    def test_other_columns_ignored(self, ray_session):
        # an event stream may carry columns named like the operator's
        # interval partials (session_windows output has end_us; a
        # count column n): only (user_id, ts) are read
        import ray

        from karta_ray.stages.session import session_windows

        rng = np.random.RandomState(3)
        users = rng.randint(0, 20, 2000)
        ts = rng.randint(0, 10**5, 2000)
        t = pa.table({"user_id": pa.array(users.astype(np.int64)),
                      "ts": pa.array(ts.astype(np.int64)),
                      "end_us": pa.array(-ts.astype(np.int64)),
                      "n": pa.array(np.full(2000, 7, np.int64))})
        got = session_windows(ray.data.from_arrow(t).repartition(5),
                              gap=500).to_pandas()
        assert sorted(map(tuple, got[[
            "user_id", "session_id", "start_us", "end_us",
            "n_events"]].to_numpy())) == _brute(users, ts, 500)

    def test_hot_user_straddles_blocks(self, ray_session):
        # one user's burst spans every block: the residue sees
        # pre-collapsed partials and must still merge exactly
        n = 60000
        ts = np.arange(n, dtype=np.int64) * 3       # all gaps 3 <= gap
        ts[n // 2:] += 10**9                        # one far jump
        users = np.zeros(n, dtype=np.int64)
        got = _run(users, ts, gap=10, nblocks=16)
        assert got == [
            (0, 0, 0, (n // 2 - 1) * 3, n // 2),
            (0, 1, (n // 2) * 3 + 10**9, (n - 1) * 3 + 10**9, n - n // 2)]

    def test_rollup_matches_sessionize_query(self, ray_session):
        # cross-operator consistency on real testdata: rolling the
        # per-window rows up per user must reproduce the independent
        # batch sessionize query (n_events total, n_sessions = number
        # of windows)
        import __ray_entry__ as entry

        qs = entry.queries()
        sf = "/root/testdata/sf0.001"
        win = (qs["session_windows"](sf).to_pandas()
               .groupby("user_id")
               .agg(n_events=("n_events", "sum"),
                    n_sessions=("session_id", "count")))
        sess = (qs["sessionize"](sf).to_pandas()
                .set_index("user_id").sort_index())
        win = win.sort_index()
        assert (win.n_events == sess.n_events).all()
        assert (win.n_sessions == sess.n_sessions).all()


def _sessionize_brute(users, ts, gap):
    """(user_id, n_events, n_sessions) by the SQL rule: a new session
    where ``ts - lag(ts) > gap`` within one user."""
    order = np.lexsort((ts, users))
    u, t = users[order], ts[order]
    new = np.ones(len(u), dtype=bool)
    new[1:] = (u[1:] != u[:-1]) | (t[1:] - t[:-1] > gap)
    ids, first = np.unique(u, return_index=True)
    n_events = np.diff(np.append(first, len(u)))
    n_sessions = np.add.reduceat(new.astype(np.int64), first)
    return sorted(zip(ids.tolist(), n_events.tolist(), n_sessions.tolist()))


class TestSessionize:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 60),
           st.integers(0, 50))
    @settings(max_examples=8, deadline=None)
    def test_is_rollup_of_session_windows(self, ray_session, seed, step,
                                          gap):
        # tied timestamps throughout, and one hot user (7) with enough
        # rows that the sorted 8-block layout is kept, so its events
        # straddle every block boundary
        import ray

        from karta_ray.stages.session import session_windows, sessionize

        rng = np.random.RandomState(seed)
        n_hot, n_cold = 60_000, 3_000
        users = np.concatenate([np.full(n_hot, 7),
                                rng.randint(0, 40, n_cold)]).astype(np.int64)
        ts = np.concatenate([rng.randint(0, n_hot * step, n_hot),
                             rng.randint(0, 300, n_cold)]).astype(np.int64)
        perm = rng.permutation(len(users))
        ds = ray.data.from_arrow(pa.table({
            "user_id": users[perm], "ts": ts[perm]})).repartition(8)
        got = sessionize(ds, gap_us=gap).to_pandas()
        win = (session_windows(ds, gap=gap).to_pandas().groupby("user_id")
               .agg(n_events=("n_events", "sum"),
                    n_sessions=("session_id", "count")).reset_index())
        rows = sorted(map(tuple, got[["user_id", "n_events",
                                      "n_sessions"]].to_numpy().tolist()))
        assert rows == sorted(map(tuple, win.to_numpy().tolist()))
        assert rows == _sessionize_brute(users, ts, gap)

    def test_one_sort(self, ray_session, executed_ops):
        import ray

        from karta_ray.stages.session import sessionize

        rng = np.random.RandomState(3)
        ds = ray.data.from_arrow(pa.table({
            "user_id": rng.randint(0, 30, 5000),
            "ts": rng.randint(0, 10**6, 5000)})).repartition(6)
        assert sessionize(ds, gap_us=1000).count() == 30
        sorts = [op.name for run in executed_ops for op in run
                 if op.name == "Sort"]
        assert sorts == ["Sort"], [[op.name for op in run]
                                   for run in executed_ops]


class TestEmptyInput:
    """An all-empty input keeps the typed output schema: Ray's sort
    drops the schema of empty blocks, so sorted_map_groups returns its
    block fn of the input's zero-row table instead."""

    EVENTS = pa.schema([("user_id", pa.int64()), ("ts", pa.int64()),
                        ("event_type", pa.string())])

    def _empty(self):
        import ray

        return ray.data.from_arrow(self.EVENTS.empty_table())

    def test_sessionize(self, ray_session):
        from karta_ray.stages.session import sessionize

        out = sessionize(self._empty(), gap_us=10).materialize()
        assert out.count() == 0
        assert out.schema().base_schema == pa.schema(
            [("user_id", pa.int64()), ("n_events", pa.int64()),
             ("n_sessions", pa.int64())])

    def test_session_windows_and_funnel(self, ray_session):
        from karta_ray.stages.session import funnel_steps, session_windows

        win = session_windows(self._empty(), gap=10).materialize()
        assert win.schema().names == ["user_id", "session_id", "start_us",
                                      "end_us", "n_events"]
        fun = funnel_steps(self._empty(), ("view", "click")).materialize()
        assert fun.schema().names == ["user_id", "steps_reached"]

    def test_sorted_sum(self, ray_session):
        import ray

        from karta_ray.stages.agg import sorted_sum

        t = pa.schema([("k", pa.int64()), ("v", pa.float64())]).empty_table()
        out = sorted_sum(ray.data.from_arrow(t), ["k"], ["v"]).materialize()
        assert out.schema().base_schema == t.schema

    def test_grouped_topn(self, ray_session):
        import ray

        from karta_ray.stages.topn import grouped_topn

        t = pa.schema([("k", pa.int64()), ("v", pa.float64())]).empty_table()
        out = grouped_topn(ray.data.from_arrow(t), ["k"], "v",
                           2).materialize()
        assert out.count() == 0
        assert out.schema().base_schema == t.schema

    def test_non_empty_reads_no_schema(self, ray_session, executed_ops):
        # the zero-row table is built only for an empty result: a
        # non-empty run starts no limit(1) schema probe
        import ray
        from ray.data._internal.execution.operators.limit_operator import \
            LimitOperator

        from karta_ray.stages.session import sessionize

        ds = ray.data.from_arrow(pa.table({
            "user_id": np.arange(40) % 4, "ts": np.arange(40)}))
        assert sessionize(ds, gap_us=5).count() == 4
        assert not any(isinstance(op, LimitOperator)
                       for run in executed_ops for op in run)
