"""One-command benchmark for karta_ray.

    python3 perfbench/run.py --workload flagship_pages --seed 1 --seconds 28 --trace 0

Run from the repository root. ``--trace 0`` measures the end-to-end
metrics in two fresh Ray sessions using all CPUs of the process's
affinity mask, two jobs at all CPUs to each job capped at one CPU; every
job's output is checked. Between jobs a fixed interpreter loop, run on
every CPU at once, measures the host's speed, and the timed figures are
scaled to a reference speed (see ``HostProbe``).
``--trace 1`` is the separate traced run that reports the per-layer
metrics and writes its spans to ``.bench_cache/traces/``. The last line
of stdout is the result object; the line before it is the full report
(host block, per-job wall times, ``fail_frac``).
Exits non-zero without a result when karta_ray cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import signal
import statistics
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_LIMIT_S = 170
OBJECT_STORE_BYTES = 512 * 2**20
SESSIONS = 2  # Ray sessions per timed run; setup_s is their median
PROBE_STEPS = 300_000  # interpreter loop steps per probe sample
PROBE_REF_S = 0.030  # probe time that normalised figures are scaled to
# jobs of one cycle of a timed run: (leg, CPU cap of Ray Data's executor)
CYCLE = (("all", None), ("one", 1), ("all", None))


class Timeout(BaseException):
    """Raised by the run's alarm; not an Exception, so a job's failure
    handler does not swallow it."""


# ---------------------------------------------------------------------------
# Host, Ray session, memory
# ---------------------------------------------------------------------------

def host_block(args, cpus: int, params: dict) -> dict:
    import duckdb
    import numpy
    import pyarrow
    import ray

    with open("/proc/meminfo") as f:
        mem_kb = int(next(line for line in f if line.startswith("MemTotal")).split()[1])
    return {"cpus": cpus, "ram_gb": round(mem_kb / 2**20, 1),
            "python": platform.python_version(), "ray": ray.__version__,
            "pyarrow": pyarrow.__version__, "numpy": numpy.__version__,
            "duckdb": duckdb.__version__, "seed": args.seed,
            "workload": args.workload, "input": params}


def start_ray(num_cpus: int):
    """Fresh local Ray session whose workers can import karta_ray from
    this checkout (workers inherit the driver's environment)."""
    import ray

    paths = [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(paths))
    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             object_store_memory=OBJECT_STORE_BYTES, log_to_driver=False)
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    _cap_cpus(None)  # the driver's DataContext outlives the previous session


def stop_ray():
    import ray

    ray.shutdown()


def _tree_pss(root_pid: int) -> int:
    """Summed PSS (bytes) of ``root_pid`` and its descendant Ray worker
    processes (command line ``ray::...``). PSS, not RSS: the workers all
    map the shared object store, and summed RSS would count those pages
    once per process that touched them."""
    children: dict[int, list] = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        children.setdefault(ppid, []).append(int(d))
    total, stack = 0, [root_pid]
    while stack:
        pid = stack.pop()
        stack.extend(children.get(pid, []))
        try:
            if pid != root_pid:
                with open(f"/proc/{pid}/cmdline", "rb") as f:
                    if not f.read(5).startswith(b"ray::"):
                        continue
            with open(f"/proc/{pid}/smaps_rollup") as f:
                total += next(int(line.split()[1]) for line in f
                              if line.startswith("Pss:")) * 1024
        except (OSError, StopIteration):
            continue
    return total


class MemSampler:
    """One thread sampling the summed PSS every ``interval`` seconds and
    keeping the peak of the current window."""

    def __init__(self, interval: float = 0.1):
        self.interval = interval
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        pid = os.getpid()
        while True:
            self.peak = max(self.peak, _tree_pss(pid))
            if self._stop.wait(self.interval):
                return

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=5)

    def take(self) -> int:
        """The peak since the previous call; starts a new window."""
        peak, self.peak = self.peak, 0
        return peak


def _pin_to_next_cpu(cpus):
    os.sched_setaffinity(0, {cpus.get()})


def _probe_loop(_) -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_STEPS):
        acc += i * i % 7
    return time.perf_counter() - t0


class HostProbe:
    """Host-speed probe: one process pinned to each CPU of the affinity
    mask times the same fixed interpreter loop, twice per call, all CPUs
    at once. The shared host's cores run this loop, and the jobs, up to
    twice as fast in some minutes as in others; the probe does not touch
    karta_ray, so scaling a job's wall time by ``PROBE_REF_S`` / (probe
    time around the job) removes the host's speed and keeps the
    program's. Started before Ray; the forked children run only the
    loop."""

    def __init__(self, cpus: list[int]):
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        for c in cpus:
            queue.put(c)
        self.n = len(cpus)
        self._pool = ctx.Pool(self.n, initializer=_pin_to_next_cpu, initargs=(queue,))

    def seconds(self) -> float:
        """Median loop time over two samples per CPU."""
        return statistics.median(self._pool.map(_probe_loop, range(2 * self.n),
                                                chunksize=1))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._pool.terminate()
        self._pool.join()


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def _session(wl, num_cpus: int) -> float:
    """Start Ray and warm it; returns the set-up time."""
    t0 = time.perf_counter()
    start_ray(num_cpus)
    wl.warm()
    return time.perf_counter() - t0


def _cap_cpus(n: int | None):
    """Cap the CPUs Ray Data's executor may use; None removes the cap."""
    from ray.data import DataContext, ExecutionResources

    DataContext.get_current().execution_options.resource_limits = (
        ExecutionResources.for_limits(cpu=n))


def timed_run(wl, cpus: int, seconds: float) -> dict:
    """Closed loop in ``SESSIONS`` fresh Ray sessions at all CPUs. After
    its warm-up job each session repeats ``CYCLE`` (a job at all CPUs, a
    job whose Ray Data executor is capped at one CPU, a job at all CPUs)
    for ``seconds / SESSIONS``, so both legs of ``scaling_eff`` see the
    same machine state. The host probe runs before and after the set-up
    and after every job; the session's set-up and job times are scaled
    by ``PROBE_REF_S`` / (mean probe time of the session). Memory is
    each job's peak; the run reports the median over all-CPU jobs, as
    the run-wide maximum depended on which 0.1 s samples caught a
    transient."""
    jobs = {"all": [], "one": []}
    setups, norm_setups, session_probe_s = [], [], []
    with HostProbe(sorted(os.sched_getaffinity(0))) as probe:
        for _ in range(SESSIONS):
            probes, session_jobs = [probe.seconds()], []
            try:
                setup = _session(wl, cpus)
                probes.append(probe.seconds())
                with MemSampler() as mem:
                    t0, cycles = time.perf_counter(), 0
                    while cycles == 0 or time.perf_counter() - t0 < seconds / SESSIONS:
                        for leg, cap in CYCLE:
                            _cap_cpus(cap)
                            mem.take()
                            job = wl.run_job()
                            job["peak_pss"] = mem.take()
                            probes.append(probe.seconds())
                            session_jobs.append((leg, job))
                        cycles += 1
            finally:
                stop_ray()
            scale = PROBE_REF_S / statistics.mean(probes)
            setups.append(setup)
            norm_setups.append(setup * scale)
            session_probe_s.append(statistics.mean(probes))
            for leg, job in session_jobs:
                job["norm_wall_s"] = job["wall_s"] * scale
                jobs[leg].append(job)
    rows = wl.input_rows()
    every = jobs["all"] + jobs["one"]
    failed = sum(not j["ok"] for j in every)

    def median_rate(leg):
        return rows / statistics.median(j["wall_s"] for j in jobs[leg])

    def mean_rate(key):  # rows processed / time spent, over all-CPU jobs
        return rows / statistics.mean(j[key] for j in jobs["all"])
    metrics = {
        "norm_rows_per_s": mean_rate("norm_wall_s"),
        "scaling_eff": median_rate("all") / (cpus * median_rate("one")),
        "setup_s": statistics.median(norm_setups),
        "peak_pss_mb": statistics.median(j["peak_pss"] for j in jobs["all"]) / 2**20,
    }
    return {"attempted": len(every), "failed": failed, "metrics": metrics,
            "report": {"job_walls_s": {leg: [j["wall_s"] for j in js]
                                       for leg, js in jobs.items()},
                       "rows_per_s": mean_rate("wall_s"),
                       "setup_s_raw": setups, "setup_s_norm": norm_setups,
                       "session_probe_s": session_probe_s,
                       "fail_frac": failed / len(every)}}


def traced_run(wl, cpus: int, trace_path: str) -> dict:
    """Per-layer metrics: the workload's in-process traced pass and one
    distributed job (with ``ray.timeline()``), in one Ray session."""
    from spans import Tracer

    tracer = Tracer()
    try:
        setup = _session(wl, cpus)
        out = wl.traced(tracer, cpus)
    finally:
        stop_ray()
    failed = sum(not ok for ok in out["ok"])
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    with open(trace_path, "w") as f:
        json.dump({"spans": tracer.spans, "metrics": out["metrics"]}, f)
    return {"attempted": len(out["ok"]), "failed": failed, "metrics": out["metrics"],
            "report": {"setup_s": setup, "trace_file": trace_path,
                       "fail_frac": failed / len(out["ok"])}}


def result_line(spec: dict, res: dict, trace: bool) -> dict:
    """The final stdout object: every metric the spec lists for this mode,
    with 0 for a layer this workload does not exercise."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    unknown = set(res["metrics"]) - {m["name"] for m in wanted}
    if unknown:
        raise ValueError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {m["name"]: {"value": float(res["metrics"].get(m["name"], 0.0)),
                                    "unit": m["unit"]} for m in wanted}}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: small inputs, for smoke tests")
    ap.add_argument("--cache", default=".bench_cache",
                    help="directory for inputs, expected outputs and traces")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path[:0] = [p for p in (ROOT, HERE) if p not in sys.path]
    try:
        import karta_ray  # noqa: F401

        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (ImportError, OSError) as e:
        print(f"perfbench: cannot load the program under test: {e}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    def on_alarm(signum, frame):
        raise Timeout(f"run exceeded {RUN_LIMIT_S} s")
    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(RUN_LIMIT_S)

    cpus = len(os.sched_getaffinity(0))
    cache = os.path.abspath(args.cache)
    wl = WORKLOADS[args.workload](cache, args.seed, args.size)
    wl.prepare()
    if args.trace:
        res = traced_run(wl, cpus, os.path.join(
            cache, "traces", f"{args.workload}-seed{args.seed}-{args.size}.json"))
    else:
        res = timed_run(wl, cpus, args.seconds)
    signal.alarm(0)
    line = result_line(spec, res, bool(args.trace))
    report = {"host": host_block(args, cpus, wl.params), **res["report"],
              "metrics": line["metrics"]}
    print(json.dumps(report, default=str))
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
