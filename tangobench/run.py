"""Tango benchmark of record: one workload, one run, one JSON line.

Run from the root of a checkout (the program is imported from
``src/``)::

    python3 tangobench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped:
the workload is set up (and set-up is repeated, its median reported),
warmed up, run closed-loop for ``--seconds`` and its answers checked.
``--trace 1`` runs a fixed number of operations twice from fresh
deployments with the same seed, first untraced and then with every
layer wrapped (see ``tracing.py``), and reports the per-layer metrics;
the spans are written under ``.bench_out/trace/``. Workloads are
described in ``workloads.py`` and ``BENCHMARK.json``.

The last line of standard output is the result::

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

Earlier lines give the per-kind latencies with their sample counts,
the abort and failure rates, and any answer-check errors.
"""

from __future__ import annotations

import argparse
import array
import json
import os
import signal
import statistics
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT_DIR = ".bench_out"
# Set-up is timed at least SETUP_MIN_REPEATS times, and further while
# the timed set-ups total under SETUP_MIN_SECONDS (cheap set-ups are
# repeated more, so their median is not one scheduler hiccup).
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 25
SETUP_MIN_SECONDS = 1.0
SLICES = 10


class Samples:
    """One load thread's latency and completion samples, preallocated so
    recording allocates nothing inside the timed window."""

    def __init__(self, capacity: int) -> None:
        self.lat = array.array("q", bytes(8 * capacity))
        self.end = array.array("q", bytes(8 * capacity))
        self.kind = bytearray(capacity)
        self.n = 0


class LoadThread:
    """Counters of one closed-loop load thread."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.first_error = ""
        self.elapsed_ns = 0


def drive(workload, dep, thread, start, stop, deadline_ns, samples, load, tracer=None):
    """Run ops ``start..stop`` of *thread* closed-loop until *deadline_ns*."""
    step = workload.step
    clock = time.perf_counter_ns
    began = clock()
    i = start
    while i < stop:
        if tracer is not None:
            tracer.set_op(i)
        load.attempted += 1
        try:
            t0, t1, kind = step(dep, thread, i)
        except Exception as exc:  # counted as a failed op, not a crash
            load.failed += 1
            if not load.first_error:
                load.first_error = f"op {i}: {type(exc).__name__}: {exc}"
            t1 = clock()
        else:
            if samples is not None:
                n = samples.n
                samples.lat[n] = t1 - t0
                samples.end[n] = t1
                samples.kind[n] = kind
                samples.n = n + 1
        i += 1
        if t1 >= deadline_ns:
            break
    load.elapsed_ns += clock() - began


def run_threads(workload, dep, start, stop, deadline_ns, samples, loads, tracer=None):
    """Drive every load thread of *workload*; re-raise a loop crash."""
    if workload.threads == 1:
        drive(workload, dep, 0, start, stop, deadline_ns, samples[0], loads[0], tracer)
        return
    crashes = []

    def body(t: int) -> None:
        try:
            drive(workload, dep, t, start, stop, deadline_ns, samples[t], loads[t], tracer)
        except BaseException as exc:  # re-raised on the main thread
            crashes.append(exc)

    threads = [
        # Daemon threads, so an interrupted run can exit at once.
        threading.Thread(target=body, args=(t,), name=f"load-{t}", daemon=True)
        for t in range(workload.threads)
    ]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    if crashes:
        raise crashes[0]


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, int(round(q * len(sorted_values))) - 1))
    return float(sorted_values[rank])


def slice_stats(lat, ends, kinds, start_ns: int, stop_ns: int, abort_kind: int):
    """Per-slice throughput, goodput, p50, p90 and p99 over *SLICES* equal parts
    of the window. The metrics are medians over the slices, so a burst of
    interference from outside the program moves one slice, not the result."""
    width = (stop_ns - start_ns) / SLICES
    buckets = [[] for _ in range(SLICES)]
    good = [0] * SLICES
    for v, t, k in zip(lat, ends, kinds):
        b = min(SLICES - 1, int((t - start_ns) / width))
        buckets[b].append(v)
        good[b] += k != abort_kind
    seconds = width / 1e9
    rows = []
    for bucket, g in zip(buckets, good):
        bucket.sort()
        rows.append((
            len(bucket) / seconds,
            g / seconds,
            percentile(bucket, 0.5) / 1e3,
            percentile(bucket, 0.9) / 1e3,
            percentile(bucket, 0.99) / 1e3,
        ))
    return rows


def workdir(name: str, n: int) -> str:
    return os.path.join(OUT_DIR, "work", f"{name}-{os.getpid()}-{n}")


def setup_timed(workload, transport, n: int):
    from workloads import default_transport

    if transport is None:
        transport = default_transport(workload)
    t0 = time.perf_counter()
    dep = workload.setup(transport, workdir(workload.name, n))
    return dep, time.perf_counter() - t0


def warm_up(workload, dep, loads) -> None:
    run_threads(
        workload, dep, 0, workload.warmup, float("inf"),
        [None] * workload.threads, loads,
    )


def checked(workload, dep) -> None:
    """Run the final answer check; a crash in it is an answer error."""
    try:
        workload.check(dep)
    except Exception as exc:
        dep.error(f"answer check raised {type(exc).__name__}: {exc}")


def timed_run(cls, seed: int, seconds: float):
    """Untraced run: the end-to-end metrics."""
    from workloads import ABORT, KIND_NAMES, rss_bytes

    workload = cls(seed, seconds)
    loads = [LoadThread() for _ in range(workload.threads)]
    samples = [Samples(workload.capacity) for _ in range(workload.threads)]
    setups = []
    dep, took = setup_timed(workload, None, 0)
    setups.append(took)
    try:
        warm_up(workload, dep, loads)
        rss0 = rss_bytes()
        start = time.perf_counter_ns()
        run_threads(
            workload, dep, workload.warmup, workload.ops_per_thread,
            start + int(seconds * 1e9), samples, loads,
        )
        rss1 = rss_bytes()
        checked(workload, dep)
    finally:
        workload.close(dep)
    # Set-up is repeated after the run, on fresh deployments that are
    # torn down at once, so the measured run starts from one clean
    # set-up and the memory it frees does not flatter the run's growth.
    while len(setups) < SETUP_MIN_REPEATS or (
        sum(setups) < SETUP_MIN_SECONDS and len(setups) < SETUP_MAX_REPEATS
    ):
        extra, took = setup_timed(workload, None, len(setups))
        setups.append(took)
        workload.close(extra)

    lat, ends, kinds = [], [], []
    for s in samples:
        lat.extend(s.lat[: s.n])
        ends.extend(s.end[: s.n])
        kinds.extend(s.kind[: s.n])
    done = len(lat)
    if done == 0:
        raise RuntimeError(f"no operation of {workload.name} completed")
    stop = max(ends)
    rows = slice_stats(lat, ends, kinds, start, stop, ABORT)
    attempted = sum(ld.attempted for ld in loads)
    failed = sum(ld.failed for ld in loads)

    report = [
        f"{workload.name}: seed={seed} window={(stop - start) / 1e9:.3f}s "
        f"ops={done} ran_out_of_inputs={done >= workload.capacity * workload.threads}",
        f"  setup_s runs: {', '.join(f'{t:.4f}' for t in setups)}",
        f"  ops_per_s by slice: {', '.join(f'{r[0]:.0f}' for r in rows)}",
        f"  p50_us by slice: {', '.join(f'{r[2]:.1f}' for r in rows)}",
        f"  p90_us by slice: {', '.join(f'{r[3]:.1f}' for r in rows)}",
        f"  p99_us by slice: {', '.join(f'{r[4]:.1f}' for r in rows)}",
    ]
    for kind, label in KIND_NAMES.items():
        sel = sorted(v for v, k in zip(lat, kinds) if k == kind)
        if sel:
            report.append(
                f"  {label}: samples={len(sel)} p50_us={percentile(sel, 0.5) / 1e3:.2f} "
                f"p99_us={percentile(sel, 0.99) / 1e3:.2f}"
            )
    if dep.commits or dep.aborts:
        report.append(
            f"  abort_rate={dep.aborts / (dep.commits + dep.aborts):.4f} "
            f"(commits={dep.commits} aborts={dep.aborts}, warm-up included)"
        )
    report.append(f"  failed_frac={failed / max(1, attempted):.6f}")
    for ld in loads:
        if ld.first_error:
            report.append(f"  first failure: {ld.first_error}")

    def median_of(column: int) -> float:
        return statistics.median(r[column] for r in rows)

    metrics = {
        "ops_per_s": (median_of(0), "1/s"),
        "goodput_per_s": (median_of(1), "1/s"),
        "p50_us": (median_of(2), "us"),
        "p90_us": (median_of(3), "us"),
        "setup_s": (statistics.median(setups), "s"),
        "mem_bytes_per_op": (max(rss1 - rss0, 0) / done, "B/op"),
    }
    report.append(
        f"  samples: {done} ops in {SLICES} slices; p50_us and p90_us are "
        f"medians of the per-slice percentiles; p99_us (not a gated metric, "
        f"too noisy on a shared host) median {median_of(4):.1f}"
    )
    return dep.errors, attempted, failed, metrics, report


def traced_run(cls, seed: int, seconds: float):
    """Traced run: the per-layer metrics (and the cost of tracing)."""
    from tracing import (
        Tracer,
        TracingLoopbackTransport,
        TracingSocketTransport,
        instrument_nodes,
        instrument_runtime,
        layer_metrics,
    )
    from workloads import VALUE_BYTES, WireMix

    fixed = max(1, int(cls.trace_rate * seconds))
    workload = cls(seed, seconds, fixed_ops=fixed)
    stop = workload.ops_per_thread
    ops = fixed * workload.threads
    errors, attempted, failed = [], 0, 0

    # Phase 1: untraced, fresh deployment.
    loads = [LoadThread() for _ in range(workload.threads)]
    dep, _ = setup_timed(workload, None, 0)
    try:
        warm_up(workload, dep, loads)
        t0 = time.perf_counter_ns()
        run_threads(workload, dep, workload.warmup, stop, float("inf"),
                    [None] * workload.threads, loads)
        untraced_rate = ops / ((time.perf_counter_ns() - t0) / 1e9)
        checked(workload, dep)
    finally:
        workload.close(dep)
    errors += dep.errors
    attempted += sum(ld.attempted for ld in loads)
    failed += sum(ld.failed for ld in loads)

    # Phase 2: the same operations on a fresh deployment, traced.
    tracer = Tracer()
    if isinstance(workload, WireMix):
        transport = TracingSocketTransport(tracer)
    else:
        transport = TracingLoopbackTransport(tracer)
    loads = [LoadThread() for _ in range(workload.threads)]
    dep, _ = setup_timed(workload, transport, 1)
    try:
        warm_up(workload, dep, loads)
        for rt, maps in dep.views():
            instrument_runtime(tracer, rt, maps)
        if not isinstance(workload, WireMix):
            instrument_nodes(tracer, dep.cluster)
        clients = dep.clients()
        appends0 = sum(c.appends for c in clients)
        retries0 = sum(s["retries"] for s in transport.endpoint_stats().values())
        aborts0, puts0 = dep.aborts, dep.puts
        for ld in loads:
            ld.elapsed_ns = 0
        tracer.start()
        try:
            t0 = time.perf_counter_ns()
            run_threads(workload, dep, workload.warmup, stop, float("inf"),
                        [None] * workload.threads, loads, tracer)
            wall = time.perf_counter_ns() - t0
        finally:
            tracer.stop()
        traced_rate = ops / (wall / 1e9)
        traced_ns = sum(ld.elapsed_ns for ld in loads)
        retries = sum(s["retries"] for s in transport.endpoint_stats().values())
        metrics = layer_metrics(
            tracer,
            ops=ops,
            traced_wall_ns=traced_ns,
            overhead_ratio=untraced_rate / traced_rate,
            appends=sum(c.appends for c in clients) - appends0,
            user_bytes=(dep.puts - puts0) * VALUE_BYTES,
            client_retries=retries - retries0,
            aborts=dep.aborts - aborts0,
        )
        checked(workload, dep)
    finally:
        workload.close(dep)
    errors += dep.errors
    attempted += sum(ld.attempted for ld in loads)
    failed += sum(ld.failed for ld in loads)
    path = tracer.write(os.path.join(OUT_DIR, "trace"), workload.name)
    report = [
        f"{workload.name}: traced seed={seed} ops={ops} per phase "
        f"untraced={untraced_rate:.0f} ops/s traced={traced_rate:.0f} ops/s",
        f"  unattributed share of traced per-op time: "
        f"{metrics['trace.unattributed_us_per_op'][0] * ops / (traced_ns / 1e3):.4f}",
        f"  spans: {tracer.span_count()} written to {path}",
    ]
    for (layer, name), (calls, total, own) in sorted(tracer.totals().items()):
        report.append(
            f"  {layer:16s} {name:44s} calls={calls:8d} "
            f"self_us/op={own / 1e3 / ops:9.2f} total_us/op={total / 1e3 / ops:9.2f}"
        )
    return errors, attempted, failed, metrics, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"tangobench: the program's source is missing ({SRC})", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    cls = WORKLOADS.get(args.workload)
    if cls is None:
        print(f"tangobench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    # Turn SIGTERM into SystemExit, so the finally blocks that stop the
    # node processes of wire_mix run when the benchmark is killed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    run = traced_run if args.trace else timed_run
    errors, attempted, failed, metrics, report = run(cls, args.seed, args.seconds)
    for line in report:
        print(line)
    for message in errors[:20]:
        print(f"  ANSWER ERROR: {message}")
    if len(errors) > 20:
        print(f"  ... {len(errors) - 20} more answer errors")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
